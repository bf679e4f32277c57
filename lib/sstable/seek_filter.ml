(** Read-path table filtering for seeks and bounded scans.

    A multi-table seek (a guard probe, a tiered run, the L0 pile) opens
    and positions every member table even when most provably cannot
    contribute: their key range ends before the target, starts after the
    scan's upper bound, or — for prefix-bounded scans — their prefix bloom
    proves the probed prefix absent.  This module centralises those three
    checks; {!Level_iter} applies them to every member it positions
    (DESIGN.md "Read path").

    Soundness: a table is skipped only when the check proves it disjoint
    from the probe range [target, upper]:
    - [largest < target] — every entry sorts before the first key any
      consumer of the positioned iterator can observe;
    - [user_key smallest > upper] — every entry sorts after the last key
      the (upper-clamped) engine iterator will yield;
    - prefix bloom — when [target] and [upper] share a full
      [prefix_bloom_len]-byte prefix, every user key in [target, upper]
      carries that prefix, so a filter-certified absent prefix certifies
      the whole range absent.  Bloom filters have no false negatives for
      recorded prefixes, so the certificate is exact.

    Filtering consults only metadata and already-resident readers
    ([peek] must not perform IO to produce one) — skipping a table costs
    nothing and never changes which keys a correct consumer observes. *)

module Ik = Pdb_kvs.Internal_key

type t = {
  filtering : bool;
  upper_user : string option; (* inclusive user-key scan bound *)
  peek : Table.meta -> Table.reader option;
  on_check : skipped:bool -> unit;
}

let create ?upper_user ~filtering ~peek ~on_check () =
  { filtering; upper_user; peek; on_check }

let none =
  {
    filtering = false;
    upper_user = None;
    peek = (fun _ -> None);
    on_check = (fun ~skipped:_ -> ());
  }

let upper_user t = t.upper_user

(* Table entirely above the scan's upper bound. *)
let above_upper t (m : Table.meta) =
  match t.upper_user with
  | None -> false
  | Some up -> Ik.compare_user_key m.Table.smallest up > 0

(* Whether user key [up] and the user key of internal key [target] both
   start with the same [pl] bytes, compared in place. *)
let same_prefix target up pl =
  String.length target - Ik.trailer_size >= pl
  && String.length up >= pl
  &&
  let i = ref 0 in
  while !i < pl && target.[!i] = up.[!i] do
    incr i
  done;
  !i = pl

(* Prefix-bloom refinement: only meaningful when the whole probe range
   shares the table's full prefix length. *)
let prefix_absent t (m : Table.meta) ~target =
  match t.upper_user with
  | None -> false
  | Some up -> (
    match t.peek m with
    | None -> false
    | Some r ->
      let pl = Table.prefix_len r in
      pl > 0
      && same_prefix target up pl
      && not (Table.may_contain_prefix r (String.sub up 0 pl)))

(** [skip_seek t m ~target] decides whether a seek to internal key
    [target] may skip table [m] entirely.  It allocates nothing, except
    the filter probe of a prefix-bounded scan. *)
let skip_seek t (m : Table.meta) ~target =
  if not t.filtering then false
  else begin
    let skipped =
      Ik.compare m.Table.largest target < 0
      || above_upper t m
      || prefix_absent t m ~target
    in
    t.on_check ~skipped;
    skipped
  end

(** [skip_first t m] decides whether a seek-to-first may skip table [m]
    (possible only under an upper bound). *)
let skip_first t (m : Table.meta) =
  if not t.filtering then false
  else begin
    let skipped = above_upper t m in
    t.on_check ~skipped;
    skipped
  end
