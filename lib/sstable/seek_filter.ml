(** Read-path table filtering for seeks and bounded scans.

    A multi-table seek (a guard probe, a tiered run, the L0 pile) opens
    and positions every member table even when most provably cannot
    contribute: their key range ends before the target, or starts after
    the scan's upper bound.  This module centralises those two checks;
    {!Level_iter} applies them to every member it positions (DESIGN.md
    "Read path").

    Soundness: a table is skipped only when the check proves it disjoint
    from the probe range [target, upper]:
    - [largest < target] — every entry sorts before the first key any
      consumer of the positioned iterator can observe;
    - [user_key smallest > upper] — every entry sorts after the last key
      the (upper-clamped) engine iterator will yield.

    Filtering consults only table metadata — skipping a table costs
    nothing and never changes which keys a correct consumer observes. *)

module Ik = Pdb_kvs.Internal_key

type t = {
  filtering : bool;
  upper_user : string option; (* inclusive user-key scan bound *)
  on_check : skipped:bool -> unit;
}

let create ?upper_user ~filtering ~on_check () =
  { filtering; upper_user; on_check }

let none =
  {
    filtering = false;
    upper_user = None;
    on_check = (fun ~skipped:_ -> ());
  }

let upper_user t = t.upper_user

(* Table entirely above the scan's upper bound. *)
let above_upper t (m : Table.meta) =
  match t.upper_user with
  | None -> false
  | Some up -> Ik.compare_user_key m.Table.smallest up > 0

(** [skip_seek t m ~target] decides whether a seek to internal key
    [target] may skip table [m] entirely.  It allocates nothing. *)
let skip_seek t (m : Table.meta) ~target =
  if not t.filtering then false
  else begin
    let skipped =
      Ik.compare m.Table.largest target < 0 || above_upper t m
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
