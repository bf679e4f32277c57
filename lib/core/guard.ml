(** Guards: the organising structure of the Fragmented LSM (§3.1).

    A guard [G_i] with key [K_i] owns every sstable whose keys fall in
    [K_i, K_{i+1}).  Guards within a level never overlap, but the sstables
    *inside* a guard may — that is the relaxation of the classical LSM
    invariant that lets FLSM append compaction output instead of rewriting
    it.  Each level's guard array starts with the sentinel guard (key "")
    that owns keys smaller than the first real guard.

    Structural invariants maintained here and checked by
    {!Pebbles_store.check_invariants}:
    - [guards.(0)] is the sentinel; keys strictly ascend across the array;
    - every table attached to a guard lies entirely inside the guard's
      range (no straddlers — enforced at compaction/commit time);
    - tables are listed newest-first, so a get() can stop at the first
      bloom-confirmed hit.

    Guards are copy-on-write: a guard record never changes, and every
    change to a level installs a fresh guard array.  The array a reader
    took is therefore a snapshot that later compactions leave alone. *)

module Ik = Pdb_kvs.Internal_key
module Table = Pdb_sstable.Table

type guard = {
  gkey : string; (* user key; "" for the sentinel *)
  tables : Table.meta list; (* newest first *)
}

type level = { mutable guards : guard array }

let sentinel () = { gkey = ""; tables = [] }

let create_level () = { guards = [| sentinel () |] }

(** [guard_index level key] is the index of the guard owning user [key]:
    the last guard whose key is <= [key] (always >= 0 thanks to the
    sentinel). *)
let guard_index level key =
  let g = level.guards in
  let lo = ref 0 and hi = ref (Array.length g - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if String.compare g.(mid).gkey key <= 0 then lo := mid else hi := mid - 1
  done;
  !lo

(** [locate guards ikey] is the index in [guards] of the guard owning the
    user key of internal key [ikey], compared in place. *)
let locate guards ikey =
  let lo = ref 0 and hi = ref (Array.length guards - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Ik.compare_user_key ikey guards.(mid).gkey >= 0 then lo := mid
    else hi := mid - 1
  done;
  !lo

(** [guard_range level i] is the key range [lo, hi) of guard [i]; [hi] is
    [None] for the last guard. *)
let guard_range level i =
  let g = level.guards in
  let hi = if i + 1 < Array.length g then Some g.(i + 1).gkey else None in
  (g.(i).gkey, hi)

(** [table_fits level i (m : Table.meta)] tests whether [m]'s user-key range
    lies entirely inside guard [i]. *)
let table_fits level i (m : Table.meta) =
  let lo, hi = guard_range level i in
  let s = Ik.user_key m.Table.smallest and l = Ik.user_key m.Table.largest in
  String.compare lo s <= 0
  && (match hi with None -> true | Some h -> String.compare l h < 0)

(** [straddles level key (m : Table.meta)] is true when [m]'s range contains
    keys both < [key] and >= [key] — such a table must be compacted away
    before [key] can become a guard of this level. *)
let straddles key (m : Table.meta) =
  String.compare (Ik.user_key m.Table.smallest) key < 0
  && String.compare (Ik.user_key m.Table.largest) key >= 0

(* [prepend guards m] puts [m] at the newest end of the guard owning its
   smallest key, in [guards], a fresh array not yet installed; it returns
   that guard's index. *)
let prepend guards (m : Table.meta) =
  let i = guard_index { guards } (Ik.user_key m.Table.smallest) in
  guards.(i) <- { (guards.(i)) with tables = m :: guards.(i).tables };
  i

(** [attach level m] prepends table [m] to its guard (newest first).
    Asserts the no-straddler invariant. *)
let attach level (m : Table.meta) =
  let guards = Array.copy level.guards in
  let i = prepend guards m in
  assert (table_fits level i m);
  level.guards <- guards

(** [detach level numbers] removes the tables whose file numbers are in
    [numbers] from every guard. *)
let detach level numbers =
  let doomed (m : Table.meta) = List.mem m.Table.number numbers in
  level.guards <-
    Array.map
      (fun g ->
        if List.exists doomed g.tables then
          { g with tables = List.filter (fun m -> not (doomed m)) g.tables }
        else g)
      level.guards

(** [commit_guards level keys] splices new guard [keys] into the level,
    redistributing each affected guard's tables (which, after straddler
    removal, each fit wholly on one side of every new key).  One pass: a
    key already committed is found by binary search, the sorted fresh
    keys merge into the guard array, a guard no fresh key splits keeps
    its record, and only a split guard's tables are placed again. *)
let commit_guards level keys =
  let old = level.guards in
  let fresh =
    List.filter
      (fun k -> k <> "" && not (String.equal old.(guard_index level k).gkey k))
      keys
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let n = Array.length old and nf = Array.length fresh in
  if nf > 0 then begin
    let guards = Array.make (n + nf) old.(0) in
    (* [below_next i k] : [k] sorts before old guard [i]'s successor *)
    let below_next i k = i + 1 = n || String.compare k old.(i + 1).gkey < 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let g = old.(i) in
      let first = i + !j in
      guards.(first) <- g;
      while !j < nf && below_next i fresh.(!j) do
        guards.(i + !j + 1) <- { gkey = fresh.(!j); tables = [] };
        incr j
      done;
      let last = i + !j in
      if last > first && g.tables <> [] then begin
        (* [g] is split into [first .. last]: each of its tables goes to
           the part its smallest key falls in, oldest first so that every
           part stays newest first, and must end before the next part *)
        guards.(first) <- { g with tables = [] };
        let place (m : Table.meta) =
          let lo = ref first and hi = ref last in
          while !lo < !hi do
            let mid = (!lo + !hi + 1) / 2 in
            if Ik.compare_user_key m.Table.smallest guards.(mid).gkey >= 0
            then lo := mid
            else hi := mid - 1
          done;
          let k = !lo in
          (* the last part ends where [g] did, which [m] already fits *)
          if
            k < last
            && Ik.compare_user_key m.Table.largest guards.(k + 1).gkey >= 0
          then failwith "Guard.commit_guards: straddling table";
          guards.(k) <- { (guards.(k)) with tables = m :: guards.(k).tables }
        in
        List.iter place (List.rev g.tables)
      end
    done;
    level.guards <- guards
  end

(** [delete_guard level key] removes guard [key], folding its tables into
    the preceding guard (asynchronous guard deletion, §3.3). *)
let delete_guard level key =
  match
    Array.to_list level.guards
    |> List.partition (fun g -> String.equal g.gkey key)
  with
  | [], _ -> ()
  | doomed, kept ->
    let kept = Array.of_list kept in
    let orphans = List.concat_map (fun g -> g.tables) doomed in
    (* predecessor guard absorbs the orphans (ranges stay sorted since the
       predecessor's range now extends to the next remaining guard) *)
    List.iter (fun m -> ignore (prepend kept m)) (List.rev orphans);
    level.guards <- kept

let all_tables level =
  Array.to_list level.guards |> List.concat_map (fun g -> g.tables)

let table_count level =
  Array.fold_left (fun acc g -> acc + List.length g.tables) 0 level.guards

let bytes level =
  Array.fold_left
    (fun acc g ->
      acc
      + List.fold_left
          (fun a (m : Table.meta) -> a + m.Table.file_size)
          0 g.tables)
    0 level.guards

let guard_count level = Array.length level.guards - 1 (* excluding sentinel *)

let empty_guard_count level =
  Array.fold_left
    (fun acc g -> if g.gkey <> "" && g.tables = [] then acc + 1 else acc)
    0 level.guards

(** Modeled in-memory footprint of the guard metadata (Table 5.4). *)
let metadata_bytes level =
  Array.fold_left
    (fun acc g ->
      acc + String.length g.gkey + 48 + (16 * List.length g.tables))
    0 level.guards
