(** The one level iterator of both engines.

    Seeks are implemented "via merging level iterators" (§3.4): the engine
    iterator merges the memtable with one of these per level.  A level is
    read through a {!view}: key-ordered, disjoint partitions, each a
    newest-first list of tables that may overlap.  A seek examines one
    partition, merging its tables; a scan concatenates partitions in key
    order.  Every level shape is a view:
    - the L0 pile and a tiered level are one partition ({!pile});
    - a leveled run is one partition per table ({!run});
    - an FLSM level is one partition per guard (the engine's guard view).

    Positioning a partition opens each member table through the table
    cache, calls [on_table] (the engine's per-sstable charge) and positions
    it.  With an [on_check] callback (seek filtering on), a seek skips
    every member whose largest key sorts before the target: it cannot
    hold a key the seek can observe, so it is never opened.  With
    a {!Pdb_simio.Probe} context, a partition's positionings form one
    probe session (label ["guard"]; nested inside an engine seek session it
    folds into the outer one), each table measured so the independent
    reads overlap up to the device's budget while modeled CPU stays
    serialized.  A session of at most one member is unobservable, so a
    partition of fewer than two members opens none.

    The view is taken at every [seek] and [seek_to_first]: an engine whose
    level changes hands over views that later changes leave alone (FLSM
    guard arrays are copy-on-write), so another reader's compaction cannot
    shift a positioned iterator, while a seek still sees a compaction it
    triggered itself.

    Allocation: the iterator keeps one table cursor per member slot and
    re-points them at each positioning, merging a partition's members in
    place over that array.  Positioning allocates only the keys of the
    entries the cursors land on, and a cursor the first time a slot is
    needed; an empty partition costs nothing at all. *)

module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module Probe = Pdb_simio.Probe

(** How a view reads its partitions of type ['p]. *)
type 'p layout = {
  tables : 'p -> Table.meta list;  (** the members, newest first *)
  locate : 'p array -> string -> int;
      (** internal key -> the first partition a seek to it examines *)
}

(** Key-ordered, disjoint partitions and the layout that reads them.  A
    view is immutable: an engine hands over the partitions as they stand,
    and later changes to its level leave them alone. *)
type view = View : 'p layout * 'p array -> view

let pile_layout = { tables = Fun.id; locate = (fun _ _ -> 0) }

(** [pile tables] is one partition of possibly overlapping tables (L0, a
    tiered level), newest first. *)
let pile tables = View (pile_layout, [| tables |])

let empty = pile []

(* A run's partitions are one-table lists, built once per view. *)
let run_layout =
  let first = function
    | (m : Table.meta) :: _ -> m
    | [] -> invalid_arg "Level_iter.run: empty partition"
  in
  {
    tables = Fun.id;
    locate =
      (fun parts target ->
        let lo = ref 0 and hi = ref (Array.length parts) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Ik.compare (first parts.(mid)).Table.largest target < 0 then
            lo := mid + 1
          else hi := mid
        done;
        !lo);
  }

(** [run files] is a sorted run of disjoint tables, one partition each; a
    seek starts at the first table whose largest key is >= the target. *)
let run (files : Table.meta array) =
  View (run_layout, Array.map (fun m -> [ m ]) files)

type t = {
  on_check : (skipped:bool -> unit) option;  (** [Some] when filtering *)
  probe : Probe.ctx option;
  cache : Table_cache.t;
  block_cache : Block_cache.t;
  hint : Pdb_simio.Device.read_hint;
  on_table : unit -> unit;
  view_of : unit -> view;
  mutable view : view;  (** as of the latest seek *)
  mutable cur : int;  (** the partition positioned last *)
  mutable cursors : Table.iter array;
      (** [0, n) hold the positioned members of partition [cur] *)
  mutable n : int;
  mutable best : int;  (** the cursor on the smallest key; -1 when none *)
  (* the positioning in progress *)
  mutable seeking : bool;  (** to [target]; to the first key otherwise *)
  mutable target : string;
  mutable members : Table.meta list;
  mutable open_member : Table.meta -> unit;
  mutable position_members : unit -> unit;
}

(* A cursor on [reader] in slot [t.n]: the slot's own, re-pointed, or a
   new one when the partition has more members than any before it. *)
let cursor_for t reader =
  if t.n < Array.length t.cursors then begin
    let it = t.cursors.(t.n) in
    Table.repoint it reader;
    it
  end
  else begin
    let it = Table.iterator reader ~cache:t.block_cache ~hint:t.hint in
    t.cursors <- Array.append t.cursors [| it |];
    it
  end

let open_member t m =
  let it = cursor_for t (Table_cache.find t.cache m) in
  t.on_table ();
  if t.seeking then Table.seek it t.target else Table.seek_to_first it;
  t.n <- t.n + 1

(* Every member positioned while filtering is on counts one check, a
   first-key positioning too, where nothing can be skipped. *)
let skip t (m : Table.meta) =
  match t.on_check with
  | None -> false
  | Some on_check ->
    let skipped = t.seeking && Ik.compare m.Table.largest t.target < 0 in
    on_check ~skipped;
    skipped

let rec position_members t = function
  | [] -> ()
  | m :: rest ->
    if not (skip t m) then begin
      match t.probe with
      | Some ctx -> Probe.measure ctx t.open_member m
      | None -> open_member t m
    end;
    position_members t rest

(* The cursor on the smallest key; ties go to the lower slot, the newer
   table. *)
let pick t =
  let best = ref (-1) in
  for i = 0 to t.n - 1 do
    let it = t.cursors.(i) in
    if Table.valid it then
      if !best < 0 || Ik.compare (Table.key it) (Table.key t.cursors.(!best)) < 0
      then best := i
  done;
  t.best <- !best

(* Position every surviving member of partition [i]. *)
let position t layout parts i =
  t.cur <- i;
  t.n <- 0;
  t.members <- layout.tables parts.(i);
  (match (t.probe, t.members) with
   | Some ctx, _ :: _ :: _ ->
     Probe.with_session ctx ~label:"guard" t.position_members
   | _ -> position_members t t.members);
  t.members <- [];
  pick t

(* Position partition [i], then walk successors until a key turns up. *)
let rec start_in t layout parts i =
  if i >= Array.length parts then begin
    t.cur <- Array.length parts;
    t.n <- 0;
    t.best <- -1
  end
  else begin
    position t layout parts i;
    if t.best < 0 then begin
      t.seeking <- false;
      start_in t layout parts (i + 1)
    end
  end

let start t i =
  match t.view with View (layout, parts) -> start_in t layout parts i

let seek t target =
  t.view <- t.view_of ();
  t.seeking <- true;
  t.target <- target;
  match t.view with
  | View (layout, parts) -> start_in t layout parts (layout.locate parts target)

let seek_to_first t =
  t.view <- t.view_of ();
  t.seeking <- false;
  start t 0

let next t =
  if t.best >= 0 then begin
    Table.next t.cursors.(t.best);
    pick t;
    if t.best < 0 then begin
      t.seeking <- false;
      start t (t.cur + 1)
    end
  end

let current t =
  if t.best < 0 then invalid_arg "Level_iter: iterator is not valid"
  else t.cursors.(t.best)

let create ?on_check ?probe ~cache ~block_cache ~hint ~on_table view_of =
  let t =
    {
      on_check; probe; cache; block_cache; hint; on_table; view_of;
      view = empty; cur = -1; cursors = [||]; n = 0; best = -1;
      seeking = false; target = ""; members = [];
      open_member = ignore; position_members = ignore;
    }
  in
  (* one closure block for the whole set *)
  let[@warning "-39"] rec open_member' m = open_member t m
  and position_members' () = position_members t t.members
  and seek_to_first' () = seek_to_first t
  and seek' target = seek t target
  and next' () = next t
  and valid () = t.best >= 0
  and key () = Table.key (current t)
  and value () = Table.value (current t)
  and value_slice f = Table.value_slice (current t) f in
  t.open_member <- open_member';
  t.position_members <- position_members';
  {
    Iter.seek_to_first = seek_to_first';
    seek = seek';
    next = next';
    valid;
    key;
    value;
    value_slice;
  }
