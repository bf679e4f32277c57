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
    it.  With a {!Seek_filter} attached, members the filter proves
    disjoint from the probe range are never opened, and a bounded scan
    stops before any partition whose lower bound exceeds the bound.  With
    a {!Pdb_simio.Probe} context, a partition's positionings form one
    probe session (label ["guard"]; nested inside an engine seek session it
    folds into the outer one), each table measured so the independent
    reads overlap up to the device's budget while modeled CPU stays
    serialized.

    The view is taken at every [seek] and [seek_to_first]: an engine whose
    level changes in place (FLSM guards) hands over a fresh copy each time,
    so another reader's compaction cannot shift a positioned iterator,
    while a seek still sees a compaction it triggered itself. *)

module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module Probe = Pdb_simio.Probe

type view = {
  parts : Table.meta list array;
      (** key-ordered, disjoint partitions; each newest first *)
  lower : int -> string;
      (** user-key lower bound of partition [i] (the upper-bound stop) *)
  locate : string -> int;
      (** internal key -> the first partition a seek to it examines *)
}

(** [pile tables] is one partition of possibly overlapping tables (L0, a
    tiered level), newest first. *)
let pile tables =
  { parts = [| tables |]; lower = (fun _ -> ""); locate = (fun _ -> 0) }

let empty = pile []

(** [run files] is a sorted run of disjoint tables, one partition each; a
    seek starts at the first table whose largest key is >= the target. *)
let run (files : Table.meta array) =
  let n = Array.length files in
  {
    parts = Array.map (fun m -> [ m ]) files;
    lower = (fun i -> Ik.user_key files.(i).Table.smallest);
    locate =
      (fun target ->
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Ik.compare files.(mid).Table.largest target < 0 then
            lo := mid + 1
          else hi := mid
        done;
        !lo);
  }

let create ?(filter = Seek_filter.none) ?probe ~cache ~block_cache ~hint
    ~on_table (view_of : unit -> view) =
  (* the view as of the latest seek; empty before the first one *)
  let view = ref empty in
  let cur = ref (-1) in
  let merged = ref None in
  let measure f =
    match probe with Some ctx -> Probe.measure ctx f () | None -> f ()
  in
  (* Position every surviving table of partition [i]; [target = None] means
     first key. *)
  let position i target =
    cur := i;
    let open_member m =
      let skip =
        match target with
        | Some k -> Seek_filter.skip_seek filter m ~target:k
        | None -> Seek_filter.skip_first filter m
      in
      if skip then None
      else
        measure (fun () ->
          let reader = Table_cache.find cache m in
          let it = Table.iterator reader ~cache:block_cache ~hint in
          on_table ();
          (match target with
           | Some k -> it.Iter.seek k
           | None -> it.Iter.seek_to_first ());
          Some it)
    in
    let children () = List.filter_map open_member !view.parts.(i) in
    let children =
      match probe with
      | Some ctx -> Probe.with_session ctx ~label:"guard" children
      | None -> children ()
    in
    merged :=
      match children with
      | [] -> None
      | [ it ] -> Some it
      | cs ->
        Some
          (Pdb_kvs.Merging_iter.create ~positioned:true ~compare:Ik.compare cs)
  in
  (* the held option itself, so checking validity allocates nothing *)
  let current () =
    match !merged with
    | Some it as m when it.Iter.valid () -> m
    | Some _ | None -> None
  in
  (* a bounded scan stops before a partition whose every key is past the
     bound: its tables are never even examined *)
  let past_upper i =
    match Seek_filter.upper_user filter with
    | None -> false
    | Some up -> i > 0 && String.compare (!view.lower i) up > 0
  in
  (* position partition [i], then walk successors until a key turns up *)
  let rec start i target =
    if i >= Array.length !view.parts || past_upper i then begin
      cur := Array.length !view.parts;
      merged := None
    end
    else begin
      position i target;
      if Option.is_none (current ()) then start (i + 1) None
    end
  in
  let checked f () =
    match current () with
    | Some it -> f it
    | None -> invalid_arg "Level_iter: iterator is not valid"
  in
  {
    Iter.seek_to_first =
      (fun () ->
        view := view_of ();
        start 0 None);
    seek =
      (fun target ->
        view := view_of ();
        start (!view.locate target) (Some target));
    next =
      (fun () ->
        match current () with
        | Some it ->
          it.Iter.next ();
          if Option.is_none (current ()) then start (!cur + 1) None
        | None -> ());
    valid = (fun () -> Option.is_some (current ()));
    key = checked (fun it -> it.Iter.key ());
    value = checked (fun it -> it.Iter.value ());
    value_slice =
      (fun f ->
        match current () with
        | Some it -> it.Iter.value_slice f
        | None -> invalid_arg "Level_iter: iterator is not valid");
  }
