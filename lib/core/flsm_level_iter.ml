(** Iterator over one FLSM level.

    Within a guard the sstables may overlap, so the guard's tables are
    merged; across guards the ranges are disjoint and sorted, so the
    iterator concatenates guard merges in order.  Empty guards are skipped
    (the paper notes reads "skip over empty guards", §3.3).

    A guard probe is the FLSM's read-cost hot spot: a seek must position
    every table of the target guard (§3.4).  Two read-path optimisations
    apply here:
    - a {!Pdb_sstable.Seek_filter} skips guard members whose key range or
      prefix bloom proves them disjoint from the probe range, so they are
      never opened;
    - a {!Pdb_simio.Probe} context brackets the guard probe in a session
      (label ["guard"]; nested inside an engine seek session it folds into
      the outer one), measuring each surviving table's positioning cost so
      the independent reads overlap up to the device's parallel-probe
      budget while the modeled CPU stays serialized.

    Compaction moves tables between guards in place, so the iterator walks
    its own copy of the guard array, taken at every [seek] and
    [seek_to_first]: another reader's seek compaction cannot shift a
    positioned iterator, while a seek still sees any compaction it
    triggered itself. *)

module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module Table = Pdb_sstable.Table
module Seek_filter = Pdb_sstable.Seek_filter
module Probe = Pdb_simio.Probe

let create ?(filter = Seek_filter.none) ?probe ~(level : Guard.level) ~cache
    ~block_cache ~hint ~on_table () =
  (* the guards as of the latest seek; never read before the first one *)
  let view = ref level in
  let refresh () =
    view :=
      {
        Guard.guards =
          Array.map
            (fun (g : Guard.guard) -> { g with Guard.tables = g.Guard.tables })
            level.Guard.guards;
      }
  in
  let nguards () = Array.length !view.Guard.guards in
  let cur_guard = ref (-1) in
  let merged = ref None in
  let measure f =
    match probe with Some ctx -> Probe.measure ctx f | None -> f ()
  in
  (* Position every surviving table of guard [gi]; [target = None] means
     first key. *)
  let position_guard gi target =
    cur_guard := gi;
    let tables = !view.Guard.guards.(gi).Guard.tables in
    match tables with
    | [] -> merged := None
    | _ ->
      let children = ref [] in
      let probe_tables () =
        List.iter
          (fun m ->
            let skip =
              match target with
              | Some k -> Seek_filter.skip_seek filter m ~target:k
              | None -> Seek_filter.skip_first filter m
            in
            if not skip then
              measure (fun () ->
                let reader = Pdb_sstable.Table_cache.find cache m in
                let it = Table.iterator reader ~cache:block_cache ~hint in
                on_table ();
                (match target with
                 | Some k -> it.Iter.seek k
                 | None -> it.Iter.seek_to_first ());
                children := it :: !children))
          tables
      in
      (match probe with
       | Some ctx -> Probe.with_session ctx ~label:"guard" probe_tables
       | None -> probe_tables ());
      merged :=
        (match !children with
         | [] -> None
         | cs ->
           Some
             (Pdb_kvs.Merging_iter.create ~positioned:true ~compare:Ik.compare
                cs))
  in
  let current () =
    match !merged with
    | Some it when it.Iter.valid () -> Some it
    | Some _ | None -> None
  in
  (* A bounded scan stops walking guards once a guard's key exceeds the
     upper bound — every key it owns is provably out of range. *)
  let guard_past_upper gi =
    match Seek_filter.upper_user filter with
    | None -> false
    | Some up ->
      gi > 0 && String.compare !view.Guard.guards.(gi).Guard.gkey up > 0
  in
  let rec skip_empty_forward () =
    match current () with
    | Some _ -> ()
    | None ->
      if !cur_guard >= 0 && !cur_guard + 1 < nguards () then
        if guard_past_upper (!cur_guard + 1) then begin
          cur_guard := nguards ();
          merged := None
        end
        else begin
          position_guard (!cur_guard + 1) None;
          skip_empty_forward ()
        end
  in
  {
    Iter.seek_to_first =
      (fun () ->
        refresh ();
        if nguards () = 0 then merged := None
        else begin
          position_guard 0 None;
          skip_empty_forward ()
        end);
    seek =
      (fun target ->
        refresh ();
        let uk = Ik.user_key target in
        let gi = Guard.guard_index !view uk in
        position_guard gi (Some target);
        skip_empty_forward ());
    next =
      (fun () ->
        (match current () with
         | Some it -> it.Iter.next ()
         | None -> ());
        skip_empty_forward ());
    valid = (fun () -> Option.is_some (current ()));
    key =
      (fun () ->
        match current () with
        | Some it -> it.Iter.key ()
        | None -> invalid_arg "Flsm_level_iter: iterator is not valid");
    value =
      (fun () ->
        match current () with
        | Some it -> it.Iter.value ()
        | None -> invalid_arg "Flsm_level_iter: iterator is not valid");
  }
