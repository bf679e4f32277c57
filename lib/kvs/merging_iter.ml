(** K-way merging iterator.

    Both LSM and FLSM database iterators are implemented "via merging level
    iterators" (§3.4); in FLSM the level iterators are themselves merges of
    the sstable iterators inside the guard of interest.  The merge picks the
    smallest current key among children by the supplied comparator; ties are
    broken by child index, so callers must order children newest-first when
    duplicate keys across children are possible. *)

let create ?(positioned = false) ~compare children =
  let children = Array.of_list children in
  let n = Array.length children in
  let current = ref (-1) in
  let find_smallest () =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      let it : Iter.t = children.(i) in
      if it.valid () then
        if !best < 0 then best := i
        else begin
          let c = compare (it.key ()) (children.(!best).Iter.key ()) in
          if c < 0 then best := i
        end
    done;
    current := !best
  in
  let with_current f =
    if !current < 0 then invalid_arg "Merging_iter: iterator is not valid"
    else f children.(!current)
  in
  (* [positioned] children were already individually sought by the caller
     (e.g. measured parallel seeks); adopt their positions directly. *)
  if positioned then find_smallest ();
  {
    Iter.seek_to_first =
      (fun () ->
        Array.iter (fun (it : Iter.t) -> it.seek_to_first ()) children;
        find_smallest ());
    seek =
      (fun target ->
        Array.iter (fun (it : Iter.t) -> it.seek target) children;
        find_smallest ());
    next =
      (fun () ->
        with_current (fun (it : Iter.t) -> it.next ());
        find_smallest ());
    valid = (fun () -> !current >= 0);
    key = (fun () -> with_current (fun (it : Iter.t) -> it.key ()));
    value = (fun () -> with_current (fun (it : Iter.t) -> it.value ()));
    value_slice =
      (fun f ->
        if !current < 0 then invalid_arg "Merging_iter: iterator is not valid"
        else children.(!current).Iter.value_slice f);
  }
