(** K-way merging iterator.

    Both LSM and FLSM database iterators are implemented "via merging level
    iterators" (§3.4); in FLSM the level iterators are themselves merges of
    the sstable iterators inside the guard of interest.  The merge picks the
    smallest current key among children by the supplied comparator; ties are
    broken by child index, so callers must order children newest-first when
    duplicate keys across children are possible.

    Creating a merge allocates its state and its closures, nothing per
    child; its moves allocate nothing beyond what the children do. *)

type state = {
  children : Iter.t array;
  compare : string -> string -> int;
  mutable current : int;  (** the child on the smallest key; -1 when none *)
}

let find_smallest s =
  let best = ref (-1) in
  for i = 0 to Array.length s.children - 1 do
    let it = s.children.(i) in
    if it.Iter.valid () then
      if !best < 0 then best := i
      else if s.compare (it.Iter.key ()) (s.children.(!best).Iter.key ()) < 0
      then best := i
  done;
  s.current <- !best

let current s =
  if s.current < 0 then invalid_arg "Merging_iter: iterator is not valid"
  else s.children.(s.current)

let seek s target =
  for i = 0 to Array.length s.children - 1 do
    s.children.(i).Iter.seek target
  done;
  find_smallest s

(** [merge ~compare children] is the state of a merge over [children];
    {!to_iter} moves it, and {!current_index} names the child it rests
    on. *)
let merge ~compare children = { children; compare; current = -1 }

(** [current_index s] is the index in [children] of the child on the
    merge's current entry; -1 when the merge is not valid. *)
let current_index s = s.current

let to_iter s =
  {
    Iter.seek_to_first =
      (fun () ->
        Array.iter (fun (it : Iter.t) -> it.seek_to_first ()) s.children;
        find_smallest s);
    seek = seek s;
    next =
      (fun () ->
        (current s).Iter.next ();
        find_smallest s);
    valid = (fun () -> s.current >= 0);
    key = (fun () -> (current s).Iter.key ());
    value = (fun () -> (current s).Iter.value ());
    value_slice = (fun f -> (current s).Iter.value_slice f);
  }

let create ~compare children =
  to_iter (merge ~compare (Array.of_list children))
