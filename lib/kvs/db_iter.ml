(** Database iterator: turns a merged internal-key iterator into a user-key
    iterator, hiding tombstones and superseded versions (§2.2: "the latest
    version of the flag will be returned by the store").

    The internal iterator must yield entries in internal-key order (user
    key ascending, sequence descending), so the first entry seen for a user
    key is its freshest version. *)

(* The exposed entry: its user key [cur_key], with [internal] resting on
   its freshest visible version, whose value is read only when asked for.
   Entries above sequence number [snapshot] are invisible. *)
type state = {
  internal : Iter.t;
  snapshot : int;
  mutable valid : bool;
  mutable cur_key : string;
}

(* Advance [internal] until it rests on the freshest live *visible*
   version of a user key other than [s.cur_key] (any key when [skip] is
   false). *)
let rec find_next_user_entry s skip =
  s.valid <- false;
  let internal = s.internal in
  if internal.Iter.valid () then begin
    let ikey = internal.Iter.key () in
    if skip && Internal_key.user_key_equal ikey s.cur_key then begin
      internal.Iter.next ();
      find_next_user_entry s skip
    end
    else if Internal_key.seq ikey > s.snapshot then begin
      internal.Iter.next ();
      find_next_user_entry s skip
    end
    else begin
      s.cur_key <- Internal_key.user_key ikey;
      match Internal_key.kind ikey with
      | Internal_key.Deletion ->
        internal.Iter.next ();
        find_next_user_entry s true
      | Internal_key.Value -> s.valid <- true
    end
  end

let checked s =
  if not s.valid then invalid_arg "Db_iter: iterator is not valid"

(** [wrap ?snapshot internal] exposes the user-visible view at [snapshot]
    (a sequence number; entries newer than it are invisible) or, without
    it, the latest state.  [value ()] and [value_slice] read from
    [internal], which rests on the exposed entry, so [internal] must not
    be moved by anyone else. *)
let wrap ?(snapshot = max_int) (internal : Iter.t) =
  let s = { internal; snapshot; valid = false; cur_key = "" } in
  {
    Iter.seek_to_first =
      (fun () ->
        internal.Iter.seek_to_first ();
        find_next_user_entry s false);
    seek =
      (fun user_key ->
        internal.Iter.seek (Internal_key.max_for_lookup user_key);
        find_next_user_entry s false);
    next =
      (fun () ->
        if s.valid then begin
          internal.Iter.next ();
          find_next_user_entry s true
        end);
    valid = (fun () -> s.valid);
    key = (fun () -> checked s; s.cur_key);
    value = (fun () -> checked s; internal.Iter.value ());
    value_slice = (fun f -> checked s; internal.Iter.value_slice f);
  }
