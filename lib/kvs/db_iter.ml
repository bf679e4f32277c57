(** Database iterator: turns a merged internal-key iterator into a user-key
    iterator, hiding tombstones and superseded versions (§2.2: "the latest
    version of the flag will be returned by the store").

    The internal iterator must yield entries in internal-key order (user
    key ascending, sequence descending), so the first entry seen for a user
    key is its freshest version. *)

(** [wrap ?snapshot internal] exposes the user-visible view at [snapshot]
    (a sequence number; entries newer than it are invisible) or, without
    it, the latest state.  [value ()] and [value_slice] read from
    [internal], which rests on the exposed entry, so [internal] must not
    be moved by anyone else. *)
let wrap ?snapshot (internal : Iter.t) =
  let visible ikey =
    match snapshot with
    | None -> true
    | Some seq -> Internal_key.seq ikey <= seq
  in
  (* The exposed entry: its user key, with [internal] resting on its
     freshest visible version, whose value is read only when asked for. *)
  let valid = ref false in
  let cur_key = ref "" in
  (* Advance [internal] until it rests on the freshest live *visible*
     version of a user key other than [!cur_key] (any key when [skip] is
     false). *)
  let rec find_next_user_entry skip =
    valid := false;
    if internal.Iter.valid () then begin
      let ikey = internal.Iter.key () in
      if skip && Internal_key.user_key_equal ikey !cur_key then begin
        internal.Iter.next ();
        find_next_user_entry skip
      end
      else if not (visible ikey) then begin
        internal.Iter.next ();
        find_next_user_entry skip
      end
      else begin
        cur_key := Internal_key.user_key ikey;
        match Internal_key.kind ikey with
        | Internal_key.Deletion ->
          internal.Iter.next ();
          find_next_user_entry true
        | Internal_key.Value -> valid := true
      end
    end
  in
  let checked f () =
    if !valid then f () else invalid_arg "Db_iter: iterator is not valid"
  in
  {
    Iter.seek_to_first =
      (fun () ->
        internal.Iter.seek_to_first ();
        find_next_user_entry false);
    seek =
      (fun user_key ->
        internal.Iter.seek (Internal_key.max_for_lookup user_key);
        find_next_user_entry false);
    next =
      (fun () ->
        if !valid then begin
          internal.Iter.next ();
          find_next_user_entry true
        end);
    valid = (fun () -> !valid);
    key = checked (fun () -> !cur_key);
    value = checked internal.Iter.value;
    value_slice =
      (fun f ->
        if !valid then internal.Iter.value_slice f
        else invalid_arg "Db_iter: iterator is not valid");
  }
