(** Memtable: the in-memory buffer of recent writes.

    A skip list keyed by encoded internal keys (§2.2).  Writes append
    entries with fresh sequence numbers; when [approximate_bytes] exceeds
    the configured memtable size the engine freezes it and flushes it to a
    level-0 sstable. *)

type t = {
  list : (string, string) Pdb_skiplist.Skiplist.t;
  mutable bytes : int;
  mutable entries : int;
}

(* Memtable node overhead, modeled after LevelDB's arena accounting. *)
let per_entry_overhead = 24

let create () =
  {
    list =
      Pdb_skiplist.Skiplist.create ~compare:Internal_key.compare
        (Internal_key.encode ~user_key:"" ~seq:0 ~kind:Internal_key.Value)
        "";
    bytes = 0;
    entries = 0;
  }

(** [add t ~seq ~kind ~user_key ~value] inserts one entry. *)
let add t ~seq ~kind ~user_key ~value =
  let ikey = Internal_key.encode ~user_key ~seq ~kind in
  Pdb_skiplist.Skiplist.insert t.list ikey value;
  t.bytes <- t.bytes + String.length ikey + String.length value
             + per_entry_overhead;
  t.entries <- t.entries + 1

(** [get t lookup] is the freshest entry for [lookup]'s user key at or
    below internal key [lookup]: [Some (Some v)] for a live value,
    [Some None] for a tombstone, [None] when the memtable holds no such
    version.  The entry it returns is marked read (see {!iter}). *)
let get t lookup =
  let module S = Pdb_skiplist.Skiplist in
  match S.seek t.list lookup with
  | Some e ->
    let ikey = S.entry_key e in
    if Internal_key.same_user_key ikey (String.length ikey) lookup then begin
      S.mark e;
      match Internal_key.kind ikey with
      | Internal_key.Value -> Some (Some (S.entry_value e))
      | Internal_key.Deletion -> Some None
    end
    else None
  | None -> None

let approximate_bytes t = t.bytes
let entries t = t.entries
let is_empty t = t.entries = 0

(** [iterator t] ranges over encoded internal keys; reading an entry
    allocates nothing. *)
let iterator t =
  let module C = Pdb_skiplist.Skiplist.Cursor in
  let cursor = C.make t.list in
  let value () = C.value cursor in
  {
    Iter.seek_to_first = (fun () -> C.seek_to_first cursor);
    seek = C.seek cursor;
    next = (fun () -> C.next cursor);
    valid = (fun () -> C.valid cursor);
    key = (fun () -> C.key cursor);
    value;
    value_slice = Iter.whole value;
  }

(** [iter t f] applies [f ikey value read] to every entry in order, where
    [read] is whether {!get} returned the entry — used by flush and by
    recovery's relog. *)
let iter t f = Pdb_skiplist.Skiplist.iter t.list f
