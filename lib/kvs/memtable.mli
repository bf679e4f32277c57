(** Memtable: the in-memory buffer of recent writes.

    A skip list keyed by encoded internal keys (§2.2).  Writes append
    entries with fresh sequence numbers; when {!approximate_bytes} exceeds
    the configured memtable size the engine freezes it and flushes it to a
    level-0 sstable. *)

type t

val create : unit -> t

(** [add t ~seq ~kind ~user_key ~value] inserts one entry. *)
val add :
  t -> seq:int -> kind:Internal_key.kind -> user_key:string -> value:string ->
  unit

(** [get t lookup] is the freshest entry for [lookup]'s user key at or
    below internal key [lookup] ({!Internal_key.max_for_lookup} for the
    latest state, {!Internal_key.lookup_at} for a snapshot):
    [Some (Some v)] for a live value, [Some None] for a tombstone, [None]
    when the memtable holds no such version.  The entry it returns, value
    or tombstone, is marked read, with no allocation: a flush admits the
    blocks holding read entries to the block cache. *)
val get : t -> string -> string option option

val approximate_bytes : t -> int
val entries : t -> int
val is_empty : t -> bool

(** [iterator t] ranges over encoded internal keys. *)
val iterator : t -> Iter.t

(** [iter t f] applies [f ikey value read] to every entry in order, where
    [read] is whether {!get} returned the entry (an iterator marks
    nothing) — used by flush and by recovery's relog. *)
val iter : t -> (string -> string -> bool -> unit) -> unit
