(** Snapshot registry: the live set of pinned sequence numbers.

    A snapshot pins the store's state at a sequence number: reads and
    iterators through it see exactly the versions visible then.
    Compaction must keep any version that some live snapshot still needs —
    the LevelDB rule implemented by {!droppable}. *)

type t

val create : unit -> t

(** [acquire t seq] pins [seq] (multiset semantics). *)
val acquire : t -> int -> unit

(** [release t seq] unpins one acquisition of [seq]. *)
val release : t -> int -> unit

val is_empty : t -> bool

(** [smallest t ~default] is the oldest pinned sequence number, or
    [default] (usually the current last sequence) when nothing is pinned. *)
val smallest : t -> default:int -> int

(** Compaction visibility rule.  [prev_seq] is the sequence of the
    next-newer entry already seen for this user key (the freshest is
    always kept, so it is never asked about).  The current entry is
    droppable iff that newer entry is visible to every live snapshot. *)
val droppable : t -> prev_seq:int -> last_seq:int -> bool

(** A bottom-level tombstone can be dropped entirely only when every live
    snapshot already sees it. *)
val tombstone_droppable : t -> seq:int -> last_seq:int -> bool
