(** Probabilistic skip list.

    The memtable substrate (§2.2) and the conceptual ancestor of FLSM
    guards: a key that reaches height [h] appears in every list up to [h],
    just as a key chosen as a guard at level [i] is a guard for every
    deeper level.

    Entries are append-only: a duplicate insert adds a new node (memtables
    rely on the internal-key comparator making duplicates distinct via
    sequence numbers).  Each entry carries one flag, clear at insert,
    that {!mark} sets and {!iter} reports. *)

type ('k, 'v) t

(** [create ~compare dummy_key dummy_value] builds an empty list ordered
    by [compare].  The dummies populate the sentinel node and are never
    returned. *)
val create : compare:('k -> 'k -> int) -> 'k -> 'v -> ('k, 'v) t

val length : ('k, 'v) t -> int

(** [insert t key value] adds an entry (duplicates kept). *)
val insert : ('k, 'v) t -> 'k -> 'v -> unit

(** An entry of the list. *)
type ('k, 'v) entry

(** [seek t key] is the first entry with key >= [key]; it allocates
    nothing. *)
val seek : ('k, 'v) t -> 'k -> ('k, 'v) entry option

val entry_key : ('k, 'v) entry -> 'k
val entry_value : ('k, 'v) entry -> 'v

(** [mark e] sets [e]'s flag; it allocates nothing. *)
val mark : ('k, 'v) entry -> unit

(** [find t key] is the first entry comparing equal to [key]. *)
val find : ('k, 'v) t -> 'k -> 'v option

val mem : ('k, 'v) t -> 'k -> bool
val min_entry : ('k, 'v) t -> ('k * 'v) option
val max_entry : ('k, 'v) t -> ('k * 'v) option

(** [iter t f] applies [f key value marked] to every entry in key
    order; [marked] is whether {!mark} set the entry's flag. *)
val iter : ('k, 'v) t -> ('k -> 'v -> bool -> unit) -> unit

val fold : ('k, 'v) t -> ('a -> 'k -> 'v -> 'a) -> 'a -> 'a
val to_list : ('k, 'v) t -> ('k * 'v) list

(** Forward-only cursor, used by memtable iterators. *)
module Cursor : sig
  type ('k, 'v) cursor

  val make : ('k, 'v) t -> ('k, 'v) cursor
  val seek_to_first : ('k, 'v) cursor -> unit
  val seek : ('k, 'v) cursor -> 'k -> unit
  val valid : ('k, 'v) cursor -> bool

  (** [key c] and [value c] read the entry the cursor rests on.
      @raise Invalid_argument when the cursor is not valid. *)
  val key : ('k, 'v) cursor -> 'k

  val value : ('k, 'v) cursor -> 'v

  val next : ('k, 'v) cursor -> unit
end
