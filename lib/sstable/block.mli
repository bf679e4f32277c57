(** Sstable data/index blocks with prefix compression and restart points
    (LevelDB block format).

    Entry: [varint shared | varint non_shared | varint value_len |
    key_delta | value].  Every {!restart_interval} entries the full key is
    stored and its offset recorded in the restart array, enabling binary
    search within the block. *)

val restart_interval : int

module Builder : sig
  type t

  val create : unit -> t

  (** [add_slice t key src pos len] appends an entry whose value is the
      [len] bytes of [src] at [pos]; keys must arrive in strictly
      ascending order under the table's comparator. *)
  val add_slice : t -> string -> string -> int -> int -> unit

  (** [add t key value] is [add_slice t key value 0 (String.length value)]. *)
  val add : t -> string -> string -> unit

  val current_size_estimate : t -> int
  val is_empty : t -> bool

  (** [seal t] appends the restart trailer and returns the builder's own
      buffer, which then holds the serialised block; the buffer is the
      builder's, so it is valid only until {!reset} or the next {!add}.
      A sealed builder takes no more entries before {!reset}. *)
  val seal : t -> Buffer.t

  (** [finish t] returns the serialised block: [Buffer.contents (seal t)]. *)
  val finish : t -> string

  val reset : t -> unit
end

(** Decoded view over a serialised block, which may be a range of a
    larger string: no decoder reads a byte outside the range. *)
type t

(** [decode_view data ~pos ~len] decodes the block held in the [len]
    bytes of [data] at [pos], without copying them; [data] must not
    change while the block is in use.
    @raise Invalid_argument on a corrupt block or an out-of-bounds range. *)
val decode_view : string -> pos:int -> len:int -> t

(** [decode s] is [decode_view s ~pos:0 ~len:(String.length s)].
    @raise Invalid_argument on a corrupt block. *)
val decode : string -> t

(** A block of no entries. *)
val empty : t

val size_bytes : t -> int

(** [iterator ~compare t] walks the block's entries; [compare] orders the
    stored keys (internal-key order for data blocks).  Each step decodes
    the entry's key; its value is copied out of the block only when
    [value ()] is called, and [value_slice] hands over the block's own
    bytes.  A corrupt entry raises [Invalid_argument] from the call that
    reaches it. *)
val iterator : compare:(string -> string -> int) -> t -> Pdb_kvs.Iter.t

(** [retargetable ~compare t] is {!iterator} together with a function
    that re-points the same iterator at another block, leaving it invalid
    until its next seek: a two-level iterator walks every block of a
    table through one cursor. *)
val retargetable :
  compare:(string -> string -> int) -> t -> Pdb_kvs.Iter.t * (t -> unit)

(** {2 Point search}

    A point lookup finds one entry of a block holding internal keys (data
    and index blocks alike) without an iterator: restart keys are compared
    where they lie, and the keys after a restart are assembled in the
    finder's own buffer.  Once that buffer has grown to the block's
    longest key, a search allocates nothing. *)

(** A reusable search position. *)
type finder

val finder : unit -> finder

(** [find f t target] positions [f] at the first entry of [t] whose key is
    >= [target] in {!Pdb_kvs.Internal_key.compare} order, and is [false]
    when every key is smaller.  The accessors below read that entry until
    the next [find]; those that read its value take [t] again, since a
    finder holds no block.
    @raise Invalid_argument on a corrupt entry. *)
val find : finder -> t -> string -> bool

(** [found_same_user_key f ikey]: the entry's key has the user key of
    internal key [ikey]. *)
val found_same_user_key : finder -> string -> bool

(** The kind in the entry's key trailer. *)
val found_kind : finder -> Pdb_kvs.Internal_key.kind

(** [found_value f t] copies the entry's value out of [t]. *)
val found_value : finder -> t -> string

(** [next_uvarint f t] decodes the next varint of the entry's value in
    [t]: the first call after {!find} reads at the value's start (an index
    entry's block handle is two of them).
    @raise Invalid_argument past the value's end. *)
val next_uvarint : finder -> t -> int

(** [entries ~compare t] decodes the whole block in order — test helper. *)
val entries : compare:(string -> string -> int) -> t -> (string * string) list
