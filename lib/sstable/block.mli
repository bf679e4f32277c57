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

  (** [add_uvarints t key a b] appends an entry whose value is the
      varints of [a] then [b] (an index entry's block handle), with no
      value string in between. *)
  val add_uvarints : t -> string -> int -> int -> unit

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

(** {2 Cursors}

    A cursor is a reusable position: a data position over one block,
    and, for a table, an index position over its index block.  It holds
    no closure, and it keeps the block its data position rests on (a
    table cursor belongs to an iterator, never to a cached reader).

    Searches run in place on blocks of internal keys (data and index
    blocks alike): restart keys are compared where they lie, and the
    keys after a restart are assembled in the cursor's own buffer.  Once
    that buffer has grown to the block's longest key, a search allocates
    nothing; a data position allocates one key per entry it rests on. *)

type cursor

val cursor : unit -> cursor

(** {3 Point search} *)

(** [find c t target] positions [c] at the first entry of [t] whose key is
    >= [target] in {!Pdb_kvs.Internal_key.compare} order, and is [false]
    when every key is smaller.  The accessors below read that entry until
    the next search or move; those that read its value take [t] again.
    [find] leaves the data position alone.
    @raise Invalid_argument on a corrupt entry. *)
val find : cursor -> t -> string -> bool

(** [found_same_user_key c ikey]: the entry's key has the user key of
    internal key [ikey]. *)
val found_same_user_key : cursor -> string -> bool

(** The kind in the entry's key trailer. *)
val found_kind : cursor -> Pdb_kvs.Internal_key.kind

(** [found_value c t] copies the entry's value out of [t]. *)
val found_value : cursor -> t -> string

(** [next_uvarint c t] decodes the next varint of the entry's value in
    [t]: the first call after {!find} or an index move reads at the
    value's start (an index entry's block handle is two of them).
    @raise Invalid_argument past the value's end. *)
val next_uvarint : cursor -> t -> int

(** {3 Data position} *)

(** [seek c t target] rests [c] on the first entry of [t] whose key is >=
    [target] (internal-key order), or leaves it invalid; only the entry
    it lands on gets a fresh key. *)
val seek : cursor -> t -> string -> unit

(** [seek_to_first c t] rests [c] on the first entry of [t]. *)
val seek_to_first : cursor -> t -> unit

(** [next c] steps to the next entry of the block (no-op when invalid). *)
val next : cursor -> unit

val valid : cursor -> bool

(** The entry's key; meaningful only while {!valid}. *)
val key : cursor -> string

(** [value c] copies the entry's value out of the block. *)
val value : cursor -> string

(** [value_slice c f] calls [f src pos len] on the entry's value in
    place. *)
val value_slice : cursor -> (string -> int -> int -> unit) -> unit

(** [add_current b key c] is [Builder.add_slice b key] of the entry's
    value in place: what [value_slice] hands over, with no closure. *)
val add_current : Builder.t -> string -> cursor -> unit

(** [release c] drops the block and both positions: [c] is invalid and
    its index position is past the end. *)
val release : cursor -> unit

(** {3 Index position}

    Moves over an index block that decode no key, except for the search
    {!index_seek}; each leaves the entry's value (a block handle) to
    {!next_uvarint}. *)

(** [index_seek c t target] is {!find} kept as the index position. *)
val index_seek : cursor -> t -> string -> bool

(** [index_first c t] moves to the first entry of [t]; [false] when [t]
    is empty. *)
val index_first : cursor -> t -> bool

(** [index_step c t] moves to the entry after the index position; [false]
    past the last. *)
val index_step : cursor -> t -> bool

(** [index_copy c ~into] gives [into] [c]'s index position, so that
    {!index_step} on [into] walks on from there and leaves [c] where it
    is. *)
val index_copy : cursor -> into:cursor -> unit

(** [iter_index t f] calls [f key len offset size] on each entry of
    index block [t] in order: the entry's key is the first [len] bytes of
    [key], valid during the call only, and its value the block handle
    ([offset], [size]).  Allocates nothing per entry. *)
val iter_index : t -> (Bytes.t -> int -> int -> int -> unit) -> unit

(** [entries ~compare t] decodes the whole block in order — test helper. *)
val entries : compare:(string -> string -> int) -> t -> (string * string) list
