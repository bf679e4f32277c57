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

  (** [add t key value] appends an entry; keys must arrive in strictly
      ascending order under the table's comparator. *)
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

(** Decoded view over a serialised block. *)
type t

(** @raise Invalid_argument on a corrupt block. *)
val decode : string -> t

val size_bytes : t -> int

(** [iterator ~compare t] walks the block's entries; [compare] orders the
    stored keys (internal-key order for data blocks).  Each step decodes
    the entry's key; its value is copied out of the block only when
    [value ()] is called.  A corrupt entry raises [Invalid_argument] from
    the call that reaches it. *)
val iterator : compare:(string -> string -> int) -> t -> Pdb_kvs.Iter.t

(** [entries ~compare t] decodes the whole block in order — test helper. *)
val entries : compare:(string -> string -> int) -> t -> (string * string) list
