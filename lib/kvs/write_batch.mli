(** Write batches: an ordered group of puts/deletes applied atomically.

    The batch's serialised form is also the WAL record payload, so
    recovery replays batches exactly. *)

type op = Put of string * string | Delete of string

type t

val create : unit -> t
val put : t -> string -> string -> unit
val delete : t -> string -> unit
val count : t -> int

(** User-data volume in the batch (keys + values) — the denominator of
    write amplification. *)
val payload_bytes : t -> int

(** [mark_bulk t] tags the batch as an internal bulk move (e.g. a shard
    migration copy): engines charge the per-request software overhead
    once for the whole batch instead of once per entry — the entries
    already paid it when the user first wrote them.  The tag is
    process-local; it does not survive WAL encoding (replay is its own
    request). *)
val mark_bulk : t -> unit

val is_bulk : t -> bool

(** Operations in insertion order. *)
val ops : t -> op list

val iter : t -> (op -> unit) -> unit

(** A growable buffer of encoded batches, back to back from offset 0:
    record [i] is [bytes] from [ends.(i - 1)] (0 for the first) to
    [ends.(i)], for [i < records].  A store owns one and encodes each
    write group's batches into it, so a batch's encoding is no string of
    its own; clearing it keeps its storage. *)
type scratch = private {
  mutable bytes : Bytes.t;
  mutable ends : int array;
  mutable records : int;
}

val scratch : unit -> scratch

(** [clear s] drops [s]'s records. *)
val clear : scratch -> unit

(** [encode_into s t ~base_seq] appends the encoding of [t] to [s] as
    its next record (the bytes of [encode t ~base_seq]), growing [s]
    when it is full. *)
val encode_into : scratch -> t -> base_seq:int -> unit

(** [encode t ~base_seq] serialises the batch alone; operation [i]
    carries sequence number [base_seq + i]. *)
val encode : t -> base_seq:int -> string

(** [encoded_size t] is the length of [encode t ~base_seq], for any
    [base_seq], computed without encoding. *)
val encoded_size : t -> int

(** [decode s] recovers [(batch, base_seq)].
    @raise Invalid_argument on malformed input. *)
val decode : string -> t * int
