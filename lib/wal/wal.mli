(** Record-oriented write-ahead log (LevelDB log format).

    The log is a sequence of 32 KB blocks; records are framed with
    [crc32c(4) | length(2) | type(1)] headers and fragmented across block
    boundaries with FIRST/MIDDLE/LAST record types.  Both the WAL proper
    (memtable recovery) and the MANIFEST (version-edit recovery) use this
    format. *)

val block_size : int
val header_size : int

type record_type = Full | First | Middle | Last

val type_to_int : record_type -> int
val type_of_int : int -> record_type option

module Writer : sig
  type t

  (** [create ?staging env name] starts a fresh log file.  Its appends
      are framed in [staging] (a fresh buffer when absent), which a store
      hands from each log to the next, so the buffer keeps its grown
      storage across rotations.  Two logs that both still append must
      not share one. *)
  val create : ?staging:Buffer.t -> Pdb_simio.Env.t -> string -> t

  (** [of_writer w ~existing_bytes] continues appending to an existing
      file, keeping block alignment. *)
  val of_writer : Pdb_simio.Env.writer -> existing_bytes:int -> t

  (** [add_record t payload] appends one logical record, fragmenting
      across block boundaries as needed. *)
  val add_record : t -> string -> unit

  (** [add_records t src ~ends n] appends [src]'s first [n] records,
      back to back from offset 0 with record [i] ending at [ends.(i)]
      (a write-batch scratch), in order as a single device
      write — the group-commit leader's coalesced WAL append.  File
      bytes are exactly those of adding each record alone with
      {!add_record}; only the device-op accounting differs. *)
  val add_records : t -> Bytes.t -> ends:int array -> int -> unit

  val sync : t -> unit
  val close : t -> unit
  val size : t -> int
end

module Reader : sig
  (** Why a read stopped short of the physical end of the log. *)
  type stop_reason =
    | Clean  (** every byte accounted for *)
    | Torn_header  (** the file ends inside a record header *)
    | Torn_fragment  (** a framed length points past the end of the file *)
    | Bad_crc  (** a stored checksum does not match its body *)
    | Bad_type  (** an unknown record-type byte *)

  val stop_reason_name : stop_reason -> string

  (** What recovery got out of a log — stores surface this in their
      engine stats instead of pretending every log was clean. *)
  type report = {
    records_read : int;  (** complete records returned *)
    bytes_dropped : int;
        (** log bytes not represented in the returned records: orphaned
            fragments, the corrupt/torn tail *)
    orphan_fragments : int;
        (** FIRST/MIDDLE/LAST fragments dropped because their record was
            never completed — the signature of a torn fragmented write *)
    stop : stop_reason;  (** why reading stopped, [Clean] at a clean end *)
  }

  (** [read_all env name] returns the complete records recoverable from
      the log, in order, together with a {!report} accounting for every
      dropped byte — the corrupt or truncated tail expected after a
      crash, and any orphaned mid-log fragments. *)
  val read_all : Pdb_simio.Env.t -> string -> string list * report
end
