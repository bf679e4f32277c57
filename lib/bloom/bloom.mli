(** Bloom filters.

    PebblesDB attaches one filter to each sstable (§4.1) so that a get()
    examining the several overlapping sstables of a guard only reads the
    (with high probability) one table that actually contains the key.
    Kirsch–Mitzenmacher double hashing over MurmurHash3, matching LevelDB's
    bloom strategy. *)

type t

(** Filter bits per expected key: 10 gives ~1% false positives. *)
val bits_per_key : int

(** [create n] sizes a filter for [n] expected keys at {!bits_per_key}. *)
val create : int -> t

val add : t -> string -> unit

(** [mem t key] is [false] only if the key was never added; may return
    [true] spuriously (false positive), never a false negative. *)
val mem : t -> string -> bool

(** {2 Filters sized to their keys}

    A table builder does not know how many keys its table will hold until
    it is complete.  It notes each key as it arrives and builds the
    filter at the end, sized to the real count (but not below
    {!min_keys}). *)

(** The hashes of keys noted for a filter not built yet. *)
type pending

val pending : unit -> pending

(** [note p key] records [key]; noting a key twice counts it twice. *)
val note : pending -> string -> unit

(** [note_sub p s pos len] is [note p (String.sub s pos len)], read in
    place. *)
val note_sub : pending -> string -> int -> int -> unit

(** [clear p] forgets every key noted in [p], keeping its storage: a
    table builder reuses one [pending] for table after table. *)
val clear : pending -> unit

(** The fewest keys {!of_pending} sizes a filter for (64): a filter of
    fewer bits answers well over 1% of absent keys by chance. *)
val min_keys : int

(** [of_pending p] is [create (max min_keys n)] holding the [n] keys
    noted in [p]: equal, bit for bit, to adding them one by one. *)
val of_pending : pending -> t

(** In-memory footprint — reported in the Table 5.4 memory experiment. *)
val size_bytes : t -> int

val nkeys : t -> int

(** [encode_to buf t] appends the serialised filter to [buf], for
    storing alongside an sstable. *)
val encode_to : Buffer.t -> t -> unit

(** [encode t] is the serialised filter: [encode_to] into a fresh
    buffer, as a string. *)
val encode : t -> string

(** [decode_range s ~pos ~len] decodes the filter serialised in the
    [len] bytes of [s] at [pos] (a range of a file chunk, say), copying
    its bits once.
    @raise Invalid_argument on an out-of-bounds range or a truncated
    filter. *)
val decode_range : string -> pos:int -> len:int -> t

(** [decode s] is [decode_range s ~pos:0 ~len:(String.length s)]. *)
val decode : string -> t
