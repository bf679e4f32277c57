(** Internal keys: user key ⊕ sequence number ⊕ kind.

    As in LevelDB (§2.2 of the paper), updating or deleting a key never
    modifies data in place — the key is re-inserted with a higher sequence
    number, deletions carrying a tombstone flag.  The most recent version
    of a key is the one with the highest sequence number.

    Encoding: [user_key ^ fixed64(seq << 8 | kind)]; ordering is by user
    key ascending, then sequence number {e descending} (newest first). *)

type kind = Deletion | Value

val kind_to_int : kind -> int

(** @raise Invalid_argument on an unknown tag. *)
val kind_of_int : int -> kind

val trailer_size : int

(** [encode ~user_key ~seq ~kind] builds an encoded internal key. *)
val encode : user_key:string -> seq:int -> kind:kind -> string

val user_key : string -> string
val seq : string -> int
val kind : string -> kind

(** [user_key_equal ikey uk] is [String.equal (user_key ikey) uk], read in
    place without copying the user key out. *)
val user_key_equal : string -> string -> bool

(** [compare_user_key ikey uk] is [String.compare (user_key ikey) uk],
    read in place. *)
val compare_user_key : string -> string -> int

(** [compare_user_keys a b] is [String.compare (user_key a) (user_key b)],
    read in place. *)
val compare_user_keys : string -> string -> int

(** [same_user_key a len b]: the internal key held in the first [len]
    bytes of [a] has the user key of internal key [b]; read in place. *)
val same_user_key : string -> int -> string -> bool

(** Total order: user key ascending, sequence descending, kind descending —
    the freshest entry for a user key sorts first. *)
val compare : string -> string -> int

(** [compare_slice a pos len b] is [compare (String.sub a pos len) b],
    read in place: a block compares its stored keys without copying
    them out. *)
val compare_slice : string -> int -> int -> string -> int

(** The largest representable sequence number. *)
val max_seq : int

(** [max_for_lookup user_key] sorts before every stored version of
    [user_key]: seeking to it lands on the freshest version. *)
val max_for_lookup : string -> string

(** [lookup_at ~user_key ~seq] is the lookup key for a snapshot read:
    seeking to it lands on the freshest version visible at [seq]. *)
val lookup_at : user_key:string -> seq:int -> string

val pp : Format.formatter -> string -> unit
