(** Internal keys: user key ⊕ sequence number ⊕ kind.

    As in LevelDB (§2.2 of the paper), updating or deleting a key never
    modifies data in place — the key is re-inserted with a higher sequence
    number, deletions carrying a tombstone flag.  The most recent version of
    a key is the one with the highest sequence number.

    Encoding: [user_key ^ fixed64(seq << 8 | kind)], so an encoded internal
    key can be stored in sstable blocks as an opaque string.  Ordering is by
    user key ascending, then sequence number *descending* (newest first),
    then kind. *)

type kind = Deletion | Value

let kind_to_int = function Deletion -> 0 | Value -> 1
let kind_of_int = function
  | 0 -> Deletion
  | 1 -> Value
  | n -> invalid_arg (Printf.sprintf "Internal_key.kind_of_int %d" n)

let trailer_size = 8

(** [encode ~user_key ~seq ~kind] builds an encoded internal key. *)
let encode ~user_key ~seq ~kind =
  let buf = Buffer.create (String.length user_key + trailer_size) in
  Buffer.add_string buf user_key;
  let packed =
    Int64.logor
      (Int64.shift_left (Int64.of_int seq) 8)
      (Int64.of_int (kind_to_int kind))
  in
  Pdb_util.Varint.put_fixed64 buf packed;
  Buffer.contents buf

(** [user_key ikey] extracts the user portion. *)
let user_key ikey =
  let n = String.length ikey in
  assert (n >= trailer_size);
  String.sub ikey 0 (n - trailer_size)

(* The readers below work on the encoded key in place, with bounds-checked
   reads and no allocation.  The trailer is a little-endian fixed64: byte 0
   is the kind, bytes 1-7 the 56-bit sequence number. *)

let seq ikey =
  let p = String.length ikey - trailer_size in
  String.get_uint16_le ikey (p + 1)
  lor (String.get_uint16_le ikey (p + 3) lsl 16)
  lor (String.get_uint16_le ikey (p + 5) lsl 32)
  lor (Char.code ikey.[p + 7] lsl 48)

let kind ikey =
  kind_of_int (Char.code ikey.[String.length ikey - trailer_size])

(* The first index below [n] at which [a] and [b] differ, or [n]: four
   bytes per step while they agree, then byte by byte. *)
let mismatch a b n =
  let i = ref 0 in
  while !i + 4 <= n && String.get_int32_ne a !i = String.get_int32_ne b !i do
    i := !i + 4
  done;
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

(* [String.compare] of the user portions [a.[0..na)] and [b.[0..nb)]. *)
let compare_user a na b nb =
  let n = Int.min na nb in
  let i = mismatch a b n in
  if i < n then if a.[i] < b.[i] then -1 else 1 else Int.compare na nb

(** [user_key_equal ikey uk] is [String.equal (user_key ikey) uk], without
    the copy. *)
let user_key_equal ikey uk =
  let n = String.length ikey - trailer_size in
  assert (n >= 0);
  n = String.length uk && mismatch ikey uk n = n

(** Total order over encoded internal keys: user key ascending, sequence
    descending, kind descending — so the freshest entry for a user key sorts
    first. *)
let compare a b =
  let na = String.length a - trailer_size
  and nb = String.length b - trailer_size in
  assert (na >= 0 && nb >= 0);
  let c = compare_user a na b nb in
  if c <> 0 then c
  else
    let c = Int.compare (seq b) (seq a) in
    if c <> 0 then c
    else Int.compare (kind_to_int (kind b)) (kind_to_int (kind a))

(** [max_for_lookup user_key] is the internal key that sorts before every
    stored version of [user_key]: seeking to it lands on the freshest
    version visible at the largest sequence number. *)
let max_seq = (1 lsl 56) - 1

let max_for_lookup user_key = encode ~user_key ~seq:max_seq ~kind:Value

(** [lookup_at ~user_key ~seq] is the lookup key for a snapshot read:
    seeking to it lands on the freshest version visible at sequence number
    [seq]. *)
let lookup_at ~user_key ~seq = encode ~user_key ~seq ~kind:Value

let pp ppf ikey =
  Fmt.pf ppf "%S@%d%s" (user_key ikey) (seq ikey)
    (match kind ikey with Deletion -> "(del)" | Value -> "")
