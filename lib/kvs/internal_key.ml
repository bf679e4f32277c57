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
  let n = String.length user_key in
  let b = Bytes.create (n + trailer_size) in
  Bytes.blit_string user_key 0 b 0 n;
  Bytes.set_int64_le b n
    (Int64.logor
       (Int64.shift_left (Int64.of_int seq) 8)
       (Int64.of_int (kind_to_int kind)));
  Bytes.unsafe_to_string b

(** [user_key ikey] extracts the user portion. *)
let user_key ikey =
  let n = String.length ikey in
  assert (n >= trailer_size);
  String.sub ikey 0 (n - trailer_size)

(* The readers below work on the encoded key in place, with bounds-checked
   reads and no allocation.  The trailer is a little-endian fixed64: byte 0
   is the kind, bytes 1-7 the 56-bit sequence number.  The [_at] forms
   read the trailer that starts at [p]. *)

let seq_at ikey p =
  String.get_uint16_le ikey (p + 1)
  lor (String.get_uint16_le ikey (p + 3) lsl 16)
  lor (String.get_uint16_le ikey (p + 5) lsl 32)
  lor (Char.code ikey.[p + 7] lsl 48)

let kind_at ikey p = kind_of_int (Char.code ikey.[p])
let seq ikey = seq_at ikey (String.length ikey - trailer_size)
let kind ikey = kind_at ikey (String.length ikey - trailer_size)

(* The first index below [n] at which [a.[pa + i]] and [b.[i]] differ, or
   [n]: four bytes per step while they agree, then byte by byte. *)
let mismatch a pa b n =
  let i = ref 0 in
  while
    !i + 4 <= n && String.get_int32_ne a (pa + !i) = String.get_int32_ne b !i
  do
    i := !i + 4
  done;
  while !i < n && a.[pa + !i] = b.[!i] do
    incr i
  done;
  !i

(* [String.compare] of the user portions [a.[pa..pa+na)] and [b.[0..nb)]. *)
let compare_user a pa na b nb =
  let n = Int.min na nb in
  let i = mismatch a pa b n in
  if i < n then if a.[pa + i] < b.[i] then -1 else 1 else Int.compare na nb

(** [user_key_equal ikey uk] is [String.equal (user_key ikey) uk], without
    the copy. *)
let user_key_equal ikey uk =
  let n = String.length ikey - trailer_size in
  assert (n >= 0);
  n = String.length uk && mismatch ikey 0 uk n = n

(** [compare_user_key ikey uk] is [String.compare (user_key ikey) uk],
    without the copy. *)
let compare_user_key ikey uk =
  let n = String.length ikey - trailer_size in
  assert (n >= 0);
  compare_user ikey 0 n uk (String.length uk)

(** [compare_user_keys a b] is [String.compare (user_key a) (user_key b)],
    without the copies. *)
let compare_user_keys a b =
  let na = String.length a - trailer_size
  and nb = String.length b - trailer_size in
  assert (na >= 0 && nb >= 0);
  compare_user a 0 na b nb

(** [same_user_key a len b]: the internal key in the first [len] bytes of
    [a] has the user key of internal key [b]. *)
let same_user_key a len b =
  let n = len - trailer_size in
  assert (n >= 0 && len <= String.length a);
  n = String.length b - trailer_size && mismatch a 0 b n = n

(** [compare_slice a pos len b] is [compare (String.sub a pos len) b],
    read in place. *)
let compare_slice a pos len b =
  let na = len - trailer_size and nb = String.length b - trailer_size in
  assert (na >= 0 && nb >= 0);
  let c = compare_user a pos na b nb in
  if c <> 0 then c
  else
    let c = Int.compare (seq_at b nb) (seq_at a (pos + na)) in
    if c <> 0 then c
    else
      Int.compare
        (kind_to_int (kind_at b nb))
        (kind_to_int (kind_at a (pos + na)))

(** Total order over encoded internal keys: user key ascending, sequence
    descending, kind descending — so the freshest entry for a user key sorts
    first. *)
let compare a b = compare_slice a 0 (String.length a) b

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
