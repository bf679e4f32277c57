(** Bloom filters.

    PebblesDB attaches one filter to each sstable (§4.1) so that a get()
    examining the several overlapping sstables of a guard only reads the
    (with high probability) one table that actually contains the key.
    Standard Kirsch–Mitzenmacher double hashing over MurmurHash3, matching
    LevelDB's bloom strategy. *)

type t = {
  bits : Bytes.t;
  nbits : int;
  k : int; (* number of probes *)
  mutable nkeys : int;
}

(** Filter bits per expected key: 10 gives ~1 % false positives
    (LevelDB's default). *)
let bits_per_key = 10

(* probes per key, ln 2 * bits_per_key *)
let probes = int_of_float (float_of_int bits_per_key *. 0.69)

(** [create n] sizes a filter for [n] expected keys. *)
let create n =
  let nbits = max 64 (n * bits_per_key) in
  let nbytes = (nbits + 7) / 8 in
  { bits = Bytes.make nbytes '\000'; nbits = nbytes * 8; k = probes; nkeys = 0 }

let set_bit b i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit)))

let get_bit b i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get b byte) land (1 lsl bit) <> 0

(* The [k] probe positions of [key] are [(h1 + i * h2) mod nbits] for
   [i = 0 .. k-1]; [add] sets them and [mem] tests them in a loop, with
   no list of positions in between. *)
let hash1 key = Pdb_util.Murmur3.hash32 ~seed:0xbc9f1d34 key
let hash2 key = Pdb_util.Murmur3.hash32 ~seed:0x7a2d187e key
let probe t h1 h2 i = ((h1 + (i * h2)) land max_int) mod t.nbits

(** [add t key] inserts a key. *)
let add t key =
  let h1 = hash1 key and h2 = hash2 key in
  for i = 0 to t.k - 1 do
    set_bit t.bits (probe t h1 h2 i)
  done;
  t.nkeys <- t.nkeys + 1

(** [mem t key] is [false] only if the key was never added; may return
    [true] spuriously (false positive). *)
let mem t key =
  let h1 = hash1 key and h2 = hash2 key in
  let i = ref 0 in
  while !i < t.k && get_bit t.bits (probe t h1 h2 !i) do
    incr i
  done;
  !i >= t.k

(** [size_bytes t] is the in-memory footprint — reported in the Table 5.4
    memory-consumption experiment. *)
let size_bytes t = Bytes.length t.bits

let nkeys t = t.nkeys

(** [encode_to buf t] appends the serialised filter (probe count, key
    count, then the length-prefixed bit array) to [buf], for storing
    filters alongside sstables. *)
let encode_to buf t =
  Pdb_util.Varint.put_uvarint buf t.k;
  Pdb_util.Varint.put_uvarint buf t.nkeys;
  Pdb_util.Varint.put_uvarint buf (Bytes.length t.bits);
  Buffer.add_bytes buf t.bits

(** [encode t] is the serialised filter as a string. *)
let encode t =
  let buf = Buffer.create (Bytes.length t.bits + 8) in
  encode_to buf t;
  Buffer.contents buf

(** [decode_range s ~pos ~len] decodes the filter serialised in the
    [len] bytes of [s] at [pos], copying its bits once. *)
let decode_range s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Bloom.decode_range: range out of bounds";
  let limit = pos + len in
  let p = ref pos in
  let k = Pdb_util.Varint.read_uvarint_upto s p limit in
  let nkeys = Pdb_util.Varint.read_uvarint_upto s p limit in
  let n = Pdb_util.Varint.read_uvarint_upto s p limit in
  if n > limit - !p then invalid_arg "Bloom.decode: truncated";
  let bits = Bytes.create n in
  Bytes.blit_string s !p bits 0 n;
  { bits; nbits = n * 8; k; nkeys }

let decode s = decode_range s ~pos:0 ~len:(String.length s)
