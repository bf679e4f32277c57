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
let hash1_sub s pos len = Pdb_util.Murmur3.hash32_sub ~seed:0xbc9f1d34 s pos len
let hash2_sub s pos len = Pdb_util.Murmur3.hash32_sub ~seed:0x7a2d187e s pos len
let hash1 key = hash1_sub key 0 (String.length key)
let hash2 key = hash2_sub key 0 (String.length key)
let probe t h1 h2 i = ((h1 + (i * h2)) land max_int) mod t.nbits

let set_probes t h1 h2 =
  for i = 0 to t.k - 1 do
    set_bit t.bits (probe t h1 h2 i)
  done

(** [add t key] inserts a key. *)
let add t key =
  set_probes t (hash1 key) (hash2 key);
  t.nkeys <- t.nkeys + 1

(* Keys noted before the filter is sized: the two hashes of each, as
   32-bit words in native byte order, 8 bytes a key. *)
type pending = { mutable hashes : Bytes.t; mutable n : int }

let pending () = { hashes = Bytes.create 512; n = 0 }

(** [clear p] forgets every key noted in [p], keeping its storage. *)
let clear p = p.n <- 0

(** [note_sub p s pos len] records the [len] bytes of [s] at [pos] for
    the filter {!of_pending} builds. *)
let note_sub p s pos len =
  let at = 8 * p.n in
  if at + 8 > Bytes.length p.hashes then begin
    let grown = Bytes.create (2 * Bytes.length p.hashes) in
    Bytes.blit p.hashes 0 grown 0 at;
    p.hashes <- grown
  end;
  Bytes.set_int32_ne p.hashes at (Int32.of_int (hash1_sub s pos len));
  Bytes.set_int32_ne p.hashes (at + 4) (Int32.of_int (hash2_sub s pos len));
  p.n <- p.n + 1

(** [note p key] records [key] for the filter {!of_pending} builds. *)
let note p key = note_sub p key 0 (String.length key)

(** The fewest keys {!of_pending} sizes a filter for.  A filter of a few
    hundred bits leaves its false-positive rate to chance: over 400 random
    key sets, 16 keys in 160 bits answered up to 2.7% of absent keys and
    24 keys in 240 bits up to 2.5%, against the ~1% that 10 bits a key
    give a large filter; from 64 keys on, at most 1.6%. *)
let min_keys = 64

(** [of_pending p] is the filter sized for the keys noted in [p], and at
    least {!min_keys}, holding them all: {!create}, then {!add} of each. *)
let of_pending p =
  let t = create (max min_keys p.n) in
  let word at = Int32.to_int (Bytes.get_int32_ne p.hashes at) land 0xffff_ffff in
  for j = 0 to p.n - 1 do
    set_probes t (word (8 * j)) (word ((8 * j) + 4))
  done;
  t.nkeys <- p.n;
  t

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
