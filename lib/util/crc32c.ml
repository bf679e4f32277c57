(** CRC-32C (Castagnoli) checksums, as used by LevelDB's log and table
    formats.  Software slicing-by-8: eight 256-entry tables, computed
    once at module initialisation, fold eight bytes per step. *)

let polynomial = 0x82F63B78 (* reversed Castagnoli polynomial *)

(* [t0] is the byte-at-a-time table; entry [i] of [tk] is the CRC of
   byte [i] followed by [k] zero bytes. *)
let t0 =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := (!c lsr 1) lxor polynomial
        else c := !c lsr 1
      done;
      !c)

let shifted prev =
  Array.init 256 (fun i -> (prev.(i) lsr 8) lxor t0.(prev.(i) land 0xff))

let t1 = shifted t0
let t2 = shifted t1
let t3 = shifted t2
let t4 = shifted t3
let t5 = shifted t4
let t6 = shifted t5
let t7 = shifted t6

(* The 32-bit little-endian word of [s] at [i]. *)
let[@inline] word s i =
  String.get_uint16_le s i lor (String.get_uint16_le s (i + 2) lsl 16)

(** [update crc s pos len] extends checksum [crc] (in [0, 2^32)) with
    [s.[pos .. pos+len-1]].  It allocates nothing. *)
let update crc s pos len =
  let crc = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !crc lxor word s !i and hi = word s (!i + 4) in
    crc :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc :=
      Array.unsafe_get t0 ((!crc lxor Char.code s.[!i]) land 0xff)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xFFFFFFFF

(** [update_bytes crc b pos len] is {!update} over [b]'s bytes, read in
    place: the string view of [b] lives only for the call, which writes
    nothing, so it never sees [b] change. *)
let update_bytes crc b pos len = update crc (Bytes.unsafe_to_string b) pos len

(** [string s] is the CRC-32C of the whole string. *)
let string s = update 0 s 0 (String.length s)

(** [masked crc] applies LevelDB's mask so that checksums of data that itself
    contains checksums do not collide trivially. *)
let masked crc =
  let rotated = ((crc lsr 15) lor (crc lsl 17)) land 0xFFFFFFFF in
  (rotated + 0xa282ead8) land 0xFFFFFFFF

(** [unmask m] inverts {!masked}. *)
let unmask m =
  let rotated = (m - 0xa282ead8) land 0xFFFFFFFF in
  ((rotated lsr 17) lor (rotated lsl 15)) land 0xFFFFFFFF
