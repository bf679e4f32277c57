(** MurmurHash3 (32-bit, x86 variant).

    PebblesDB selects guards by hashing every inserted key with the cheap
    MurmurHash algorithm and inspecting trailing bits of the hash (§4.4 of
    the paper).  This is a faithful MurmurHash3_x86_32 over strings. *)

let rotl32 x r = ((x lsl r) lor (x lsr (32 - r))) land 0xFFFFFFFF

let fmix32 h =
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land 0xFFFFFFFF in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land 0xFFFFFFFF in
  h lxor (h lsr 16)

let c1 = 0xcc9e2d51
let c2 = 0x1b873593

(** [hash32_sub ~seed s pos len] is the 32-bit MurmurHash3 of the [len]
    bytes of [s] at [pos], read in place. *)
let hash32_sub ~seed s pos len =
  let nblocks = len / 4 in
  let h = ref (seed land 0xFFFFFFFF) in
  for i = 0 to nblocks - 1 do
    let p = pos + (i * 4) in
    let k =
      Char.code s.[p]
      lor (Char.code s.[p + 1] lsl 8)
      lor (Char.code s.[p + 2] lsl 16)
      lor (Char.code s.[p + 3] lsl 24)
    in
    let k = (k * c1) land 0xFFFFFFFF in
    let k = rotl32 k 15 in
    let k = (k * c2) land 0xFFFFFFFF in
    h := !h lxor k;
    h := rotl32 !h 13;
    h := (!h * 5 + 0xe6546b64) land 0xFFFFFFFF
  done;
  let tail = pos + (nblocks * 4) in
  let k = ref 0 in
  let rem = len land 3 in
  if rem >= 3 then k := !k lxor (Char.code s.[tail + 2] lsl 16);
  if rem >= 2 then k := !k lxor (Char.code s.[tail + 1] lsl 8);
  if rem >= 1 then begin
    k := !k lxor Char.code s.[tail];
    k := (!k * c1) land 0xFFFFFFFF;
    k := rotl32 !k 15;
    k := (!k * c2) land 0xFFFFFFFF;
    h := !h lxor !k
  end;
  h := !h lxor len;
  fmix32 !h

(** [hash32 ?seed s] is the 32-bit MurmurHash3 of [s]. *)
let hash32 ?(seed = 0) s = hash32_sub ~seed s 0 (String.length s)

(** [trailing_ones n] counts consecutive set least-significant bits — the
    quantity PebblesDB's guard selector inspects. *)
let trailing_ones n =
  let rec go n acc = if n land 1 = 1 then go (n lsr 1) (acc + 1) else acc in
  go n 0
