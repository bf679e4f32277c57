(** Variable-length and fixed-width integer coding.

    The on-storage formats (sstable blocks, WAL records, MANIFEST edits) use
    LevelDB-compatible little-endian fixed32/fixed64 and base-128 varints. *)

(** [put_uvarint buf n] appends the base-128 varint encoding of [n] (which
    must be non-negative) to [buf]. *)
let rec put_uvarint buf n =
  assert (n >= 0);
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    put_uvarint buf (n lsr 7)
  end

(** [uvarint_size n] is the length of [n]'s varint encoding. *)
let uvarint_size n =
  let rec go n k = if n < 0x80 then k else go (n lsr 7) (k + 1) in
  go n 1

(** [set_uvarint b pos n] writes the varint encoding of [n] (which must be
    non-negative) into [b] at [pos] and returns the position after it. *)
let rec set_uvarint b pos n =
  if n < 0x80 then begin
    Bytes.set b pos (Char.chr n);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (0x80 lor (n land 0x7f)));
    set_uvarint b (pos + 1) (n lsr 7)
  end

(** [read_uvarint_upto s pos limit] decodes the varint of [s] at [!pos]
    and steps [pos] past it, reading no byte at or past [limit] and
    allocating nothing — for decoders that walk many entries of a range
    of a larger string.  Raises [Invalid_argument] on input truncated at
    [limit]. *)
let read_uvarint_upto s pos limit =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !pos >= limit then invalid_arg "Varint.get_uvarint: truncated";
    let b = Char.code s.[!pos] in
    incr pos;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b >= 0x80
  done;
  !acc

(** [read_uvarint s pos] is [read_uvarint_upto s pos (String.length s)]. *)
let read_uvarint s pos = read_uvarint_upto s pos (String.length s)

(** [get_uvarint s pos] decodes a varint from [s] starting at [pos]; returns
    [(value, next_pos)].  Raises [Invalid_argument] on truncated input. *)
let get_uvarint s pos =
  let p = ref pos in
  let v = read_uvarint s p in
  (v, !p)

let put_fixed32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let get_fixed32 s pos =
  if pos + 4 > String.length s then invalid_arg "Varint.get_fixed32: truncated";
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let put_fixed64 buf n =
  let open Int64 in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (to_int (logand (shift_right_logical n (8 * i)) 0xffL)))
  done

let get_fixed64 s pos =
  if pos + 8 > String.length s then invalid_arg "Varint.get_fixed64: truncated";
  let acc = ref 0L in
  for i = 7 downto 0 do
    acc :=
      Int64.logor
        (Int64.shift_left !acc 8)
        (Int64.of_int (Char.code s.[pos + i]))
  done;
  !acc

(** [put_length_prefixed buf s] appends [s] preceded by its varint length. *)
let put_length_prefixed buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

(** [get_length_prefixed s pos] decodes a varint-length-prefixed slice;
    returns [(slice, next_pos)]. *)
let get_length_prefixed s pos =
  let n, pos = get_uvarint s pos in
  if pos + n > String.length s then
    invalid_arg "Varint.get_length_prefixed: truncated";
  (String.sub s pos n, pos + n)
