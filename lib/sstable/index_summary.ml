(** Compressed in-memory index summaries (see the interface for the
    design rationale).

    Samples are packed into one string to keep the per-summary heap
    footprint honest: for each retained index entry we store

      varint(shared)  — prefix length shared with the previous sample
      varint(len)     — length of the stored suffix
      suffix bytes
      varint(offset)  — data-block handle
      varint(size)

    Shared-prefix truncation against the previous *sample* (not the
    previous index entry) keeps decode stateless per summary while still
    capturing most of the redundancy of sorted last-keys. *)

type t = {
  number : int;
  entries : int;
  index_handle : int * int;
  filter_handle : int * int;
  index_bytes : int;
  filter_bytes : int;
  nsamples : int;
  packed : string;
}

(* The length of the prefix the first [la] bytes of [a] share with the
   first [lb] of [b]. *)
let shared_prefix a la b lb =
  let n = min la lb in
  let i = ref 0 in
  while !i < n && Bytes.get a !i = Bytes.get b !i do
    incr i
  done;
  !i

(* A key kept across entries: its bytes are the first [len] of [bytes],
   which grows to the longest key copied in. *)
type scratch = { mutable bytes : Bytes.t; mutable len : int }

let keep s key len =
  if Bytes.length s.bytes < len then
    s.bytes <- Bytes.create (max len (2 * Bytes.length s.bytes));
  Bytes.blit key 0 s.bytes 0 len;
  s.len <- len

let build ~stride ~number ~entries ~index_handle ~filter_handle ~index_bytes
    ~filter_bytes index =
  let stride = max 1 stride in
  let buf = Buffer.create 128 in
  (* the previous sample's key, and the last entry's while unsampled *)
  let prev = { bytes = Bytes.create 32; len = 0 } in
  let last = { bytes = Bytes.create 32; len = 0 } in
  let last_off = ref 0 and last_size = ref 0 and last_sampled = ref true in
  let nsamples = ref 0 and i = ref 0 in
  let sample key len off size =
    let shared = shared_prefix prev.bytes prev.len key len in
    Pdb_util.Varint.put_uvarint buf shared;
    Pdb_util.Varint.put_uvarint buf (len - shared);
    Buffer.add_subbytes buf key shared (len - shared);
    Pdb_util.Varint.put_uvarint buf off;
    Pdb_util.Varint.put_uvarint buf size;
    keep prev key len;
    incr nsamples
  in
  index (fun key len off size ->
      if !i mod stride = 0 then begin
        sample key len off size;
        last_sampled := true
      end
      else begin
        keep last key len;
        last_off := off;
        last_size := size;
        last_sampled := false
      end;
      incr i);
  if not !last_sampled then sample last.bytes last.len !last_off !last_size;
  {
    number;
    entries;
    index_handle;
    filter_handle;
    index_bytes;
    filter_bytes;
    nsamples = !nsamples;
    packed = Buffer.contents buf;
  }

let number t = t.number
let entries t = t.entries
let index_handle t = t.index_handle
let filter_handle t = t.filter_handle
let index_bytes t = t.index_bytes
let filter_bytes t = t.filter_bytes
let resident_table_bytes t = t.index_bytes + t.filter_bytes
let nsamples t = t.nsamples

(* Packed samples plus a fixed allowance for the record's scalar fields. *)
let size_bytes t = String.length t.packed + 64

let slice_bytes t =
  let _, index_size = t.index_handle in
  if t.nsamples <= 1 then index_size
  else (index_size + t.nsamples - 1) / t.nsamples

let samples t =
  let s = t.packed in
  let len = String.length s in
  let rec go pos prev acc =
    if pos >= len then List.rev acc
    else
      let shared, pos = Pdb_util.Varint.get_uvarint s pos in
      let slen, pos = Pdb_util.Varint.get_uvarint s pos in
      let suffix = String.sub s pos slen in
      let pos = pos + slen in
      let off, pos = Pdb_util.Varint.get_uvarint s pos in
      let size, pos = Pdb_util.Varint.get_uvarint s pos in
      let key = String.sub prev 0 shared ^ suffix in
      go pos key ((key, (off, size)) :: acc)
  in
  go 0 "" []
