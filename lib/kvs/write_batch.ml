(** Write batches: an ordered group of puts/deletes applied atomically.

    The batch's serialised form is also the WAL record payload, so recovery
    replays batches exactly.  Format (LevelDB-flavoured):
    [fixed64 base_seq | fixed32 count | ops], each op being a tag byte
    followed by length-prefixed key (and value for puts). *)

type op = Put of string * string | Delete of string

type t = {
  mutable ops : op list;
  mutable count : int;
  mutable payload : int;
  mutable bulk : bool;
}

let create () = { ops = []; count = 0; payload = 0; bulk = false }

(** [mark_bulk t] tags the batch as an internal bulk move (e.g. a shard
    migration copy): engines charge the per-request software overhead
    once for the whole batch instead of once per entry — the entries
    already paid it when the user first wrote them.  The tag is
    process-local; it does not survive WAL encoding (replay is its own
    request). *)
let mark_bulk t = t.bulk <- true

let is_bulk t = t.bulk

let put t k v =
  t.ops <- Put (k, v) :: t.ops;
  t.count <- t.count + 1;
  t.payload <- t.payload + String.length k + String.length v

let delete t k =
  t.ops <- Delete k :: t.ops;
  t.count <- t.count + 1;
  t.payload <- t.payload + String.length k

let count t = t.count

(** [payload_bytes t] is the user-data volume in the batch (keys + values) —
    the denominator of write amplification. *)
let payload_bytes t = t.payload

(** [ops t] lists the operations in insertion order. *)
let ops t = List.rev t.ops

let iter t f = List.iter f (ops t)

(* The bytes of [s] with its varint length prefix. *)
let prefixed s = Pdb_util.Varint.uvarint_size (String.length s) + String.length s

let op_size n = function
  | Put (k, v) -> n + 1 + prefixed k + prefixed v
  | Delete k -> n + 1 + prefixed k

(** [encoded_size t] is [String.length (encode t ~base_seq)], without
    encoding. *)
let encoded_size t = List.fold_left op_size 12 t.ops

let put_prefixed b pos s =
  let pos = Pdb_util.Varint.set_uvarint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let rec write_ops b stop = function
  | [] -> ()
  | op :: older ->
    let start = stop - op_size 0 op in
    (match op with
     | Put (k, v) ->
       Bytes.set b start '\001';
       ignore (put_prefixed b (put_prefixed b (start + 1) k) v)
     | Delete k ->
       Bytes.set b start '\000';
       ignore (put_prefixed b (start + 1) k));
    write_ops b start older

(* Write the batch's header at [pos] and its ops (kept newest first)
   backwards from [stop], its end, so no reversed list is built. *)
let write t b pos ~stop ~base_seq =
  Bytes.set_int64_le b pos (Int64.of_int base_seq);
  Bytes.set_int32_le b (pos + 8) (Int32.of_int t.count);
  write_ops b stop t.ops

(** A growable buffer of encoded batches, back to back from offset 0:
    record [i] ends at [ends.(i)].  A store owns one and encodes each
    write group's batches into it; it keeps its storage when cleared. *)
type scratch = {
  mutable bytes : Bytes.t;
  mutable ends : int array;
  mutable records : int;
}

let scratch () = { bytes = Bytes.empty; ends = Array.make 8 0; records = 0 }
let clear s = s.records <- 0
let scratch_length s = if s.records = 0 then 0 else s.ends.(s.records - 1)

(** [encode_into s t ~base_seq] appends the batch's encoding to [s] as
    its next record, growing [s] when it is full. *)
let encode_into s t ~base_seq =
  let pos = scratch_length s in
  let stop = pos + encoded_size t in
  if stop > Bytes.length s.bytes then begin
    let bytes = Bytes.create (max stop (2 * Bytes.length s.bytes)) in
    Bytes.blit s.bytes 0 bytes 0 pos;
    s.bytes <- bytes
  end;
  if s.records = Array.length s.ends then begin
    let ends = Array.make (2 * s.records) 0 in
    Array.blit s.ends 0 ends 0 s.records;
    s.ends <- ends
  end;
  write t s.bytes pos ~stop ~base_seq;
  s.ends.(s.records) <- stop;
  s.records <- s.records + 1

(** [encode t ~base_seq] serialises the batch alone; operation [i]
    carries sequence number [base_seq + i]. *)
let encode t ~base_seq =
  let stop = encoded_size t in
  let b = Bytes.create stop in
  write t b 0 ~stop ~base_seq;
  Bytes.unsafe_to_string b

(** [decode s] recovers [(batch, base_seq)].  Raises [Invalid_argument] on
    malformed input. *)
let decode s =
  let base_seq = Int64.to_int (Pdb_util.Varint.get_fixed64 s 0) in
  let count = Pdb_util.Varint.get_fixed32 s 8 in
  let t = create () in
  let pos = ref 12 in
  for _ = 1 to count do
    let tag = s.[!pos] in
    incr pos;
    match tag with
    | '\001' ->
      let k, p = Pdb_util.Varint.get_length_prefixed s !pos in
      let v, p = Pdb_util.Varint.get_length_prefixed s p in
      pos := p;
      put t k v
    | '\000' ->
      let k, p = Pdb_util.Varint.get_length_prefixed s !pos in
      pos := p;
      delete t k
    | c -> invalid_arg (Printf.sprintf "Write_batch.decode: bad tag %C" c)
  done;
  (t, base_seq)
