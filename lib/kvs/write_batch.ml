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

(** [encode t ~base_seq] serialises the batch; operation [i] carries
    sequence number [base_seq + i]. *)
let encode t ~base_seq =
  let module V = Pdb_util.Varint in
  let prefixed s = V.uvarint_size (String.length s) + String.length s in
  let size =
    List.fold_left
      (fun n op ->
        match op with
        | Put (k, v) -> n + 1 + prefixed k + prefixed v
        | Delete k -> n + 1 + prefixed k)
      12 t.ops
  in
  let b = Bytes.create size in
  Bytes.set_int64_le b 0 (Int64.of_int base_seq);
  Bytes.set_int32_le b 8 (Int32.of_int t.count);
  let put_prefixed pos s =
    let pos = V.set_uvarint b pos (String.length s) in
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  in
  let set_op pos = function
    | Put (k, v) ->
      Bytes.set b pos '\001';
      put_prefixed (put_prefixed (pos + 1) k) v
    | Delete k ->
      Bytes.set b pos '\000';
      put_prefixed (pos + 1) k
  in
  ignore (List.fold_left set_op 12 (ops t));
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
