(** Sstable data/index blocks with prefix compression and restart points
    (LevelDB block format).

    Entry: [varint shared | varint non_shared | varint value_len |
    key_delta | value].  Every [restart_interval] entries the full key is
    stored and its offset recorded in the restart array, enabling binary
    search within the block. *)

let restart_interval = 16

module Builder = struct
  type t = {
    buf : Buffer.t;
    mutable restarts : int list; (* reversed *)
    mutable num_restarts : int; (* length of [restarts] *)
    mutable counter : int;
    mutable last_key : string;
    mutable entries : int;
  }

  let create () =
    { buf = Buffer.create 4096; restarts = [ 0 ]; num_restarts = 1;
      counter = 0; last_key = ""; entries = 0 }

  let shared_prefix_len a b =
    let n = min (String.length a) (String.length b) in
    let i = ref 0 in
    while !i < n && a.[!i] = b.[!i] do
      incr i
    done;
    !i

  (** [add t key value] appends an entry; keys must arrive in strictly
      ascending order under the table's comparator. *)
  let add t key value =
    let shared =
      if t.counter < restart_interval then shared_prefix_len t.last_key key
      else begin
        t.restarts <- Buffer.length t.buf :: t.restarts;
        t.num_restarts <- t.num_restarts + 1;
        t.counter <- 0;
        0
      end
    in
    let non_shared = String.length key - shared in
    Pdb_util.Varint.put_uvarint t.buf shared;
    Pdb_util.Varint.put_uvarint t.buf non_shared;
    Pdb_util.Varint.put_uvarint t.buf (String.length value);
    Buffer.add_substring t.buf key shared non_shared;
    Buffer.add_string t.buf value;
    t.last_key <- key;
    t.counter <- t.counter + 1;
    t.entries <- t.entries + 1

  let current_size_estimate t =
    Buffer.length t.buf + (4 * t.num_restarts) + 4

  let is_empty t = t.entries = 0

  (** [seal t] appends the restart trailer and returns the builder's own
      buffer, which then holds the serialised block until {!reset}. *)
  let seal t =
    let rec put_restarts = function
      | [] -> ()
      | off :: earlier ->
        put_restarts earlier;
        Pdb_util.Varint.put_fixed32 t.buf off
    in
    put_restarts t.restarts;
    Pdb_util.Varint.put_fixed32 t.buf t.num_restarts;
    t.buf

  (** [finish t] returns the serialised block. *)
  let finish t = Buffer.contents (seal t)

  let reset t =
    Buffer.clear t.buf;
    t.restarts <- [ 0 ];
    t.num_restarts <- 1;
    t.counter <- 0;
    t.last_key <- "";
    t.entries <- 0
end

(** Decoded view over a serialised block. *)
type t = {
  data : string;
  restarts_offset : int;
  num_restarts : int;
}

let decode data =
  let len = String.length data in
  if len < 4 then invalid_arg "Block.decode: too short";
  let num_restarts = Pdb_util.Varint.get_fixed32 data (len - 4) in
  let restarts_offset = len - 4 - (4 * num_restarts) in
  if restarts_offset < 0 then invalid_arg "Block.decode: corrupt restarts";
  { data; restarts_offset; num_restarts }

let size_bytes t = String.length t.data

let restart_point t i =
  Pdb_util.Varint.get_fixed32 t.data (t.restarts_offset + (4 * i))

(* A position in a block.  The current entry's key is decoded eagerly;
   its value stays in the block as [value_len] bytes at [value_pos] and is
   copied out only when asked for.  [next] is the offset of the entry after
   it, and [pos] is the varint decoder's position. *)
type cursor = {
  data : string;
  mutable valid : bool;
  mutable key : string;
  mutable value_pos : int;
  mutable value_len : int;
  mutable next : int;
  pos : int ref;
}

(* Decode the entry at [p] into [c]; [prev] supplies the shared prefix.
   Every length is checked against the block before anything is copied,
   and the entry fields of [c] change only once the whole entry has
   decoded. *)
let decode_at c ~prev p =
  c.pos := p;
  let shared = Pdb_util.Varint.read_uvarint c.data c.pos in
  let non_shared = Pdb_util.Varint.read_uvarint c.data c.pos in
  let value_len = Pdb_util.Varint.read_uvarint c.data c.pos in
  let key_pos = !(c.pos) in
  let room = String.length c.data - key_pos in
  if shared < 0 || shared > String.length prev || non_shared < 0
     || non_shared > room || value_len < 0
     || value_len > room - non_shared
  then invalid_arg "Block: corrupt entry";
  let key = Bytes.create (shared + non_shared) in
  Bytes.blit_string prev 0 key 0 shared;
  Bytes.blit_string c.data key_pos key shared non_shared;
  (* [key] is fresh and never written again *)
  c.key <- Bytes.unsafe_to_string key;
  c.value_pos <- key_pos + non_shared;
  c.value_len <- value_len;
  c.next <- key_pos + non_shared + value_len

(** [iterator ~compare t] walks the block's entries.  [compare] orders the
    stored keys (internal-key order for data blocks). *)
let iterator ~compare (t : t) =
  let c =
    { data = t.data; valid = false; key = ""; value_pos = 0; value_len = 0;
      next = t.restarts_offset; pos = ref 0 }
  in
  (* The first entry after a restart point has shared = 0, so decoding
     with the running previous key is always correct. *)
  let advance () =
    if c.next >= t.restarts_offset then c.valid <- false
    else begin
      decode_at c ~prev:(if c.valid then c.key else "") c.next;
      c.valid <- true
    end
  in
  let seek_to_restart i =
    c.valid <- false;
    c.next <- restart_point t i;
    advance ()
  in
  let seek_to_first () =
    if t.num_restarts = 0 then c.valid <- false else seek_to_restart 0
  in
  let seek target =
    c.valid <- false;
    if t.num_restarts > 0 then begin
      (* last restart whose first key is < target *)
      let lo = ref 0 and hi = ref (t.num_restarts - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        decode_at c ~prev:"" (restart_point t mid);
        if compare c.key target < 0 then lo := mid else hi := mid - 1
      done;
      seek_to_restart !lo;
      while c.valid && compare c.key target < 0 do
        advance ()
      done
    end
  in
  let check () =
    if not c.valid then invalid_arg "Block.iterator: iterator is not valid"
  in
  {
    Pdb_kvs.Iter.seek_to_first;
    seek;
    next = (fun () -> if c.valid then advance ());
    valid = (fun () -> c.valid);
    key = (fun () -> check (); c.key);
    value =
      (fun () ->
        check ();
        String.sub c.data c.value_pos c.value_len);
  }

(** [entries ~compare t] decodes the whole block in order — test helper. *)
let entries ~compare t = Pdb_kvs.Iter.to_list (iterator ~compare t)
