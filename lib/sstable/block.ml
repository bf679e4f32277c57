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

  (** [add_slice t key src pos len] appends an entry whose value is the
      [len] bytes of [src] at [pos]; keys must arrive in strictly
      ascending order under the table's comparator. *)
  let add_slice t key src pos len =
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
    Pdb_util.Varint.put_uvarint t.buf len;
    Buffer.add_substring t.buf key shared non_shared;
    Buffer.add_substring t.buf src pos len;
    t.last_key <- key;
    t.counter <- t.counter + 1;
    t.entries <- t.entries + 1

  (** [add t key value] appends an entry: [add_slice] over all of
      [value]. *)
  let add t key value = add_slice t key value 0 (String.length value)

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

(** Decoded view over a serialised block: the [limit - base] bytes of
    [data] at [base], which may be a range of a larger string (a file
    chunk).  No decoder reads a byte outside that range. *)
type t = {
  data : string;
  base : int;
  limit : int;
  restarts_offset : int;  (** absolute offset in [data] *)
  num_restarts : int;
}

let decode_view data ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length data - len then
    invalid_arg "Block.decode_view: range out of bounds";
  if len < 4 then invalid_arg "Block.decode: too short";
  let limit = pos + len in
  let num_restarts = Pdb_util.Varint.get_fixed32 data (limit - 4) in
  let restarts_offset = len - 4 - (4 * num_restarts) in
  if restarts_offset < 0 then invalid_arg "Block.decode: corrupt restarts";
  { data; base = pos; limit; restarts_offset = pos + restarts_offset;
    num_restarts }

let decode data = decode_view data ~pos:0 ~len:(String.length data)

let empty = decode "\000\000\000\000"

let size_bytes t = t.limit - t.base

let restart_point t i =
  t.base + Pdb_util.Varint.get_fixed32 t.data (t.restarts_offset + (4 * i))

(* A position in a block.  The current entry's key is decoded eagerly;
   its value stays in the block as [value_len] bytes at [value_pos] and is
   copied out only when asked for.  [next] is the offset of the entry after
   it, and [pos] is the varint decoder's position.  Offsets are absolute
   in [block.data]. *)
type cursor = {
  mutable block : t;
  mutable valid : bool;
  mutable key : string;
  mutable value_pos : int;
  mutable value_len : int;
  mutable next : int;
  pos : int ref;
}

(* Every length of an entry whose key delta starts at [key_pos] is
   checked against the block's limit before anything is copied; [prev_len]
   is the length of the key that supplies the shared prefix. *)
let check_entry b ~prev_len ~shared ~non_shared ~value_len ~key_pos =
  let room = b.limit - key_pos in
  if shared < 0 || shared > prev_len || non_shared < 0
     || non_shared > room || value_len < 0
     || value_len > room - non_shared
  then invalid_arg "Block: corrupt entry"

(* Decode the entry at [p] into [c]; [prev] supplies the shared prefix.
   The entry fields of [c] change only once the whole entry has
   decoded. *)
let decode_at c ~prev p =
  let data = c.block.data and limit = c.block.limit in
  c.pos := p;
  let shared = Pdb_util.Varint.read_uvarint_upto data c.pos limit in
  let non_shared = Pdb_util.Varint.read_uvarint_upto data c.pos limit in
  let value_len = Pdb_util.Varint.read_uvarint_upto data c.pos limit in
  let key_pos = !(c.pos) in
  check_entry c.block ~prev_len:(String.length prev) ~shared ~non_shared
    ~value_len ~key_pos;
  let key = Bytes.create (shared + non_shared) in
  Bytes.blit_string prev 0 key 0 shared;
  Bytes.blit_string data key_pos key shared non_shared;
  (* [key] is fresh and never written again *)
  c.key <- Bytes.unsafe_to_string key;
  c.value_pos <- key_pos + non_shared;
  c.value_len <- value_len;
  c.next <- key_pos + non_shared + value_len

let cursor (t : t) =
  { block = t; valid = false; key = ""; value_pos = 0; value_len = 0;
    next = t.restarts_offset; pos = ref 0 }

(* Point [c] at block [t], before its first entry. *)
let retarget c (t : t) =
  c.block <- t;
  c.valid <- false;
  c.next <- t.restarts_offset

(* The iterator over whatever block [c] points at.  [compare] orders the
   stored keys (internal-key order for data blocks). *)
let cursor_iterator ~compare c =
  (* The first entry after a restart point has shared = 0, so decoding
     with the running previous key is always correct. *)
  let advance () =
    if c.next >= c.block.restarts_offset then c.valid <- false
    else begin
      decode_at c ~prev:(if c.valid then c.key else "") c.next;
      c.valid <- true
    end
  in
  let seek_to_restart i =
    c.valid <- false;
    c.next <- restart_point c.block i;
    advance ()
  in
  let seek_to_first () =
    if c.block.num_restarts = 0 then c.valid <- false else seek_to_restart 0
  in
  let seek target =
    c.valid <- false;
    if c.block.num_restarts > 0 then begin
      (* last restart whose first key is < target *)
      let lo = ref 0 and hi = ref (c.block.num_restarts - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        decode_at c ~prev:"" (restart_point c.block mid);
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
        String.sub c.block.data c.value_pos c.value_len);
    value_slice =
      (fun f ->
        check ();
        f c.block.data c.value_pos c.value_len);
  }

(** [iterator ~compare t] walks the block's entries. *)
let iterator ~compare t = cursor_iterator ~compare (cursor t)

(** [retargetable ~compare t] is an iterator over [t] and a function that
    re-points it at another block, leaving it invalid until the next
    seek. *)
let retargetable ~compare t =
  let c = cursor t in
  (cursor_iterator ~compare c, retarget c)

(* ---------- point search ---------- *)

(* A reusable search position.  [find] leaves the entry it lands on here:
   its key assembled in the first [len] bytes of [buf], which grows to the
   longest key and is then reused, and its value as [vlen] bytes of the
   block at [vpos].  [shared], [delta] and [kpos] hold the header of the
   entry being read; [at] is the varint decoder's position.  A finder
   holds no block: one kept by a cached table reader would keep that
   block's bytes alive after the block cache let them go. *)
type finder = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable shared : int;
  mutable delta : int;
  mutable kpos : int;
  mutable vpos : int;
  mutable vlen : int;
  at : int ref;
}

let finder () =
  { buf = Bytes.create 32; len = 0; shared = 0; delta = 0;
    kpos = 0; vpos = 0; vlen = 0; at = ref 0 }

(* Read the header of the entry at [p] of [b]; the key that supplies its
   shared prefix is [prev_len] bytes long. *)
let read_header f b ~prev_len p =
  f.at := p;
  let shared = Pdb_util.Varint.read_uvarint_upto b.data f.at b.limit in
  let non_shared = Pdb_util.Varint.read_uvarint_upto b.data f.at b.limit in
  let value_len = Pdb_util.Varint.read_uvarint_upto b.data f.at b.limit in
  let key_pos = !(f.at) in
  check_entry b ~prev_len ~shared ~non_shared ~value_len ~key_pos;
  f.shared <- shared;
  f.delta <- non_shared;
  f.kpos <- key_pos;
  f.vpos <- key_pos + non_shared;
  f.vlen <- value_len

(** [find f t target] positions [f] at the first entry of [t] whose key is
    >= [target] in internal-key order, and is [false] when there is
    none. *)
let find f t target =
  f.len <- 0;
  t.num_restarts > 0
  && begin
    (* last restart whose key is < target; a restart's key is stored
       whole, so it is compared where it lies *)
    let lo = ref 0 and hi = ref (t.num_restarts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      read_header f t ~prev_len:0 (restart_point t mid);
      if Pdb_kvs.Internal_key.compare_slice t.data f.kpos f.delta target < 0
      then lo := mid
      else hi := mid - 1
    done;
    (* walk on from it, keeping each key's shared prefix in [buf] *)
    let next = ref (restart_point t !lo) and found = ref false in
    while (not !found) && !next < t.restarts_offset do
      read_header f t ~prev_len:f.len !next;
      let len = f.shared + f.delta in
      if Bytes.length f.buf < len then begin
        let grown = Bytes.create (max len (2 * Bytes.length f.buf)) in
        Bytes.blit f.buf 0 grown 0 f.shared;
        f.buf <- grown
      end;
      Bytes.blit_string t.data f.kpos f.buf f.shared f.delta;
      f.len <- len;
      next := f.vpos + f.vlen;
      found :=
        Pdb_kvs.Internal_key.compare_slice (Bytes.unsafe_to_string f.buf) 0
          len target
        >= 0
    done;
    f.at := f.vpos;
    !found
  end

(* The accessors below read the entry the last successful [find] landed
   on; those that read the value take the block it searched. *)

let found_same_user_key f ikey =
  Pdb_kvs.Internal_key.same_user_key (Bytes.unsafe_to_string f.buf) f.len ikey

let found_kind f =
  Pdb_kvs.Internal_key.kind_of_int
    (Char.code (Bytes.get f.buf (f.len - Pdb_kvs.Internal_key.trailer_size)))

let found_value f t = String.sub t.data f.vpos f.vlen

let next_uvarint f t =
  Pdb_util.Varint.read_uvarint_upto t.data f.at (f.vpos + f.vlen)

(** [entries ~compare t] decodes the whole block in order — test helper. *)
let entries ~compare t = Pdb_kvs.Iter.to_list (iterator ~compare t)
