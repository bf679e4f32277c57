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

  (* The header and key of an entry whose value, [len] bytes, the
     caller appends next. *)
  let add_key t key len =
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
    t.last_key <- key;
    t.counter <- t.counter + 1;
    t.entries <- t.entries + 1

  (** [add_slice t key src pos len] appends an entry whose value is the
      [len] bytes of [src] at [pos]; keys must arrive in strictly
      ascending order under the table's comparator. *)
  let add_slice t key src pos len =
    add_key t key len;
    Buffer.add_substring t.buf src pos len

  (** [add_uvarints t key a b] appends an entry whose value is the
      varints of [a] then [b]. *)
  let add_uvarints t key a b =
    add_key t key
      (Pdb_util.Varint.uvarint_size a + Pdb_util.Varint.uvarint_size b);
    Pdb_util.Varint.put_uvarint t.buf a;
    Pdb_util.Varint.put_uvarint t.buf b

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

(* A position in a block, and for a two-level table a position in its
   index block too; one record, reused across blocks, tables and seeks.

   The data position: [valid] when it rests on an entry of [block], whose
   key is [key] (a fresh string per entry, never written again) and whose
   value stays in the block as [vlen] bytes at [vpos].  [next] is the
   offset of the entry after it.

   The header of the entry read last (by a search, a step or a decode):
   [shared] and [delta] bytes of key, the delta at [kpos], the value at
   [vpos]; [len] is that key's length.  A search assembles keys in [buf],
   which grows to the longest key and is then reused.  [at] is the varint
   decoder's position.

   The index position: [index_next] is the offset of the index entry after
   the one whose block the data position walks ([max_int] when there is
   none), and [index_len] the length of that entry's key.  Offsets are
   absolute in the block's [data]. *)
type cursor = {
  mutable block : t;
  mutable valid : bool;
  mutable key : string;
  mutable next : int;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable shared : int;
  mutable delta : int;
  mutable kpos : int;
  mutable vpos : int;
  mutable vlen : int;
  at : int ref;
  mutable index_next : int;
  mutable index_len : int;
}

let cursor () =
  { block = empty; valid = false; key = ""; next = 0; buf = Bytes.create 32;
    len = 0; shared = 0; delta = 0; kpos = 0; vpos = 0; vlen = 0;
    at = ref 0; index_next = max_int; index_len = 0 }

(* Every length of an entry whose key delta starts at [key_pos] is
   checked against the block's limit before anything is copied; [prev_len]
   is the length of the key that supplies the shared prefix. *)
let check_entry b ~prev_len ~shared ~non_shared ~value_len ~key_pos =
  let room = b.limit - key_pos in
  if shared < 0 || shared > prev_len || non_shared < 0
     || non_shared > room || value_len < 0
     || value_len > room - non_shared
  then invalid_arg "Block: corrupt entry"

(* Read the header of the entry at [p] of [b]; the key that supplies its
   shared prefix is [prev_len] bytes long.  The header fields of [c]
   change only once the whole header has been checked. *)
let read_header c b ~prev_len p =
  c.at := p;
  let shared = Pdb_util.Varint.read_uvarint_upto b.data c.at b.limit in
  let non_shared = Pdb_util.Varint.read_uvarint_upto b.data c.at b.limit in
  let value_len = Pdb_util.Varint.read_uvarint_upto b.data c.at b.limit in
  let key_pos = !(c.at) in
  check_entry b ~prev_len ~shared ~non_shared ~value_len ~key_pos;
  c.shared <- shared;
  c.delta <- non_shared;
  c.kpos <- key_pos;
  c.vpos <- key_pos + non_shared;
  c.vlen <- value_len;
  c.len <- shared + non_shared

(* Decode the entry of [c.block] at [p] as the data position; [prev]
   supplies the shared prefix.  The first entry after a restart point has
   shared = 0, so decoding with the running previous key is always
   correct. *)
let decode_at c ~prev p =
  let b = c.block in
  read_header c b ~prev_len:(String.length prev) p;
  let key = Bytes.create c.len in
  Bytes.blit_string prev 0 key 0 c.shared;
  Bytes.blit_string b.data c.kpos key c.shared c.delta;
  (* [key] is fresh and never written again *)
  c.key <- Bytes.unsafe_to_string key;
  c.next <- c.vpos + c.vlen

let advance c =
  if c.next >= c.block.restarts_offset then c.valid <- false
  else begin
    decode_at c ~prev:(if c.valid then c.key else "") c.next;
    c.valid <- true
  end

(* The data position's moves over whatever block [c] rests on; [compare]
   orders the stored keys. *)

let seek_to_first_in c =
  c.valid <- false;
  if c.block.num_restarts > 0 then begin
    c.next <- restart_point c.block 0;
    advance c
  end

let seek_with ~compare c target =
  c.valid <- false;
  if c.block.num_restarts > 0 then begin
    (* last restart whose first key is < target *)
    let lo = ref 0 and hi = ref (c.block.num_restarts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      decode_at c ~prev:"" (restart_point c.block mid);
      if compare c.key target < 0 then lo := mid else hi := mid - 1
    done;
    c.next <- restart_point c.block !lo;
    advance c;
    while c.valid && compare c.key target < 0 do
      advance c
    done
  end

(* ---------- search in place ---------- *)

(* Complete the key of the entry whose header [c] holds in [c.buf]: its
   shared prefix is already there, from the key before it. *)
let assemble c t =
  if Bytes.length c.buf < c.len then begin
    let grown = Bytes.create (max c.len (2 * Bytes.length c.buf)) in
    Bytes.blit c.buf 0 grown 0 c.shared;
    c.buf <- grown
  end;
  Bytes.blit_string t.data c.kpos c.buf c.shared c.delta

(** [find c t target] positions [c]'s header at the first entry of [t]
    whose key is >= [target] in internal-key order, and is [false] when
    there is none.  It leaves the data position alone. *)
let find c t target =
  c.len <- 0;
  t.num_restarts > 0
  && begin
    (* last restart whose key is < target; a restart's key is stored
       whole, so it is compared where it lies *)
    let lo = ref 0 and hi = ref (t.num_restarts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      read_header c t ~prev_len:0 (restart_point t mid);
      if Pdb_kvs.Internal_key.compare_slice t.data c.kpos c.delta target < 0
      then lo := mid
      else hi := mid - 1
    done;
    (* walk on from it, keeping each key's shared prefix in [buf] *)
    let next = ref (restart_point t !lo) and found = ref false in
    c.len <- 0;
    while (not !found) && !next < t.restarts_offset do
      read_header c t ~prev_len:c.len !next;
      assemble c t;
      next := c.vpos + c.vlen;
      found :=
        Pdb_kvs.Internal_key.compare_slice (Bytes.unsafe_to_string c.buf) 0
          c.len target
        >= 0
    done;
    c.at := c.vpos;
    !found
  end

(* The accessors below read the entry the last successful [find] landed
   on; those that read the value take the block it searched. *)

let found_same_user_key c ikey =
  Pdb_kvs.Internal_key.same_user_key (Bytes.unsafe_to_string c.buf) c.len ikey

let found_kind c =
  Pdb_kvs.Internal_key.kind_of_int
    (Char.code (Bytes.get c.buf (c.len - Pdb_kvs.Internal_key.trailer_size)))

let found_value c t = String.sub t.data c.vpos c.vlen

let next_uvarint c t =
  Pdb_util.Varint.read_uvarint_upto t.data c.at (c.vpos + c.vlen)

(* ---------- the data position over internal-key blocks ---------- *)

(** [seek c t target] rests [c] on the first entry of [t] whose key is >=
    [target]: the search runs in place and only the entry it lands on gets
    a fresh key. *)
let seek c t target =
  c.block <- t;
  c.valid <- false;
  if find c t target then begin
    c.key <- Bytes.sub_string c.buf 0 c.len;
    c.next <- c.vpos + c.vlen;
    c.valid <- true
  end

(** [seek_to_first c t] rests [c] on the first entry of [t]. *)
let seek_to_first c t =
  c.block <- t;
  seek_to_first_in c

let next c = if c.valid then advance c
let valid c = c.valid
let key c = c.key
let value c = String.sub c.block.data c.vpos c.vlen
let value_slice c f = f c.block.data c.vpos c.vlen

(** [add_current b key c] appends to [b] an entry of [key] whose value is
    the one [c] rests on, copied from its block. *)
let add_current b key c = Builder.add_slice b key c.block.data c.vpos c.vlen

let check c =
  if not c.valid then invalid_arg "Block.iterator: iterator is not valid"

(** [iterator ~compare t] walks the block's entries. *)
let iterator ~compare t =
  let c = cursor () in
  c.block <- t;
  {
    Pdb_kvs.Iter.seek_to_first = (fun () -> seek_to_first_in c);
    seek = seek_with ~compare c;
    next = (fun () -> next c);
    valid = (fun () -> c.valid);
    key = (fun () -> check c; c.key);
    value = (fun () -> check c; value c);
    value_slice = (fun f -> check c; value_slice c f);
  }

(** [release c] drops the block and both positions. *)
let release c =
  c.block <- empty;
  c.valid <- false;
  c.index_next <- max_int

(* ---------- the index position ---------- *)

let rest_index c =
  c.index_next <- c.vpos + c.vlen;
  c.index_len <- c.len;
  c.at := c.vpos

(** [index_seek c t target]: {!find} in index block [t], kept as the index
    position; the entry's value is then read with {!next_uvarint}. *)
let index_seek c t target =
  if find c t target then begin
    rest_index c;
    true
  end
  else false

(** [index_first c t] moves the index position to the first entry of
    [t] without decoding its key. *)
let index_first c t =
  t.num_restarts > 0
  && restart_point t 0 < t.restarts_offset
  && begin
    read_header c t ~prev_len:0 (restart_point t 0);
    rest_index c;
    true
  end

(** [index_step c t] moves the index position to the next entry of [t]
    without decoding its key, and is [false] past the last. *)
let index_step c t =
  c.index_next < t.restarts_offset
  && begin
    read_header c t ~prev_len:c.index_len c.index_next;
    rest_index c;
    true
  end

(** [index_copy c ~into] gives [into] [c]'s index position. *)
let index_copy c ~into =
  into.index_next <- c.index_next;
  into.index_len <- c.index_len

(** [iter_index t f] calls [f key len offset size] on each entry of
    index block [t] in order: the entry's key is the first [len] bytes of
    [key], valid during the call only, and its value the block handle
    ([offset], [size]).  Allocates nothing per entry. *)
let iter_index t f =
  let c = cursor () in
  let rec go () =
    assemble c t;
    let offset = next_uvarint c t in
    let size = next_uvarint c t in
    f c.buf c.len offset size;
    if index_step c t then go ()
  in
  if index_first c t then go ()

(** [entries ~compare t] decodes the whole block in order — test helper. *)
let entries ~compare t = Pdb_kvs.Iter.to_list (iterator ~compare t)
