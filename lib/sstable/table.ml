(** Sstables: immutable sorted tables of internal-key/value entries.

    Layout: data blocks, then an optional bloom-filter block over user keys
    (PebblesDB's sstable-level filters, §4.1), then an index block mapping
    each data block's last key to its (offset, size) handle, then a fixed
    footer.  Entries are written once, in internal-key order, and never
    updated in place.

    The footer is seven 32-bit words: filter offset and size, index
    offset and size, entry count, magic number, and a zero padding word. *)

type handle = { offset : int; size : int }

let footer_size = 28
let magic = 0x50454242 (* "PEBB" *)

(** Summary of a finished table, recorded in the MANIFEST. *)
type meta = {
  number : int;
  file_size : int;
  entries : int;
  smallest : string; (* encoded internal key *)
  largest : string;
}

let file_name ~dir number = Printf.sprintf "%s/%06d.sst" dir number

(** The bloom filter of an open table.  Eager opens decode it immediately;
    summary-guided opens defer the read until the first probe actually
    needs it, so tables touched only by filtered-out seeks never pay it. *)
type filter_slot =
  | No_filter
  | Loaded of Pdb_bloom.Bloom.t
  | Lazy of handle

(** An open table: index block resident in memory (the paper's cached
    index blocks); data blocks go through the shared block cache. *)
type reader = {
  env : Pdb_simio.Env.t;
  name : string;
  meta : meta;
  index : Block.t;
  index_handle : handle;
  filter_handle : handle;
  mutable filter : filter_slot;
  finder : Block.cursor;
      (* reused by every point lookup and readahead walk; searches only,
         so it never holds a block *)
  mutable bound : Block_cache.t; (* the cache [file_id] was interned in *)
  mutable file_id : int;
}

(* Stands for "no cache yet" in a fresh reader's [bound]. *)
let unbound = Block_cache.create ~capacity:0

(* An open table over [index], with nothing yet read through a cache. *)
let make_reader env name meta ~index ~index_handle ~filter_handle filter =
  {
    env;
    name;
    meta;
    index;
    index_handle;
    filter_handle;
    filter;
    finder = Block.cursor ();
    bound = unbound;
    file_id = 0;
  }

(* The reader's file id in [cache], interned when a block load goes
   through a different cache than the one before: the read path and a
   compaction's view of the same cache take turns on one reader. *)
let file_id r cache =
  if r.bound != cache then begin
    r.file_id <- Block_cache.intern cache r.name;
    r.bound <- cache
  end;
  r.file_id

(* A table iterator: the table it reads and one block cursor holding both
   its index position and its data position.  Past the last block the
   cursor is released, so an exhausted iterator holds no block.  Through
   a compaction view, [ahead_from, ahead_to) is the reader's byte range
   the last readahead charged. *)
type iter = {
  mutable reader : reader;
  cache : Block_cache.t;
  hint : Pdb_simio.Device.read_hint;
  pos : Block.cursor;
  mutable resident : bool;
      (* the block entered last was one a compaction view's cache held *)
  mutable ahead_from : int;
  mutable ahead_to : int;
}

let checked it =
  if not (Block.valid it.pos) then
    invalid_arg "Table.iterator: iterator is not valid"

module Builder = struct
  (* The buffers a table is built in: its open data block, its index
     block, its filter's pending keys, and the filter and footer bytes on
     their way into the file.  Each is emptied for the next table and
     keeps its storage, so a store that lends one scratch to every table
     it builds allocates none of them again.  [lent] marks a scratch an
     unfinished builder holds. *)
  type scratch = {
    data : Block.Builder.t;
    index_block : Block.Builder.t;
    keys : Pdb_bloom.Bloom.pending;
    tail : Buffer.t;
    mutable lent : bool;
  }

  let scratch () =
    {
      data = Block.Builder.create ();
      index_block = Block.Builder.create ();
      keys = Pdb_bloom.Bloom.pending ();
      tail = Buffer.create 256;
      lent = false;
    }

  type t = {
    env : Pdb_simio.Env.t;
    writer : Pdb_simio.Env.writer;
    file : string;
    number : int;
    block_bytes : int;
    bloom : bool;
    scratch : scratch;
    mutable offset : int;
    index : (string * handle) list ref; (* reversed *)
    mutable smallest : string; (* meaningful once [entries > 0] *)
    mutable largest : string;
    mutable entries : int;
    mutable open_hot : bool; (* the open data block is hot *)
    mutable hot : handle list; (* hot data blocks written, reversed *)
  }

  (** [create ?scratch env ~dir ~number ~block_bytes ~bloom] starts a new
      table file in [scratch]'s buffers, or in fresh ones when [scratch]
      is absent or lent to a builder not finished yet.  [bloom = true]
      attaches a per-table filter, sized at [finish] to the table's
      distinct user keys. *)
  let create ?scratch:lend env ~dir ~number ~block_bytes ~bloom =
    let name = file_name ~dir number in
    let s =
      match lend with
      | Some s when not s.lent ->
        Block.Builder.reset s.data;
        Block.Builder.reset s.index_block;
        Pdb_bloom.Bloom.clear s.keys;
        s
      | Some _ | None -> scratch ()
    in
    s.lent <- true;
    {
      env;
      writer = Pdb_simio.Env.create_file env name;
      file = name;
      number;
      block_bytes;
      bloom;
      scratch = s;
      offset = 0;
      index = ref [];
      smallest = "";
      largest = "";
      entries = 0;
      open_hot = false;
      hot = [];
    }

  (* Every append of a table is staged: the device sees one write per
     {!Pdb_kvs.Options.io_coalesce_bytes} of the file. *)
  let append t buf =
    Pdb_simio.Env.append_coalesced t.writer
      ~unit:Pdb_kvs.Options.io_coalesce_bytes buf

  let write_block t builder =
    let raw = Block.Builder.seal builder in
    append t raw;
    let h = { offset = t.offset; size = Buffer.length raw } in
    t.offset <- t.offset + Buffer.length raw;
    Block.Builder.reset builder;
    h

  (* Append [t]'s filter-and-footer buffer, emptied by [fill] first, and
     return where it went. *)
  let write_tail t fill =
    let buf = t.scratch.tail in
    Buffer.clear buf;
    fill buf;
    append t buf;
    let h = { offset = t.offset; size = Buffer.length buf } in
    t.offset <- t.offset + Buffer.length buf;
    h

  let flush_data_block t =
    if not (Block.Builder.is_empty t.scratch.data) then begin
      let last_key = t.largest in
      let h = write_block t t.scratch.data in
      t.index := (last_key, h) :: !(t.index);
      if t.open_hot then begin
        t.hot <- h :: t.hot;
        t.open_hot <- false
      end
    end

  (** [mark_hot t] marks the data block the next entry lands in as hot. *)
  let mark_hot t = t.open_hot <- true

  (* Count entry [ikey], about to be added, and note its user key for the
     filter unless the entry before it had the same one: compared in
     place against [largest], the previous entry's key. *)
  let note_entry t ikey =
    let n = String.length ikey in
    if t.bloom
       && (t.entries = 0
          || not (Pdb_kvs.Internal_key.same_user_key ikey n t.largest))
    then
      Pdb_bloom.Bloom.note_sub t.scratch.keys ikey 0
        (n - Pdb_kvs.Internal_key.trailer_size);
    if t.entries = 0 then t.smallest <- ikey;
    t.largest <- ikey;
    t.entries <- t.entries + 1

  let end_entry t =
    if Block.Builder.current_size_estimate t.scratch.data >= t.block_bytes
    then flush_data_block t

  (** [add t ikey value] appends an entry; internal keys must arrive in
      ascending order. *)
  let add t ikey value =
    note_entry t ikey;
    Block.Builder.add t.scratch.data ikey value;
    end_entry t

  (** [add_current t ikey it] appends an entry of [ikey] whose value is
      the one [it] rests on, copied from its block. *)
  let add_current t ikey it =
    checked it;
    note_entry t ikey;
    Block.add_current t.scratch.data ikey it.pos;
    end_entry t

  let estimated_size t =
    t.offset + Block.Builder.current_size_estimate t.scratch.data

  let entry_count t = t.entries

  (** [admit_hot t cache] puts each hot data block of finished table [t]
      into [cache] as a view of the file, in file order, with no device
      charge: the table was just written and synced, so its bytes are in
      memory. *)
  let admit_hot t cache =
    List.iter
      (fun (h : handle) ->
        Block_cache.admit cache t.env ~file:t.file ~offset:h.offset
          ~size:h.size)
      (List.rev t.hot)

  (* Write the filter, index and footer of non-empty [t], sync the file,
     and open the table from what [t] holds (see {!finish}). *)
  let complete t =
    flush_data_block t;
    (* filter block, sized to the keys noted *)
    let filter =
      if t.bloom then Some (Pdb_bloom.Bloom.of_pending t.scratch.keys) else None
    in
    let filter_handle =
      match filter with
      | Some f -> write_tail t (fun buf -> Pdb_bloom.Bloom.encode_to buf f)
      | None -> { offset = 0; size = 0 }
    in
    (* index block *)
    let index_block = t.scratch.index_block in
    List.iter
      (fun (last_key, (h : handle)) ->
        Block.Builder.add_uvarints index_block last_key h.offset h.size)
      (List.rev !(t.index));
    let index_handle = write_block t index_block in
    (* footer *)
    let put = Pdb_util.Varint.put_fixed32 in
    ignore
      (write_tail t (fun buf ->
           put buf filter_handle.offset;
           put buf filter_handle.size;
           put buf index_handle.offset;
           put buf index_handle.size;
           put buf t.entries;
           put buf magic;
           put buf 0));
    Pdb_simio.Env.sync t.writer;
    Pdb_simio.Env.close t.writer;
    let meta =
      {
        number = t.number;
        file_size = t.offset;
        entries = t.entries;
        smallest = t.smallest;
        largest = t.largest;
      }
    in
    let src, pos =
      Pdb_simio.Env.peek_view t.env t.file ~pos:index_handle.offset
        ~len:index_handle.size
    in
    let reader =
      make_reader t.env t.file meta
        ~index:(Block.decode_view src ~pos ~len:index_handle.size)
        ~index_handle ~filter_handle
        (match filter with Some f -> Loaded f | None -> No_filter)
    in
    (meta, reader)

  (** [finish t] writes filter, index and footer, syncs the file, and
      returns the table's metadata with the table opened from what [t]
      holds: the index as a view of the file (see
      {!Pdb_simio.Env.peek_view}), the filter it built and the footer's
      fields, with no device read and no clock charge, since the table
      was just written and synced and its bytes are in memory.  Empty
      builders produce no file and return [None].  Either way the
      scratch goes back to its lender. *)
  let finish t =
    let result =
      if t.entries = 0 then begin
        Pdb_simio.Env.close t.writer;
        Pdb_simio.Env.delete t.env t.file;
        None
      end
      else Some (complete t)
    in
    t.scratch.lent <- false;
    result
end

let load_block r ~cache ~hint ~offset ~size =
  Block_cache.find_or_load cache r.env ~id:(file_id r cache) ~file:r.name
    ~offset ~size ~hint

let ikey_compare = Pdb_kvs.Internal_key.compare

(* The index block and the filter in the [len] bytes of [src] at [off],
   a view of the file (see {!Pdb_simio.Env.read_view}): the index views
   the file's chunk, the filter copies its bits once. *)
let index_of (src, off) ~len = Block.decode_view src ~pos:off ~len
let filter_of (src, off) ~len = Pdb_bloom.Bloom.decode_range src ~pos:off ~len

(* The footer's fields: the filter and index handles and the entry
   count. *)
type footer = { filter_at : handle; index_at : handle; count : int }

(* Read and check [name]'s footer, the last [footer_size] bytes. *)
let read_footer env name ~hint =
  let size = Pdb_simio.Env.file_size env name in
  let src, at =
    Pdb_simio.Env.read_view env name ~pos:(size - footer_size)
      ~len:footer_size ~hint
  in
  let field i = Pdb_util.Varint.get_fixed32 src (at + (4 * i)) in
  if field 5 <> magic then
    failwith (Printf.sprintf "Table %s: bad magic" name);
  {
    filter_at = { offset = field 0; size = field 1 };
    index_at = { offset = field 2; size = field 3 };
    count = field 4;
  }

(* Open [name] past its footer: read its filter and index, which lie
   next to each other, in one device read. *)
let open_past_footer env name meta { filter_at; index_at; count = _ } ~hint =
  let pos = if filter_at.size = 0 then index_at.offset else filter_at.offset in
  Pdb_simio.Env.prefetch env name ~pos
    ~len:(index_at.offset + index_at.size - pos)
    ~hint;
  let peek { offset; size } =
    Pdb_simio.Env.peek_view env name ~pos:offset ~len:size
  in
  let index = index_of (peek index_at) ~len:index_at.size in
  let filter =
    if filter_at.size = 0 then No_filter
    else Loaded (filter_of (peek filter_at) ~len:filter_at.size)
  in
  make_reader env name meta ~index ~index_handle:index_at
    ~filter_handle:filter_at filter

(** [open_reader ?hint env ~dir meta] opens a table from its file,
    reading the footer, then the filter and index in one read: two random
    reads on the read path
    (a table the store did not write since it opened, or one the table
    cache evicted with no summary kept); a compaction input no cache
    holds passes [~hint:Sequential_read].  A table a store writes is
    opened by its builder instead ({!Builder.finish}). *)
let open_reader ?(hint = Pdb_simio.Device.Random_read) env ~dir (meta : meta) =
  let name = file_name ~dir meta.number in
  open_past_footer env name meta (read_footer env name ~hint) ~hint

(** [open_via_summary env ~dir meta summary] reopens an evicted table
    guided by its {!Index_summary}: the footer read is skipped entirely
    (the summary retains the handles), the index read is billed as one
    inter-sample slice (the bytes beyond it are refunded — the summary
    bounds where in the index any key lives), and the filter is left
    {!Lazy} until a probe needs it. *)
let open_via_summary ?(hint = Pdb_simio.Device.Random_read) env ~dir
    (meta : meta) summary =
  let name = file_name ~dir meta.number in
  let index_off, index_size = Index_summary.index_handle summary in
  let index =
    index_of
      (Pdb_simio.Env.read_view env name ~pos:index_off ~len:index_size ~hint)
      ~len:index_size
  in
  let slice = Index_summary.slice_bytes summary in
  let excess = index_size - slice in
  if excess > 0 then
    Pdb_simio.Clock.refund
      (Pdb_simio.Env.clock env)
      (float_of_int excess *. (Pdb_simio.Env.device env).Pdb_simio.Device.read_byte_ns);
  let filter_off, filter_size = Index_summary.filter_handle summary in
  let filter_handle = { offset = filter_off; size = filter_size } in
  make_reader env name meta ~index
    ~index_handle:{ offset = index_off; size = index_size }
    ~filter_handle
    (if filter_size = 0 then No_filter else Lazy filter_handle)

(* Materialise a lazy filter, charging the deferred random read. *)
let load_filter r =
  match r.filter with
  | No_filter -> None
  | Loaded f -> Some f
  | Lazy h ->
    let f =
      filter_of
        (Pdb_simio.Env.read_view r.env r.name ~pos:h.offset ~len:h.size
           ~hint:Pdb_simio.Device.Random_read)
        ~len:h.size
    in
    r.filter <- Loaded f;
    Some f

(** [may_contain r user_key] consults the table's bloom filter; [true] when
    no filter is attached. *)
let may_contain r user_key =
  match r.filter with
  | Loaded f -> Pdb_bloom.Bloom.mem f user_key
  | No_filter | Lazy _ -> (
    match load_filter r with
    | Some f -> Pdb_bloom.Bloom.mem f user_key
    | None -> true)

let number r = r.meta.number
let has_filter r = match r.filter with No_filter -> false | _ -> true
let filter_resident r = match r.filter with Loaded _ -> true | _ -> false

(** In-memory footprint of the open table (index + filter), for Table 5.4.
    A still-lazy filter is counted at its on-disk size — the decoded bloom
    is the bit array plus a small header, so the two agree. *)
let resident_bytes r =
  Block.size_bytes r.index
  + (match r.filter with
     | Loaded f -> Pdb_bloom.Bloom.size_bytes f
     | Lazy h -> h.size
     | No_filter -> 0)

(** [summarize ~stride r] digests an open table into an {!Index_summary}
    capturing its handles and actual resident footprint.  The index is
    walked in place: only the sampled keys are copied. *)
let summarize ~stride r =
  Index_summary.build ~stride ~number:r.meta.number ~entries:r.meta.entries
    ~index_handle:(r.index_handle.offset, r.index_handle.size)
    ~filter_handle:(r.filter_handle.offset, r.filter_handle.size)
    ~index_bytes:(Block.size_bytes r.index)
    ~filter_bytes:
      (match r.filter with
       | Loaded f -> Pdb_bloom.Bloom.size_bytes f
       | Lazy h -> h.size
       | No_filter -> 0)
    (Block.iter_index r.index)

(** [get r ~cache ~hint lookup] is the kind and value of the first entry
    at or after internal key [lookup] when that entry holds [lookup]'s user
    key, reading at most one data block. *)
let get r ~cache ~hint lookup =
  let f = r.finder in
  if not (Block.find f r.index lookup) then None
  else begin
    let offset = Block.next_uvarint f r.index in
    let size = Block.next_uvarint f r.index in
    let block = load_block r ~cache ~hint ~offset ~size in
    if Block.find f block lookup && Block.found_same_user_key f lookup then
      Some (Block.found_kind f, Block.found_value f block)
    else None
  end

let iterator r ~cache ~hint =
  {
    reader = r;
    cache;
    hint;
    pos = Block.cursor ();
    resident = false;
    ahead_from = 0;
    ahead_to = 0;
  }

let repoint it r =
  it.reader <- r;
  it.ahead_to <- 0;
  Block.release it.pos

(* The bytes of one readahead from the data block [offset, offset +
   size), which the cache does not hold: that block and the consecutive
   data blocks after it, up to the first block the cache holds, the end
   of the data blocks or {!Pdb_kvs.Options.io_coalesce_bytes} in all.
   The index is walked with the reader's [finder], which holds nothing
   between calls. *)
let readahead_bytes it ~id ~offset ~size =
  let r = it.reader and c = it.reader.finder in
  Block.index_copy it.pos ~into:c;
  let rec grow len =
    if not (Block.index_step c r.index) then len
    else begin
      let next = Block.next_uvarint c r.index in
      let next_size = Block.next_uvarint c r.index in
      if next <> offset + len
         || len + next_size > Pdb_kvs.Options.io_coalesce_bytes
         || Option.is_some (Block_cache.held it.cache ~id ~offset:next)
      then len
      else grow (len + next_size)
    end
  in
  grow size

(* A data block through a compaction view: from the cache when it holds
   the block, else from the last readahead, charging a new one when the
   block lies outside it.  Every block of a readahead is one the merge
   goes on to enter, so the bytes read are those of the uncached blocks,
   and only the device ops fall. *)
let enter_compacting it ~offset ~size =
  let r = it.reader in
  let id = file_id r it.cache in
  match Block_cache.held it.cache ~id ~offset with
  | Some block ->
    it.resident <- true;
    block
  | None ->
    it.resident <- false;
    if offset < it.ahead_from || offset + size > it.ahead_to then begin
      let len = readahead_bytes it ~id ~offset ~size in
      Pdb_simio.Env.prefetch r.env r.name ~pos:offset ~len ~hint:it.hint;
      it.ahead_from <- offset;
      it.ahead_to <- offset + len
    end;
    Block_cache.in_memory r.env ~file:r.name ~offset ~size

(* The data block of the index entry the cursor rests on: its handle is
   the entry's value. *)
let enter it =
  let r = it.reader in
  let offset = Block.next_uvarint it.pos r.index in
  let size = Block.next_uvarint it.pos r.index in
  if Block_cache.is_compaction it.cache then enter_compacting it ~offset ~size
  else load_block r ~cache:it.cache ~hint:it.hint ~offset ~size

(* Step over exhausted blocks, entering each next one at its first
   entry. *)
let rec skip_exhausted it =
  if not (Block.valid it.pos) then
    if Block.index_step it.pos it.reader.index then begin
      Block.seek_to_first it.pos (enter it);
      skip_exhausted it
    end
    else Block.release it.pos

let seek it target =
  if Block.index_seek it.pos it.reader.index target then begin
    Block.seek it.pos (enter it) target;
    skip_exhausted it
  end
  else Block.release it.pos

let seek_to_first it =
  if Block.index_first it.pos it.reader.index then begin
    Block.seek_to_first it.pos (enter it);
    skip_exhausted it
  end
  else Block.release it.pos

let next it =
  Block.next it.pos;
  skip_exhausted it

let valid it = Block.valid it.pos
let resident it = it.resident

let key it =
  checked it;
  Block.key it.pos

let value it =
  checked it;
  Block.value it.pos

let value_slice it f =
  checked it;
  Block.value_slice it.pos f

let to_iter it =
  {
    Pdb_kvs.Iter.seek_to_first = (fun () -> seek_to_first it);
    seek = seek it;
    next = (fun () -> next it);
    valid = (fun () -> valid it);
    key = (fun () -> key it);
    value = (fun () -> value it);
    value_slice = value_slice it;
  }

(** [recover_meta env ~dir ~number] reconstructs a table's metadata from
    the file alone — the repair path when the MANIFEST is lost.  Reads the
    footer (once: it holds the entry count), the filter and index (one
    read), and the first data block for the smallest key; the largest key
    is the index's final entry. *)
let recover_meta env ~dir ~number =
  let name = file_name ~dir number in
  let file_size = Pdb_simio.Env.file_size env name in
  let hint = Pdb_simio.Device.Sequential_read in
  let footer = read_footer env name ~hint in
  let entries = footer.count in
  let probe = { number; file_size; entries; smallest = ""; largest = "" } in
  let reader = open_past_footer env name probe footer ~hint in
  let index_it = Block.iterator ~compare:ikey_compare reader.index in
  index_it.Pdb_kvs.Iter.seek_to_first ();
  let largest = ref "" in
  while index_it.Pdb_kvs.Iter.valid () do
    largest := index_it.Pdb_kvs.Iter.key ();
    index_it.Pdb_kvs.Iter.next ()
  done;
  let cache = Block_cache.create ~capacity:(1 lsl 16) in
  let it = iterator reader ~cache ~hint in
  seek_to_first it;
  if not (valid it) then
    failwith (Printf.sprintf "Table.recover_meta %s: empty table" name);
  { number; file_size; entries; smallest = key it; largest = !largest }
