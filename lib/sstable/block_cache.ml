(** Shared block cache: decoded blocks keyed by (file, offset), weighted by
    block size.  A cache hit costs no device time — only the modeled CPU the
    engine charges — which is how "the lower levels are usually cached in
    memory" (§2.2) and the low-memory experiment (Figure 5.2b) are
    expressed.

    Keys are ints: the cache interns each file name once, as a small id,
    and a block's key is [id lsl 32 lor offset].  A table reader keeps its
    file's id, so a lookup allocates nothing; shards sharing one cache hold
    distinct names, hence distinct ids.

    A compaction reads its inputs through {!for_compaction}, a view of the
    store's cache that leaves it as it was (DESIGN "Compaction and the
    block cache"). *)

type t = {
  lru : (int, Block.t) Pdb_util.Lru.t;
  ids : (string, int) Hashtbl.t;  (** file name -> id *)
  mutable next_id : int;  (** ids are never reused *)
  compaction : bool;  (** a view from {!for_compaction} *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  {
    lru = Pdb_util.Lru.create ~capacity;
    ids = Hashtbl.create 64;
    next_id = 0;
    compaction = false;
    hits = 0;
    misses = 0;
  }

(** [for_compaction t] is a view of [t] for one compaction's reads.  A
    block [t] holds comes from [t] ({!held}), with no device read, no
    promotion and no hit or miss counted, so [t]'s counters keep
    measuring the read path alone; any other block is read from the
    device with readahead (see {!Table.iterator}) and cached nowhere: a
    compaction enters each input block once, so a block it loaded would
    never be looked up again.  The view interns no name in [t]. *)
let for_compaction t =
  {
    lru = t.lru;
    ids = t.ids;
    next_id = 0;
    compaction = true;
    hits = 0;
    misses = 0;
  }

let is_compaction t = t.compaction

(** [intern t file] is [file]'s id in [t], assigned on first use.  Through
    a compaction view, a file [t] has no id for gets -1, which no key of
    [t] holds. *)
let intern t file =
  match Hashtbl.find t.ids file with
  | id -> id
  | exception Not_found ->
    if t.compaction then -1
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.ids file id;
      id
    end

(** [key ~id ~offset] is the cache key of the block at [offset] of the file
    interned as [id]. *)
let key ~id ~offset = (id lsl 32) lor offset

(* The block in the [len] bytes of [src] at [pos]: a finished table's
   bytes never change, so the block may view the file's chunk instead of
   a copy of it. *)
let decode (src, pos) ~size = Block.decode_view src ~pos ~len:size

(** [find_or_load t env ~id ~file ~offset ~size ~hint] returns the decoded
    block at [offset] of [file] (interned in [t] as [id]), reading it from
    the environment (and charging device time) only on a miss.  [t] is a
    read-path cache, not a compaction view. *)
let find_or_load t env ~id ~file ~offset ~size ~hint =
  let k = key ~id ~offset in
  match Pdb_util.Lru.find t.lru k with
  | Some block ->
    t.hits <- t.hits + 1;
    block
  | None ->
    t.misses <- t.misses + 1;
    let block =
      decode
        (Pdb_simio.Env.read_view env file ~pos:offset ~len:size ~hint)
        ~size
    in
    Pdb_util.Lru.insert t.lru k block ~weight:size;
    block

(** [held t ~id ~offset] is the block at [offset] of the file interned
    in [t] as [id] when [t] holds it, without promoting it or counting a
    hit: a compaction view's lookup. *)
let held t ~id ~offset =
  if id < 0 then None else Pdb_util.Lru.peek t.lru (key ~id ~offset)

(** [in_memory env ~file ~offset ~size] is the block at [offset] of
    [file] as a view of the file, with no device read and no clock
    charge: for a block whose bytes are in memory, because compaction has
    just written and synced it or has read it ahead. *)
let in_memory env ~file ~offset ~size =
  decode (Pdb_simio.Env.peek_view env file ~pos:offset ~len:size) ~size

(** [admit t env ~file ~offset ~size] caches the block at [offset] of
    [file] as a view of the file, with no device read and no clock
    charge (see {!in_memory}). *)
let admit t env ~file ~offset ~size =
  Pdb_util.Lru.insert t.lru
    (key ~id:(intern t file) ~offset)
    (in_memory env ~file ~offset ~size)
    ~weight:size

(** [evict_file t ~file] drops every cached block of [file], and its name.
    Called when an sstable is garbage-collected: its decoded blocks must
    not keep occupying LRU capacity (they can never hit again) or skew hit
    rates, mirroring [Table_cache.evict]. *)
let evict_file t ~file =
  match Hashtbl.find_opt t.ids file with
  | None -> ()
  | Some id ->
    Hashtbl.remove t.ids file;
    let doomed =
      Pdb_util.Lru.fold t.lru
        (fun acc k _ -> if k lsr 32 = id then k :: acc else acc)
        []
    in
    List.iter (Pdb_util.Lru.remove t.lru) doomed

(** [cached_files t] names each file with a block in [t], in no set
    order. *)
let cached_files t =
  let held = Hashtbl.create 16 in
  Pdb_util.Lru.fold t.lru (fun () k _ -> Hashtbl.replace held (k lsr 32) ()) ();
  Hashtbl.fold
    (fun name id acc -> if Hashtbl.mem held id then name :: acc else acc)
    t.ids []

let used t = Pdb_util.Lru.used t.lru
let hits t = t.hits
let misses t = t.misses
