(** Shared block cache: decoded blocks keyed by (file, offset), weighted by
    block size.  A cache hit costs no device time — only the modeled CPU the
    engine charges — which is how "the lower levels are usually cached in
    memory" (§2.2) and the low-memory experiment (Figure 5.2b) are
    expressed.

    Keys are ints: the cache interns each file name once, as a small id,
    and a block's key is [id lsl 32 lor offset].  A table reader keeps its
    file's id, so a lookup allocates nothing; shards sharing one cache hold
    distinct names, hence distinct ids. *)

type t = {
  lru : (int, Block.t) Pdb_util.Lru.t;
  ids : (string, int) Hashtbl.t;  (** file name -> id *)
  mutable next_id : int;  (** ids are never reused *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  {
    lru = Pdb_util.Lru.create ~capacity;
    ids = Hashtbl.create 64;
    next_id = 0;
    hits = 0;
    misses = 0;
  }

(** [intern t file] is [file]'s id in [t], assigned on first use. *)
let intern t file =
  match Hashtbl.find t.ids file with
  | id -> id
  | exception Not_found ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.ids file id;
    id

(** [key ~id ~offset] is the cache key of the block at [offset] of the file
    interned as [id]. *)
let key ~id ~offset = (id lsl 32) lor offset

(** [find_or_load t env ~id ~file ~offset ~size ~hint] returns the decoded
    block at [offset] of [file] (interned in [t] as [id]), reading it from
    the environment (and charging device time) only on a miss. *)
let find_or_load t env ~id ~file ~offset ~size ~hint =
  let k = key ~id ~offset in
  match Pdb_util.Lru.find t.lru k with
  | Some block ->
    t.hits <- t.hits + 1;
    block
  | None ->
    t.misses <- t.misses + 1;
    (* a finished table's bytes never change, so the block may view the
       file's chunk instead of a copy of it *)
    let src, pos = Pdb_simio.Env.read_view env file ~pos:offset ~len:size ~hint in
    let block = Block.decode_view src ~pos ~len:size in
    Pdb_util.Lru.insert t.lru k block ~weight:size;
    block

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

let used t = Pdb_util.Lru.used t.lru
let hits t = t.hits
let misses t = t.misses
