(** Shared block cache: decoded blocks keyed by (file, offset), weighted by
    block size.  A cache hit costs no device time — only the modeled CPU the
    engine charges — which is how "the lower levels are usually cached in
    memory" (§2.2) and the low-memory experiment (Figure 5.2b) are
    expressed. *)

type key = { file : string; offset : int }

type t = (key, Block.t) Pdb_util.Lru.t

let create ~capacity : t = Pdb_util.Lru.create ~capacity

(** [find_or_load t env ~file ~offset ~size ~hint] returns the decoded
    block, reading it from the environment (and charging device time) only
    on a miss. *)
let find_or_load (t : t) env ~file ~offset ~size ~hint =
  let k = { file; offset } in
  match Pdb_util.Lru.find t k with
  | Some block -> block
  | None ->
    (* a finished table's bytes never change, so the block may view the
       file's chunk instead of a copy of it *)
    let src, pos = Pdb_simio.Env.read_view env file ~pos:offset ~len:size ~hint in
    let block = Block.decode_view src ~pos ~len:size in
    Pdb_util.Lru.insert t k block ~weight:size;
    block

(** [evict_file t ~file] drops every cached block of [file].  Called when
    an sstable is garbage-collected: its decoded blocks must not keep
    occupying LRU capacity (they can never hit again) or skew hit rates,
    mirroring [Table_cache.evict]. *)
let evict_file (t : t) ~file =
  let doomed =
    Pdb_util.Lru.fold t
      (fun acc k _ -> if String.equal k.file file then k :: acc else acc)
      []
  in
  List.iter (Pdb_util.Lru.remove t) doomed

let used = Pdb_util.Lru.used
let hits = Pdb_util.Lru.hits
let misses = Pdb_util.Lru.misses
