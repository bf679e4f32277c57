(** Store factory: every engine of the evaluation, packaged uniformly.

    Each store runs in its own simulated environment (device, clock, IO
    counters), so per-store measurements never interfere.  Any engine can
    additionally be opened {e sharded}: N independent instances behind a
    range router ({!Pdb_shard.Shard_store}), living under [db/shards/<i>/]
    in the one environment. *)

module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Shard = Pdb_shard.Shard_store

type engine =
  | Pebblesdb
  | Pebblesdb_one  (** max_sstables_per_guard = 1 — the paper's LSM mode *)
  | Hyperleveldb
  | Leveldb
  | Rocksdb
  | Btree  (** KyotoCabinet-style write-through B+-tree *)
  | Wiredtiger

let engine_name = function
  | Pebblesdb -> "pebblesdb"
  | Pebblesdb_one -> "pebblesdb-1"
  | Hyperleveldb -> "hyperleveldb"
  | Leveldb -> "leveldb"
  | Rocksdb -> "rocksdb"
  | Btree -> "kyotocabinet-sim"
  | Wiredtiger -> "wiredtiger-sim"

(** The names the command-line front ends accept for [--store]. *)
let store_names =
  [
    ("pebblesdb", Pebblesdb);
    ("pebblesdb-1", Pebblesdb_one);
    ("hyperleveldb", Hyperleveldb);
    ("leveldb", Leveldb);
    ("rocksdb", Rocksdb);
    ("kyotocabinet", Btree);
    ("wiredtiger", Wiredtiger);
  ]

let engine_of_string s =
  match List.assoc_opt s store_names with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "unknown store %S" s)

let default_options = function
  | Pebblesdb -> O.pebblesdb ()
  | Pebblesdb_one ->
    { (O.pebblesdb ()) with O.name = "pebblesdb-1"; max_sstables_per_guard = 1 }
  | Hyperleveldb -> O.hyperleveldb ()
  | Leveldb -> O.leveldb ()
  | Rocksdb -> O.rocksdb ()
  | Btree -> { (O.leveldb ()) with O.name = "kyotocabinet-sim" }
  | Wiredtiger -> { (O.leveldb ()) with O.name = "wiredtiger-sim" }

(* ---------- compaction-policy routing ---------- *)

(* The implementing engine for a requested compaction policy:
   [flsm_guarded] needs the guard-structured FLSM engine, the three LSM
   layouts need the leveled/tiered engine.  A request that contradicts
   the chosen store remaps to the matching engine (HyperLevelDB profile —
   the FLSM engine's own base — for LSM policies, PebblesDB for
   [flsm_guarded]), so [--compaction-policy] works with any [--store]. *)
let engine_for_policy engine (p : O.compaction_policy) =
  match p with
  | O.Flsm_guarded ->
    (match engine with
     | Pebblesdb | Pebblesdb_one -> engine
     | Hyperleveldb | Leveldb | Rocksdb | Btree | Wiredtiger -> Pebblesdb)
  | O.Leveled | O.Tiered | O.Lazy_leveled ->
    (match engine with
     | Pebblesdb | Pebblesdb_one -> Hyperleveldb
     | (Hyperleveldb | Leveldb | Rocksdb | Btree | Wiredtiger) as e -> e)

(* ---------- the engine modules ---------- *)

(* Each engine module fixes the engine's optional arguments to match
   {!Dyn.S} and supplies the fenced-read surface the shard store and the
   replication layer need. *)

(* What the two LSM-family engines (both over {!Pdb_engine.Shell}) share
   beyond {!Dyn.S}: optional snapshot and block-cache arguments,
   snapshots, and a compaction scheduler. *)
module type SHELL_ENGINE = sig
  type t

  val open_store :
    ?block_cache:Pdb_sstable.Block_cache.t ->
    O.t ->
    env:Env.t ->
    dir:string ->
    t

  val get : ?snapshot:int -> t -> string -> string option
  val iterator : ?snapshot:int -> t -> Pdb_kvs.Iter.t
  val snapshot : t -> int
  val release_snapshot : t -> int -> unit
  val compaction_scheduler : t -> Pdb_compaction.Scheduler.t
  val close : t -> unit
  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val write : t -> Pdb_kvs.Write_batch.t -> unit
  val write_group : t -> Pdb_kvs.Write_batch.t list -> unit
  val flush : t -> unit
  val compact_all : t -> unit
  val stats : t -> Pdb_kvs.Engine_stats.t
  val options : t -> O.t
  val env : t -> Env.t
  val memory_bytes : t -> int
  val describe : t -> string
  val check_invariants : t -> unit
end

module Shell_engine (E : SHELL_ENGINE) = struct
  include E

  let open_store opts ~env ~dir = E.open_store opts ~env ~dir
  let get t k = E.get t k
  let iterator t = E.iterator t

  let open_shard opts ~env ~dir ~shared_block_cache =
    E.open_store ?block_cache:shared_block_cache opts ~env ~dir

  let get_at t ~snapshot k = E.get ~snapshot t k
  let iterator_at t ~snapshot = E.iterator ~snapshot t
  let scheduler t = Some (compaction_scheduler t)
end

(* The page stores have no snapshots and no background scheduler: their
   fenced reads read current state, which the serial simulation makes
   equivalent as long as no writes intervene. *)
module Page_engine (P : Dyn.S) = struct
  include P

  let open_shard opts ~env ~dir ~shared_block_cache:_ = open_store opts ~env ~dir
  let snapshot _ = 0
  let release_snapshot _ _ = ()
  let get_at t ~snapshot:_ k = get t k
  let iterator_at t ~snapshot:_ = iterator t
  let scheduler _ = None
end

module Pebbles_engine = Shell_engine (Pebblesdb.Pebbles_store)
module Lsm_engine = Shell_engine (Pdb_lsm.Lsm_store)

module Btree_engine = Page_engine (struct
  include Pdb_btree.Bptree

  (* fix the optional [?mode] so the module matches Store_intf.S *)
  let open_store opts ~env ~dir = open_store opts ~env ~dir
end)

module Wt_engine = Page_engine (Pdb_btree.Wt_store)

let engine_module : engine -> (module Shard.ENGINE) = function
  | Pebblesdb | Pebblesdb_one -> (module Pebbles_engine)
  | Hyperleveldb | Leveldb | Rocksdb -> (module Lsm_engine)
  | Btree -> (module Btree_engine)
  | Wiredtiger -> (module Wt_engine)

(* whether fenced reads can pin a snapshot (false for the page stores) *)
let snapshots = function
  | Btree | Wiredtiger -> false
  | Pebblesdb | Pebblesdb_one | Hyperleveldb | Leveldb | Rocksdb -> true

(* The store module a profile asks for: the engine itself, or — with
   [O.replicas > 0] — the engine as primary + K backups over a simulated
   network (see Pdb_repl.Repl_store).  Either one satisfies
   {!Shard.ENGINE}, so a sharded replicated store replicates each shard
   independently: per-shard links, backups and acks. *)
let store_module engine (opts : O.t) : (module Shard.ENGINE) =
  let (module E) = engine_module engine in
  if opts.O.replicas > 0 then (module Pdb_repl.Repl_store.Make (E))
  else (module E)

(* The options an open uses: the engine's profile under [tweak].  The
   page stores mutate files in place (positioned writes), which the
   file-shipping mirror's append-only length diffing cannot track —
   their replication always ships the log. *)
let profile ?(tweak = Fun.id) engine =
  let opts = tweak (default_options engine) in
  match engine with
  | (Btree | Wiredtiger) when opts.O.replicas > 0 ->
    { opts with O.repl_strategy = O.Log_shipping }
  | _ -> opts

(** A sharded store with its shard-level surface exposed for tests and
    experiments: routing, per-shard iteration, snapshot fences (None for
    the page stores, which have no snapshots) and the shared block
    cache's true counters. *)
type sharded = {
  s_dyn : Dyn.dyn;
  s_shards : int;  (** shard count at open (splits/merges change it live) *)
  s_shard_of_key : string -> int;
  s_shard_iter : int -> Pdb_kvs.Iter.t;  (** one shard's database iterator *)
  s_shard_stats : int -> Pdb_kvs.Engine_stats.t;  (** one shard's view *)
  s_snapshot : (unit -> int) option;  (** pin a cross-shard fence *)
  s_release : int -> unit;
  s_get_at : (int -> string -> string option) option;
  s_iter_at : (int -> Pdb_kvs.Iter.t) option;
  s_cache_counters : unit -> int * int;
      (** (hits, misses) of the one shared block cache *)
  (* the elastic surface: live topology control and inspection *)
  s_split : shard:int -> key:string -> bool;
      (** split shard [shard] at [key] (strictly inside its range) *)
  s_merge : at:int -> bool;  (** merge shard [at + 1] into shard [at] *)
  s_splits : unit -> string list;  (** the live split vector *)
  s_shard_count : unit -> int;  (** the live shard count *)
  s_topo_version : unit -> int;  (** installed-topology version *)
}

let make_sharded (module E : Shard.ENGINE) ~snapshots opts ~env ~dir =
  let module S = Shard.Make (E) in
  let t = S.open_store opts ~env ~dir in
  {
    s_dyn = Dyn.dyn_of (module S) t;
    s_shards = S.shard_count t;
    s_shard_of_key = (fun k -> S.shard_of_key t k);
    s_shard_iter = (fun i -> E.iterator (S.shard_stores t).(i));
    s_shard_stats = (fun i -> E.stats (S.shard_stores t).(i));
    s_snapshot = (if snapshots then Some (fun () -> S.snapshot t) else None);
    s_release = S.release_snapshot t;
    s_get_at =
      (if snapshots then Some (fun snap k -> S.get_at t ~snapshot:snap k)
       else None);
    s_iter_at =
      (if snapshots then Some (fun snap -> S.iterator_at t ~snapshot:snap)
       else None);
    s_cache_counters =
      (fun () ->
        let c = S.shared_block_cache t in
        (Pdb_sstable.Block_cache.hits c, Pdb_sstable.Block_cache.misses c));
    s_split = (fun ~shard ~key -> S.split t ~shard ~key);
    s_merge = (fun ~at -> S.merge t ~at);
    s_splits = (fun () -> S.splits t);
    s_shard_count = (fun () -> S.shard_count t);
    s_topo_version = (fun () -> S.topology_version t);
  }

(** [open_sharded ?tweak ?env ?shards engine] opens [engine] behind the
    range-partitioned shard store.  [shards] overrides the profile's
    [O.shards]; split points come from [O.shard_splits] (uniform
    byte-interpolated splits when unset — workloads with a common key
    prefix should set explicit splits). *)
let open_sharded ?tweak ?env ?shards engine =
  let opts = profile ?tweak engine in
  let opts =
    match shards with
    | Some n -> { opts with O.shards = max 1 n }
    | None -> opts
  in
  let env = match env with Some e -> e | None -> Env.create () in
  make_sharded (store_module engine opts) ~snapshots:(snapshots engine) opts
    ~env ~dir:"db"

(** [open_engine ?tweak ?env ?shards engine] opens a fresh store.  [tweak]
    edits the profile (experiment-specific sizes); [env] reuses an
    existing environment (reopen scenarios).  [shards] — or a [tweak]
    setting [O.shards] above 1 — routes the store through the shard
    layer; [~shards:(Some 1)] exercises the shard layer with a single
    shard. *)
let open_engine ?tweak ?env ?shards engine =
  let opts = profile ?tweak engine in
  if shards <> None || opts.O.shards > 1 then
    (open_sharded ?tweak ?env ?shards engine).s_dyn
  else begin
    let env = match env with Some e -> e | None -> Env.create () in
    let (module E) = store_module engine opts in
    Dyn.dyn_of (module E) (E.open_store opts ~env ~dir:"db")
  end

(** A replicated store with its failover surface exposed: promote backup
    [i] to a servable store (log shipping hands over the live replaying
    engine; file shipping recovers from the mirrored bytes), and reach a
    backup's environment to crash it or inspect its files. *)
type repl_handle = {
  rh_dyn : Dyn.dyn;
  rh_replicas : int;
  rh_strategy : O.repl_strategy;
  rh_promote : int -> Dyn.dyn;
  rh_backup_env : int -> Env.t;
}

(** [open_repl ?tweak ?env engine] opens [engine] replicated (at least
    one backup; more when the tweak raises [O.replicas]).  Unsharded:
    the failover surface is per-store, which is what the crash torture
    drives. *)
let open_repl ?(tweak = Fun.id) ?env engine =
  let opts =
    profile engine ~tweak:(fun o ->
        let o = tweak o in
        { o with O.replicas = max 1 o.O.replicas })
  in
  let env = match env with Some e -> e | None -> Env.create () in
  let (module E) = engine_module engine in
  let module R = Pdb_repl.Repl_store.Make (E) in
  let t = R.open_store opts ~env ~dir:"db" in
  {
    rh_dyn = Dyn.dyn_of (module R) t;
    rh_replicas = R.backup_count t;
    rh_strategy = R.strategy t;
    rh_promote = R.promote_dyn t;
    rh_backup_env = R.backup_env t;
  }

(** The four key-value stores of the paper's main comparisons. *)
let paper_stores = [ Pebblesdb; Hyperleveldb; Leveldb; Rocksdb ]
