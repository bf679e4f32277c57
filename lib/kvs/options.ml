(** Store configuration and engine profiles.

    One flat record configures every engine.  The four presets mirror the
    paper's evaluated systems; sizes are scaled down ~64x from the paper's
    defaults (4 MB memtables become 64 KB, 10 MB level-1 becomes 160 KB, 2 MB
    sstables become 32 KB) so that scaled-down datasets traverse the same
    number of levels and compaction generations as the paper's runs.

    The [op_overhead_*] and [compaction_threads] fields encode the
    *engineering* differences between the baselines (global-mutex locking in
    LevelDB, RocksDB's heavier write path under its default tuning,
    HyperLevelDB's fine-grained locking and parallel compaction) as
    documented calibrated constants — see DESIGN.md §1.  The IO behaviour,
    which drives the paper's headline results, is fully simulated from the
    data structures themselves.

    A field exists only when a preset, an experiment, a CLI flag or the
    paper's tuning knob ([max_sstables_per_guard], §3.5) varies it.
    Thresholds and modeled costs that take one value everywhere are the
    model constants below, read directly as [Options.x]. *)

(** Which point of the compaction design space (Sarkar et al.) the engine
    runs: how levels lay out their runs, what triggers a compaction, and
    which victims it picks.  The first-class policy value that interprets
    this choice lives in [Pdb_compaction.Policy]; the constructors live
    here so every layer below the harness can pattern-match without
    depending on the compaction library. *)
type compaction_policy =
  | Leveled  (** disjoint sorted files per level, partial victims *)
  | Tiered  (** overlapping sorted runs per level, merged wholesale *)
  | Lazy_leveled  (** tiered upper levels, leveled last level *)
  | Flsm_guarded  (** FLSM guards (PebblesDB) — requires the FLSM engine *)

let compaction_policy_name = function
  | Leveled -> "leveled"
  | Tiered -> "tiered"
  | Lazy_leveled -> "lazy_leveled"
  | Flsm_guarded -> "flsm_guarded"

let compaction_policy_of_string = function
  | "leveled" -> Ok Leveled
  | "tiered" -> Ok Tiered
  | "lazy_leveled" | "lazy-leveled" -> Ok Lazy_leveled
  | "flsm_guarded" | "flsm-guarded" | "flsm" -> Ok Flsm_guarded
  | s ->
    Error
      (Printf.sprintf
         "unknown compaction policy %S (expected leveled | tiered | \
          lazy_leveled | flsm_guarded)"
         s)

let all_compaction_policies = [ Leveled; Tiered; Lazy_leveled; Flsm_guarded ]

(** How foreground writes are throttled against compaction debt (see
    [Pdb_kvs.Backpressure]).  [Cliff] is the seed LevelDB model: a fixed
    per-group penalty once L0 crosses [l0_slowdown], classified Stop past
    [l0_stop].  [Token_bucket] is the smooth controller: a write-rate
    budget refilled on the simulated clock whose rate degrades
    continuously with compaction debt (L0 files + backlog bytes), so
    latency ramps instead of jumping at the thresholds.  [Unthrottled]
    disables write stalls entirely (measurement baseline only). *)
type throttle =
  | Unthrottled
  | Cliff
  | Token_bucket

let throttle_name = function
  | Unthrottled -> "off"
  | Cliff -> "cliff"
  | Token_bucket -> "token_bucket"

let throttle_of_string = function
  | "off" | "none" | "unthrottled" -> Ok Unthrottled
  | "cliff" -> Ok Cliff
  | "token_bucket" | "token-bucket" | "tb" -> Ok Token_bucket
  | s ->
    Error
      (Printf.sprintf
         "unknown throttle %S (expected off | cliff | token_bucket)" s)

(** What a primary ships to its backups (Vardoulakis et al.'s design
    axis).  [Log_shipping] forwards WAL records at group-commit
    granularity and the backup re-runs its own flush/compaction — few
    network bytes, backup CPU burned re-merging.  [File_shipping] ships
    sstables and manifest edits as flush/compaction installs them — the
    backup applies bytes without merging, so its CPU idles while the
    network carries the primary's full write amplification. *)
type repl_strategy =
  | Log_shipping
  | File_shipping

let repl_strategy_name = function
  | Log_shipping -> "log"
  | File_shipping -> "file"

let repl_strategy_of_string = function
  | "log" | "log_shipping" | "log-shipping" | "wal" -> Ok Log_shipping
  | "file" | "file_shipping" | "file-shipping" | "sst" -> Ok File_shipping
  | s ->
    Error
      (Printf.sprintf "unknown replication strategy %S (expected log | file)"
         s)

(** {2 Model constants}

    Thresholds and modeled costs that every engine and preset shares.
    They are engineering constants of the model rather than axes of the
    design space, so they are values here and not fields of {!t}. *)

(** files in L0 that trigger compaction *)
let l0_compaction_trigger = 4

(** each level below level 1 holds this many times its parent's bytes *)
let level_bytes_multiplier = 10

(** per-entry delay scale of write throttling: the [Cliff] penalty per
    stalled group, and the [Token_bucket] per-entry delay at exactly the
    stop threshold *)
let slowdown_stall_ns = 100_000.0

(** token-bucket capacity: entries that may land at full speed before
    debt-keyed pacing kicks in.  About half a scaled memtable's worth of
    1KB entries: bursts shorter than a flush ride free, sustained
    overload gets paced. *)
let throttle_burst_entries = 32

(** sstables in a guard that invite compaction *)
let guard_sstable_trigger = 3

(** consecutive seeks triggering compaction *)
let seek_compaction_threshold = 10

(** compact level i when size(i) >= ratio * size(i+1) *)
let aggressive_level_ratio = 0.25

(** rewrite in second-highest level if merging costs this many times more
    IO (the paper's 25x heuristic) *)
let last_level_merge_io_factor = 25.0

(* modeled CPU costs, ns *)

let cpu_per_op_ns = 1_000.0

(** examining one sstable (search/position) *)
let cpu_per_sstable_ns = 5_000.0

let cpu_per_block_search_ns = 1_000.0
let cpu_bloom_check_ns = 250.0

(** per entry moved during compaction *)
let cpu_per_merge_entry_ns = 400.0

let cpu_memtable_op_ns = 1_000.0

type t = {
  name : string;
  compaction_policy : compaction_policy;
  (* memtable / level shape *)
  memtable_bytes : int;
  l0_slowdown : int;  (** L0 files beyond which writes are slowed *)
  l0_stop : int;  (** L0 files beyond which writes stall *)
  level_bytes_base : int;  (** max bytes for level 1 *)
  max_levels : int;
  sstable_target_bytes : int;
  block_bytes : int;
  (* caching *)
  block_cache_bytes : int;
  table_cache_entries : int;  (** open tables whose index/filter stay cached *)
  index_summary_stride : int;
      (** keep a compressed in-memory summary (every Nth index entry,
          shared-prefix truncated) per table above the table cache, so an
          evicted table reopens with one bounded index read instead of
          footer+index+filter; [0] disables summaries *)
  (* bloom *)
  sstable_bloom : bool;  (** per-sstable filters (PebblesDB §4.1) *)
  (* durability *)
  wal_sync_writes : bool;  (** fsync the WAL on every batch *)
  (* engineering constants (see module doc) *)
  compaction_threads : int;
  compaction_pick_files : int;
      (** files picked per levelled compaction (HyperLevelDB compacts more
          eagerly than LevelDB) *)
  op_overhead_write_ns : float;
  op_overhead_read_ns : float;
  (* write throttling (Pdb_kvs.Backpressure) *)
  throttle : throttle;
  flush_reserved_lane : bool;
      (** reserve a scheduler lane for memtable flushes so a deep
          compaction queue can never starve memtable rotation *)
  (* FLSM / PebblesDB parameters (§3.5, §4.4) *)
  top_level_bits : int;  (** trailing hash bits required for a L1 guard *)
  bit_decrement : int;  (** bits relaxed per deeper level *)
  max_sstables_per_guard : int;  (** hard cap; 1 makes FLSM behave as LSM *)
  seek_filtering : bool;
      (** consult per-table key ranges on the seek and scan path,
          skipping tables provably disjoint from the probe range;
          read-path only — never changes on-disk bytes *)
  probe_budget : int;
      (** concurrent sstable probes a multi-table get or seek may overlap
          (the device's internal read parallelism, {!Pdb_simio.Probe});
          1 serialises every probe (the measurement baseline) *)
  seek_based_compaction : bool;
      (** compact guards after a run of consecutive seeks (§4.2) *)
  (* range-partitioned sharding (the scale-out layer over any engine) *)
  shards : int;  (** independent engine instances the keyspace splits over *)
  shard_splits : string list;
      (** [shards - 1] sorted split keys; shard [i] owns
          [[split.(i-1), split.(i))].  When the list does not match the
          shard count, uniform byte-interpolated splits are derived. *)
  (* elastic sharding: live split/merge/migrate driven by per-shard load *)
  elastic : bool;
      (** let the shard store resplit itself: detect hot shards from
          per-shard op counters, split them at a sampled median key,
          merge cold neighbours, and migrate ranges as background jobs *)
  elastic_window_ops : int;
      (** routed operations per elasticity decision window; the
          controller re-examines the balance once per window (op-count
          based, never clock based, so decisions are identical at any
          compaction worker count) *)
  elastic_split_ratio : float;
      (** split the hottest shard when its window ops exceed
          [ratio * mean] and the shard count is below
          [elastic_max_shards] *)
  elastic_merge_ratio : float;
      (** merge the coldest adjacent pair when their combined window
          ops fall below [ratio * mean] *)
  elastic_max_shards : int;  (** upper bound on the live shard count *)
  (* primary–backup replication (lib/repl, over any engine or shard) *)
  replicas : int;  (** backups per primary; [0] disables replication *)
  repl_strategy : repl_strategy;
}

let base =
  {
    name = "base";
    compaction_policy = Leveled;
    memtable_bytes = 64 * 1024;
    l0_slowdown = 8;
    l0_stop = 12;
    level_bytes_base = 160 * 1024;
    max_levels = 7;
    sstable_target_bytes = 32 * 1024;
    block_bytes = 4 * 1024;
    block_cache_bytes = 8 * 1024 * 1024;
    table_cache_entries = 4000;
    index_summary_stride = 16;
    sstable_bloom = true;
    wal_sync_writes = false;
    compaction_threads = 1;
    compaction_pick_files = 1;
    op_overhead_write_ns = 8_000.0;
    op_overhead_read_ns = 2_000.0;
    throttle = Token_bucket;
    flush_reserved_lane = true;
    (* The paper's default of 27 bits suits ~100M keys; scaled to the
       ~50-200k keys of the scaled experiments this is ~17 bits (guard
       density per key is what matters). *)
    top_level_bits = 17;
    bit_decrement = 2;
    max_sstables_per_guard = 8;
    seek_filtering = true;
    probe_budget = 4;
    seek_based_compaction = true;
    shards = 1;
    shard_splits = [];
    elastic = false;
    elastic_window_ops = 2048;
    elastic_split_ratio = 1.6;
    elastic_merge_ratio = 0.6;
    elastic_max_shards = 16;
    replicas = 0;
    repl_strategy = Log_shipping;
  }

(** LevelDB: 4 MB memtable (scaled), block-level blooms only (we model it as
    table blooms off), single compaction thread, global-mutex write path. *)
let leveldb () =
  {
    base with
    name = "leveldb";
    sstable_bloom = false;
    compaction_threads = 1;
    op_overhead_write_ns = 30_000.0;
    op_overhead_read_ns = 4_000.0;
  }

(** RocksDB under its defaults: 64 MB memtable (scaled), generous L0 limits,
    4 compaction threads, heavier per-write path. *)
let rocksdb () =
  {
    base with
    name = "rocksdb";
    memtable_bytes = 256 * 1024;
    l0_slowdown = 20;
    l0_stop = 24;
    sstable_bloom = true;
    compaction_threads = 4;
    compaction_pick_files = 2;
    (* RocksDB's default tuning shows heavy write-path overhead and stalls
       in the paper's runs (slowest baseline in Table 5.2) *)
    op_overhead_write_ns = 100_000.0;
    op_overhead_read_ns = 3_000.0;
  }

(** HyperLevelDB: LevelDB plus fine-grained locking and parallel, eager
    compaction.  Per the paper's methodology, sstable-level bloom filters
    are added to make the comparison fair. *)
let hyperleveldb () =
  {
    base with
    name = "hyperleveldb";
    sstable_bloom = true;
    compaction_threads = 2;
    compaction_pick_files = 2;
    op_overhead_write_ns = 4_000.0;
    op_overhead_read_ns = 2_000.0;
  }

(** PebblesDB: built over the HyperLevelDB base (§4.4). *)
let pebblesdb () =
  {
    base with
    name = "pebblesdb";
    compaction_policy = Flsm_guarded;
    sstable_bloom = true;
    compaction_threads = 2;
    op_overhead_write_ns = 4_000.0;
    op_overhead_read_ns = 2_000.0;
  }

(** [level_max_bytes t level] is the size threshold of [level] (>= 1). *)
let level_max_bytes t level =
  let rec go l acc =
    if l <= 1 then acc else go (l - 1) (acc * level_bytes_multiplier)
  in
  go level t.level_bytes_base

(** [guard_bits t ~level] is the number of trailing hash bits a key must
    have set to be a guard at [level] (>= 1); fewer bits are required at
    deeper levels, giving each level more guards (§4.4). *)
let guard_bits t ~level =
  max 1 (t.top_level_bits - (t.bit_decrement * (level - 1)))
