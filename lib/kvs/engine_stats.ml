(** Per-engine operation counters, shared by LSM and FLSM stores.

    These are measurement hooks for the evaluation: compaction volume
    (per-trigger runs and bytes), bloom effectiveness, sstable reads per
    query (the FLSM read-overhead analysis in §4.1/§4.2), and stall
    accounting. *)

type t = {
  mutable user_bytes_written : int;  (** key+value payload accepted *)
  mutable flushes : int;
  mutable compactions : int;
  mutable compaction_bytes_read : int;
  mutable compaction_bytes_written : int;
  mutable sstables_built : int;
  mutable gets : int;
  mutable puts : int;
  mutable deletes : int;
  mutable seeks : int;
  mutable nexts : int;
  mutable sstables_examined : int;  (** tables consulted across all queries *)
  mutable bloom_checks : int;
  mutable bloom_negative : int;  (** tables skipped thanks to a filter *)
  mutable seek_bloom_checks : int;
      (** tables evaluated against the seek/scan range+prefix filter *)
  mutable seek_bloom_skips : int;
      (** tables skipped on the seek path: provably disjoint from the
          probe range, so no index probe or data-block read was issued *)
  mutable summary_hits : int;
      (** evicted-table reopens served by a resident index summary (one
          bounded index read instead of footer+index+filter) *)
  mutable summary_misses : int;
      (** full-cost table opens: no summary existed yet *)
  mutable write_stalls : int;
  mutable guards_committed : int;  (** FLSM only *)
  mutable guards_empty : int;  (** FLSM only; refreshed on every read *)
  mutable seek_compactions : int;
      (** seek-triggered compaction jobs submitted (both LSM-family
          engines); equals the scheduler's [seek]-trigger run count *)
  mutable compaction_by_trigger : (string * (int * int)) list;
      (** per-trigger (runs, estimated bytes), keyed by the job trigger
          name ("flush", "l0", "size", "cap", ...), mirrored from the
          scheduler and summed across shards *)
  (* background-scheduler counters, mirrored from the compaction
     scheduler when an engine reports stats *)
  mutable compaction_jobs : int;  (** jobs drained by the scheduler *)
  mutable compaction_queue_peak : int;  (** max pending jobs observed *)
  mutable compaction_backlog_peak_bytes : int;
  mutable compaction_serialized_jobs : int;
      (** jobs delayed by a conflicting footprint *)
  mutable compaction_pending : int;
      (** jobs queued but not yet run at the time of the stats call *)
  mutable compaction_backlog_bytes : int;
      (** estimated bytes across currently pending jobs *)
  mutable stall_slowdown_ns : float;
  mutable stall_stop_ns : float;
  mutable worker_busy_ns : float array;
      (** per-lane busy time; general lanes first, then any reserved
          flush lanes *)
  mutable flush_busy_ns : float;
      (** busy time on the reserved flush lane(s); 0 when flushes share
          the general lanes *)
  (* WAL-recovery accounting, set once at open from the log reader's
     recovery report *)
  mutable wal_records_recovered : int;
      (** complete WAL records replayed at the last open *)
  mutable wal_bytes_dropped : int;
      (** WAL bytes lost to a torn/corrupt tail or orphaned fragments *)
  mutable wal_batches_rejected : int;
      (** well-framed WAL records whose batch payload failed to decode at
          the last open — counted, never silently skipped *)
  (* group-commit accounting (LevelDB-style writers queue) *)
  mutable write_groups : int;  (** commit groups formed, singletons included *)
  mutable write_group_batches : int;
      (** batches committed through groups; [/ write_groups] is the
          average group size *)
  mutable group_syncs_saved : int;
      (** WAL syncs amortised away by grouping under [wal_sync_writes]:
          per group, one less than the batches covered by the end-of-group
          sync — batches retired by a mid-group flush/checkpoint (their
          log was rotated away) don't count *)
  mutable client_wait_ns : float array;
      (** per-client foreground blocked time (device contention + waiting
          on a group leader), set by the multi-client driver *)
  (* cache effectiveness, mirrored from the block/table caches on every
     stats read.  NOTE: when several shards share one cache, each shard
     mirrors the *same* underlying counters — aggregation must count them
     once (see {!aggregate}). *)
  mutable block_cache_hits : int;
  mutable block_cache_misses : int;
  mutable table_cache_hits : int;
  mutable table_cache_misses : int;
  (* primary–backup replication, set by the repl layer's stats wrapper *)
  mutable repl_log_bytes_shipped : int;
      (** WAL-record bytes forwarded under log shipping *)
  mutable repl_file_bytes_shipped : int;
      (** sstable/manifest bytes forwarded under file shipping *)
  mutable repl_messages : int;  (** network messages across all links *)
  mutable repl_ack_wait_ns : float;
      (** foreground time spent waiting on backup acks *)
  mutable repl_backup_busy_ns : float;
      (** backup-side flush/compaction worker time (log shipping re-runs
          the merge work; file shipping leaves backups idle) *)
  (* sharding breakdown, set by the shard store's aggregation *)
  mutable shards : int;  (** engine instances behind this stats record *)
  mutable shard_user_bytes : int array;
      (** user payload routed to each shard (cumulative — historical
          write distribution, not what is resident now) *)
  mutable shard_resident_bytes : int array;
      (** live on-disk bytes per shard (WAL + sstables + metadata),
          set by the shard store from the environment's file sizes *)
  mutable shard_balance : float;
      (** max/mean of per-shard {e resident} bytes — 1.0 is perfectly
          even.  The aggregate falls back to cumulative user write
          bytes when no resident breakdown is available; the shard
          store overwrites it with the resident-based figure (cumulative
          bytes report the historical write distribution, which a
          migration can no longer change) *)
  (* elastic sharding, set by the shard store *)
  mutable elastic_splits : int;  (** live shard splits performed *)
  mutable elastic_merges : int;  (** live shard merges performed *)
  mutable elastic_migrated_bytes : int;
      (** key+value payload moved between shards by migrations *)
}

let bump_trigger t trig ~runs ~bytes =
  let r0, b0 =
    match List.assoc_opt trig t.compaction_by_trigger with
    | Some rb -> rb
    | None -> (0, 0)
  in
  t.compaction_by_trigger <-
    (trig, (r0 + runs, b0 + bytes))
    :: List.remove_assoc trig t.compaction_by_trigger

let create () =
  {
    user_bytes_written = 0;
    flushes = 0;
    compactions = 0;
    compaction_bytes_read = 0;
    compaction_bytes_written = 0;
    sstables_built = 0;
    gets = 0;
    puts = 0;
    deletes = 0;
    seeks = 0;
    nexts = 0;
    sstables_examined = 0;
    bloom_checks = 0;
    bloom_negative = 0;
    seek_bloom_checks = 0;
    seek_bloom_skips = 0;
    summary_hits = 0;
    summary_misses = 0;
    write_stalls = 0;
    guards_committed = 0;
    guards_empty = 0;
    seek_compactions = 0;
    compaction_by_trigger = [];
    compaction_jobs = 0;
    compaction_queue_peak = 0;
    compaction_backlog_peak_bytes = 0;
    compaction_serialized_jobs = 0;
    compaction_pending = 0;
    compaction_backlog_bytes = 0;
    stall_slowdown_ns = 0.0;
    stall_stop_ns = 0.0;
    worker_busy_ns = [||];
    flush_busy_ns = 0.0;
    wal_records_recovered = 0;
    wal_bytes_dropped = 0;
    wal_batches_rejected = 0;
    write_groups = 0;
    write_group_batches = 0;
    group_syncs_saved = 0;
    client_wait_ns = [||];
    block_cache_hits = 0;
    block_cache_misses = 0;
    table_cache_hits = 0;
    table_cache_misses = 0;
    repl_log_bytes_shipped = 0;
    repl_file_bytes_shipped = 0;
    repl_messages = 0;
    repl_ack_wait_ns = 0.0;
    repl_backup_busy_ns = 0.0;
    shards = 1;
    shard_user_bytes = [||];
    shard_resident_bytes = [||];
    shard_balance = 1.0;
    elastic_splits = 0;
    elastic_merges = 0;
    elastic_migrated_bytes = 0;
  }

(** [balance_of per_shard] is max/mean of a per-shard byte (or op)
    breakdown — 1.0 is perfectly even, N means one shard carries
    everything.  Empty or all-zero breakdowns report 1.0. *)
let balance_of per_shard =
  let n = Array.length per_shard in
  if n = 0 then 1.0
  else begin
    let total = Array.fold_left ( + ) 0 per_shard in
    if total = 0 then 1.0
    else
      let mean = float_of_int total /. float_of_int n in
      float_of_int (Array.fold_left max 0 per_shard) /. mean
  end

(** [aggregate per_shard] combines the stats of independent
    shard engines into one record: counters and stall times sum,
    per-worker busy arrays concatenate (every shard's scheduler lanes are
    distinct workers), per-trigger compaction counters merge, and scheduler
    peaks take the max across shards (each peak is a per-scheduler
    watermark; summing watermarks reached at different times would
    overstate the queue that ever existed at once).

    Block-cache counters are the exception: every shard mirrors the
    {e same} shared cache, so they are left at zero here and the shard
    store sets them once from the cache — summing them would multiply
    every hit by the shard count.  Table caches are always per-shard
    (their keys are per-shard file numbers) and therefore always sum.

    [shards], [shard_user_bytes] and [shard_balance] describe the
    breakdown; [client_wait_ns] is owned by the multi-client driver and
    left empty here. *)
let aggregate per_shard =
  let t = create () in
  let shard_bytes =
    Array.of_list (List.map (fun s -> s.user_bytes_written) per_shard)
  in
  List.iter
    (fun s ->
      t.user_bytes_written <- t.user_bytes_written + s.user_bytes_written;
      t.flushes <- t.flushes + s.flushes;
      t.compactions <- t.compactions + s.compactions;
      t.compaction_bytes_read <-
        t.compaction_bytes_read + s.compaction_bytes_read;
      t.compaction_bytes_written <-
        t.compaction_bytes_written + s.compaction_bytes_written;
      t.sstables_built <- t.sstables_built + s.sstables_built;
      t.gets <- t.gets + s.gets;
      t.puts <- t.puts + s.puts;
      t.deletes <- t.deletes + s.deletes;
      t.seeks <- t.seeks + s.seeks;
      t.nexts <- t.nexts + s.nexts;
      t.sstables_examined <- t.sstables_examined + s.sstables_examined;
      t.bloom_checks <- t.bloom_checks + s.bloom_checks;
      t.bloom_negative <- t.bloom_negative + s.bloom_negative;
      t.seek_bloom_checks <- t.seek_bloom_checks + s.seek_bloom_checks;
      t.seek_bloom_skips <- t.seek_bloom_skips + s.seek_bloom_skips;
      (* summaries live in the per-shard table caches, so they always sum *)
      t.summary_hits <- t.summary_hits + s.summary_hits;
      t.summary_misses <- t.summary_misses + s.summary_misses;
      t.write_stalls <- t.write_stalls + s.write_stalls;
      t.guards_committed <- t.guards_committed + s.guards_committed;
      t.guards_empty <- t.guards_empty + s.guards_empty;
      t.seek_compactions <- t.seek_compactions + s.seek_compactions;
      List.iter
        (fun (trig, (runs, bytes)) -> bump_trigger t trig ~runs ~bytes)
        s.compaction_by_trigger;
      t.compaction_jobs <- t.compaction_jobs + s.compaction_jobs;
      t.compaction_queue_peak <-
        max t.compaction_queue_peak s.compaction_queue_peak;
      t.compaction_backlog_peak_bytes <-
        max t.compaction_backlog_peak_bytes s.compaction_backlog_peak_bytes;
      t.compaction_serialized_jobs <-
        t.compaction_serialized_jobs + s.compaction_serialized_jobs;
      t.compaction_pending <- t.compaction_pending + s.compaction_pending;
      t.compaction_backlog_bytes <-
        t.compaction_backlog_bytes + s.compaction_backlog_bytes;
      t.stall_slowdown_ns <- t.stall_slowdown_ns +. s.stall_slowdown_ns;
      t.stall_stop_ns <- t.stall_stop_ns +. s.stall_stop_ns;
      t.worker_busy_ns <- Array.append t.worker_busy_ns s.worker_busy_ns;
      t.flush_busy_ns <- t.flush_busy_ns +. s.flush_busy_ns;
      t.wal_records_recovered <-
        t.wal_records_recovered + s.wal_records_recovered;
      t.wal_bytes_dropped <- t.wal_bytes_dropped + s.wal_bytes_dropped;
      t.wal_batches_rejected <-
        t.wal_batches_rejected + s.wal_batches_rejected;
      t.write_groups <- t.write_groups + s.write_groups;
      t.write_group_batches <- t.write_group_batches + s.write_group_batches;
      t.group_syncs_saved <- t.group_syncs_saved + s.group_syncs_saved;
      t.table_cache_hits <- t.table_cache_hits + s.table_cache_hits;
      t.table_cache_misses <- t.table_cache_misses + s.table_cache_misses;
      (* each shard replicates independently: links and backups sum *)
      t.repl_log_bytes_shipped <-
        t.repl_log_bytes_shipped + s.repl_log_bytes_shipped;
      t.repl_file_bytes_shipped <-
        t.repl_file_bytes_shipped + s.repl_file_bytes_shipped;
      t.repl_messages <- t.repl_messages + s.repl_messages;
      t.repl_ack_wait_ns <- t.repl_ack_wait_ns +. s.repl_ack_wait_ns;
      t.repl_backup_busy_ns <- t.repl_backup_busy_ns +. s.repl_backup_busy_ns)
    per_shard;
  t.shards <- List.length per_shard;
  t.shard_user_bytes <- shard_bytes;
  t.shard_balance <- balance_of shard_bytes;
  t
