(** Per-engine operation counters, shared by every store.

    These are measurement hooks for the evaluation: compaction volume
    (per-trigger runs and bytes), bloom effectiveness, sstables read per
    query (the FLSM read-overhead analysis in §4.1/§4.2), and stall
    accounting.

    Each scalar counter is declared once below, with its name and the
    rule that merges it across the engines of one store.  Its owner (the
    engine shell, the compaction scheduler, the table cache, a page
    store, the replication or the shard layer) bumps it in place in a
    {!counters} instance of its own.  Reading the stats folds the
    owners' instances by the rules into {!t}, an immutable view built on
    demand. *)

(** How a counter merges across the engines of one store. *)
type rule =
  | Sum  (** cumulative: live engines add up, and retired shards fold in *)
  | Max  (** a peak watermark: the highest engine's *)
  | Now  (** a gauge of live state: live engines add up, retired ones drop *)
  | Shared  (** the one block cache: read from the cache itself *)

(** A declared counter; ['a] is [int] for counts and [float] for
    nanoseconds. *)
type 'a counter = { name : string; rule : rule; slot : int }

(** A declared counter of either kind, for code that walks the registry. *)
type any = Count of int counter | Ns of float counter

let declared = ref [] (* newest first *)
let n_counts = ref 0
let n_ns = ref 0

let declare wrap slots name rule =
  let c = { name; rule; slot = !slots } in
  slots := !slots + 1;
  declared := wrap c :: !declared;
  c

let count name rule : int counter =
  declare (fun c -> Count c) n_counts name rule

let ns name rule : float counter = declare (fun c -> Ns c) n_ns name rule

(** Key+value payload accepted from clients; internal bulk moves (shard
    migrations) count only in [elastic_migrated_bytes]. *)
let user_bytes_written = count "user_bytes_written" Sum

let flushes = count "flushes" Sum
let compactions = count "compactions" Sum
let compaction_bytes_read = count "compaction_bytes_read" Sum
let compaction_bytes_written = count "compaction_bytes_written" Sum
let sstables_built = count "sstables_built" Sum
let gets = count "gets" Sum
let puts = count "puts" Sum
let deletes = count "deletes" Sum
let seeks = count "seeks" Sum
let sstables_examined = count "sstables_examined" Sum
let bloom_checks = count "bloom_checks" Sum
let bloom_negative = count "bloom_negative" Sum
let seek_bloom_checks = count "seek_bloom_checks" Sum
let seek_bloom_skips = count "seek_bloom_skips" Sum
let summary_hits = count "summary_hits" Sum
let summary_misses = count "summary_misses" Sum
let write_stalls = count "write_stalls" Sum
let guards_committed = count "guards_committed" Sum
let guards_empty = count "guards_empty" Now
let compaction_jobs = count "compaction_jobs" Sum
let compaction_queue_peak = count "compaction_queue_peak" Max
let compaction_backlog_peak_bytes = count "compaction_backlog_peak_bytes" Max
let compaction_serialized_jobs = count "compaction_serialized_jobs" Sum
let stall_slowdown_ns = ns "stall_slowdown_ns" Sum
let stall_stop_ns = ns "stall_stop_ns" Sum
let wal_records_recovered = count "wal_records_recovered" Sum
let wal_bytes_dropped = count "wal_bytes_dropped" Sum
let wal_batches_rejected = count "wal_batches_rejected" Sum
let write_groups = count "write_groups" Sum
let write_group_batches = count "write_group_batches" Sum
let group_syncs_saved = count "group_syncs_saved" Sum
let block_cache_hits = count "block_cache_hits" Shared
let block_cache_misses = count "block_cache_misses" Shared
let table_cache_hits = count "table_cache_hits" Sum
let table_cache_misses = count "table_cache_misses" Sum
let repl_log_bytes_shipped = count "repl_log_bytes_shipped" Sum
let repl_file_bytes_shipped = count "repl_file_bytes_shipped" Sum
let repl_messages = count "repl_messages" Sum
let repl_ack_wait_ns = ns "repl_ack_wait_ns" Sum
let repl_backup_busy_ns = ns "repl_backup_busy_ns" Sum
let elastic_splits = count "elastic_splits" Sum
let elastic_merges = count "elastic_merges" Sum
let elastic_migrated_bytes = count "elastic_migrated_bytes" Sum

(** Every declared counter, in declaration order. *)
let registry () = List.rev !declared

(** One owner's slots: a value per declared counter, plus the
    per-trigger compaction tally. *)
type counters = {
  counts : int array;
  ns_slots : float array;
  mutable by_trigger : (string * (int * int)) list;
      (** per-trigger (runs, estimated bytes), keyed by the job trigger
          name ("flush", "l0", "size", "cap", ...) *)
}

let counters () =
  {
    counts = Array.make !n_counts 0;
    ns_slots = Array.make !n_ns 0.0;
    by_trigger = [];
  }

(* Bumps write one slot in place and allocate nothing. *)
let incr c (k : int counter) = c.counts.(k.slot) <- c.counts.(k.slot) + 1
let add c (k : int counter) n = c.counts.(k.slot) <- c.counts.(k.slot) + n
let set c (k : int counter) n = c.counts.(k.slot) <- n
let get c (k : int counter) = c.counts.(k.slot)
let peak c (k : int counter) n = if n > c.counts.(k.slot) then set c k n

let add_ns c (k : float counter) x =
  c.ns_slots.(k.slot) <- c.ns_slots.(k.slot) +. x

let set_ns c (k : float counter) x = c.ns_slots.(k.slot) <- x
let get_ns c (k : float counter) = c.ns_slots.(k.slot)

let bump_trigger c trig ~runs ~bytes =
  let r0, b0 =
    match List.assoc_opt trig c.by_trigger with
    | Some rb -> rb
    | None -> (0, 0)
  in
  c.by_trigger <-
    (trig, (r0 + runs, b0 + bytes)) :: List.remove_assoc trig c.by_trigger

(* [merge ~live rule a b] folds [b] into [a].  Gauges fold only from
   live engines; shared counters never fold (a view reads them from the
   cache). *)
let merge ~live ~add ~max rule a b =
  match rule with
  | Sum -> add a b
  | Now -> if live then add a b else a
  | Max -> max a b
  | Shared -> a

let fold_into ~live dst src =
  List.iter
    (function
      | Count k ->
        set dst k (merge ~live ~add:( + ) ~max k.rule (get dst k) (get src k))
      | Ns k ->
        set_ns dst k
          (merge ~live ~add:( +. ) ~max:Float.max k.rule (get_ns dst k)
             (get_ns src k)))
    !declared;
  List.iter
    (fun (trig, (runs, bytes)) -> bump_trigger dst trig ~runs ~bytes)
    src.by_trigger

(** [retire ~into src] folds a retired engine's cumulative counters and
    peaks into [into]; its gauges end with it. *)
let retire ~into src = fold_into ~live:false into src

(** A read-only view of one store's counters, built on demand. *)
type t = {
  user_bytes_written : int;
  flushes : int;
  compactions : int;
  compaction_bytes_read : int;
  compaction_bytes_written : int;
  sstables_built : int;
  gets : int;
  puts : int;
  deletes : int;
  seeks : int;
  sstables_examined : int;  (** tables consulted across all queries *)
  bloom_checks : int;
  bloom_negative : int;  (** tables skipped thanks to a filter *)
  seek_bloom_checks : int;
      (** tables a seek or scan positioned with seek filtering on, each
          checked for [largest < target] *)
  seek_bloom_skips : int;
      (** tables skipped on the seek path: provably disjoint from the
          probe range, so no index probe or data-block read was issued *)
  summary_hits : int;
      (** evicted-table reopens served by a resident index summary (one
          bounded index read instead of footer+index+filter) *)
  summary_misses : int;  (** full-cost table opens: no summary existed yet *)
  write_stalls : int;
  guards_committed : int;  (** FLSM only *)
  guards_empty : int;  (** FLSM only; counted when the view is built *)
  seek_compactions : int;
      (** seek-triggered compaction jobs run (both LSM-family engines):
          the [seek] runs of [compaction_by_trigger] *)
  compaction_by_trigger : (string * (int * int)) list;
      (** per-trigger (runs, estimated bytes), summed across shards *)
  compaction_jobs : int;  (** jobs run by the scheduler *)
  compaction_queue_peak : int;  (** most jobs picked in one round *)
  compaction_backlog_peak_bytes : int;
      (** most estimated bytes picked in one round *)
  compaction_serialized_jobs : int;
      (** jobs delayed by an earlier job they depend on *)
  stall_slowdown_ns : float;
  stall_stop_ns : float;
  worker_busy_ns : float array;
      (** per-lane busy time; general lanes first, then the reserved
          flush lane; shards' lanes concatenate *)
  flush_busy_ns : float;
      (** busy time on the reserved flush lanes (one per scheduler); 0
          for engines without scheduled background work *)
  wal_records_recovered : int;
      (** complete WAL records replayed at the last open *)
  wal_bytes_dropped : int;
      (** WAL bytes lost to a torn/corrupt tail or orphaned fragments *)
  wal_batches_rejected : int;
      (** well-framed WAL records whose batch payload failed to decode at
          the last open — counted, never silently skipped *)
  write_groups : int;  (** commit groups formed, singletons included *)
  write_group_batches : int;
      (** batches committed through groups; [/ write_groups] is the
          average group size *)
  group_syncs_saved : int;
      (** WAL syncs amortised away by grouping under [wal_sync_writes]:
          per group, one less than the batches covered by the end-of-group
          sync — batches retired by a mid-group flush/checkpoint (their
          log was rotated away) don't count *)
  block_cache_hits : int;  (** of the one block cache, counted once *)
  block_cache_misses : int;
  table_cache_hits : int;
  table_cache_misses : int;
  repl_log_bytes_shipped : int;
      (** WAL-record bytes forwarded under log shipping *)
  repl_file_bytes_shipped : int;
      (** sstable/manifest bytes forwarded under file shipping *)
  repl_messages : int;  (** network messages across all links *)
  repl_ack_wait_ns : float;  (** foreground time spent waiting on backup acks *)
  repl_backup_busy_ns : float;
      (** backup-side flush/compaction worker time (log shipping re-runs
          the merge work; file shipping leaves backups idle) *)
  shards : int;  (** engine instances behind this view *)
  shard_user_bytes : int array;
      (** user payload routed to each shard (cumulative — historical
          write distribution, not what is resident now) *)
  shard_resident_bytes : int array;
      (** live on-disk bytes per shard (WAL + sstables + metadata) *)
  shard_balance : float;
      (** max/mean of per-shard resident bytes — 1.0 is perfectly even *)
  elastic_splits : int;  (** live shard splits performed *)
  elastic_merges : int;  (** live shard merges performed *)
  elastic_migrated_bytes : int;
      (** key+value payload moved between shards by migrations *)
  counters : counters;  (** every declared counter's value in this view *)
}

(** [view parts ~busy ~flush_busy ~cache:(hits, misses)] folds the
    owners' counters [parts] by their rules into a view of one engine;
    [busy] and [flush_busy] are its lanes' busy time (per lane, and on
    the reserved flush lanes) and [cache] its block cache's own
    counts. *)
let view parts ~busy ~flush_busy ~cache:(hits, misses) =
  let c = counters () in
  List.iter (fold_into ~live:true c) parts;
  set c block_cache_hits hits;
  set c block_cache_misses misses;
  let n = get c and f = get_ns c in
  {
    user_bytes_written = n user_bytes_written;
    flushes = n flushes;
    compactions = n compactions;
    compaction_bytes_read = n compaction_bytes_read;
    compaction_bytes_written = n compaction_bytes_written;
    sstables_built = n sstables_built;
    gets = n gets;
    puts = n puts;
    deletes = n deletes;
    seeks = n seeks;
    sstables_examined = n sstables_examined;
    bloom_checks = n bloom_checks;
    bloom_negative = n bloom_negative;
    seek_bloom_checks = n seek_bloom_checks;
    seek_bloom_skips = n seek_bloom_skips;
    summary_hits = n summary_hits;
    summary_misses = n summary_misses;
    write_stalls = n write_stalls;
    guards_committed = n guards_committed;
    guards_empty = n guards_empty;
    seek_compactions =
      Option.fold ~none:0 ~some:fst (List.assoc_opt "seek" c.by_trigger);
    compaction_by_trigger = c.by_trigger;
    compaction_jobs = n compaction_jobs;
    compaction_queue_peak = n compaction_queue_peak;
    compaction_backlog_peak_bytes = n compaction_backlog_peak_bytes;
    compaction_serialized_jobs = n compaction_serialized_jobs;
    stall_slowdown_ns = f stall_slowdown_ns;
    stall_stop_ns = f stall_stop_ns;
    worker_busy_ns = busy;
    flush_busy_ns = flush_busy;
    wal_records_recovered = n wal_records_recovered;
    wal_bytes_dropped = n wal_bytes_dropped;
    wal_batches_rejected = n wal_batches_rejected;
    write_groups = n write_groups;
    write_group_batches = n write_group_batches;
    group_syncs_saved = n group_syncs_saved;
    block_cache_hits = n block_cache_hits;
    block_cache_misses = n block_cache_misses;
    table_cache_hits = n table_cache_hits;
    table_cache_misses = n table_cache_misses;
    repl_log_bytes_shipped = n repl_log_bytes_shipped;
    repl_file_bytes_shipped = n repl_file_bytes_shipped;
    repl_messages = n repl_messages;
    repl_ack_wait_ns = f repl_ack_wait_ns;
    repl_backup_busy_ns = f repl_backup_busy_ns;
    shards = 1;
    shard_user_bytes = [||];
    shard_resident_bytes = [||];
    shard_balance = 1.0;
    elastic_splits = n elastic_splits;
    elastic_merges = n elastic_merges;
    elastic_migrated_bytes = n elastic_migrated_bytes;
    counters = c;
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

(** [aggregate own ~donors ~cache ~resident per_shard] is a sharded
    store's view: its own counters [own] (migrations, and the retired
    shards folded in by {!retire}) and its live shards' views, folded by
    the rules.  Per-lane busy arrays concatenate (every shard's lanes are
    distinct workers) and flush-lane time sums; [donors] is the lane time
    of the shards a merge retired — (per lane, flush lanes) — appended
    and added so lane time stays cumulative across a merge.  [cache] is
    the one shared block cache's own counts, and [resident] the live
    on-disk bytes per shard, the basis of the balance (cumulative user
    bytes keep the historical write distribution, which a migration
    cannot change). *)
let aggregate own ~donors:(donor_busy, donor_flush_busy) ~cache ~resident
    per_shard =
  let v =
    view
      (own :: List.map (fun s -> s.counters) per_shard)
      ~busy:
        (Array.concat
           (List.map (fun s -> s.worker_busy_ns) per_shard @ [ donor_busy ]))
      ~flush_busy:
        (List.fold_left
           (fun acc s -> acc +. s.flush_busy_ns)
           donor_flush_busy per_shard)
      ~cache
  in
  {
    v with
    shards = List.length per_shard;
    shard_user_bytes =
      Array.of_list (List.map (fun s -> s.user_bytes_written) per_shard);
    shard_resident_bytes = resident;
    shard_balance = balance_of resident;
  }
