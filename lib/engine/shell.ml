(** The engine shell shared by both LSM-family engines.

    PebblesDB changes HyperLevelDB's level structure and nothing else
    (§4.4): the memtable, WAL, MANIFEST recovery, group commit and read
    plumbing stay the same.  This module owns that machinery once —
    recovery, flush with WAL rotation, obsolete-file collection, group
    commit with its backpressure debt, the engine's counters, the
    memtable and level-0 halves of reads, the iterator wrapper with seek
    accounting, the compaction round loop with its one no-progress rule,
    and the snapshot-aware compaction merge loop.

    An engine supplies only its level structure: a value of its own type
    (['lv], carried in {!t.lv}) and a {!shape} record of the operations
    that differ between leveled/tiered runs ({!Pdb_lsm.Lsm_store}) and
    guards ({!Pebblesdb.Pebbles_store}).  Engine code opens {!Types} to
    reach the shared fields. *)

module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Device = Pdb_simio.Device
module Probe = Pdb_simio.Probe
module Sched = Pdb_simio.Sched
module Table = Pdb_sstable.Table
module Table_cache = Pdb_sstable.Table_cache
module Block_cache = Pdb_sstable.Block_cache
module Level_iter = Pdb_sstable.Level_iter
module Wal = Pdb_wal.Wal
module Manifest = Pdb_manifest.Manifest
module Stats = Pdb_kvs.Engine_stats
module Job = Pdb_compaction.Job
module Scheduler = Pdb_compaction.Scheduler
module Policy = Pdb_compaction.Policy
module Bp = Pdb_kvs.Backpressure
module Memtable = Pdb_kvs.Memtable
module Snapshots = Pdb_kvs.Snapshots
module Wb = Pdb_kvs.Write_batch

module Types = struct
  type 'lv t = {
    opts : O.t;
    policy : Policy.t;
    env : Env.t;
    dir : string;
    clock : Clock.t;
    sched : Scheduler.t; (* shared background-compaction scheduler *)
    bp : Bp.t; (* shared write-throttling controller (Backpressure) *)
    counters : Stats.counters; (* the shell's own; see {!stats} *)
    probe : Probe.ctx; (* parallel-probe budget sessions *)
    table_cache : Table_cache.t;
    block_cache : Block_cache.t;
    scratch : Table.Builder.scratch; (* lent to each table built *)
    encoded : Wb.scratch; (* the group's batches not yet in the WAL *)
    staging : Buffer.t; (* every WAL's staging buffer, in turn *)
    mutable mem : Memtable.t;
    mutable wal : Wal.Writer.t;
    mutable wal_number : int;
    mutable manifest : Manifest.t;
    mutable next_file : int;
    mutable last_seq : int;
    mutable obsolete : string list; (* files awaiting deletion *)
    snapshots : Snapshots.t;
    mutable consecutive_seeks : int;
    mutable closed : bool;
    lv : 'lv; (* the engine's level structure *)
    shape : 'lv shape;
  }

  (** What an engine's level structure supplies.  Level 0 is a
      newest-first pile of flushed tables in both engines; the levels
      below it are the engine's own. *)
  and 'lv shape = {
    apply_edit : 'lv -> Manifest.edit -> unit;
        (** replay the level part of a recovered version edit *)
    recovered : O.t -> 'lv -> unit;
        (** restore derived order and state once every edit is applied *)
    snapshot : 'lv -> Manifest.edit -> unit;
        (** describe the levels in the fresh MANIFEST's snapshot edit *)
    flush_edit : 'lv t -> Manifest.edit -> unit;  (** a flush's level part *)
    l0 : 'lv -> Table.meta list;  (** level 0, newest first *)
    add_l0 : 'lv -> Table.meta -> unit;  (** install a flushed table *)
    note_put : 'lv t -> string -> unit;  (** a user key enters the memtable *)
    pick : seek:bool -> 'lv t -> (Job.t * (unit -> int)) list;
        (** the due compactions on the current state, in run order, each
            with its progress measure (see {!maybe_compact}); with
            [~seek] the seek-triggered ones instead *)
    candidates :
      'lv t -> int -> key:string -> lookup:string -> Table.meta list;
        (** the tables of level [>= 1] a get of user [key] probes, in
            order; [lookup] is its internal lookup key (those whose range
            misses the key are skipped) *)
    views : 'lv t -> (unit -> Level_iter.view) list;
        (** the levels below 0, one {!Level_iter} each: the iterator calls
            its level's thunk for a view at every seek *)
  }
end

include Types

let log_name dir n = Printf.sprintf "%s/%06d.log" dir n

let new_file_number t =
  let n = t.next_file in
  t.next_file <- n + 1;
  n

let charge_cpu t ns = Clock.advance_cpu t.clock ns
let last_level t = t.opts.O.max_levels - 1

let bytes_of =
  List.fold_left (fun a (m : Table.meta) -> a + m.Table.file_size) 0

let user_range_overlap (m : Table.meta) key =
  Ik.compare_user_key m.Table.smallest key <= 0
  && Ik.compare_user_key m.Table.largest key >= 0

(** [new_builder t] starts a table under the store's options, in the
    store's scratch (DESIGN "A store's table-builder scratch"); its bloom
    filter is sized to the keys it ends up holding. *)
let new_builder t =
  Table.Builder.create ~scratch:t.scratch t.env ~dir:t.dir
    ~number:(new_file_number t)
    ~block_bytes:t.opts.O.block_bytes ~bloom:t.opts.O.sstable_bloom

(** [finish_table t b] finishes builder [b] and, when it wrote a table,
    makes the table ready to read as LevelDB's "verify that the table is
    usable" open does, with no device charge: its hot data blocks enter
    the block cache (see {!build_l0} and {!merge_tables})
    and its open reader enters the table cache (DESIGN "New tables and
    the table cache").  Counts the table built. *)
let finish_table t b =
  match Table.Builder.finish b with
  | Some (meta, reader) ->
    Table.Builder.admit_hot b t.block_cache;
    Table_cache.admit t.table_cache reader;
    Stats.incr t.counters Stats.sstables_built;
    Some meta
  | None -> None

(** [build_l0 t mem] writes memtable [mem] as one table, charging each
    entry's merge CPU, and finishes it through {!finish_table}.  A data
    block holding an entry a get returned is hot (DESIGN "Compaction and
    the block cache"): a flush nobody read admits nothing. *)
let build_l0 t mem =
  let b = new_builder t in
  Memtable.iter mem (fun ikey value read ->
      Clock.advance t.clock O.cpu_per_merge_entry_ns;
      if read then Table.Builder.mark_hot b;
      Table.Builder.add b ikey value);
  finish_table t b

(* ---------- obsolete-file garbage collection ---------- *)

(* Files are deleted lazily, and only at mutating operations (write group,
   flush, compact_all, close): an open iterator is invalidated by writes
   (Store_intf) but by nothing else, so a read-only operation must never
   delete a file an iterator may still read.  Superseded files also stay
   pinned while snapshots are live. *)
let gc_obsolete t =
  if Snapshots.is_empty t.snapshots then begin
    List.iter
      (fun name ->
        (* drop the dead file's decoded blocks with it: they can never
           hit again and would squat in the shared LRU *)
        Block_cache.evict_file t.block_cache ~file:name;
        Env.delete t.env name)
      t.obsolete;
    t.obsolete <- []
  end

(** [retire t inputs] drops compaction inputs from the table cache and
    queues their files for {!gc_obsolete}. *)
let retire t inputs =
  List.iter
    (fun (m : Table.meta) ->
      Table_cache.evict t.table_cache m.Table.number;
      t.obsolete <- Table.file_name ~dir:t.dir m.Table.number :: t.obsolete)
    inputs

let note_compaction t ~inputs ~outputs =
  Stats.incr t.counters Stats.compactions;
  Stats.add t.counters Stats.compaction_bytes_read (bytes_of inputs);
  Stats.add t.counters Stats.compaction_bytes_written (bytes_of outputs)

(* ---------- compaction rounds ---------- *)

(** [maybe_compact ?seek t] runs the rounds {!shape.pick} returns until
    one is empty; with [~seek:true] the first is the seek picks.  A job
    whose measure is not smaller after its own run has its key blocked,
    and later picks of it dropped, for the rest of the call: what other
    jobs of the round move does not count. *)
let maybe_compact ?(seek = false) t =
  let blocked = Hashtbl.create 8 in
  let unblocked ((job : Job.t), measure) =
    if Hashtbl.mem blocked job.Job.key then None
    else
      Some
        {
          job with
          Job.run =
            (fun () ->
              let before = measure () in
              job.Job.run ();
              if measure () >= before then
                Hashtbl.replace blocked job.Job.key ());
        }
  in
  let rec loop ~seek =
    match List.filter_map unblocked (t.shape.pick ~seek t) with
    | [] -> ()
    | round ->
      Scheduler.run_round t.sched round;
      loop ~seek:false
  in
  loop ~seek

(* A foreground trace instant (a WAL rotation, a group commit) on
   tracer [tr], stamped at the clock's current modeled time.  Callers
   build [args] only once they hold a tracer. *)
let trace_instant t tr ~args ~name ~cat =
  Pdb_simio.Trace.instant tr ~args ~name ~cat ~lane:"foreground"
    ~ts_ns:(Clock.now_ns t.clock) ()

(* ---------- flush (memtable -> level-0 sstable) ---------- *)

let flush t =
  if not (Memtable.is_empty t.mem) then begin
    let mem = t.mem in
    (* the flush is a background job: the scheduler runs it immediately
       (a full memtable gates the triggering write) and places its
       device time on the reserved flush lane *)
    let meta = ref None in
    Scheduler.run t.sched
      {
        Job.key = "flush";
        trigger = Job.Memtable_full;
        estimated_bytes = Memtable.approximate_bytes mem;
        footprint =
          (* a flush reads no level and writes L0: it waits only for the
             jobs that wrote L0, not for one still reading it *)
          {
            (Sched.full_range ~level_lo:0 ~level_hi:0) with
            Sched.read_hi = -1;
          };
        run = (fun () -> meta := build_l0 t mem);
      };
    let meta = !meta in
    (match meta with
     | Some meta ->
       t.shape.add_l0 t.lv meta;
       Stats.incr t.counters Stats.flushes
     | None -> ());
    (* rotate WAL — crash-safe order: open the new log, commit the one
       manifest edit that names it (with the flushed table and the level
       part), and only then retire the old log.  Deleting first would
       leave a window where the memtable's data exists in no durable file
       the MANIFEST names. *)
    let old_log = t.wal_number in
    let new_log = new_file_number t in
    t.wal <-
      Wal.Writer.create ~staging:t.staging t.env (log_name t.dir new_log);
    t.wal_number <- new_log;
    t.mem <- Memtable.create ();
    let e = Manifest.empty_edit () in
    e.Manifest.log_number <- Some new_log;
    e.Manifest.next_file_number <- Some t.next_file;
    e.Manifest.last_sequence <- Some t.last_seq;
    (match meta with
     | Some m -> e.Manifest.added_files <- [ (0, m) ]
     | None -> ());
    t.shape.flush_edit t e;
    Manifest.append t.manifest e;
    Env.delete t.env (log_name t.dir old_log);
    (match Env.tracer t.env with
     | Some tr ->
       trace_instant t tr ~name:"wal-rotate" ~cat:"wal"
         ~args:
           [
             ("old", string_of_int old_log); ("new", string_of_int new_log);
           ]
     | None -> ());
    maybe_compact t
  end

(* ---------- compaction merge loop ---------- *)

(** [merge_tables t inputs ~tombstone_ok ~partition ~cutoff] is the
    compaction merge every engine runs.  It streams [inputs] merged —
    sequential reads through a compaction view of the block cache — and
    drops a superseded version once the newer one is visible to every
    live snapshot, and the freshest version of a key when it is a
    tombstone, [tombstone_ok] holds for its user key, and no snapshot
    still needs it.
    Survivors are cut into tables: [partition uk] names user key [uk]'s
    output partition, and a new table starts whenever the partition
    changes or the open table reaches its partition's [cutoff] size.
    Returns each table with its partition, in output order; each enters
    the table cache as it is finished ({!finish_table}).

    An input's reader is the one the table cache holds, taken without
    promoting it or counting a hit ({!Table_cache.peek}); only an input
    the cache does not hold is opened from its file, and that reader is
    not cached: compaction evicts no read-path table to open its inputs.

    The merge keeps the block cache warm (DESIGN "Compaction and the
    block cache"): an input block the cache holds is read from it,
    uncharged and uncounted ({!Block_cache.for_compaction}), and an
    output data block holding an entry of such a block is hot, and enters
    the cache once its table is synced. *)
let merge_tables t inputs ~tombstone_ok ~partition ~cutoff =
  let view = Block_cache.for_compaction t.block_cache in
  let tables =
    Array.map
      (fun m ->
        let reader =
          match Table_cache.peek t.table_cache m with
          | Some reader -> reader
          | None ->
            Table.open_reader ~hint:Device.Sequential_read t.env ~dir:t.dir m
        in
        Table.iterator reader ~cache:view ~hint:Device.Sequential_read)
      (Array.of_list inputs)
  in
  let merge =
    Pdb_kvs.Merging_iter.merge ~compare:Ik.compare
      (Array.map Table.to_iter tables)
  in
  let merged = Pdb_kvs.Merging_iter.to_iter merge in
  let outputs = ref [] in
  (* the open table: (partition, builder) *)
  let current = ref None in
  let finish () =
    match !current with
    | None -> ()
    | Some (part, b) ->
      Option.iter
        (fun meta -> outputs := (part, meta) :: !outputs)
        (finish_table t b);
      current := None
  in
  (* the previous entry's internal key, its user key compared in place,
     and that user key copied out once for [partition] and
     [tombstone_ok] *)
  let first = ref true and prev = ref "" and uk = ref "" in
  merged.Iter.seek_to_first ();
  while merged.Iter.valid () do
    let ikey = merged.Iter.key () in
    Clock.advance t.clock O.cpu_per_merge_entry_ns;
    let drop =
      if (not !first) && Ik.same_user_key ikey (String.length ikey) !prev
      then
        Snapshots.droppable t.snapshots ~prev_seq:(Ik.seq !prev)
          ~last_seq:t.last_seq
      else begin
        uk := Ik.user_key ikey;
        Ik.kind ikey = Ik.Deletion
        && tombstone_ok !uk
        && Snapshots.tombstone_droppable t.snapshots ~seq:(Ik.seq ikey)
             ~last_seq:t.last_seq
      end
    in
    first := false;
    prev := ikey;
    if not drop then begin
      let part = partition !uk in
      let b =
        match !current with
        | Some (p, b) when p = part -> b
        | Some _ | None ->
          finish ();
          let b = new_builder t in
          current := Some (part, b);
          b
      in
      let input = tables.(Pdb_kvs.Merging_iter.current_index merge) in
      if Table.resident input then Table.Builder.mark_hot b;
      (* the value goes from its input block straight into the output *)
      Table.Builder.add_current b ikey input;
      if Table.Builder.estimated_size b >= cutoff part then finish ()
    end;
    merged.Iter.next ()
  done;
  finish ();
  List.rev !outputs

(* ---------- recovery ---------- *)

(* Replay the WAL numbered [wal_number] into [mem]; returns the highest
   sequence number seen and the reader's recovery report, extended with
   any well-framed records whose batch payload failed to decode — those
   are counted as rejected, never silently skipped.  The log file is
   left in place — it may be deleted only once its contents are durable
   elsewhere (the re-logged fresh WAL installed by open). *)
let replay_wal env ~dir ~wal_number ~mem ~last_seq =
  let name = log_name dir wal_number in
  let seq_max = ref last_seq in
  if Env.exists env name then begin
    let records, report = Wal.Reader.read_all env name in
    let rejected = ref 0 and rejected_bytes = ref 0 in
    List.iter
      (fun record ->
        match Wb.decode record with
        | exception Invalid_argument _ ->
          incr rejected;
          rejected_bytes := !rejected_bytes + String.length record
        | batch, base_seq ->
          let seq = ref base_seq in
          Wb.iter batch (fun op ->
              (match op with
               | Wb.Put (k, v) ->
                 Memtable.add mem ~seq:!seq ~kind:Ik.Value ~user_key:k ~value:v
               | Wb.Delete k ->
                 Memtable.add mem ~seq:!seq ~kind:Ik.Deletion ~user_key:k
                   ~value:"");
              incr seq);
          seq_max := max !seq_max (!seq - 1))
      records;
    (!seq_max, Some (report, !rejected, !rejected_bytes))
  end
  else (!seq_max, None)

(* Write the recovered memtable back into a fresh WAL, one record per
   entry so each keeps its original sequence number.  Recovery must never
   leave a window in which acked data exists only in a file the new
   MANIFEST no longer names. *)
let relog_memtable wal mem =
  if not (Memtable.is_empty mem) then begin
    Memtable.iter mem (fun ik v _ ->
        let b = Wb.create () in
        (match Ik.kind ik with
         | Ik.Value -> Wb.put b (Ik.user_key ik) v
         | Ik.Deletion -> Wb.delete b (Ik.user_key ik));
        Wal.Writer.add_record wal (Wb.encode b ~base_seq:(Ik.seq ik)));
    Wal.Writer.sync wal
  end

(** [open_store ~shape ~lv ?block_cache opts ~env ~dir] opens (creating or
    recovering) a store over the engine's empty level structure [lv]:
    MANIFEST edits replay into [lv], the live WAL replays into the
    memtable, and a fresh WAL and MANIFEST are installed. *)
let open_store ~shape ~lv ?block_cache (opts : O.t) ~env ~dir =
  let wal_number = ref 0 and next_file = ref 1 and last_seq = ref 0 in
  let mem = Memtable.create () in
  let wal_report = ref None in
  (match Manifest.recover env ~dir with
   | Some (_, edits) ->
     List.iter
       (fun (e : Manifest.edit) ->
         Option.iter (fun n -> wal_number := n) e.Manifest.log_number;
         Option.iter
           (fun n -> next_file := max !next_file n)
           e.Manifest.next_file_number;
         Option.iter (fun n -> last_seq := max !last_seq n)
           e.Manifest.last_sequence;
         shape.apply_edit lv e)
       edits;
     shape.recovered opts lv;
     let seq, report =
       replay_wal env ~dir ~wal_number:!wal_number ~mem ~last_seq:!last_seq
     in
     last_seq := seq;
     wal_report := report
   | None -> ());
  (* Crash-safe install sequence: (1) write the recovered memtable into a
     fresh WAL, (2) install a fresh MANIFEST whose snapshot edit names that
     WAL — written before the CURRENT switch, so the install is atomic —
     then (3) retire the replayed WAL and any stale files.  An injected
     crash between any two steps recovers to the same state: until CURRENT
     flips, the old MANIFEST still names the old WAL. *)
  let new_log = !next_file in
  incr next_file;
  let manifest_number = !next_file in
  incr next_file;
  let staging = Buffer.create 4096 in
  let wal = Wal.Writer.create ~staging env (log_name dir new_log) in
  relog_memtable wal mem;
  (* the snapshot is built from the recovered components, before the store
     record exists: it must be part of the fresh MANIFEST at creation, or
     a crash between install and a follow-up append would leave an
     installed MANIFEST describing an empty store *)
  let snap = Manifest.empty_edit () in
  snap.Manifest.log_number <- Some new_log;
  snap.Manifest.next_file_number <- Some !next_file;
  snap.Manifest.last_sequence <- Some !last_seq;
  shape.snapshot lv snap;
  let manifest =
    Manifest.create env ~dir ~number:manifest_number ~edits:[ snap ]
  in
  let clock = Env.clock env in
  let t =
    {
      opts;
      policy = Policy.of_options opts;
      env;
      dir;
      clock;
      sched =
        Scheduler.create ~env ~clock ~workers:opts.O.compaction_threads ();
      bp = Bp.create opts;
      counters = Stats.counters ();
      probe =
        Probe.create_ctx ~clock ~budget:opts.O.probe_budget
          ~tracer:(fun () -> Env.tracer env)
          ();
      table_cache =
        Table_cache.create ~summary_stride:opts.O.index_summary_stride env
          ~dir
          ~entries:opts.O.table_cache_entries;
      block_cache =
        (match block_cache with
         | Some cache -> cache (* shared with the caller's other shards *)
         | None -> Block_cache.create ~capacity:opts.O.block_cache_bytes);
      scratch = Table.Builder.scratch ();
      encoded = Wb.scratch ();
      staging;
      mem;
      wal;
      wal_number = new_log;
      manifest;
      next_file = !next_file;
      last_seq = !last_seq;
      obsolete = [];
      snapshots = Snapshots.create ();
      consecutive_seeks = 0;
      closed = false;
      lv;
      shape;
    }
  in
  (match !wal_report with
   | Some ((r : Wal.Reader.report), rejected, rejected_bytes) ->
     let c = t.counters in
     Stats.set c Stats.wal_records_recovered
       (r.Wal.Reader.records_read - rejected);
     Stats.set c Stats.wal_bytes_dropped
       (r.Wal.Reader.bytes_dropped + rejected_bytes);
     Stats.set c Stats.wal_batches_rejected rejected
   | None -> ());
  (* the fresh MANIFEST is installed and the fresh WAL holds every
     recovered record: the crashed incarnation's files are now garbage *)
  Manifest.cleanup_stale env ~dir ~live_log_number:new_log
    ~live_manifest:(Manifest.file_name t.manifest);
  (* a recovered memtable may already exceed its budget *)
  if Memtable.approximate_bytes t.mem >= opts.O.memtable_bytes then flush t;
  t

let close t =
  t.closed <- true;
  gc_obsolete t;
  Wal.Writer.close t.wal

let options t = t.opts
let env t = t.env
let compaction_scheduler t = t.sched
let backpressure t = t.bp

(* The engine's view: the shell's own counters, its scheduler's and its
   table cache's, folded by their rules, with the block cache's own
   counts. *)
let stats t =
  Stats.view
    [
      t.counters;
      Scheduler.counters t.sched;
      Table_cache.counters t.table_cache;
    ]
    ~busy:(Scheduler.busy_ns t.sched)
    ~flush_busy:(Scheduler.flush_busy_ns t.sched)
    ~cache:(Block_cache.hits t.block_cache, Block_cache.misses t.block_cache)

(* ---------- writes ---------- *)

(* [insert_ops t ~client seq ops] adds a batch's [ops] to the memtable,
   the first at sequence number [seq]; a [client] batch's puts and
   deletes count as the client's. *)
let rec insert_ops t ~client seq = function
  | [] -> ()
  | op :: ops ->
    charge_cpu t O.cpu_memtable_op_ns;
    (match op with
     | Wb.Put (k, v) ->
       if client then Stats.incr t.counters Stats.puts;
       t.shape.note_put t k;
       Memtable.add t.mem ~seq ~kind:Ik.Value ~user_key:k ~value:v
     | Wb.Delete k ->
       if client then Stats.incr t.counters Stats.deletes;
       Memtable.add t.mem ~seq ~kind:Ik.Deletion ~user_key:k ~value:"");
    insert_ops t ~client (seq + 1) ops

(* Append the group's records encoded so far to the WAL as one write. *)
let append_encoded t =
  let e = t.encoded in
  if e.Wb.records > 0 then begin
    Wal.Writer.add_records t.wal e.Wb.bytes ~ends:e.Wb.ends e.Wb.records;
    Wb.clear e
  end

(* Commit [batches] one by one; [covered] counts the batches whose
   durability rides on the end-of-group sync.  A mid-group flush retires
   the log holding everything so far (the flushed sstable + manifest
   install covers those records), so it resets the count: crediting
   [n - 1] unconditionally would overcount elided syncs. *)
let rec commit_batches t covered = function
  | [] -> covered
  | batch :: rest ->
    let count = Wb.count batch in
    let requests = if Wb.is_bulk batch then 1 else count in
    charge_cpu t (t.opts.O.op_overhead_write_ns *. float_of_int requests);
    charge_cpu t (O.cpu_per_op_ns *. float_of_int count);
    let base_seq = t.last_seq + 1 in
    t.last_seq <- t.last_seq + count;
    Wb.encode_into t.encoded batch ~base_seq;
    (* a bulk batch (a shard migration) moves data no client wrote *)
    let client = not (Wb.is_bulk batch) in
    insert_ops t ~client base_seq (Wb.ops batch);
    if client then
      Stats.add t.counters Stats.user_bytes_written (Wb.payload_bytes batch);
    let covered =
      if Memtable.approximate_bytes t.mem >= t.opts.O.memtable_bytes then begin
        (* push this group's records into the log the flush is about to
           retire before the rotation deletes it: every record a flushed
           memtable depends on is in that log, never stranded in a
           deleted file; and the scratch is empty before [flush], which
           may re-enter the store *)
        append_encoded t;
        flush t;
        0
      end
      else covered + 1
    in
    commit_batches t covered rest

(* WAL group commit, the LevelDB writers-queue protocol: a solo write is a
   group of one.  The group's batches are framed as individual WAL records
   — so the log bytes are identical whether the group has one member or
   eight — but appended in one device write and made durable by one sync;
   batches are acked only when that sync returns, so the whole group
   commits or none of it does.  Sequence numbers, memtable inserts and
   flush triggers happen batch by batch in arrival order, exactly as on
   the serial write path, so store state is byte-identical across client
   counts.  Each batch is encoded into the store's scratch ([t.encoded]),
   which the WAL frames from in place. *)
let write_group t batches =
  assert (not t.closed);
  gc_obsolete t;
  t.consecutive_seeks <- 0;
  (match List.filter (fun b -> Wb.count b > 0) batches with
   | [] -> ()
   | group ->
     (* write throttling: the shared controller prices the group against
        the L0 files not yet pushed down, and the group pays once (it
        enters the device as one write, so penalizing every record would
        overcharge the batch it rode in on) *)
     let l0_files = List.length (t.shape.l0 t.lv) in
     let entries = List.fold_left (fun acc b -> acc + Wb.count b) 0 group in
     let now_ns = Clock.now_ns t.clock in
     let v = Bp.throttle t.bp ~now_ns ~l0_files ~cost:entries in
     let total = Bp.total_ns v in
     if total > 0.0 then begin
       Clock.stall t.clock total;
       Scheduler.note_stall t.sched ~slowdown_ns:v.Bp.slowdown_ns
         ~stop_ns:v.Bp.stop_ns;
       Stats.incr t.counters Stats.write_stalls
     end;
     (* a group that raised part way may have left records behind *)
     Wb.clear t.encoded;
     let covered = commit_batches t 0 group in
     append_encoded t;
     Stats.incr t.counters Stats.write_groups;
     Stats.add t.counters Stats.write_group_batches (List.length group);
     if t.opts.O.wal_sync_writes then begin
       Wal.Writer.sync t.wal;
       Stats.add t.counters Stats.group_syncs_saved (max 0 (covered - 1))
     end);
  match (batches, Env.tracer t.env) with
  | [], _ | _, None -> ()
  | _, Some tr ->
    trace_instant t tr ~name:"group-commit" ~cat:"wal"
      ~args:[ ("batches", string_of_int (List.length batches)) ]

let write t batch = write_group t [ batch ]

let put t k v =
  let b = Wb.create () in
  Wb.put b k v;
  write t b

let delete t k =
  let b = Wb.create () in
  Wb.delete b k;
  write t b

(* ---------- snapshots ---------- *)

let snapshot t =
  Snapshots.acquire t.snapshots t.last_seq;
  t.last_seq

let release_snapshot t s = Snapshots.release t.snapshots s

(* ---------- reads ---------- *)

(* Search one table for the freshest version of user [key] at or below
   internal key [lookup] (the latest state or a snapshot). *)
let table_lookup t key lookup (meta : Table.meta) =
  charge_cpu t O.cpu_per_sstable_ns;
  Stats.incr t.counters Stats.sstables_examined;
  let reader = Table_cache.find t.table_cache meta in
  let pass_bloom =
    if Table.has_filter reader then begin
      charge_cpu t O.cpu_bloom_check_ns;
      Stats.incr t.counters Stats.bloom_checks;
      let pass = Table.may_contain reader key in
      if not pass then Stats.incr t.counters Stats.bloom_negative;
      pass
    end
    else true
  in
  if not pass_bloom then None
  else begin
    charge_cpu t O.cpu_per_block_search_ns;
    Table.get reader ~cache:t.block_cache ~hint:Device.Random_read lookup
  end

(* The first of [tables] holding a version of [key] that [search] finds,
   in order.  Inside a probe session (a multi-table get) each table's
   device time is measured so independent probes overlap up to the
   budget. *)
let rec probe_tables t key search = function
  | [] -> None
  | m :: rest -> (
    if not (user_range_overlap m key) then probe_tables t key search rest
    else
      match Probe.measure t.probe search m with
      | Some _ as found -> found
      | None -> probe_tables t key search rest)

(* Levels [level ..] below level 0, one at a time. *)
let rec probe_levels t key lookup search level =
  if level > last_level t then None
  else
    match
      probe_tables t key search (t.shape.candidates t level ~key ~lookup)
    with
    | Some _ as found -> found
    | None -> probe_levels t key lookup search (level + 1)

let get ?snapshot t key =
  assert (not t.closed);
  Stats.incr t.counters Stats.gets;
  charge_cpu t (t.opts.O.op_overhead_read_ns +. O.cpu_per_op_ns);
  (* one lookup key serves the memtable and every table *)
  let lookup =
    match snapshot with
    | Some seq -> Ik.lookup_at ~user_key:key ~seq
    | None -> Ik.max_for_lookup key
  in
  match Memtable.get t.mem lookup with
  | Some (Some v) -> Some v
  | Some None -> None
  | None -> (
    (* the candidate tables of one lookup (the L0 pile, a level's
       overlapping runs or guard) are independent random reads: bracket
       them in a probe session so they overlap up to the device budget *)
    let search m = table_lookup t key lookup m in
    let found =
      Probe.with_session t.probe ~label:"get" (fun () ->
          (* level 0: newest file first; first hit wins *)
          match probe_tables t key search (t.shape.l0 t.lv) with
          | Some _ as found -> found
          | None -> probe_levels t key lookup search 1)
    in
    match found with
    | Some (Ik.Value, v) -> Some v
    | Some (Ik.Deletion, _) | None -> None)

let internal_iterator t =
  let on_table () =
    charge_cpu t O.cpu_per_sstable_ns;
    Stats.incr t.counters Stats.sstables_examined
  in
  let on_check =
    if t.opts.O.seek_filtering then
      Some
        (fun ~skipped ->
          Stats.incr t.counters Stats.seek_bloom_checks;
          if skipped then Stats.incr t.counters Stats.seek_bloom_skips)
    else None
  in
  let level_iter view =
    Level_iter.create ?on_check ~probe:t.probe ~cache:t.table_cache
      ~block_cache:t.block_cache ~hint:Device.Random_read ~on_table view
  in
  (* the pile as it stands now: its files outlive the iterator's validity
     (see gc_obsolete) *)
  let l0 = Level_iter.pile (t.shape.l0 t.lv) in
  Pdb_kvs.Merging_iter.create ~compare:Ik.compare
    (Memtable.iterator t.mem
    :: List.map level_iter ((fun () -> l0) :: t.shape.views t))

(* Seek-triggered compaction (LevelDB's allowed_seeks budget, PebblesDB
   §4.2): each run of [seek_compaction_threshold] consecutive seeks opens
   a compaction call whose first round is the engine's seek picks. *)
let note_seek t =
  Stats.incr t.counters Stats.seeks;
  charge_cpu t (t.opts.O.op_overhead_read_ns +. O.cpu_per_op_ns);
  if t.opts.O.seek_based_compaction then begin
    t.consecutive_seeks <-
      (t.consecutive_seeks + 1) mod O.seek_compaction_threshold;
    if t.consecutive_seeks = 0 then maybe_compact ~seek:true t
  end

(* A database iterator with the engine's seek accounting. *)
type 'lv user_iter = { store : 'lv t; db : Iter.t }

let user_seek c k =
  note_seek c.store;
  Probe.with_session c.store.probe ~label:"seek" (fun () -> c.db.Iter.seek k)

let user_seek_to_first c =
  note_seek c.store;
  Probe.with_session c.store.probe ~label:"seek" c.db.Iter.seek_to_first

let user_next c =
  charge_cpu c.store O.cpu_per_op_ns;
  c.db.Iter.next ()

let iterator ?snapshot t =
  assert (not t.closed);
  let c =
    { store = t; db = Pdb_kvs.Db_iter.wrap ?snapshot (internal_iterator t) }
  in
  {
    c.db with
    Iter.seek = user_seek c;
    seek_to_first = (fun () -> user_seek_to_first c);
    next = (fun () -> user_next c);
  }

(** Memtable plus block cache: the resident memory every engine has
    before its own filters, indexes and level metadata. *)
let base_memory_bytes t =
  Memtable.approximate_bytes t.mem + Block_cache.used t.block_cache
