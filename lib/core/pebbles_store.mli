(** PebblesDB: a key-value store built over Fragmented Log-Structured Merge
    trees (chapters 3 and 4 of the paper).

    The engine keeps the LevelDB-family shape — memtable + WAL in front of
    a hierarchy of sstable levels recovered through a MANIFEST — but
    replaces the per-level disjointness invariant with guards: compaction
    {e appends} partitioned fragments to the next level's guards instead of
    rewriting the level, which is what removes write amplification (§3.4).
    Per-sstable bloom filters (§4.1), seek-triggered compaction and
    parallel seeks (§4.2) recover read and range-query performance.

    This module satisfies {!Pdb_kvs.Store_intf.S} (modulo the optional
    [?snapshot] parameters, fixed by the harness adapter). *)

type t

(** {1 Lifecycle} *)

(** [open_store options ~env ~dir] opens (creating or recovering) a store
    rooted at simulated directory prefix [dir].  Recovery replays the
    MANIFEST's version edits — including guard metadata (§4.3.1) — then
    the WAL.  [?block_cache] substitutes a caller-owned (typically
    shard-shared) block cache for the store's private one. *)
val open_store :
  ?block_cache:Pdb_sstable.Block_cache.t ->
  Pdb_kvs.Options.t ->
  env:Pdb_simio.Env.t ->
  dir:string ->
  t

(** [close t] releases the store.  Unsynced WAL data remains volatile, as
    in the real system. *)
val close : t -> unit

val options : t -> Pdb_kvs.Options.t
val env : t -> Pdb_simio.Env.t

(** [stats t] is a view of the engine's counters, its background
    scheduler's (jobs, queue peaks, per-worker busy time, stall
    attribution) and its table cache's, with the empty-guard count taken
    at the read. *)
val stats : t -> Pdb_kvs.Engine_stats.t

(** The shared background-compaction scheduler: every compaction runs
    through it as a {!Pdb_compaction.Job.t}, the triggered ones in the
    rounds the engine shell's loop asks this store's pick for. *)
val compaction_scheduler : t -> Pdb_compaction.Scheduler.t

(** The write-throttling controller pacing this store's foreground
    writes ({!Pdb_kvs.Backpressure}) — the same module the leveled LSM
    engine uses, so the two can never drift on stall policy. *)
val backpressure : t -> Pdb_kvs.Backpressure.t

(** {1 Writes (§2.1, §3.4)} *)

val put : t -> string -> string -> unit
val delete : t -> string -> unit

(** [write t batch] applies a batch atomically (one WAL record). *)
val write : t -> Pdb_kvs.Write_batch.t -> unit

(** [write_group t batches] commits [batches] as one WAL group — the
    LevelDB writers-queue protocol: one record per batch (log bytes
    identical at any group size), one coalesced device append, one sync;
    no batch is acked before the group's sync returns.  State
    transitions are exactly those of writing the batches one by one. *)
val write_group : t -> Pdb_kvs.Write_batch.t list -> unit

(** [flush t] persists the active memtable as a level-0 sstable and runs
    any compaction it triggers. *)
val flush : t -> unit

(** {1 Reads (§3.4, §4.1)} *)

(** [get ?snapshot t key] is the latest value visible (at [snapshot] if
    given): one guard per level is consulted, with bloom filters skipping
    almost all of the guard's sstables. *)
val get : ?snapshot:int -> t -> string -> string option

(** [iterator ?snapshot t] is a database iterator over live user keys.
    An iterator stays valid until the next write — including across other
    readers' seeks and the seek compactions they trigger: superseded files
    are deleted only at mutating operations, and each guarded level is
    walked as it stood at the iterator's own latest seek.  Writes
    invalidate it (no pinning).  A run of consecutive seeks runs the seek
    picks (§4.2) as a compaction round.  Seeks run inside a parallel-probe
    session (§4.2's parallel seeks, budgeted by the device); a seek
    positions one guard per level and skips its sstables whose largest
    key sorts before the target. *)
val iterator : ?snapshot:int -> t -> Pdb_kvs.Iter.t

(** [guard_view level ()] is a guarded level as a {!Pdb_sstable.Level_iter}
    view, one partition per guard: the level's guard array at the call,
    which later changes leave alone (guards are copy-on-write).  The level
    iterator's input for an FLSM level. *)
val guard_view : Guard.level -> unit -> Pdb_sstable.Level_iter.view

(** {1 Snapshots} *)

(** [snapshot t] pins the current state; reads and iterators through the
    returned sequence number see exactly the versions visible now.
    Compaction keeps whatever pinned snapshots still need; superseded
    files stay on storage until the last snapshot is released. *)
val snapshot : t -> int

(** [release_snapshot t s] unpins [s] (release exactly once per acquire). *)
val release_snapshot : t -> int -> unit

(** {1 Maintenance} *)

(** [compact_all t] drives pending compaction to quiescence.  Deliberately
    does not force everything into one level: PebblesDB "does not compact
    as aggressively as other key-value stores as it seeks to minimize
    write IO" (§5.2). *)
val compact_all : t -> unit

(** [delete_empty_guards t] removes every guard that is empty at every
    level where it is committed (§3.3, §7), persisting the deletions;
    returns the number of guard keys removed. *)
val delete_empty_guards : t -> int

(** {1 Introspection} *)

(** Modeled resident memory: memtable + block cache + all sstable filters
    and indexes + guard metadata (Table 5.4). *)
val memory_bytes : t -> int

(** Render the on-storage shape — levels, guards, sstables (Figure 3.1). *)
val describe : t -> string

(** Raise [Failure] on any violated structural invariant (guard ordering,
    no straddlers, skip-list guard property, no guard both committed and
    pending, file existence). *)
val check_invariants : t -> unit

val l0_table_count : t -> int

(** [due_compactions t] is the number of compactions the store's pick
    finds due now, running none: one pass of the round loop's pick, for
    micro benchmarks.  Like a pick, it may commit the last level's
    straddle-free pending guards. *)
val due_compactions : t -> int

(** Committed guards per level (index 0 unused). *)
val guard_counts : t -> int array

val empty_guard_count : t -> int
val sstable_metas : t -> Pdb_sstable.Table.meta list

val max_tables_in_any_guard : t -> int
