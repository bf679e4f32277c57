(** A unit of background work, reified as data.

    Following Sarkar et al.'s decomposition of the LSM compaction design
    space, a compaction is described by {e why} it was picked (the
    trigger), {e what} it touches (the footprint: the levels it reads and
    writes and its key range, which decide the earlier jobs it waits for
    on the worker timelines), and {e how
    much} data it is expected to move.  The [run] closure performs the
    actual state mutation when the scheduler runs the job; it captures
    stable identifiers (level numbers, guard keys) rather than live
    records, and re-resolves them at execution time so that jobs picked
    in the same round as a structure-changing job still apply to current
    state. *)

type trigger =
  | Memtable_full  (** flush: the active memtable reached its budget *)
  | L0_files  (** too many level-0 sstables *)
  | Level_size  (** a level exceeded its target size *)
  | Guard_cap  (** a guard holds too many sstables (FLSM per-guard cap) *)
  | Guard_merge  (** last-level guard rewrite to bound overlap *)
  | Seek  (** read-triggered: a seek pass's pick (allowed-seeks spent) *)
  | Manual  (** [compact_all] / explicit user request *)
  | Migration_copy
      (** shard elasticity: batches of a moving range written into the
          destination shard (see [Pdb_shard.Shard_store]) *)
  | Migration_clean
      (** shard elasticity: tombstones retiring the moved range from the
          source shard after the router install *)

let trigger_name = function
  | Memtable_full -> "flush"
  | L0_files -> "l0"
  | Level_size -> "size"
  | Guard_cap -> "cap"
  | Guard_merge -> "merge"
  | Seek -> "seek"
  | Manual -> "manual"
  | Migration_copy -> "migrate:copy"
  | Migration_clean -> "migrate:clean"

type t = {
  key : string;
      (** the job's name in traces, e.g. ["size:2"] or ["cap:3:user4821"] *)
  trigger : trigger;
  estimated_bytes : int;
      (** expected input volume, for the per-trigger tally and the round
          peaks *)
  footprint : Pdb_simio.Sched.footprint;
  run : unit -> unit;
}

let pp ppf j =
  Fmt.pf ppf "%s(%s, ~%d B)" (trigger_name j.trigger) j.key j.estimated_bytes
