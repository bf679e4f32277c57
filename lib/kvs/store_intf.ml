(** The key-value store interface (paper §2.1) that every engine in this
    repository implements: LSM baselines, the FLSM-based PebblesDB, the
    B+-tree store and the WiredTiger-like store. *)

module type S = sig
  type t

  (** [open_store options ~env ~dir] opens (creating or recovering) a store
      rooted at simulated directory prefix [dir]. *)
  val open_store : Options.t -> env:Pdb_simio.Env.t -> dir:string -> t

  (** [close t] flushes state needed for clean reopen and releases the
      store.  Buffered (unsynced) WAL data remains volatile, as in the real
      systems. *)
  val close : t -> unit

  val put : t -> string -> string -> unit
  val get : t -> string -> string option
  val delete : t -> string -> unit

  (** [write t batch] applies a batch atomically. *)
  val write : t -> Write_batch.t -> unit

  (** [write_group t batches] commits [batches] as one group, in order —
      engines with a WAL group commit ([Pdb_engine.Shell.write_group])
      coalesce the log append and sync; others degrade to writing them
      one by one.
      Store state is always exactly that of the one-by-one writes. *)
  val write_group : t -> Write_batch.t list -> unit

  (** [iterator t] is a database iterator over live user keys (tombstones
      and stale versions filtered).  It stays valid until the next write to
      the store, including across other readers' seeks and any compaction
      those seeks trigger; after a write it must not be used again. *)
  val iterator : t -> Iter.t

  (** [flush t] persists the active memtable as an sstable. *)
  val flush : t -> unit

  (** [compact_all t] drives compaction until the store reaches its fully
      compacted shape — used by "after full compaction" experiments. *)
  val compact_all : t -> unit

  val stats : t -> Engine_stats.t
  val options : t -> Options.t
  val env : t -> Pdb_simio.Env.t

  (** [memory_bytes t] is the modeled resident memory: memtable + cached
      blocks + in-memory filters/indexes (Table 5.4). *)
  val memory_bytes : t -> int

  (** [describe t] renders the on-storage shape (levels, files, guards) for
      debugging and the layout examples (Figures 2.1 and 3.1). *)
  val describe : t -> string

  (** [check_invariants t] raises [Failure] if an internal structural
      invariant is violated — used heavily by the test suites. *)
  val check_invariants : t -> unit
end

(** A store packaged as first-class values, so the benchmark harness can
    drive heterogeneous engines uniformly. *)
type dyn = {
  d_name : string;
  d_put : string -> string -> unit;
  d_get : string -> string option;
  d_delete : string -> unit;
  d_write : Write_batch.t -> unit;
  d_write_group : Write_batch.t list -> unit;
  d_iterator : unit -> Iter.t;
  d_flush : unit -> unit;
  d_compact_all : unit -> unit;
  d_close : unit -> unit;
  d_stats : unit -> Engine_stats.t;
  d_options : Options.t;
  d_env : Pdb_simio.Env.t;
  d_memory_bytes : unit -> int;
  d_describe : unit -> string;
  d_check_invariants : unit -> unit;
}

(** [dyn_of (module M) t] erases a store's type. *)
let dyn_of (type a) (module M : S with type t = a) (t : a) =
  {
    d_name = (M.options t).Options.name;
    d_put = M.put t;
    d_get = M.get t;
    d_delete = M.delete t;
    d_write = M.write t;
    d_write_group = M.write_group t;
    d_iterator = (fun () -> M.iterator t);
    d_flush = (fun () -> M.flush t);
    d_compact_all = (fun () -> M.compact_all t);
    d_close = (fun () -> M.close t);
    d_stats = (fun () -> M.stats t);
    d_options = M.options t;
    d_env = M.env t;
    d_memory_bytes = (fun () -> M.memory_bytes t);
    d_describe = (fun () -> M.describe t);
    d_check_invariants = (fun () -> M.check_invariants t);
  }
