(** Guards: the organising structure of the Fragmented LSM (§3.1).

    A guard [G_i] with key [K_i] owns every sstable whose keys fall in
    [K_i, K_{i+1}).  Guards within a level never overlap, but the sstables
    {e inside} a guard may — that is the relaxation of the classical LSM
    invariant that lets FLSM append compaction output instead of rewriting
    it.  Each level's guard array starts with the sentinel guard (key "")
    that owns keys smaller than the first real guard.

    Structural invariants maintained here and checked by
    [Pebbles_store.check_invariants]:
    - [guards.(0)] is the sentinel; keys strictly ascend across the array;
    - every table attached to a guard lies entirely inside the guard's
      range (no straddlers — enforced at compaction/commit time);
    - tables are listed newest-first, so a get() can stop at the first
      bloom-confirmed hit.

    Guards are copy-on-write: a guard record never changes, and every
    change to a level installs a fresh guard array.  The array a reader
    took is therefore a snapshot that later compactions leave alone. *)

type guard = {
  gkey : string;  (** user key; [""] for the sentinel *)
  tables : Pdb_sstable.Table.meta list;  (** newest first *)
}

type level = { mutable guards : guard array }

(** [sentinel ()] is a fresh sentinel guard (key "", no tables). *)
val sentinel : unit -> guard

(** [create_level ()] is a level holding only the sentinel. *)
val create_level : unit -> level

(** [guard_index level key] is the index of the guard owning user [key]:
    the last guard whose key is <= [key] (always >= 0 thanks to the
    sentinel). *)
val guard_index : level -> string -> int

(** [locate guards ikey] is the index in [guards] of the guard owning the
    user key of internal key [ikey], compared in place. *)
val locate : guard array -> string -> int

(** [guard_range level i] is the key range [lo, hi) of guard [i]; [hi] is
    [None] for the last guard. *)
val guard_range : level -> int -> string * string option

(** [table_fits level i m] tests whether [m]'s user-key range lies entirely
    inside guard [i]. *)
val table_fits : level -> int -> Pdb_sstable.Table.meta -> bool

(** [straddles key m] is true when [m]'s range contains keys both < [key]
    and >= [key] — such a table must be dissolved by a merge before [key]
    can become a guard of its level. *)
val straddles : string -> Pdb_sstable.Table.meta -> bool

(** [attach level m] prepends table [m] to its guard (newest first).
    Asserts the no-straddler invariant. *)
val attach : level -> Pdb_sstable.Table.meta -> unit

(** [detach level numbers] removes the tables whose file numbers are in
    [numbers] from every guard. *)
val detach : level -> int list -> unit

(** [commit_guards level keys] splices new guard [keys] into the level,
    redistributing each affected guard's tables (which must each fit wholly
    on one side of every new key — commit straddle-free guards only).
    @raise Failure on a straddling table. *)
val commit_guards : level -> string list -> unit

(** [delete_guard level key] removes guard [key], folding its tables into
    the preceding guard (asynchronous guard deletion, §3.3). *)
val delete_guard : level -> string -> unit

(** All tables of the level, guard by guard. *)
val all_tables : level -> Pdb_sstable.Table.meta list

val table_count : level -> int

(** Total sstable bytes resident in the level. *)
val bytes : level -> int

(** Number of guards excluding the sentinel. *)
val guard_count : level -> int

(** Committed guards currently holding no sstables (§3.3: empty guards are
    possible and harmless). *)
val empty_guard_count : level -> int

(** Modeled in-memory footprint of the guard metadata (Table 5.4). *)
val metadata_bytes : level -> int
