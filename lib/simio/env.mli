(** Simulated storage environment: an in-memory file system with IO
    accounting, device-time charging and crash simulation.

    This stands in for the paper's ext4-on-SSD testbed.  Every store in the
    repository performs all of its IO through an [Env.t], so byte counts
    (write amplification) and modeled device time are directly comparable
    across engines.

    Durability model: {!append} buffers data; {!sync} makes the current
    file contents crash-durable.  {!crash} truncates every file back to
    its last synced length (and removes never-synced files), after which
    stores exercise their recovery paths.  {!rename} is atomic and — like
    ext4's replace-via-rename heuristic — implies a flush of the file's
    contents, matching how LevelDB-family stores install a new MANIFEST
    via CURRENT.  Positioned writes ({!write_at}, used by the page stores)
    are immediately durable — page engines carry their own journaling.

    Fault injection: install a seeded {!Fault_plan} to make the Nth
    subsequent IO event raise {!Injected_crash}, and to model torn writes
    at the following {!crash} — each file's unsynced suffix persists only
    up to a block-granular prefix, possibly with a garbled tail.  See the
    "Crash & durability model" section of DESIGN.md. *)

(** Raised at an armed fault-plan injection point, out of whatever store
    code performed the IO.  The environment is left exactly as the crash
    found it; callers should {!crash} it and re-open stores. *)
exception Injected_crash of string

module Fault_plan : sig
  type t

  (** [create ~seed ~crash_after ()] arms a crash at the [crash_after]-th
      subsequent IO event (append/sync/create/rename/delete/positioned
      write), and models torn writes at the next {!crash}:
      [garbage_tail_prob] (default 0.25) is the chance the surviving torn
      tail of a file is garbled; [block_bytes] (default 4096) is the
      persistence granularity. *)
  val create :
    ?garbage_tail_prob:float ->
    ?block_bytes:int ->
    seed:int ->
    crash_after:int ->
    unit ->
    t

  (** [fired t] is true once the plan's crash point was reached. *)
  val fired : t -> bool

  (** [fired_at t] is the label of the IO event that fired, e.g.
      ["sync:db/000003.log"]. *)
  val fired_at : t -> string option

  (** [fired_in_background t] is true when the crash fired inside
      background (flush/compaction) work. *)
  val fired_in_background : t -> bool

  (** [ticks t] counts every IO event observed while armed — run a trace
      with an unreachable [crash_after] to measure its crash-point count. *)
  val ticks : t -> int

  (** [torn_files t] counts files whose unsynced tail partially persisted
      at the crash (set by {!crash}). *)
  val torn_files : t -> int
end

type t

(** An open append handle. *)
type writer

val create : unit -> t

val stats : t -> Io_stats.t
val device : t -> Device.t
val clock : t -> Clock.t

val set_fault_plan : t -> Fault_plan.t -> unit
val clear_fault_plan : t -> unit

(** Attach a {!Trace.t} to record spans/instants (compaction jobs, flushes,
    WAL rotations, stalls, injected faults) against the simulated clock.
    Purely observational: store bytes and clock charges are unchanged. *)
val set_tracer : t -> Trace.t -> unit

val tracer : t -> Trace.t option

(** [with_atomic t f] runs [f] deferring any injected crash to the end of
    the section — the IO inside commits (or is lost) as a unit.  Used by
    the page stores, whose checkpoints are modeled as atomic. *)
val with_atomic : t -> (unit -> 'a) -> 'a

(** [create_file t name] opens [name] for appending, truncating any
    existing contents.  Truncating an already-durable name keeps the
    directory entry durable (the file survives a crash, empty); a
    brand-new name stays volatile until the first sync. *)
val create_file : t -> string -> writer

(** [append w s] appends [s]; charges sequential write cost. *)
val append : writer -> string -> unit

(** [append_buffer w b] is [append w (Buffer.contents b)] — the same
    bytes, IO stats, clock charge and fault-plan event — without copying
    [b]'s contents out first. *)
val append_buffer : writer -> Buffer.t -> unit

(** [append_coalesced w ~unit b] appends the contents of [b] as
    {!append_buffer} does — the same bytes, at once, and one fault-plan
    event — but charges the device one write of [unit] bytes each time
    that many bytes are staged, as a write buffer flushing full units
    does; {!sync} charges what is left as one more write.  A file of [n]
    bytes written this way and synced costs [ceil (n / unit)] device
    writes. *)
val append_coalesced : writer -> unit:int -> Buffer.t -> unit

(** [sync w] charges any staged bytes as one write, then makes the file
    contents crash-durable; charges fsync cost. *)
val sync : writer -> unit

val close : writer -> unit
val writer_size : writer -> int

(** [write_at t name ~pos s] overwrites bytes at [pos], extending the file
    with zeroes as needed; charges random-write cost. *)
val write_at : t -> string -> pos:int -> string -> unit

val exists : t -> string -> bool

(** @raise Sys_error when the file does not exist. *)
val file_size : t -> string -> int

(** [read t name ~pos ~len ~hint] reads a range, charging device cost per
    the read [hint].
    @raise Invalid_argument on an out-of-bounds range.
    @raise Sys_error when the file does not exist. *)
val read : t -> string -> pos:int -> len:int -> hint:Device.read_hint -> string

(** [read_view t name ~pos ~len ~hint] reads the same range as {!read},
    with the same bounds check, IO stats and clock charge, and returns
    [(src, off)]: the range is the [len] bytes of [src] at [off].  A
    file's chunks follow its appends: an append past the file's capacity
    adds one chunk for exactly the bytes that do not fit, so the range
    one such append wrote is a whole chunk's bytes, and capacity equals
    length until a {!crash} truncates the file.  The chunk is a fresh
    one of exactly that length, or one a {!delete} pooled, which may be
    up to 287 bytes longer.  When the range lies inside one chunk,
    [src] is that chunk itself, not a copy, so [src] outside the range
    may change later; a range across chunks comes back as a copy at
    [off = 0].
    Only view bytes that never change: a synced, finished file's
    contents.  Appends write only past the file's length, {!create_file}
    starts with no chunk, and {!crash} alters only unsynced tails; only
    {!write_at} overwrites bytes in place.
    A view dies with its file: {!delete} hands the file's chunks to
    later appends, so a view kept past the delete may come to hold
    another file's bytes.  Drop every view of a file before deleting
    it.
    @raise Invalid_argument on an out-of-bounds range.
    @raise Sys_error when the file does not exist. *)
val read_view :
  t -> string -> pos:int -> len:int -> hint:Device.read_hint -> string * int

(** [peek t name ~pos ~len] reads a range without charging device time or
    IO stats — the sendfile-style path replication uses to put freshly
    written (page-cache-resident) bytes on the wire; the {!Network} link
    charges the transfer instead.
    @raise Invalid_argument on an out-of-bounds range.
    @raise Sys_error when the file does not exist. *)
val peek : t -> string -> pos:int -> len:int -> string

(** [peek_view t name ~pos ~len] is {!read_view} without the IO stats and
    clock charge, as {!peek} is {!read} without them: compaction uses it
    to cache blocks of a table it has just written and synced, whose
    bytes are still in memory (the paper's page cache).  The same rules
    hold: only view bytes that never change, and drop every view of a
    file before deleting it.
    @raise Invalid_argument on an out-of-bounds range.
    @raise Sys_error when the file does not exist. *)
val peek_view : t -> string -> pos:int -> len:int -> string * int

(** [io_event t label] registers an external IO event (e.g. one
    replication shipping step) with any installed {!Fault_plan}, so crash
    sweeps can fire between and inside shipping steps. *)
val io_event : t -> string -> unit

(** [prefetch t name ~pos ~len ~hint] charges one device read of the
    range, with {!read}'s bounds check, IO stats and clock charge, and
    returns nothing: a compaction's readahead, whose blocks the caller
    then views with {!peek_view}.
    @raise Invalid_argument on an out-of-bounds range.
    @raise Sys_error when the file does not exist. *)
val prefetch :
  t -> string -> pos:int -> len:int -> hint:Device.read_hint -> unit

val read_all : t -> string -> hint:Device.read_hint -> string

(** [delete t name] removes [name], if it exists.  Its chunks go to a
    pool of [t]'s, from which later appends to any file of [t] take
    chunks, so the deleted bytes are written over: no view of the file
    ({!read_view}, {!peek_view}) may outlive the delete.  The pool keeps
    chunks of 1 KB to 64 KB, at most one eighth of the live files'
    bytes ({!total_file_bytes}); the rest go to the GC.  A writer still
    open on the file appends into chunks of its own, which no file
    holds. *)
val delete : t -> string -> unit

(** [rename t ~src ~dst] atomically renames a file; the rename implies a
    flush of the file's current contents (ext4 replace-via-rename), so
    both the name and the data are durable afterwards. *)
val rename : t -> src:string -> dst:string -> unit

(** [rename_writer w ~dst] renames [w]'s file as {!rename} does; [w]
    keeps appending to it, and labels its IO events, under [dst]. *)
val rename_writer : writer -> dst:string -> unit

(** All live file names (unordered). *)
val list : t -> string list

(** Total bytes stored across all files — the space-amplification
    numerator (Figure 5.3). *)
val total_file_bytes : t -> int

(** [crash t] simulates a power failure: every file loses its unsynced
    suffix; files that never reached a sync disappear.  Under an installed
    {!Fault_plan}, the torn-write model applies instead (block-granular
    partial persistence, garbled tails, never-synced files that may leave
    a partial directory entry).  The plan is consumed. *)
val crash : t -> unit
