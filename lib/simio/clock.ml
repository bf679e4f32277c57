(** Simulated time, split into foreground and background lanes.

    Engines run single-threaded in this reproduction, but real LSM stores
    overlap foreground writes with background flush/compaction threads.  We
    model that by charging each IO to the lane active at the time: user
    operations charge the foreground lane; flush and compaction work runs
    inside {!with_background} and charges the background lane.

    Background work is additionally *placed* on per-worker timelines by
    {!Sched} (one timeline per modeled compaction thread): each job starts
    no earlier than its worker is free and no earlier than the finish of
    any previously placed job that wrote a level it reads or writes over
    overlapping keys.  The clock records the resulting completion horizon
    ([bg_horizon_ns]), and the reported elapsed time for a workload is
    [max(cpu, foreground + bg_horizon) + stalls]: a store is write-bound
    either by its own foreground path or by the compaction drain rate of
    its worker lanes — which is exactly the paper's explanation of why
    lower write amplification and guard-parallel compaction (§4.3)
    translate into higher write throughput. *)

type lane = Foreground | Background

(* The five times, apart from [lane]: a record of floats only is stored
   flat, so charging time writes the double in place instead of boxing a
   fresh float on every [advance]. *)
type times = {
  mutable foreground_ns : float;
  mutable background_ns : float;
  mutable bg_horizon_ns : float;
      (* completion horizon over the background worker timelines,
         maintained by Sched.place *)
  mutable stall_ns : float;
  mutable cpu_ns : float; (* modeled CPU work, charged to foreground lane *)
}

(** [times] is exposed so that a hot reader ({!Probe}) can read the
    current lane's time in place: a float returned from a function of
    another module is boxed. *)
type t = { times : times; mutable lane : lane }

let create () =
  {
    times =
      {
        foreground_ns = 0.0;
        background_ns = 0.0;
        bg_horizon_ns = 0.0;
        stall_ns = 0.0;
        cpu_ns = 0.0;
      };
    lane = Foreground;
  }

let reset t =
  let c = t.times in
  c.foreground_ns <- 0.0;
  c.background_ns <- 0.0;
  c.bg_horizon_ns <- 0.0;
  c.stall_ns <- 0.0;
  c.cpu_ns <- 0.0;
  t.lane <- Foreground

(** [advance t ns] charges [ns] of device time to the current lane. *)
let advance t ns =
  let c = t.times in
  match t.lane with
  | Foreground -> c.foreground_ns <- c.foreground_ns +. ns
  | Background -> c.background_ns <- c.background_ns +. ns

(** [advance_cpu t ns] charges modeled CPU work (always foreground). *)
let advance_cpu t ns = t.times.cpu_ns <- t.times.cpu_ns +. ns

(** [stall t ns] records write-stall time (L0
    slowdown/stop back-pressure). *)
let stall t ns = t.times.stall_ns <- t.times.stall_ns +. ns

(** [note_bg_horizon t ns] raises the background completion horizon to
    [ns]; called by {!Sched} as jobs are placed on worker timelines. *)
let note_bg_horizon t ns =
  if ns > t.times.bg_horizon_ns then t.times.bg_horizon_ns <- ns

(** Accumulated background device time. *)
let background_ns t = t.times.background_ns

(** The background completion horizon (see {!note_bg_horizon}). *)
let bg_horizon_ns t = t.times.bg_horizon_ns

(** [refund t ns] gives back device time on the current lane.  PebblesDB's
    parallel seeks overlap the sstable reads of a guard (§4.2): the engine
    measures each table's positioning cost and refunds everything beyond
    the slowest one. *)
let refund t ns =
  let c = t.times in
  match t.lane with
  | Foreground -> c.foreground_ns <- Float.max 0.0 (c.foreground_ns -. ns)
  | Background -> c.background_ns <- Float.max 0.0 (c.background_ns -. ns)

(** [with_background t f] runs [f ()] charging device time to the
    background lane (flush and compaction). *)
let with_background t f =
  let saved = t.lane in
  t.lane <- Background;
  Fun.protect ~finally:(fun () -> t.lane <- saved) f

type snapshot = {
  foreground_ns : float;
  background_ns : float;
  bg_horizon_ns : float;
  stall_ns : float;
  cpu_ns : float;
}

let snapshot (t : t) : snapshot =
  let c = t.times in
  {
    foreground_ns = c.foreground_ns;
    background_ns = c.background_ns;
    bg_horizon_ns = c.bg_horizon_ns;
    stall_ns = c.stall_ns;
    cpu_ns = c.cpu_ns;
  }

let diff (a : snapshot) (b : snapshot) =
  {
    foreground_ns = a.foreground_ns -. b.foreground_ns;
    background_ns = a.background_ns -. b.background_ns;
    bg_horizon_ns = a.bg_horizon_ns -. b.bg_horizon_ns;
    stall_ns = a.stall_ns -. b.stall_ns;
    cpu_ns = a.cpu_ns -. b.cpu_ns;
  }

(** [elapsed_ns snap] is the modeled wall-clock of a phase.

    The device is a shared resource: foreground IO and background
    compaction IO serialise on it, while modeled CPU work overlaps with
    IO.  Background completion is the advance of the per-worker timeline
    horizon during the phase: stores whose compaction decomposes into many
    small jobs over disjoint guards, appending to their target level, pack
    their worker lanes densely (horizon ≈ total/N), while stores whose
    jobs rewrite overlapping key ranges serialise (horizon ≈ total) — how
    FLSM's guard-parallel compaction becomes higher write throughput.  Engines that never placed
    scheduled work (the B+-tree stores) have a zero horizon and are bound
    by their foreground path alone. *)
let[@inline] elapsed ~cpu ~fg ~horizon ~stall =
  Float.max cpu (fg +. Float.max 0.0 horizon) +. stall

let elapsed_ns (s : snapshot) =
  elapsed ~cpu:s.cpu_ns ~fg:s.foreground_ns ~horizon:s.bg_horizon_ns
    ~stall:s.stall_ns

(** [now_ns t] is [elapsed_ns (snapshot t)] without building the
    snapshot. *)
let now_ns t =
  let c = t.times in
  elapsed ~cpu:c.cpu_ns ~fg:c.foreground_ns ~horizon:c.bg_horizon_ns
    ~stall:c.stall_ns
