(** The shared background-work scheduler.

    Stores do not compact inline: the engine shell's round loop
    ([Shell.maybe_compact]) asks the engine's pick for a {e round} of
    {!Job.t}s on the current state and hands it to {!run_round}, which
    runs the jobs where they were picked, in pick order — one at a time,
    so store mutation order (and hence final state) never depends on the
    worker count — while each job's measured background device time is
    placed on the {!Pdb_simio.Sched} worker timelines, where a job waits
    only for the earlier jobs that wrote a level it reads or writes over
    overlapping keys, and overlaps every other.
    A job is placed at its exclusive time: what it ran minus what the
    jobs run inside it (a migration batch's flush) already placed, so
    no background time is placed twice.
    Worker count therefore shapes only the modeled clock, which is the
    whole point: guard-parallel FLSM compaction (many small disjoint
    jobs) packs N lanes densely, leveled compaction (few wide jobs)
    cannot. *)

module Clock = Pdb_simio.Clock
module Sched = Pdb_simio.Sched
module Stats = Pdb_kvs.Engine_stats

type t = {
  clock : Clock.t;
  lanes : Sched.t;
  env : Pdb_simio.Env.t option;  (** for the environment's tracer, if any *)
  counters : Stats.counters;
      (** jobs run, round peaks, stall time, serialized jobs and the
          per-trigger tally *)
  mutable observer : (Job.t -> unit) option;
  nested_ns : float array;
      (** one cell: background time of the jobs run inside the current
          one (an array, so updating it allocates nothing) *)
}

let create ?env ~clock ~workers () =
  {
    clock;
    lanes = Sched.create ~clock ~workers ();
    env;
    counters = Stats.counters ();
    observer = None;
    nested_ns = [| 0.0 |];
  }

let tracer t =
  match t.env with None -> None | Some env -> Pdb_simio.Env.tracer env

let counters t = t.counters
let busy_ns t = Sched.busy_ns t.lanes
let flush_busy_ns t = Sched.flush_busy_ns t.lanes

let set_observer t f = t.observer <- Some f

(** [run t job] executes [job] now and places its background device
    time on a lane — used directly for memtable flushes, which gate the
    write that triggered them, and for the engines' manual jobs in
    [compact_all].  A job placed from inside another (a migration
    batch's write that flushes) is placed once: the enclosing job's
    placed time is its {e exclusive} time, what it ran minus what the
    jobs inside it ran, so no background time is placed twice. *)
let run t (job : Job.t) =
  let outer = t.nested_ns.(0) in
  t.nested_ns.(0) <- 0.0;
  let before = Clock.background_ns t.clock in
  Clock.with_background t.clock job.run;
  let total_ns = Clock.background_ns t.clock -. before in
  let duration_ns = total_ns -. t.nested_ns.(0) in
  t.nested_ns.(0) <- outer +. total_ns;
  (* zero-cost jobs (e.g. trivial pointer moves) occupy no lane time *)
  if duration_ns > 0.0 then begin
    (* flushes ride the reserved lane: memtable rotation must never wait
       behind a deep round of compactions *)
    let cls =
      match job.Job.trigger with
      | Job.Memtable_full -> `Flush
      | _ -> `Worker
    in
    let p = Sched.place_span ~cls t.lanes job.footprint ~duration_ns in
    if Sched.serialized t.lanes then
      Stats.incr t.counters Stats.compaction_serialized_jobs;
    let lane_name =
      if p.Sched.lane >= Sched.workers t.lanes then "flush"
      else Printf.sprintf "worker-%d" p.Sched.lane
    in
    match tracer t with
    | Some tr ->
      Pdb_simio.Trace.span tr
        ~name:(Job.trigger_name job.trigger)
        ~cat:"compaction"
        ~lane:lane_name
        ~start_ns:p.Sched.start_ns
        ~dur_ns:(p.Sched.finish_ns -. p.Sched.start_ns)
        ~args:
          [
            ("key", job.key);
            ("bytes", string_of_int job.estimated_bytes);
          ]
        ()
    | None -> ()
  end;
  Stats.incr t.counters Stats.compaction_jobs;
  Stats.bump_trigger t.counters
    (Job.trigger_name job.trigger)
    ~runs:1 ~bytes:job.estimated_bytes;
  match t.observer with Some f -> f job | None -> ()

(** [run_round t jobs] runs one round of picked jobs, in pick order, and
    records the round's size (jobs and estimated bytes) in the
    [compaction_queue_peak] and [compaction_backlog_peak_bytes]
    watermarks. *)
let run_round t jobs =
  let c = t.counters in
  Stats.peak c Stats.compaction_queue_peak (List.length jobs);
  Stats.peak c Stats.compaction_backlog_peak_bytes
    (List.fold_left (fun acc (j : Job.t) -> acc + j.estimated_bytes) 0 jobs);
  List.iter (run t) jobs

(** [note_stall t ~slowdown_ns ~stop_ns] records write-stall time already
    charged to the clock, pre-split by threshold attribution.  A stall
    that crossed the Slowdown→Stop boundary carries both parts and is
    traced as two adjacent spans — slowdown first, then stop — instead of
    one span of whichever kind held at stall start. *)
let note_stall t ~slowdown_ns ~stop_ns =
  Stats.add_ns t.counters Stats.stall_slowdown_ns slowdown_ns;
  Stats.add_ns t.counters Stats.stall_stop_ns stop_ns;
  match tracer t with
  | Some tr ->
    let now = Clock.now_ns t.clock in
    let total = slowdown_ns +. stop_ns in
    if slowdown_ns > 0.0 then
      Pdb_simio.Trace.span tr ~name:"stall:slowdown" ~cat:"stall"
        ~lane:"foreground"
        ~start_ns:(Float.max 0.0 (now -. total))
        ~dur_ns:slowdown_ns ();
    if stop_ns > 0.0 then
      Pdb_simio.Trace.span tr ~name:"stall:stop" ~cat:"stall"
        ~lane:"foreground"
        ~start_ns:(Float.max 0.0 (now -. stop_ns))
        ~dur_ns:stop_ns ()
  | None -> ()
