(** The shared background-work scheduler.

    Stores no longer compact inline: [maybe_compact] {e submits}
    {!Job.t}s here, and write-path back-pressure is decided from the
    queue backlog.  Draining executes jobs FIFO — one at a time, so
    store mutation order (and hence final state) never depends on the
    worker count — while each job's measured background device time is
    placed on the {!Pdb_simio.Sched} worker timelines, where
    footprint-disjoint jobs overlap and conflicting jobs serialise.
    Worker count therefore shapes only the modeled clock, which is the
    whole point: guard-parallel FLSM compaction (many small disjoint
    jobs) packs N lanes densely, leveled compaction (few wide jobs)
    cannot. *)

module Clock = Pdb_simio.Clock
module Sched = Pdb_simio.Sched

type stats = {
  mutable jobs_run : int;
  mutable queue_peak : int;  (** max pending jobs observed *)
  mutable backlog_peak_bytes : int;
      (** max sum of pending jobs' estimated bytes *)
  mutable stall_slowdown_ns : float;
      (** stall time attributed to the slowdown threshold *)
  mutable stall_stop_ns : float;
      (** stall time attributed to the hard stop threshold *)
  mutable by_trigger : (string * (int * int)) list;
      (** per-{!Job.trigger} (runs, estimated bytes), keyed by
          [Job.trigger_name]; flushes via [run_now] count too *)
}

type t = {
  clock : Clock.t;
  lanes : Sched.t;
  env : Pdb_simio.Env.t option;  (** for the environment's tracer, if any *)
  queue : Job.t Queue.t;
  keys : (string, unit) Hashtbl.t; (* pending-job identity, for dedup *)
  mutable backlog_bytes : int;
  stats : stats;
  mutable observer : (Job.t -> unit) option;
}

let create ?env ?(flush_lanes = 0) ~clock ~workers () =
  {
    clock;
    lanes = Sched.create ~flush_lanes ~clock ~workers ();
    env;
    queue = Queue.create ();
    keys = Hashtbl.create 16;
    backlog_bytes = 0;
    stats =
      {
        jobs_run = 0;
        queue_peak = 0;
        backlog_peak_bytes = 0;
        stall_slowdown_ns = 0.0;
        stall_stop_ns = 0.0;
        by_trigger = [];
      };
    observer = None;
  }

let tracer t =
  match t.env with None -> None | Some env -> Pdb_simio.Env.tracer env

let workers t = Sched.workers t.lanes
let flush_lanes t = Sched.flush_lanes t.lanes
let pending t = Queue.length t.queue
let backlog_bytes t = t.backlog_bytes
let stats t = t.stats
let busy_ns t = Sched.busy_ns t.lanes
let flush_busy_ns t = Sched.flush_busy_ns t.lanes
let jobs_placed t = Sched.jobs_placed t.lanes
let serialized_jobs t = Sched.serialized_jobs t.lanes
let horizon_ns t = Sched.horizon_ns t.lanes

let set_observer t f = t.observer <- Some f

(** [submit t job] enqueues [job] unless one with the same key is already
    pending; returns whether it was enqueued. *)
let submit t (job : Job.t) =
  if Hashtbl.mem t.keys job.key then false
  else begin
    Hashtbl.add t.keys job.key ();
    Queue.push job t.queue;
    t.backlog_bytes <- t.backlog_bytes + job.estimated_bytes;
    if Queue.length t.queue > t.stats.queue_peak then
      t.stats.queue_peak <- Queue.length t.queue;
    if t.backlog_bytes > t.stats.backlog_peak_bytes then
      t.stats.backlog_peak_bytes <- t.backlog_bytes;
    true
  end

let run_one t (job : Job.t) =
  let before = Clock.background_ns t.clock in
  Clock.with_background t.clock job.run;
  let duration_ns = Clock.background_ns t.clock -. before in
  (* zero-cost jobs (e.g. trivial pointer moves) occupy no lane time *)
  if duration_ns > 0.0 then begin
    (* flushes ride the reserved lane (when configured): memtable
       rotation must never wait behind a deep compaction queue *)
    let cls =
      match job.Job.trigger with
      | Job.Memtable_full -> `Flush
      | _ -> `Worker
    in
    let p = Sched.place_span ~cls t.lanes job.footprint ~duration_ns in
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
  t.stats.jobs_run <- t.stats.jobs_run + 1;
  let trig = Job.trigger_name job.trigger in
  let runs, bytes =
    match List.assoc_opt trig t.stats.by_trigger with
    | Some rb -> rb
    | None -> (0, 0)
  in
  t.stats.by_trigger <-
    (trig, (runs + 1, bytes + job.estimated_bytes))
    :: List.remove_assoc trig t.stats.by_trigger;
  match t.observer with Some f -> f job | None -> ()

(** [drain t] executes every pending job, FIFO. *)
let drain t =
  while not (Queue.is_empty t.queue) do
    let job = Queue.pop t.queue in
    Hashtbl.remove t.keys job.Job.key;
    t.backlog_bytes <- t.backlog_bytes - job.Job.estimated_bytes;
    run_one t job
  done

(** [run_now t job] executes [job] immediately, bypassing the queue —
    used for memtable flushes, which gate the write that triggered
    them. *)
let run_now t job = run_one t job

(** [note_stall t ~slowdown_ns ~stop_ns] records write-stall time already
    charged to the clock, pre-split by threshold attribution.  A stall
    that crossed the Slowdown→Stop boundary carries both parts and is
    traced as two adjacent spans — slowdown first, then stop — instead of
    one span of whichever kind held at stall start. *)
let note_stall t ~slowdown_ns ~stop_ns =
  t.stats.stall_slowdown_ns <- t.stats.stall_slowdown_ns +. slowdown_ns;
  t.stats.stall_stop_ns <- t.stats.stall_stop_ns +. stop_ns;
  match tracer t with
  | Some tr ->
    let now = Clock.elapsed_ns (Clock.snapshot t.clock) in
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
