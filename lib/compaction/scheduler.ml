(** The shared background-work scheduler.

    Stores no longer compact inline: [maybe_compact] {e submits}
    {!Job.t}s here, and write-path back-pressure is decided from the
    queue backlog.  Draining executes jobs FIFO — one at a time, so
    store mutation order (and hence final state) never depends on the
    worker count — while each job's measured background device time is
    placed on the {!Pdb_simio.Sched} worker timelines, where a job waits
    only for the earlier jobs that wrote a level it reads or writes over
    overlapping keys, and overlaps every other.
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
  queue : Job.t Queue.t;
  keys : (string, unit) Hashtbl.t; (* pending-job identity, for dedup *)
  counters : Stats.counters;
      (** jobs run, queue and backlog (gauges and peaks), stall time,
          serialized jobs and the per-trigger tally *)
  mutable observer : (Job.t -> unit) option;
}

let create ?env ~clock ~workers () =
  {
    clock;
    lanes = Sched.create ~clock ~workers ();
    env;
    queue = Queue.create ();
    keys = Hashtbl.create 16;
    counters = Stats.counters ();
    observer = None;
  }

let tracer t =
  match t.env with None -> None | Some env -> Pdb_simio.Env.tracer env

let pending t = Queue.length t.queue
let backlog_bytes t = Stats.get t.counters Stats.compaction_backlog_bytes
let counters t = t.counters
let busy_ns t = Sched.busy_ns t.lanes
let flush_busy_ns t = Sched.flush_busy_ns t.lanes

let set_observer t f = t.observer <- Some f

(** [submit t job] enqueues [job] unless one with the same key is already
    pending; returns whether it was enqueued. *)
let submit t (job : Job.t) =
  if Hashtbl.mem t.keys job.key then false
  else begin
    Hashtbl.add t.keys job.key ();
    Queue.push job t.queue;
    let c = t.counters in
    Stats.set c Stats.compaction_pending (pending t);
    Stats.add c Stats.compaction_backlog_bytes job.estimated_bytes;
    Stats.peak c Stats.compaction_queue_peak (pending t);
    Stats.peak c Stats.compaction_backlog_peak_bytes (backlog_bytes t);
    true
  end

let run_one t (job : Job.t) =
  let before = Clock.background_ns t.clock in
  Clock.with_background t.clock job.run;
  let duration_ns = Clock.background_ns t.clock -. before in
  (* zero-cost jobs (e.g. trivial pointer moves) occupy no lane time *)
  if duration_ns > 0.0 then begin
    (* flushes ride the reserved lane: memtable rotation must never wait
       behind a deep compaction queue *)
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

(** [drain t] executes every pending job, FIFO. *)
let drain t =
  while not (Queue.is_empty t.queue) do
    let job = Queue.pop t.queue in
    Hashtbl.remove t.keys job.Job.key;
    Stats.set t.counters Stats.compaction_pending (pending t);
    Stats.add t.counters Stats.compaction_backlog_bytes
      (-job.Job.estimated_bytes);
    run_one t job
  done

(** [run_now t job] executes [job] immediately, bypassing the queue —
    used for memtable flushes, which gate the write that triggered
    them, and for PebblesDB's manual level-0 job in [compact_all]. *)
let run_now t job = run_one t job

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
