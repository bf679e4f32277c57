(** Discrete-event placement of background work on N worker timelines.

    The paper observes (§4.3) that FLSM compaction is trivially
    parallelisable: disjoint guards can be compacted concurrently by
    multiple threads.  This module models that: each completed unit of
    background work (a compaction job, a memtable flush) is {e placed} on
    one of [workers] timelines.  A job starts no earlier than

    - its worker lane is free, and
    - every previously placed job whose {!footprint} conflicts with it has
      finished (jobs over disjoint guards / key ranges overlap freely;
      jobs touching the same levels and overlapping key ranges
      serialise).

    The max over lanes of the last finish time is the background
    completion horizon, pushed into {!Clock.note_bg_horizon} so that
    {!Clock.elapsed_ns} reflects it.  Placement is deterministic (greedy
    earliest-start, ties to the lowest lane index), so modeled time — and
    everything else — is a pure function of the workload regardless of
    worker count. *)

type footprint = {
  level_lo : int;
  level_hi : int;  (** inclusive level span the job reads or writes *)
  key_lo : string;
  key_hi : string option;
      (** exclusive user-key upper bound; [None] is +infinity *)
}

let full_range ~level_lo ~level_hi =
  { level_lo; level_hi; key_lo = ""; key_hi = None }

(** [conflicts a b] — same-level contact and overlapping key ranges. *)
let conflicts a b =
  a.level_lo <= b.level_hi && b.level_lo <= a.level_hi
  && (match a.key_hi with
     | None -> true
     | Some hi -> String.compare b.key_lo hi < 0)
  && (match b.key_hi with
     | None -> true
     | Some hi -> String.compare a.key_lo hi < 0)

type t = {
  clock : Clock.t;
  n_workers : int; (* general lanes: indices [0, n_workers) *)
  free_at : float array; (* per-lane timeline frontier, flush lanes last *)
  busy_ns : float array; (* per-lane cumulative busy time *)
  mutable placed : (footprint * float) list; (* recent jobs: finish times *)
  mutable serialized : bool;
      (* the latest job's start was delayed by a conflicting predecessor *)
}

let create ?(flush_lanes = 0) ~clock ~workers () =
  let n = max 1 workers in
  let total = n + max 0 flush_lanes in
  {
    clock;
    n_workers = n;
    (* a fresh scheduler (e.g. a reopened store) starts at the clock's
       current horizon: it cannot pack work into a closed store's past *)
    free_at = Array.make total (Clock.bg_horizon_ns clock);
    busy_ns = Array.make total 0.0;
    placed = [];
    serialized = false;
  }

let workers t = t.n_workers
let busy_ns t = Array.copy t.busy_ns

let flush_busy_ns t =
  let acc = ref 0.0 in
  for i = t.n_workers to Array.length t.busy_ns - 1 do
    acc := !acc +. t.busy_ns.(i)
  done;
  !acc

let serialized t = t.serialized

let horizon_ns t = Array.fold_left Float.max 0.0 t.free_at

type placement = { lane : int; start_ns : float; finish_ns : float }

(** Which lanes a job may occupy: [`Worker] work (compactions) uses the
    general lanes; [`Flush] work uses the reserved flush lanes when the
    scheduler has any, falling back to the general lanes otherwise.  The
    reservation is one-way — compactions can never occupy a flush lane —
    which is the fairness invariant: however deep the compaction queue
    packs the worker lanes, a flush starts no later than its footprint
    conflicts allow. *)
let lane_range t = function
  | `Worker -> (0, t.n_workers)
  | `Flush ->
    let total = Array.length t.free_at in
    if total > t.n_workers then (t.n_workers, total) else (0, t.n_workers)

(** [place_span t fp ~duration_ns] puts a completed unit of work on the
    lane (within its class) that lets it finish earliest, honouring
    footprint conflicts; returns the full placement (lane, modeled start
    and finish) — the tracer uses it to draw per-worker timelines. *)
let place_span ?(cls = `Worker) t fp ~duration_ns =
  let blocked_until =
    List.fold_left
      (fun acc (g, fin) -> if conflicts fp g then Float.max acc fin else acc)
      0.0 t.placed
  in
  let lo, hi = lane_range t cls in
  let lane = ref lo and start = ref infinity in
  for i = lo to hi - 1 do
    let s = Float.max t.free_at.(i) blocked_until in
    if s < !start then begin
      lane := i;
      start := s
    end
  done;
  (* serialized = the conflict pushed the start past the earliest free
     eligible lane, i.e. an idle worker could not be used *)
  let earliest_free = ref infinity in
  for i = lo to hi - 1 do
    earliest_free := Float.min !earliest_free t.free_at.(i)
  done;
  t.serialized <- blocked_until > !earliest_free;
  let finish = !start +. duration_ns in
  t.free_at.(!lane) <- finish;
  t.busy_ns.(!lane) <- t.busy_ns.(!lane) +. duration_ns;
  (* a past job finishing at or before every lane frontier can no longer
     delay anything: each new job starts at or after its lane's frontier *)
  let floor = Array.fold_left Float.min infinity t.free_at in
  t.placed <- (fp, finish) :: List.filter (fun (_, f) -> f > floor) t.placed;
  Clock.note_bg_horizon t.clock finish;
  { lane = !lane; start_ns = !start; finish_ns = finish }

(** [place t fp ~duration_ns] is {!place_span} returning only the modeled
    finish time. *)
let place t fp ~duration_ns = (place_span t fp ~duration_ns).finish_ns
