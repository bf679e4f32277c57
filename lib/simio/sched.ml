(** Discrete-event placement of background work on N worker timelines.

    The paper observes (§4.3) that FLSM compaction is trivially
    parallelisable: disjoint guards can be compacted concurrently by
    multiple threads.  This module models that: each completed unit of
    background work (a compaction job, a memtable flush) is {e placed} on
    one of [workers] timelines.  A job starts no earlier than

    - its worker lane is free, and
    - every previously placed job it {!depends} on has finished: one that
      wrote a level this job reads (read-after-write) or writes
      (write-after-write), over overlapping key ranges.  Jobs over
      disjoint guards / key ranges overlap freely, and so does a job that
      only writes a level an earlier job is still reading: an FLSM
      compaction appends fragments to its target's guards without reading
      or rewriting what is already there (§3.4).

    The max over lanes of the last finish time is the background
    completion horizon, pushed into {!Clock.note_bg_horizon} so that
    {!Clock.elapsed_ns} reflects it.  Placement is deterministic (greedy
    earliest-start, ties to the lowest lane index), so modeled time — and
    everything else — is a pure function of the workload regardless of
    worker count. *)

type footprint = {
  read_lo : int;
  read_hi : int;
      (** inclusive level span the job reads; empty when
          [read_lo > read_hi] *)
  write_lo : int;
  write_hi : int;  (** inclusive level span the job writes *)
  key_lo : string;
  key_hi : string option;
      (** exclusive user-key upper bound; [None] is +infinity *)
}

let full_range ~level_lo ~level_hi =
  {
    read_lo = level_lo;
    read_hi = level_hi;
    write_lo = level_lo;
    write_hi = level_hi;
    key_lo = "";
    key_hi = None;
  }

(* inclusive spans [alo, ahi] and [blo, bhi] share a level *)
let spans_meet alo ahi blo bhi =
  alo <= ahi && blo <= bhi && alo <= bhi && blo <= ahi

(** [depends fp ~on] — [on] writes a level [fp] reads or writes, and the
    key ranges overlap. *)
let depends fp ~on =
  (spans_meet on.write_lo on.write_hi fp.read_lo fp.read_hi
  || spans_meet on.write_lo on.write_hi fp.write_lo fp.write_hi)
  && (match fp.key_hi with
     | None -> true
     | Some hi -> String.compare on.key_lo hi < 0)
  && match on.key_hi with
     | None -> true
     | Some hi -> String.compare fp.key_lo hi < 0

type t = {
  clock : Clock.t;
  n_workers : int; (* general lanes: indices [0, n_workers) *)
  free_at : float array; (* per-lane timeline frontier, flush lane last *)
  busy_ns : float array; (* per-lane cumulative busy time *)
  (* placed jobs that may still delay a new one, [0, n_placed), with their
     finish times; compacted in place so placement allocates nothing *)
  mutable placed : footprint array;
  mutable placed_fin : float array;
  mutable n_placed : int;
  mutable serialized : bool;
      (* the latest job's start was delayed by a job it depends on *)
}

let create ~clock ~workers () =
  let n = max 1 workers in
  let total = n + 1 in
  {
    clock;
    n_workers = n;
    (* a fresh scheduler (e.g. a reopened store) starts at the clock's
       current horizon: it cannot pack work into a closed store's past *)
    free_at = Array.make total (Clock.bg_horizon_ns clock);
    busy_ns = Array.make total 0.0;
    placed = [||];
    placed_fin = [||];
    n_placed = 0;
    serialized = false;
  }

let workers t = t.n_workers
let busy_ns t = Array.copy t.busy_ns

let flush_busy_ns t = t.busy_ns.(t.n_workers)

let serialized t = t.serialized

let horizon_ns t = Array.fold_left Float.max 0.0 t.free_at

type placement = { lane : int; start_ns : float; finish_ns : float }

(** Which lanes a job may occupy: [`Worker] work (compactions) uses the
    general lanes; [`Flush] work uses the reserved flush lane.  The
    reservation is one-way — compactions can never occupy the flush lane —
    which is the fairness invariant: however much compaction work
    packs the worker lanes, a flush starts no later than the jobs it
    depends on allow. *)
let lane_range t = function
  | `Worker -> (0, t.n_workers)
  | `Flush -> (t.n_workers, t.n_workers + 1)

(** [place_span t fp ~duration_ns] puts a completed unit of work on the
    lane (within its class) that lets it finish earliest, after every
    placed job it depends on; returns the full placement (lane, modeled
    start and finish) — the tracer uses it to draw per-worker timelines. *)
let place_span ?(cls = `Worker) t fp ~duration_ns =
  let blocked = ref 0.0 in
  for i = 0 to t.n_placed - 1 do
    if depends fp ~on:t.placed.(i) then
      blocked := Float.max !blocked t.placed_fin.(i)
  done;
  let blocked_until = !blocked in
  let lo, hi = lane_range t cls in
  let lane = ref lo and start = ref infinity in
  for i = lo to hi - 1 do
    let s = Float.max t.free_at.(i) blocked_until in
    if s < !start then begin
      lane := i;
      start := s
    end
  done;
  (* serialized = a dependency pushed the start past the earliest free
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
  let floor = ref infinity in
  for i = 0 to Array.length t.free_at - 1 do
    floor := Float.min !floor t.free_at.(i)
  done;
  let kept = ref 0 in
  for i = 0 to t.n_placed - 1 do
    if t.placed_fin.(i) > !floor then begin
      t.placed.(!kept) <- t.placed.(i);
      t.placed_fin.(!kept) <- t.placed_fin.(i);
      incr kept
    end
  done;
  if !kept = Array.length t.placed then begin
    let cap = max 16 (2 * !kept) in
    let grow a fill = Array.append a (Array.make (cap - !kept) fill) in
    t.placed <- grow t.placed fp;
    t.placed_fin <- grow t.placed_fin 0.0
  end;
  t.placed.(!kept) <- fp;
  t.placed_fin.(!kept) <- finish;
  t.n_placed <- !kept + 1;
  Clock.note_bg_horizon t.clock finish;
  { lane = !lane; start_ns = !start; finish_ns = finish }

(** [place t fp ~duration_ns] is {!place_span} returning only the modeled
    finish time. *)
let place t fp ~duration_ns = (place_span t fp ~duration_ns).finish_ns
