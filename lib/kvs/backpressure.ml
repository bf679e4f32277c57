(** L0-keyed write throttling, shared by the LSM and FLSM engines.

    LevelDB-lineage stores pace foreground writes with a cliff: once L0
    accumulates [l0_slowdown] files every write pays a fixed penalty, and
    past [l0_stop] it is treated as a hard stop.  Luo & Carey show the
    resulting p99.9 write latency under sustained ingest is governed by
    exactly this shape — load oscillates between full speed and the
    penalty, so windowed throughput swings while the compaction debt that
    caused the stall is barely affected.

    [Token_bucket] replaces the cliff with a smooth controller.  The
    writer owns a budget of [throttle_burst_entries] tokens (one token
    admits one entry).  The bucket refills on the simulated clock at a
    rate keyed to {e compaction debt}, the L0 files not yet pushed down
    (compaction rounds run where they are picked, so no other debt is
    outstanding when a client write commits):

    {v
      debt      x = l0_files
      severity  sev(x) = max 0 ((x - l0_slowdown) / (l0_stop - l0_slowdown))
      delay/entry   d(x) = slowdown_stall_ns * sev(x)
      refill rate   1 / d(x) entries per ns     (unlimited when d = 0)
    v}

    Below the slowdown threshold the bucket is always full and writes are
    free; at exactly the stop threshold each entry costs the full seed
    penalty; between and beyond, the delay ramps linearly — there is no
    discontinuity for load to oscillate around.  A group short on tokens
    stalls for [deficit * d] and the bucket does not accrue tokens over
    the stall (the stall time was already spent waiting).

    Stall attribution splits at the Slowdown→Stop boundary: of each
    entry's delay [d], the first [slowdown_stall_ns] is slowdown time and
    any excess — delay the cliff model would only reach past [l0_stop] —
    is stop time, so a single stall that crosses the boundary lands in
    both counters instead of whichever kind happened to hold at stall
    start.

    The controller only ever charges the simulated clock: verdicts never
    touch store bytes, so on-disk state is byte-identical across throttle
    modes. *)

module O = Options

(** Stall already split by threshold attribution; total is the time to
    charge the clock. *)
type verdict = {
  slowdown_ns : float;
  stop_ns : float;
}

let no_stall = { slowdown_ns = 0.0; stop_ns = 0.0 }
let total_ns v = v.slowdown_ns +. v.stop_ns

type t = {
  mode : O.throttle;
  slowdown_files : int;
  stop_files : int;
  mutable tokens : float;
  mutable last_refill_ns : float;
}

(* bucket capacity, entries *)
let burst = float_of_int O.throttle_burst_entries

let create (opts : O.t) =
  {
    mode = opts.O.throttle;
    slowdown_files = opts.O.l0_slowdown;
    stop_files = opts.O.l0_stop;
    tokens = burst;
    last_refill_ns = 0.0;
  }

let mode t = t.mode
let tokens t = t.tokens

(** [delay_ns t ~l0_files] is the modeled per-entry admission delay at
    [l0_files]: 0 below the slowdown threshold, [slowdown_stall_ns] at
    the stop threshold, ramping linearly between and beyond. *)
let delay_ns t ~l0_files =
  let s = float_of_int t.slowdown_files
  and p = float_of_int t.stop_files in
  let span = Float.max 1.0 (p -. s) in
  O.slowdown_stall_ns
  *. Float.max 0.0 ((float_of_int l0_files -. s) /. span)

(* of each entry's delay, the first [slowdown_stall_ns] is slowdown
   territory; excess only exists past the stop threshold *)
let split ~per_entry_ns ~entries =
  if per_entry_ns <= O.slowdown_stall_ns then
    { slowdown_ns = entries *. per_entry_ns; stop_ns = 0.0 }
  else
    {
      slowdown_ns = entries *. O.slowdown_stall_ns;
      stop_ns = entries *. (per_entry_ns -. O.slowdown_stall_ns);
    }

(** [throttle t ~now_ns ~l0_files ~cost] decides the stall for a write
    group of [cost] entries committing at simulated time [now_ns] with
    [l0_files] in L0.  The caller charges {!total_ns} of the verdict to
    its clock (and owes the controller nothing else: token state is
    updated here). *)
let throttle t ~now_ns ~l0_files ~cost =
  match t.mode with
  | O.Unthrottled -> no_stall
  | O.Cliff ->
    (* seed model: fixed penalty per stalled group, binary attribution
       from the L0 file count at commit time *)
    if l0_files < t.slowdown_files then no_stall
    else if l0_files >= t.stop_files then
      { slowdown_ns = 0.0; stop_ns = O.slowdown_stall_ns }
    else { slowdown_ns = O.slowdown_stall_ns; stop_ns = 0.0 }
  | O.Token_bucket ->
    let d = delay_ns t ~l0_files in
    if d <= 0.0 then begin
      (* debt below the slowdown threshold: free admission, full bucket *)
      t.tokens <- burst;
      t.last_refill_ns <- now_ns;
      no_stall
    end
    else begin
      let dt = Float.max 0.0 (now_ns -. t.last_refill_ns) in
      t.tokens <- Float.min burst (t.tokens +. (dt /. d));
      t.last_refill_ns <- now_ns;
      let cost = float_of_int (max 0 cost) in
      if t.tokens >= cost then begin
        t.tokens <- t.tokens -. cost;
        no_stall
      end
      else begin
        let deficit = cost -. t.tokens in
        t.tokens <- 0.0;
        (* the stall advances the clock; accruing tokens over it would
           hand the next group the time this one already spent waiting *)
        t.last_refill_ns <- now_ns +. (deficit *. d);
        split ~per_entry_ns:d ~entries:deficit
      end
    end
