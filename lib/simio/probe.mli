(** Parallel-probe budget: overlapped IO for multi-table probes.

    Modern flash devices serve several outstanding reads concurrently
    (Didona et al., "Tree Structures on Flash SSDs"); an LSM read that
    must consult several sstables — the tables of an FLSM guard on a
    seek, the overlapping runs of a tiered level on a get, the per-level
    first positioning of a merged iterator — can issue those probes in
    parallel up to the device's internal queue depth.  PebblesDB's
    parallel seeks (§4.2) are the special case of one guard on the last
    level; this module generalises it into a per-store budget
    ([Options.probe_budget]) any multi-table probe can draw from.

    Model: a probe {e session} brackets one logical multi-table probe.
    Each member probe runs serially in the simulation and its device
    time is measured; when the session finishes, the probes are packed
    onto [budget] lanes (longest-processing-time first) and the device
    is refunded down to the resulting makespan plus a 0.5x queueing
    share of the overlap — overlapped IO is fast but not free.  Modeled
    CPU work is charged through a separate accumulator and therefore
    stays serialised, exactly as {!Fg_lanes} treats commit groups.

    Sessions never nest: a probe opened inside an active session folds
    its member costs into the outer session, so a cross-level seek
    overlaps {e all} table positionings of the whole read, not each
    guard separately.

    A ctx keeps the open session's costs in a buffer it reuses, so a
    session allocates nothing per member probe. *)

type ctx
(** Per-store probe context: clock, budget, optional tracer. *)

(** [create_ctx ~clock ~budget ~tracer ()] builds a context whose
    sessions overlap up to [budget] probes; [budget <= 1] disables
    overlap (serial probes).  [tracer] is read at session-finish time so
    a late tracer attachment takes effect immediately. *)
val create_ctx :
  clock:Clock.t ->
  budget:int ->
  tracer:(unit -> Trace.t option) ->
  unit ->
  ctx

(** [with_session ctx ~label f] runs [f] inside a probe session (reusing
    the active one when nested) and applies the overlap refund when the
    outermost session closes.  With a tracer attached, sessions covering
    more than one probe emit a ["probe:<label>"] span carrying the
    serial and overlapped costs. *)
val with_session : ctx -> label:string -> (unit -> 'a) -> 'a

(** [measure ctx f x] runs [f x], recording its device-lane cost into the
    active session; outside any session it is just [f x].  Recording
    allocates nothing, so a caller that builds [f] once per session probes
    each member without allocating. *)
val measure : ctx -> ('a -> 'b) -> 'a -> 'b

(** [makespan ~lanes costs] is the finish time of packing [costs] onto
    [lanes] parallel lanes, longest first (exposed for tests). *)
val makespan : lanes:int -> float list -> float
