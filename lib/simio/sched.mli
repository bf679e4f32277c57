(** Discrete-event placement of background work on N worker timelines.

    Models the paper's guard-parallel compaction (§4.3): completed units
    of background work are placed on per-worker timelines, jobs with
    disjoint level/key-range footprints overlap, conflicting jobs
    serialise, and the max finish over all lanes becomes the clock's
    background completion horizon ({!Clock.note_bg_horizon}).

    Placement is deterministic and never affects store state — only
    modeled time — so results are byte-identical across worker counts. *)

type footprint = {
  level_lo : int;
  level_hi : int;  (** inclusive level span the job reads or writes *)
  key_lo : string;
  key_hi : string option;
      (** exclusive user-key upper bound; [None] is +infinity *)
}

val full_range : level_lo:int -> level_hi:int -> footprint
(** Footprint spanning the whole key space of a level span. *)

val conflicts : footprint -> footprint -> bool
(** [conflicts a b] iff the level spans intersect and the key ranges
    overlap — such jobs must serialise on the worker timelines. *)

type t

val create : ?flush_lanes:int -> clock:Clock.t -> workers:int -> unit -> t
(** [create ?flush_lanes ~clock ~workers ()] makes a scheduler with
    [max 1 workers] general lanes plus [flush_lanes] (default 0) lanes
    reserved for [`Flush] work, all free at the clock's current
    background horizon. *)

val workers : t -> int
(** General (compaction-eligible) lane count, excluding flush lanes. *)

val busy_ns : t -> float array
(** Per-lane cumulative busy time (copy); general lanes first, then
    flush lanes. *)

val flush_busy_ns : t -> float
(** Cumulative busy time across the reserved flush lanes. *)

val serialized : t -> bool
(** Whether the latest placement's start was delayed past the earliest
    free lane of its class by a conflicting predecessor. *)

val horizon_ns : t -> float
(** Max finish time over all lanes. *)

type placement = { lane : int; start_ns : float; finish_ns : float }
(** Where a job landed: worker lane index and modeled start/finish. *)

val place_span :
  ?cls:[ `Worker | `Flush ] -> t -> footprint -> duration_ns:float -> placement
(** [place_span ?cls t fp ~duration_ns] assigns the job to the lane of
    its class (default [`Worker]) that lets it finish earliest (ties to
    the lowest index), no earlier than the finish of any conflicting
    placed job; returns the placement and raises the clock's background
    horizon to its finish.  [`Flush] jobs use the reserved flush lanes —
    never contended by [`Worker] jobs — when the scheduler has any, and
    fall back to the general lanes otherwise. *)

val place : t -> footprint -> duration_ns:float -> float
(** [place t fp ~duration_ns] is {!place_span} returning only the finish
    time. *)
