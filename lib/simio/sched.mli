(** Discrete-event placement of background work on N worker timelines.

    Models the paper's guard-parallel compaction (§4.3): completed units
    of background work are placed on per-worker timelines.  A job waits
    only for the earlier jobs it {!depends} on — those that wrote a level
    it reads or writes, over overlapping keys — so jobs over disjoint
    guards overlap, and so does an FLSM compaction that appends to a level
    an earlier job is still reading.  The max finish over all lanes
    becomes the clock's background completion horizon
    ({!Clock.note_bg_horizon}).

    Placement is deterministic and never affects store state — only
    modeled time — so results are byte-identical across worker counts. *)

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

val full_range : level_lo:int -> level_hi:int -> footprint
(** Footprint that reads and writes the whole key space of a level span. *)

val depends : footprint -> on:footprint -> bool
(** [depends fp ~on] iff [on] writes a level that [fp] reads or writes
    (read-after-write or write-after-write) and the key ranges overlap:
    a job with footprint [fp] placed after [on] must start after [on]
    finishes.  When both footprints read and write the same span this is
    symmetric: the spans intersect and the key ranges overlap. *)

type t

val create : clock:Clock.t -> workers:int -> unit -> t
(** [create ~clock ~workers ()] makes a scheduler with [max 1 workers]
    general lanes plus one lane reserved for [`Flush] work, all free at
    the clock's current background horizon. *)

val workers : t -> int
(** General (compaction-eligible) lane count, excluding the flush lane. *)

val busy_ns : t -> float array
(** Per-lane cumulative busy time (copy); general lanes first, then
    the flush lane. *)

val flush_busy_ns : t -> float
(** Cumulative busy time of the reserved flush lane. *)

val serialized : t -> bool
(** Whether the latest placement's start was delayed past the earliest
    free lane of its class by a job it depends on. *)

val horizon_ns : t -> float
(** Max finish time over all lanes. *)

type placement = { lane : int; start_ns : float; finish_ns : float }
(** Where a job landed: worker lane index and modeled start/finish. *)

val place_span :
  ?cls:[ `Worker | `Flush ] -> t -> footprint -> duration_ns:float -> placement
(** [place_span ?cls t fp ~duration_ns] assigns the job to the lane of
    its class (default [`Worker]) that lets it finish earliest (ties to
    the lowest index), no earlier than the finish of any placed job it
    {!depends} on; returns the placement and raises the clock's background
    horizon to its finish.  [`Flush] jobs use the reserved flush lane,
    never contended by [`Worker] jobs. *)

val place : t -> footprint -> duration_ns:float -> float
(** [place t fp ~duration_ns] is {!place_span} returning only the finish
    time. *)
