(** Compaction policy as a first-class value.

    Sarkar et al. decompose compaction into four orthogonal primitives:
    the *trigger* (when to compact), the *data layout* (how a level holds
    its runs), the *victim granularity* (what a compaction consumes), and
    the *output placement* (whether outputs merge with the target level
    or stack beside it).  A [Policy.t] packages one choice per primitive;
    the engines ([Lsm_store], [Pebbles_store]) consult it instead of
    inlining a fixed design, while [Job]/[Scheduler] stay the execution
    substrate underneath every policy.

    Four named policies cover the classic design space:

    - [leveled] — disjoint sorted files per level, partial victims picked
      round-robin, outputs merged into the target level (LevelDB).
    - [tiered] — each level holds multiple overlapping sorted runs; a
      trigger merges the whole level into a single new run appended to
      the next level (no merge with the target's resident runs).
    - [lazy_leveled] — tiered at every level except the last, which stays
      leveled (Dostoevsky's lazy leveling): write-amp of tiering in the
      small levels, space/scan behaviour of leveling where the data is.
    - [flsm_guarded] — PebblesDB's FLSM: guard-partitioned levels whose
      fragments never rewrite the target; victims are whole guards. *)

module O = Pdb_kvs.Options

(** How a level (>= 1; L0 is always a tier of overlapping memtable
    flushes) stores its runs. *)
type layout =
  | Leveled_run  (** one sorted run: files disjoint, sorted by smallest *)
  | Tiered_runs  (** several overlapping runs: files kept newest-first *)

(** Snapshot of one level, fed to [score] to decide triggering. *)
type level_state = {
  level : int;
  last_level : int;
  files : int;  (** resident files (tiered: = runs; L0: flush count) *)
  bytes : int;
  max_bytes : int;  (** size budget of this level *)
  file_trigger : int;  (** file/run count that warrants a merge *)
}

(** What a triggered compaction consumes at the source level. *)
type victims =
  | All_files  (** the whole level, merged wholesale (tiering) *)
  | Oldest_overlap_closure  (** oldest file + transitive overlap (L0) *)
  | Round_robin  (** next files past the compaction pointer (leveling) *)
  | Guard_pick  (** the engine's guard selection (FLSM) *)

type t = {
  policy : O.compaction_policy;
  name : string;
  layout : level:int -> last_level:int -> layout;
  score : level_state -> float;
  victims : level_state -> victims;
  output_merges_target : target:int -> last_level:int -> bool;
      (** [true]: outputs replace the overlapping target files (a merge
          rewrite); [false]: outputs stack beside the target's resident
          runs/fragments with no rewrite. *)
  guard_due : tables:int -> cap:int -> bool;
      (** whether an FLSM guard holding [tables] sstables is due for
          compaction under a cap of [cap] tables; decided on the two ints
          alone, so a pick asks it of every guard without allocating *)
}

(* ------------------------------------------------------------------ *)
(* Trigger threshold                                                   *)
(* ------------------------------------------------------------------ *)

(** The single compaction-score threshold (was hard-coded as [> 0.999]
    at every trigger site).  Scores are ratios of occupancy to budget; a
    level whose score exceeds this is due for compaction. *)
let score_threshold = 0.999

let should_trigger score = score > score_threshold

(* [should_trigger] of the ratio [n / max 1 d], in integers:
   [score_threshold] is 999/1000, and for any [n] and [d] of a store's
   size the float ratio lies on the same side of it as the exact one. *)
let ratio_due n d = 1000 * n > 999 * max 1 d

(* ------------------------------------------------------------------ *)
(* Score components                                                    *)
(* ------------------------------------------------------------------ *)

let l0_score s = float_of_int s.files /. float_of_int (max 1 s.file_trigger)

let size_score s =
  if s.level >= s.last_level then 0.0
  else float_of_int s.bytes /. float_of_int (max 1 s.max_bytes)

let run_count_score s =
  if s.level >= s.last_level then 0.0
  else float_of_int s.files /. float_of_int (max 1 s.file_trigger)

(* ------------------------------------------------------------------ *)
(* Named policies                                                      *)
(* ------------------------------------------------------------------ *)

let leveled =
  {
    policy = O.Leveled;
    name = "leveled";
    layout = (fun ~level:_ ~last_level:_ -> Leveled_run);
    score = (fun s -> if s.level = 0 then l0_score s else size_score s);
    victims =
      (fun s -> if s.level = 0 then Oldest_overlap_closure else Round_robin);
    output_merges_target = (fun ~target:_ ~last_level:_ -> true);
    guard_due = (fun ~tables:_ ~cap:_ -> false);
  }

(* Tiering triggers on run count alone (Dostoevsky's T): run sizes are
   bounded geometrically by construction — a level's merged output is at
   most T of its runs — so a byte budget would only cascade small runs
   down early and inflate write-amp. *)
let tiered =
  {
    policy = O.Tiered;
    name = "tiered";
    layout = (fun ~level:_ ~last_level:_ -> Tiered_runs);
    score =
      (fun s -> if s.level = 0 then l0_score s else run_count_score s);
    victims = (fun _ -> All_files);
    output_merges_target = (fun ~target:_ ~last_level:_ -> false);
    guard_due = (fun ~tables:_ ~cap:_ -> false);
  }

let lazy_leveled =
  {
    policy = O.Lazy_leveled;
    name = "lazy_leveled";
    layout =
      (fun ~level ~last_level ->
        if level >= last_level then Leveled_run else Tiered_runs);
    score =
      (fun s -> if s.level = 0 then l0_score s else run_count_score s);
    victims = (fun _ -> All_files);
    output_merges_target = (fun ~target ~last_level -> target >= last_level);
    guard_due = (fun ~tables:_ ~cap:_ -> false);
  }

let flsm_guarded =
  {
    policy = O.Flsm_guarded;
    name = "flsm_guarded";
    (* guards overlap within a level, so every FLSM level is a tier of
       fragments from the engine's point of view *)
    layout = (fun ~level:_ ~last_level:_ -> Tiered_runs);
    score = (fun s -> if s.level = 0 then l0_score s else size_score s);
    victims = (fun _ -> Guard_pick);
    output_merges_target = (fun ~target:_ ~last_level:_ -> false);
    (* a guard's score is its tables over its cap *)
    guard_due = (fun ~tables ~cap -> ratio_due tables cap);
  }

let of_policy = function
  | O.Leveled -> leveled
  | O.Tiered -> tiered
  | O.Lazy_leveled -> lazy_leveled
  | O.Flsm_guarded -> flsm_guarded

let of_options (o : O.t) = of_policy o.O.compaction_policy
