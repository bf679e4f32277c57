(** Recovery torture: crash-point sweeps against an in-memory oracle.

    A seeded operation trace is run against an engine whose environment
    carries a {!Pdb_simio.Env.Fault_plan}; the plan crashes the run at the
    Nth IO event, with torn writes at block granularity and occasional
    garbled tails.  The store is then reopened over the crashed file
    system and its recovered contents are checked against a pure
    in-memory oracle of the acknowledged operations:

    - every acknowledged write (the stores run with [wal_sync_writes])
      must be present with its exact value;
    - the single operation in flight at the crash may be present or
      absent, but nothing else may differ — no phantom keys, no resurrected
      deletes, no reordered overwrites;
    - iteration must agree with point lookups and stay strictly sorted.

    Sweeping N across the whole trace visits every crash point the trace
    can produce: mid-append, after the Nth sync, between a MANIFEST rename
    and the WAL creation that follows it, inside background flush and
    compaction jobs.  Every 7th point also arms a second plan during
    recovery itself (crash-during-recovery, and recovery-after-that). *)

module Env = Pdb_simio.Env
module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Rng = Pdb_util.Rng

type op =
  | Put of string * string
  | Delete of string
  | Flush
  | Compact

let op_name = function
  | Put (k, _) -> "put " ^ k
  | Delete k -> "delete " ^ k
  | Flush -> "flush"
  | Compact -> "compact"

let key i = Printf.sprintf "key%03d" i

(** Seeded trace over a small keyspace: mostly puts, some deletes, the
    occasional explicit flush or full compaction (which exercises the
    background scheduler's crash points). *)
let gen_trace ~seed ~ops ~keyspace =
  let rng = Rng.create seed in
  List.init ops (fun i ->
      let k = key (Rng.int rng keyspace) in
      match Rng.int rng 20 with
      | 0 -> Flush
      | 1 -> Compact
      | r when r < 5 -> Delete k
      | _ -> Put (k, Printf.sprintf "v%06d-%s" i k))

(* Durability profile for the sweep: acked writes are synced (so the
   oracle may demand them back) and the memtable is small enough that a
   short trace crosses flush/compaction machinery many times.  With
   [shards > 1] the same trace runs against the range-partitioned store
   (lib/shard): the crash then lands inside ONE shard's flush/compaction/
   WAL machinery while the other shards idle, and recovery must bring the
   whole store back to the oracle. *)
let tweak ?policy ~shards ~keyspace (o : O.t) =
  let o = { o with O.memtable_bytes = 2048; wal_sync_writes = true } in
  let o =
    match policy with
    | None -> o
    | Some p -> { o with O.compaction_policy = p }
  in
  if shards <= 1 then o
  else
    {
      o with
      O.shards;
      shard_splits =
        List.init (shards - 1) (fun i -> key ((i + 1) * keyspace / shards));
    }

let apply (db : Dyn.dyn) = function
  | Put (k, v) -> db.Dyn.d_put k v
  | Delete k -> db.Dyn.d_delete k
  | Flush -> db.Dyn.d_flush ()
  | Compact -> db.Dyn.d_compact_all ()

let oracle_apply oracle = function
  | Put (k, v) -> Hashtbl.replace oracle k v
  | Delete k -> Hashtbl.remove oracle k
  | Flush | Compact -> ()

(* Run the trace, acking each op into the oracle only after the engine
   returns.  On an injected crash, the raising op is the single in-flight
   op whose effect is allowed to be either present or absent. *)
let run_trace db oracle trace =
  let rec go = function
    | [] -> None
    | op :: rest -> (
      match apply db op with
      | () ->
        oracle_apply oracle op;
        go rest
      | exception Env.Injected_crash _ -> Some op)
  in
  go trace

(* What a sweep drives: [open_] opens the subject on an environment,
   [drive] runs the trace through it (acking each op into the oracle)
   and returns the data op in flight when an injected crash fired. *)
type 'h subject = {
  open_ : Env.t -> 'h;
  drive : 'h -> (string, string) Hashtbl.t -> op option;
  close : 'h -> unit;
}

(* How a sweep's subject comes back from a crash.  The recovered store
   comes with the sweep's own extra failures (checked before the
   oracle). *)
type 'h recovery =
  | Reopen of (Env.t -> Dyn.dyn * string list)
      (** crash the subject's environment and reopen over it *)
  | Promote of ('h -> Env.t) * ('h -> Dyn.dyn)
      (** leave the primary dead and promote a backup: the backup's
          environment, and the promotion *)

(** [count_events subject ~seed] runs the whole trace under a plan that
    never fires, counting every IO event — the number of distinct crash
    points the sweep can target. *)
let count_events subject ~seed =
  let env = Env.create () in
  let plan = Env.Fault_plan.create ~seed ~crash_after:max_int () in
  Env.set_fault_plan env plan;
  let h = subject.open_ env in
  (match subject.drive h (Hashtbl.create 64) with
   | None -> ()
   | Some op -> failwith ("count_events: unexpected crash at " ^ op_name op));
  (* read the count before close: the sweep crashes instead of closing,
     so close-time IO events are not reachable crash points *)
  let ticks = Env.Fault_plan.ticks plan in
  subject.close h;
  ticks

(* What recovery is allowed to return for [k]: the oracle's view, or — for
   the key touched by the in-flight op — the in-flight view. *)
let acceptable oracle in_flight k =
  let base = Hashtbl.find_opt oracle k in
  let alt =
    match in_flight with
    | Some (Put (k', v)) when k' = k -> Some (Some v)
    | Some (Delete k') when k' = k -> Some None
    | _ -> None
  in
  (base, alt)

let matches got (base, alt) =
  got = base || (match alt with Some a -> got = a | None -> false)

let show = function None -> "<absent>" | Some v -> v

(* Check every key by point lookup, then sweep the iterator for phantom or
   reordered entries.  Returns failure descriptions. *)
let verify (db : Dyn.dyn) oracle in_flight ~keyspace =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  for i = 0 to keyspace - 1 do
    let k = key i in
    let want = acceptable oracle in_flight k in
    let got = db.Dyn.d_get k in
    if not (matches got want) then
      err "get %s: recovered %s, oracle %s" k (show got) (show (fst want))
  done;
  let it = db.Dyn.d_iterator () in
  let prev = ref "" in
  let seen = Hashtbl.create 64 in
  it.Pdb_kvs.Iter.seek_to_first ();
  while it.Pdb_kvs.Iter.valid () do
    let k = it.Pdb_kvs.Iter.key () and v = it.Pdb_kvs.Iter.value () in
    if !prev <> "" && String.compare !prev k >= 0 then
      err "iterator order violated: %s then %s" !prev k;
    prev := k;
    Hashtbl.replace seen k ();
    if not (matches (Some v) (acceptable oracle in_flight k)) then
      err "iterator phantom %s=%s" k v;
    it.Pdb_kvs.Iter.next ()
  done;
  Hashtbl.iter
    (fun k v ->
      ignore v;
      if
        (not (Hashtbl.mem seen k))
        && not (matches None (acceptable oracle in_flight k))
      then err "iterator missed %s" k)
    oracle;
  (try db.Dyn.d_check_invariants () with
   | Failure m -> err "invariant violated after recovery: %s" m);
  List.rev !errors

type result = {
  engine : string;
  total_events : int;  (** IO events in a crash-free run of the trace *)
  crash_points : int;  (** distinct crash points actually swept *)
  double_crashes : int;  (** points that also crashed during recovery *)
  background_crashes : int;  (** crashes that fired in background jobs *)
  torn_crashes : int;  (** crashes that partially persisted unsynced data *)
  failures : (int * string) list;  (** (crash point, what went wrong) *)
}

(* The sweep skeleton every torture shares.  At each of [max_points]
   points strided across [total_events], a fresh environment crashes at
   that IO event while [subject] drives the trace; [recovery] brings the
   store back and it is verified against the oracle of acked ops.  Each
   point lies at a seeded offset inside its stride window: a fixed stride
   keeps every point on one phase of a periodic IO pattern, and with an
   even stride over WiredTiger's append/sync pairs every crash landed on
   a sync, which leaves nothing unsynced to tear.  Every 7th point (by
   index, not point: the stride can share a factor with 7, which would
   starve the schedule) arms a second plan during recovery itself and
   recovers again from that crash. *)
let sweep ~engine ~seed ~keyspace ~max_points ~total_events subject recovery =
  let stride = max 1 (total_events / max_points) in
  let jitter = Rng.create seed in
  let crash_points = ref 0 in
  let double_crashes = ref 0 in
  let background_crashes = ref 0 in
  let torn_crashes = ref 0 in
  let failures = ref [] in
  let fail point msg = failures := (point, msg) :: !failures in
  let n = ref 1 in
  while !n <= total_events do
    let point = min total_events (!n + Rng.int jitter stride) in
    incr crash_points;
    let env = Env.create () in
    (* seed varies per point so the torn-write choices differ too *)
    let plan = Env.Fault_plan.create ~seed:(seed + point) ~crash_after:point () in
    Env.set_fault_plan env plan;
    let oracle = Hashtbl.create 64 in
    let in_flight = ref None in
    let handle = ref None in
    (try
       let h = subject.open_ env in
       handle := Some h;
       in_flight := subject.drive h oracle
     with Env.Injected_crash _ ->
       (* fired during the initial open (nothing acked yet) or inside a
          forced topology action (no data op in flight) *)
       ());
    if not (Env.Fault_plan.fired plan) then
      fail point "plan never fired: trace ended before the crash point"
    else begin
      if Env.Fault_plan.fired_in_background plan then incr background_crashes;
      (* where the crash lands: the environment the second plan arms, the
         recovery, and whether that second crash's torn writes count —
         a promotion leaves the primary's files alone, so only the
         backup's crash can tear anything *)
      let target =
        match recovery with
        | Reopen reopen ->
          Env.crash env;
          if Env.Fault_plan.torn_files plan > 0 then incr torn_crashes;
          Some (env, "recovery", (fun () -> reopen env), false)
        | Promote (backup_env, promote) ->
          (* no handle: died in the initial open, before any replica set
             existed — vacuously consistent *)
          Option.map
            (fun h -> (backup_env h, "promotion", (fun () -> (promote h, [])), true))
            !handle
      in
      match target with
      | None -> ()
      | Some (r_env, what, recover, second_tears) -> (
        match
          if !crash_points mod 7 = 0 then begin
            let plan2 =
              Env.Fault_plan.create
                ~seed:((seed * 31) + point)
                ~crash_after:(1 + (point mod 13))
                ()
            in
            Env.set_fault_plan r_env plan2;
            match recover () with
            | r ->
              Env.clear_fault_plan r_env;
              Ok r
            | exception Env.Injected_crash _ ->
              incr double_crashes;
              Env.crash r_env;
              if second_tears && Env.Fault_plan.torn_files plan2 > 0 then
                incr torn_crashes;
              Env.clear_fault_plan r_env;
              (try Ok (recover ()) with e -> Error e)
          end
          else try Ok (recover ()) with e -> Error e
        with
        | Error e -> fail point (what ^ " raised " ^ Printexc.to_string e)
        | Ok (db, extra) ->
          List.iter (fail point) extra;
          List.iter (fail point) (verify db oracle !in_flight ~keyspace);
          db.Dyn.d_close ())
    end;
    n := !n + stride
  done;
  {
    engine;
    total_events;
    crash_points = !crash_points;
    double_crashes = !double_crashes;
    background_crashes = !background_crashes;
    torn_crashes = !torn_crashes;
    failures = List.rev !failures;
  }

(** [run ?seed ?ops ?keyspace ?max_points ?shards ?policy engine] sweeps
    crash points across the trace and verifies recovery at each.
    [max_points] bounds the sweep (evenly strided across all events);
    [shards > 1] runs the trace against the range-partitioned store;
    [policy] pins the compaction policy (remapping the engine to one that
    implements it, as the CLIs do). *)
let run ?(seed = 0xFA17) ?(ops = 140) ?(keyspace = 48) ?(max_points = 64)
    ?(shards = 1) ?policy engine =
  let engine =
    match policy with
    | None -> engine
    | Some p -> Stores.engine_for_policy engine p
  in
  let tweak = tweak ?policy ~shards ~keyspace in
  let trace = gen_trace ~seed ~ops ~keyspace in
  let open_ env = Stores.open_engine ~tweak ~env engine in
  let subject =
    {
      open_;
      drive = (fun db oracle -> run_trace db oracle trace);
      close = (fun db -> db.Dyn.d_close ());
    }
  in
  sweep
    ~engine:
      (Stores.engine_name engine
      ^ (match policy with
        | None -> ""
        | Some p -> "/" ^ O.compaction_policy_name p)
      ^ if shards > 1 then Printf.sprintf " x%d shards" shards else "")
    ~seed ~keyspace ~max_points
    ~total_events:(count_events subject ~seed)
    subject
    (Reopen (fun env -> (open_ env, [])))

(* ---------- elastic migration torture ---------- *)

type topo_action = Split of int | Merge of int

(* Two shards with the controller parked: every split/merge in the sweep
   is forced by the schedule, so the migration machinery (fence, copy
   jobs, durable install, clean) sits at known op indices and the crash
   sweep can land inside every phase of it. *)
let elastic_tweak ~keyspace (o : O.t) =
  {
    o with
    O.memtable_bytes = 2048;
    wal_sync_writes = true;
    shards = 2;
    shard_splits = [ key (keyspace / 2) ];
    elastic = true;
    elastic_window_ops = max_int;
  }

let apply_action (sh : Stores.sharded) = function
  | Split ki ->
    let k = key ki in
    ignore (sh.Stores.s_split ~shard:(sh.Stores.s_shard_of_key k) ~key:k)
  | Merge at ->
    let n = sh.Stores.s_shard_count () in
    if n > 1 then ignore (sh.Stores.s_merge ~at:(min at (n - 2)))

(* Forced moves spread across the trace: carve, collapse, re-carve — the
   re-splits move ranges that already migrated once. *)
let elastic_schedule ~ops ~keyspace =
  [
    (ops / 7, Split (keyspace / 4));
    (2 * ops / 7, Split (3 * keyspace / 4));
    (3 * ops / 7, Merge 0);
    (4 * ops / 7, Split (keyspace / 8));
    (5 * ops / 7, Merge 1);
    (6 * ops / 7, Merge 0);
  ]

(* Run the trace with the schedule interleaved, calling [installed] with
   the split vector after each forced action.  Returns the data op in
   flight when an injected crash fired, or None — a crash inside a
   forced topology action propagates to the caller (migrations move
   copies of acked data; they have no data effect of their own). *)
let run_trace_elastic (sh : Stores.sharded) ~schedule ~installed oracle trace =
  let rec go i = function
    | [] -> None
    | op :: rest -> (
      (match List.assoc_opt i schedule with
       | Some a ->
         apply_action sh a;
         installed (sh.Stores.s_splits ())
       | None -> ());
      match apply sh.Stores.s_dyn op with
      | () ->
        oracle_apply oracle op;
        go (i + 1) rest
      | exception Env.Injected_crash _ -> Some op)
  in
  go 0 trace

(** [run_elastic ?seed ?ops ?keyspace ?max_points engine] sweeps crash
    points across a trace that live-splits, merges and migrates shards
    at scheduled op indices.  At every crash point the store is
    reopened (every 7th point crashing again during recovery — which
    includes the shard layer's own orphan-directory cleanup) and
    checked two ways: the data must match the oracle exactly, and the
    recovered split vector must be one of the topologies the schedule
    installs — a migration lands wholly old or wholly new, never a
    mix. *)
let run_elastic ?(seed = 0xFA17) ?(ops = 140) ?(keyspace = 48)
    ?(max_points = 64) engine =
  let tweak = elastic_tweak ~keyspace in
  let trace = gen_trace ~seed ~ops ~keyspace in
  let schedule = elastic_schedule ~ops ~keyspace in
  let open_ env = Stores.open_sharded ~tweak ~env engine in
  (* the topology lineage: every split vector an install can leave
     behind, recorded by the crash-free pass *)
  let lineage = ref [] in
  let installed splits = lineage := splits :: !lineage in
  let subject =
    {
      open_ =
        (fun env ->
          let sh = open_ env in
          installed (sh.Stores.s_splits ());
          sh);
      drive =
        (fun sh oracle -> run_trace_elastic sh ~schedule ~installed oracle trace);
      close = (fun sh -> sh.Stores.s_dyn.Dyn.d_close ());
    }
  in
  let total_events = count_events subject ~seed in
  let topologies = List.sort_uniq compare !lineage in
  sweep ~engine:(Stores.engine_name engine ^ " elastic") ~seed ~keyspace
    ~max_points ~total_events subject
    (Reopen
       (fun env ->
         let sh = open_ env in
         let splits = sh.Stores.s_splits () in
         ( sh.Stores.s_dyn,
           if List.mem splits topologies then []
           else
             [
               "recovered topology ["
               ^ String.concat "; " splits
               ^ "] is not an installed one";
             ] )))

(* ---------- replication failover torture ---------- *)

(** [run_failover ~strategy ?replicas engine] sweeps the same seeded
    trace, but the crash kills the PRIMARY of a replicated deployment —
    at WAL/flush/compaction IO like {!run}, and additionally at the
    replication layer's own injection points (mid-group ship, mid-file
    ship, mid-manifest install, mid-deletion).  Instead of recovering
    the primary's file system, backup 0 is PROMOTED and verified
    against the oracle under the ack contract: every op the primary
    acknowledged (which, replicated, means every backup durably applied
    it) must be present; the single in-flight op may be present or
    absent; nothing else may differ, and the promoted store must pass
    its invariant checks.  Every 7th point also crashes the backup
    during promotion itself (which exercises recovery-from-the-mirror
    under file shipping; log shipping's promotion does no IO, so its
    plan never fires there) and promotes again over the torn mirror.
    Crash points that land inside the deployment's initial open are
    vacuous — no replica set exists yet, so nothing was acked. *)
let run_failover ?(seed = 0xFA17) ?(ops = 140) ?(keyspace = 48)
    ?(max_points = 64) ?(replicas = 1) ~strategy engine =
  let tweak o =
    {
      (tweak ~shards:1 ~keyspace o) with
      O.replicas;
      repl_strategy = strategy;
    }
  in
  let trace = gen_trace ~seed ~ops ~keyspace in
  let subject =
    {
      open_ = (fun env -> Stores.open_repl ~tweak ~env engine);
      drive = (fun h oracle -> run_trace h.Stores.rh_dyn oracle trace);
      close = (fun h -> h.Stores.rh_dyn.Dyn.d_close ());
    }
  in
  sweep
    ~engine:
      (Printf.sprintf "%s/%s K=%d failover" (Stores.engine_name engine)
         (O.repl_strategy_name strategy)
         replicas)
    ~seed ~keyspace ~max_points
    ~total_events:(count_events subject ~seed)
    subject
    (Promote
       ((fun h -> h.Stores.rh_backup_env 0), fun h -> h.Stores.rh_promote 0))
