(* Tests for the compaction-job framework: scheduler semantics,
   worker-count invariance of store state, invariant preservation after
   every job, and the guard-parallelism throughput claim (§4.3). *)

module Fingerprint = Pdb_simio.Fingerprint
module P = Pebblesdb.Pebbles_store
module L = Pdb_lsm.Lsm_store
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Device = Pdb_simio.Device
module Sched = Pdb_simio.Sched
module Job = Pdb_compaction.Job
module Scheduler = Pdb_compaction.Scheduler
module Policy = Pdb_compaction.Policy

let check = Alcotest.check
let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

let tiny ?(threads = 1) base =
  {
    base with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
    compaction_threads = threads;
  }

(* ---------- scheduler unit tests ---------- *)

let manual_job ?(key = "x") ?(bytes = 10) run =
  {
    Job.key;
    trigger = Job.Manual;
    estimated_bytes = bytes;
    footprint = Sched.full_range ~level_lo:0 ~level_hi:0;
    run;
  }

let test_run_round_order_and_peaks () =
  let clock = Clock.create () in
  let s = Scheduler.create ~clock ~workers:2 () in
  let order = ref [] in
  let job key bytes =
    manual_job ~key ~bytes (fun () -> order := key :: !order)
  in
  let peaks () =
    let c = Scheduler.counters s in
    Pdb_kvs.Engine_stats.
      (get c compaction_queue_peak, get c compaction_backlog_peak_bytes)
  in
  Scheduler.run_round s [ job "c" 30; job "a" 10; job "b" 20 ];
  check Alcotest.(list string) "pick order" [ "c"; "a"; "b" ] (List.rev !order);
  check Alcotest.(pair int int) "round count and bytes" (3, 60) (peaks ());
  Scheduler.run_round s [ job "d" 40 ];
  check Alcotest.(pair int int) "peaks keep the larger round" (3, 60)
    (peaks ());
  Scheduler.run_round s [ job "e" 50; job "f" 25 ];
  check Alcotest.(pair int int) "each peak is its own maximum" (3, 75)
    (peaks ());
  check Alcotest.int "every job counted" 6
    Pdb_kvs.Engine_stats.(get (Scheduler.counters s) compaction_jobs)

let test_round_runs_on_background_lane () =
  let clock = Clock.create () in
  let s = Scheduler.create ~clock ~workers:1 () in
  Scheduler.run_round s [ manual_job (fun () -> Clock.advance clock 500.0) ];
  let snap = Clock.snapshot clock in
  check (Alcotest.float 0.001) "charged to background" 500.0
    snap.Clock.background_ns;
  check (Alcotest.float 0.001) "placed on a worker lane" 500.0
    snap.Clock.bg_horizon_ns;
  check Alcotest.int "job counted" 1
    Pdb_kvs.Engine_stats.(get (Scheduler.counters s) compaction_jobs)

(* Two jobs through the scheduler: the second is counted as serialized
   only when its footprint conflicts with the first's. *)
let serialized_jobs ~conflicting =
  let clock = Clock.create () in
  let s = Scheduler.create ~clock ~workers:2 () in
  let job key key_lo key_hi =
    {
      (manual_job ~key (fun () -> Clock.advance clock 100.0)) with
      Job.footprint =
        {
          (Sched.full_range ~level_lo:1 ~level_hi:1) with
          Sched.key_lo;
          key_hi = Some key_hi;
        };
    }
  in
  let second = if conflicting then job "b" "g" "z" else job "b" "m" "z" in
  Scheduler.run_round s [ job "a" "a" "m"; second ];
  Pdb_kvs.Engine_stats.(get (Scheduler.counters s) compaction_serialized_jobs)

let test_serialized_jobs_counted () =
  check Alcotest.int "conflicting pair: one serialized" 1
    (serialized_jobs ~conflicting:true);
  check Alcotest.int "disjoint pair: none serialized" 0
    (serialized_jobs ~conflicting:false)

(* ---------- worker-count invariance ---------- *)

(* Final on-storage state must be a pure function of the workload: the
   worker count shapes modeled time only.  Compare the full file set,
   byte for byte. *)
let pebbles_workload ~threads ~n =
  let env = Env.create () in
  let db = P.open_store (tiny ~threads (O.pebblesdb ())) ~env ~dir:"db" in
  for i = 0 to n - 1 do
    P.put db (key (i * 7919 mod n)) (value i);
    if i mod 13 = 0 then P.delete db (key (i * 31 mod n))
  done;
  P.flush db;
  P.check_invariants db;
  P.compact_all db;
  P.check_invariants db;
  P.close db;
  env

let lsm_workload ~threads ~n =
  let env = Env.create () in
  let db = L.open_store (tiny ~threads (O.hyperleveldb ())) ~env ~dir:"db" in
  for i = 0 to n - 1 do
    L.put db (key (i * 7919 mod n)) (value i);
    if i mod 13 = 0 then L.delete db (key (i * 31 mod n))
  done;
  L.flush db;
  L.check_invariants db;
  L.compact_all db;
  L.check_invariants db;
  L.close db;
  env

let test_pebbles_worker_count_invariance () =
  let a = Fingerprint.text (pebbles_workload ~threads:1 ~n:1500) in
  let b = Fingerprint.text (pebbles_workload ~threads:4 ~n:1500) in
  check Alcotest.string "1 vs 4 workers: byte-identical files" a b

let test_lsm_worker_count_invariance () =
  let a = Fingerprint.text (lsm_workload ~threads:1 ~n:1500) in
  let b = Fingerprint.text (lsm_workload ~threads:4 ~n:1500) in
  check Alcotest.string "1 vs 4 workers: byte-identical files" a b

(* ---------- invariants after every job ---------- *)

let test_pebbles_invariants_after_every_job () =
  let env = Env.create () in
  let db = P.open_store (tiny ~threads:2 (O.pebblesdb ())) ~env ~dir:"db" in
  let observed = ref 0 in
  Scheduler.set_observer (P.compaction_scheduler db) (fun _job ->
      incr observed;
      P.check_invariants db);
  for i = 0 to 1499 do
    P.put db (key (i * 7919 mod 1500)) (value i)
  done;
  P.flush db;
  P.compact_all db;
  Alcotest.(check bool) "observer saw jobs" true (!observed > 50)

let test_lsm_invariants_after_every_job () =
  let env = Env.create () in
  let db = L.open_store (tiny ~threads:2 (O.hyperleveldb ())) ~env ~dir:"db" in
  let observed = ref 0 in
  Scheduler.set_observer (L.compaction_scheduler db) (fun _job ->
      incr observed;
      L.check_invariants db);
  for i = 0 to 1499 do
    L.put db (key (i * 7919 mod 1500)) (value i)
  done;
  L.flush db;
  Alcotest.(check bool) "observer saw jobs" true (!observed > 20)

(* ---------- guard-parallelism shows up in modeled time (§4.3) ---------- *)

(* Random fill, modeled elapsed, in the stores' own lane layout (worker
   lanes plus the reserved flush lane).  FLSM's compaction decomposes into
   many jobs over disjoint guards that append to their target level, so
   extra worker lanes shorten its background completion horizon more than
   they shorten the leveled LSM's few wide serialized jobs. *)
let modeled_fill_ns ~pebbles ~threads ~n =
  let env = Env.create () in
  let clock = Env.clock env in
  let fill put flush =
    let c0 = Clock.snapshot clock in
    for i = 0 to n - 1 do
      put (key (i * 7919 mod n)) (value i)
    done;
    flush ();
    Clock.elapsed_ns (Clock.diff (Clock.snapshot clock) c0)
  in
  if pebbles then begin
    let db = P.open_store (tiny ~threads (O.pebblesdb ())) ~env ~dir:"db" in
    let e = fill (P.put db) (fun () -> P.flush db) in
    P.close db;
    e
  end
  else begin
    let db = L.open_store (tiny ~threads (O.hyperleveldb ())) ~env ~dir:"db" in
    let e = fill (L.put db) (fun () -> L.flush db) in
    L.close db;
    e
  end

(* An FLSM compaction appends to its target level, so it need not wait for
   the job still reading that level: a second worker lane lowers a
   PebblesDB fill's background horizon (with the symmetric rule, where
   any two jobs touching one level serialise, it does not at this size),
   and the files stay byte-identical. *)
let pebbles_fill ~threads ~n =
  let env = Env.create () in
  let db = P.open_store (tiny ~threads (O.pebblesdb ())) ~env ~dir:"db" in
  for i = 0 to n - 1 do
    P.put db (key (i * 7919 mod n)) (value i)
  done;
  P.flush db;
  let horizon = Clock.bg_horizon_ns (Env.clock env) in
  P.close db;
  (horizon, Fingerprint.text env)

let test_pebbles_second_worker_lowers_horizon () =
  let h1, files1 = pebbles_fill ~threads:1 ~n:1500 in
  let h2, files2 = pebbles_fill ~threads:2 ~n:1500 in
  check Alcotest.string "1 vs 2 workers: byte-identical files" files1 files2;
  Alcotest.(check bool)
    (Printf.sprintf "horizon at 2 workers %.0f < at 1 %.0f" h2 h1)
    true (h2 < h1)

let test_guard_parallelism_beats_leveled_scaling () =
  let n = 3000 in
  let p1 = modeled_fill_ns ~pebbles:true ~threads:1 ~n in
  let p4 = modeled_fill_ns ~pebbles:true ~threads:4 ~n in
  let l1 = modeled_fill_ns ~pebbles:false ~threads:1 ~n in
  let l4 = modeled_fill_ns ~pebbles:false ~threads:4 ~n in
  let p_speedup = p1 /. p4 and l_speedup = l1 /. l4 in
  Alcotest.(check bool)
    (Printf.sprintf "flsm speedup %.3fx > lsm speedup %.3fx" p_speedup
       l_speedup)
    true
    (p_speedup > l_speedup)

(* ---------- the round loop runs to quiescence ---------- *)

(* A write returns only once the compaction loop has nothing left due, so
   no level above the last may be over its trigger after any put.  A job
   that shrank its level keeps the level unblocked even when the level
   above refilled it in the same round; a whole-round rule would block
   such a level and leave it due.  With [~seeks] each put is followed by
   that many seeks on a fresh iterator, enough to fire a seek compaction,
   whose level-0 drain must not leave level 1 due either. *)
let test_no_level_left_due ?(seeks = 0) base () =
  let env = Env.create () in
  let db = L.open_store (tiny base) ~env ~dir:"db" in
  let rng = Random.State.make [| 42 |] in
  let key () = Printf.sprintf "key%08d" (Random.State.int rng 100_000_000) in
  let v = String.make 100 'v' in
  for i = 1 to 5000 do
    L.put db (key ()) v;
    if seeks > 0 then begin
      let it = L.iterator db in
      for _ = 1 to seeks do
        it.Pdb_kvs.Iter.seek (key ())
      done
    end;
    for level = 0 to (L.options db).O.max_levels - 2 do
      if Policy.should_trigger (L.compaction_score db level) then
        Alcotest.failf "after put %d, level %d is still due" i level
    done
  done;
  L.close db

let () =
  Alcotest.run "compaction"
    [
      ( "scheduler",
        [
          Alcotest.test_case "run_round order and peaks" `Quick
            test_run_round_order_and_peaks;
          Alcotest.test_case "background lane + placement" `Quick
            test_round_runs_on_background_lane;
          Alcotest.test_case "serialized jobs counted" `Quick
            test_serialized_jobs_counted;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pebbles worker-count invariance" `Quick
            test_pebbles_worker_count_invariance;
          Alcotest.test_case "lsm worker-count invariance" `Quick
            test_lsm_worker_count_invariance;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "pebbles invariants after every job" `Quick
            test_pebbles_invariants_after_every_job;
          Alcotest.test_case "lsm invariants after every job" `Quick
            test_lsm_invariants_after_every_job;
        ] );
      ( "no level due",
        [
          Alcotest.test_case "leveldb" `Quick
            (test_no_level_left_due (O.leveldb ()));
          Alcotest.test_case "hyperleveldb" `Quick
            (test_no_level_left_due (O.hyperleveldb ()));
          Alcotest.test_case "rocksdb" `Quick
            (test_no_level_left_due (O.rocksdb ()));
          Alcotest.test_case "leveldb seeks" `Quick
            (test_no_level_left_due ~seeks:11 (O.leveldb ()));
          Alcotest.test_case "hyperleveldb seeks" `Quick
            (test_no_level_left_due ~seeks:11 (O.hyperleveldb ()));
        ] );
      ( "throughput-model",
        [
          Alcotest.test_case "guard parallelism beats leveled scaling" `Quick
            test_guard_parallelism_beats_leveled_scaling;
          Alcotest.test_case "second worker lowers pebbles horizon" `Quick
            test_pebbles_second_worker_lowers_horizon;
        ] );
    ]
