(* Tests for the compaction-job framework: scheduler semantics,
   worker-count invariance of store state, invariant preservation after
   every drained job, and the guard-parallelism throughput claim (§4.3). *)

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

let manual_job ?(key = "x") run =
  {
    Job.key;
    trigger = Job.Manual;
    estimated_bytes = 10;
    footprint = Sched.full_range ~level_lo:0 ~level_hi:0;
    run;
  }

let test_submit_dedup_and_fifo () =
  let clock = Clock.create () in
  let s = Scheduler.create ~clock ~workers:2 () in
  let order = ref [] in
  Alcotest.(check bool) "first accepted" true
    (Scheduler.submit s (manual_job ~key:"a" (fun () -> order := "a" :: !order)));
  Alcotest.(check bool) "second accepted" true
    (Scheduler.submit s (manual_job ~key:"b" (fun () -> order := "b" :: !order)));
  Alcotest.(check bool) "duplicate key rejected" false
    (Scheduler.submit s (manual_job ~key:"a" (fun () -> order := "dup" :: !order)));
  check Alcotest.int "two pending" 2 (Scheduler.pending s);
  Scheduler.drain s;
  check Alcotest.(list string) "FIFO order" [ "a"; "b" ] (List.rev !order);
  check Alcotest.int "queue empty" 0 (Scheduler.pending s);
  Alcotest.(check bool) "key reusable after drain" true
    (Scheduler.submit s (manual_job ~key:"a" (fun () -> ())));
  Scheduler.drain s

let test_drain_runs_on_background_lane () =
  let clock = Clock.create () in
  let s = Scheduler.create ~clock ~workers:1 () in
  ignore
    (Scheduler.submit s (manual_job (fun () -> Clock.advance clock 500.0)));
  Scheduler.drain s;
  let snap = Clock.snapshot clock in
  check (Alcotest.float 0.001) "charged to background" 500.0
    snap.Clock.background_ns;
  check (Alcotest.float 0.001) "placed on a worker lane" 500.0
    snap.Clock.bg_horizon_ns;
  check Alcotest.int "job counted" 1 (Scheduler.stats s).Scheduler.jobs_run

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

(* ---------- invariants after every drained job ---------- *)

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

(* Random fill, modeled elapsed.  FLSM's compaction decomposes into many
   jobs over disjoint guards, so extra worker lanes shorten its background
   completion horizon more than they shorten the leveled LSM's few wide
   serialized jobs.  The reserved flush lane is disabled so flushes
   contend with compactions on the worker lanes as in the classical
   engines — this test isolates how *compaction* packs the lanes as the
   worker count grows, and the flush lane would hand both engines part of
   that benefit already at one worker. *)
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
  let shared_lanes o = { o with O.flush_reserved_lane = false } in
  if pebbles then begin
    let db =
      P.open_store (shared_lanes (tiny ~threads (O.pebblesdb ()))) ~env
        ~dir:"db"
    in
    let e = fill (P.put db) (fun () -> P.flush db) in
    P.close db;
    e
  end
  else begin
    let db =
      L.open_store (shared_lanes (tiny ~threads (O.hyperleveldb ()))) ~env
        ~dir:"db"
    in
    let e = fill (L.put db) (fun () -> L.flush db) in
    L.close db;
    e
  end

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

let () =
  Alcotest.run "compaction"
    [
      ( "scheduler",
        [
          Alcotest.test_case "dedup and FIFO" `Quick test_submit_dedup_and_fifo;
          Alcotest.test_case "background lane + placement" `Quick
            test_drain_runs_on_background_lane;
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
      ( "throughput-model",
        [
          Alcotest.test_case "guard parallelism beats leveled scaling" `Quick
            test_guard_parallelism_beats_leveled_scaling;
        ] );
    ]
