(* Write throttling (Pdb_kvs.Backpressure) and flush/compaction fairness.

   The controller is a pure time model: verdicts charge the simulated
   clock and nothing else, so on-disk bytes are identical across
   throttle modes and client counts.  The cliff mode must charge once
   per commit group (the seed over-charged per batch), stalls that
   cross the Slowdown→Stop boundary must land in both counters, both
   engines must share one controller, and the reserved flush lane must
   keep memtable rotation schedulable under saturated compaction
   lanes. *)

module Fingerprint = Pdb_simio.Fingerprint
module Bp = Pdb_kvs.Backpressure
module O = Pdb_kvs.Options
module L = Pdb_lsm.Lsm_store
module P = Pebblesdb.Pebbles_store
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Sched = Pdb_simio.Sched
module Dyn = Pdb_kvs.Store_intf
module Stores = Pdb_harness.Stores
module B = Pdb_harness.Bench_util

let check = Alcotest.check

(* ---------- controller units ---------- *)

let test_delay_ramp () =
  let t = Bp.create { (O.hyperleveldb ()) with O.l0_slowdown = 8; l0_stop = 12 } in
  let d l0_files = Bp.delay_ns t ~l0_files in
  check (Alcotest.float 1e-6) "free below slowdown" 0.0 (d 7);
  check (Alcotest.float 1e-6) "zero at slowdown" 0.0 (d 8);
  check (Alcotest.float 1e-6) "full penalty at stop"
    O.slowdown_stall_ns (d 12);
  check (Alcotest.float 1e-6) "linear midpoint"
    (O.slowdown_stall_ns /. 2.0) (d 10);
  Alcotest.(check bool) "keeps ramping past stop" true (d 16 > d 12)

let test_boundary_split () =
  let opts = { (O.hyperleveldb ()) with O.throttle = O.Token_bucket;
               l0_slowdown = 8; l0_stop = 12 } in
  let t = Bp.create opts in
  (* debt past the stop threshold: per-entry delay exceeds the slowdown
     penalty, so each stalled entry splits across both counters *)
  let per = Bp.delay_ns t ~l0_files:16 in
  Alcotest.(check bool) "past stop the delay exceeds the slowdown scale"
    true (per > O.slowdown_stall_ns);
  (* cost 38 against a full burst of 32: deficit 6 *)
  let v = Bp.throttle t ~now_ns:0.0 ~l0_files:16 ~cost:38 in
  let deficit = 6.0 in
  check (Alcotest.float 1e-3) "slowdown share caps at the seed penalty"
    (deficit *. O.slowdown_stall_ns) v.Bp.slowdown_ns;
  check (Alcotest.float 1e-3) "excess past the boundary is stop time"
    (deficit *. (per -. O.slowdown_stall_ns)) v.Bp.stop_ns;
  Alcotest.(check bool) "one stall, both kinds" true
    (v.Bp.slowdown_ns > 0.0 && v.Bp.stop_ns > 0.0)

let test_no_refill_over_stall () =
  let opts = { (O.hyperleveldb ()) with O.throttle = O.Token_bucket;
               l0_slowdown = 8; l0_stop = 12 } in
  let t = Bp.create opts in
  let per = Bp.delay_ns t ~l0_files:12 in
  (* cost 36 against a full burst of 32: deficit 4 *)
  let v1 = Bp.throttle t ~now_ns:0.0 ~l0_files:12 ~cost:36 in
  check (Alcotest.float 1e-3) "first group pays for the deficit"
    (4.0 *. per) (Bp.total_ns v1);
  (* the clock advanced exactly by the stall; the bucket earned nothing
     over it, so the next group pays full price *)
  let v2 = Bp.throttle t ~now_ns:(Bp.total_ns v1) ~l0_files:12 ~cost:36 in
  check (Alcotest.float 1e-3) "stall time earns no tokens"
    (36.0 *. per) (Bp.total_ns v2)

let test_cliff_charges_once_per_group () =
  let opts = { (O.hyperleveldb ()) with O.throttle = O.Cliff } in
  let t = Bp.create opts in
  let at points cost =
    Bp.total_ns (Bp.throttle t ~now_ns:0.0 ~l0_files:points ~cost)
  in
  check (Alcotest.float 1e-3) "below slowdown: free" 0.0 (at 7 64);
  (* the verdict is per *group*: a 64-entry group pays the same fixed
     penalty as a 1-entry group (the seed charged it per batch) *)
  check (Alcotest.float 1e-3) "group of 1" O.slowdown_stall_ns (at 8 1);
  check (Alcotest.float 1e-3) "group of 64" O.slowdown_stall_ns (at 8 64);
  let v_slow = Bp.throttle t ~now_ns:0.0 ~l0_files:9 ~cost:1 in
  let v_stop = Bp.throttle t ~now_ns:0.0 ~l0_files:12 ~cost:1 in
  Alcotest.(check bool) "slowdown attribution below stop" true
    (v_slow.Bp.slowdown_ns > 0.0 && v_slow.Bp.stop_ns = 0.0);
  Alcotest.(check bool) "stop attribution at stop" true
    (v_stop.Bp.stop_ns > 0.0 && v_stop.Bp.slowdown_ns = 0.0)

(* ---------- one controller for both engines ---------- *)

(* Both engines build their controller through Bp.create from the same
   option fields; feed the two instances one mixed L0 schedule and
   pin the verdict sequences equal, so the stall policies cannot
   drift. *)
let test_engines_cannot_drift () =
  let tweak o = { o with O.throttle = O.Token_bucket;
                  l0_slowdown = 2; l0_stop = 4 } in
  let lsm = Bp.create (tweak (O.hyperleveldb ()))
  and flsm = Bp.create (tweak (O.pebblesdb ())) in
  let now = ref 0.0 in
  List.iter
    (fun (l0_files, cost) ->
      let a = Bp.throttle lsm ~now_ns:!now ~l0_files ~cost in
      let b = Bp.throttle flsm ~now_ns:!now ~l0_files ~cost in
      check (Alcotest.float 1e-6) "same slowdown" a.Bp.slowdown_ns b.Bp.slowdown_ns;
      check (Alcotest.float 1e-6) "same stop" a.Bp.stop_ns b.Bp.stop_ns;
      now := !now +. Bp.total_ns a +. 1_000.0)
    [ (0, 8); (3, 8); (3, 16); (5, 4); (6, 32); (1, 8); (4, 64); (0, 8);
      (5, 16) ]

let test_engine_group_charged_once () =
  (* l0_slowdown = 0 puts every commit at the cliff: a 3-batch group
     must stall exactly once, not once per batch *)
  let tweak base =
    { base with O.throttle = O.Cliff; l0_slowdown = 0; l0_stop = 1000 }
  in
  let batches n =
    List.init n (fun i ->
        let b = Pdb_kvs.Write_batch.create () in
        Pdb_kvs.Write_batch.put b (Printf.sprintf "k%04d" i) "v";
        b)
  in
  let env = Env.create () in
  let db = L.open_store (tweak (O.hyperleveldb ())) ~env ~dir:"lsm" in
  L.write_group db (batches 3);
  let st = L.stats db in
  check Alcotest.int "lsm: one stall for the group" 1
    st.Pdb_kvs.Engine_stats.write_stalls;
  check (Alcotest.float 1e-3) "lsm: one penalty charged"
    O.slowdown_stall_ns st.Pdb_kvs.Engine_stats.stall_slowdown_ns;
  L.close db;
  let db = P.open_store (tweak (O.pebblesdb ())) ~env ~dir:"flsm" in
  P.write_group db (batches 3);
  let st = P.stats db in
  check Alcotest.int "flsm: one stall for the group" 1
    st.Pdb_kvs.Engine_stats.write_stalls;
  check (Alcotest.float 1e-3) "flsm: one penalty charged"
    O.slowdown_stall_ns st.Pdb_kvs.Engine_stats.stall_slowdown_ns;
  P.close db

(* ---------- state is independent of throttling ---------- *)

let stall_fill engine ~throttle ~clients =
  (* thresholds under the L0 compaction trigger so stalls actually
     fire at this scale (synchronous compaction keeps L0 <= 4) *)
  let tweak o = { o with O.throttle; l0_slowdown = 2; l0_stop = 4 } in
  let env = Env.create () in
  let store = Stores.open_engine ~tweak ~env engine in
  let r = B.fill_random ~clients store ~n:2_000 ~value_bytes:256 ~seed:11 in
  let stats = store.Dyn.d_stats () in
  store.Dyn.d_close ();
  (Fingerprint.files env, r.Pdb_kvs.Phase.elapsed_ns, stats)

let test_state_invariant_across_throttles engine () =
  let base, _, _ = stall_fill engine ~throttle:O.Unthrottled ~clients:4 in
  let cliff, _, cs = stall_fill engine ~throttle:O.Cliff ~clients:4 in
  let tb, _, ts = stall_fill engine ~throttle:O.Token_bucket ~clients:4 in
  Alcotest.(check bool) "cliff stalled" true
    (cs.Pdb_kvs.Engine_stats.write_stalls > 0);
  Alcotest.(check bool) "token bucket stalled" true
    (ts.Pdb_kvs.Engine_stats.write_stalls > 0);
  check Alcotest.(list (pair string string)) "off = cliff bytes" base cliff;
  check Alcotest.(list (pair string string)) "off = token-bucket bytes" base tb

let test_token_bucket_deterministic engine () =
  List.iter
    (fun clients ->
      let f1, e1, _ = stall_fill engine ~throttle:O.Token_bucket ~clients in
      let f2, e2, _ = stall_fill engine ~throttle:O.Token_bucket ~clients in
      check
        Alcotest.(list (pair string string))
        (Printf.sprintf "rerun at %dc: identical bytes" clients)
        f1 f2;
      check (Alcotest.float 0.0)
        (Printf.sprintf "rerun at %dc: identical modeled time" clients)
        e1 e2)
    [ 1; 4; 8 ]

(* ---------- flush lane fairness ---------- *)

let fp_level l = Sched.full_range ~level_lo:l ~level_hi:l

let test_flush_lane_never_starved () =
  let clock = Clock.create () in
  let s = Sched.create ~clock ~workers:1 () in
  (* saturate the single worker lane with compaction work *)
  for _ = 1 to 4 do
    ignore (Sched.place_span s (fp_level 1) ~duration_ns:1_000.0)
  done;
  let p = Sched.place_span ~cls:`Flush s (fp_level 0) ~duration_ns:100.0 in
  check (Alcotest.float 1e-6) "flush starts immediately" 0.0 p.Sched.start_ns;
  check (Alcotest.float 1e-6) "flush lane carries it" 100.0
    (Sched.flush_busy_ns s)

let test_engine_reports_flush_lane () =
  let env = Env.create () in
  let store = Stores.open_engine ~env Stores.Pebblesdb in
  ignore (B.fill_random ~clients:1 store ~n:2_000 ~value_bytes:256 ~seed:3);
  let st = store.Dyn.d_stats () in
  Alcotest.(check bool) "flushes ran on the reserved lane" true
    (st.Pdb_kvs.Engine_stats.flush_busy_ns > 0.0);
  store.Dyn.d_close ()

let () =
  Alcotest.run "backpressure"
    [
      ( "controller",
        [
          Alcotest.test_case "delay ramp" `Quick test_delay_ramp;
          Alcotest.test_case "boundary-crossing stall splits" `Quick
            test_boundary_split;
          Alcotest.test_case "no refill over a stall" `Quick
            test_no_refill_over_stall;
          Alcotest.test_case "cliff charges once per group" `Quick
            test_cliff_charges_once_per_group;
        ] );
      ( "engines",
        [
          Alcotest.test_case "identical schedules, identical verdicts" `Quick
            test_engines_cannot_drift;
          Alcotest.test_case "write_group stalls once" `Quick
            test_engine_group_charged_once;
        ] );
      ( "state",
        [
          Alcotest.test_case "lsm bytes invariant across throttles" `Quick
            (test_state_invariant_across_throttles Stores.Hyperleveldb);
          Alcotest.test_case "flsm bytes invariant across throttles" `Quick
            (test_state_invariant_across_throttles Stores.Pebblesdb);
          Alcotest.test_case "lsm token bucket deterministic 1/4/8c" `Quick
            (test_token_bucket_deterministic Stores.Hyperleveldb);
          Alcotest.test_case "flsm token bucket deterministic 1/4/8c" `Quick
            (test_token_bucket_deterministic Stores.Pebblesdb);
        ] );
      ( "fairness",
        [
          Alcotest.test_case "flush never starved" `Quick
            test_flush_lane_never_starved;
          Alcotest.test_case "engine uses the flush lane" `Quick
            test_engine_reports_flush_lane;
        ] );
    ]
