(* Tests for the YCSB workload generator/runner and the application shims. *)

module W = Pdb_ycsb.Workload
module R = Pdb_ycsb.Runner
module Dyn = Pdb_kvs.Store_intf

let check = Alcotest.check

let small_store () =
  Pdb_harness.Stores.open_engine
    ~tweak:(fun o ->
      { o with Pdb_kvs.Options.memtable_bytes = 8 * 1024 })
    Pdb_harness.Stores.Pebblesdb

(* ---------- workload specs ---------- *)

let test_specs_sum_to_one () =
  List.iter
    (fun (s : W.spec) ->
      let total =
        s.W.read_prop +. s.W.update_prop +. s.W.insert_prop +. s.W.scan_prop
        +. s.W.rmw_prop
      in
      check (Alcotest.float 0.0001) ("mix sums to 1: " ^ s.W.name) 1.0 total)
    W.all

let test_draw_op_respects_mix () =
  let rng = Pdb_util.Rng.create 3 in
  let counts = Hashtbl.create 8 in
  let n = 50_000 in
  for _ = 1 to n do
    let op = W.draw_op W.workload_b rng in
    let k =
      match op with
      | W.Read -> "read"
      | W.Update -> "update"
      | W.Insert -> "insert"
      | W.Scan -> "scan"
      | W.Read_modify_write -> "rmw"
    in
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let reads = Option.value ~default:0 (Hashtbl.find_opt counts "read") in
  let frac = float_of_int reads /. float_of_int n in
  Alcotest.(check bool) "B is ~95% reads" true (frac > 0.93 && frac < 0.97)

let test_by_name () =
  Alcotest.(check bool) "finds A" true (W.by_name "a" <> None);
  Alcotest.(check bool) "unknown" true (W.by_name "zz" = None)

(* ---------- runner ---------- *)

let test_key_of_record_deterministic_unique () =
  check Alcotest.string "deterministic" (R.key_of_record 42) (R.key_of_record 42);
  let seen = Hashtbl.create 1024 in
  for i = 0 to 9_999 do
    let k = R.key_of_record i in
    Alcotest.(check bool) "unique" false (Hashtbl.mem seen k);
    Hashtbl.replace seen k ()
  done

let test_load_then_read_workloads () =
  let store = small_store () in
  let records = 2_000 in
  let load = R.load store ~records ~value_bytes:64 ~seed:7 in
  check Alcotest.int "load ops" records load.R.ops;
  Alcotest.(check bool) "load throughput positive" true (load.R.kops_per_s > 0.0);
  (* workload C is pure reads over loaded records: every read must hit *)
  let missing = ref 0 in
  for i = 0 to records - 1 do
    if store.Dyn.d_get (R.key_of_record i) = None then incr missing
  done;
  check Alcotest.int "no record missing after load" 0 !missing;
  let c = R.run store W.workload_c ~records ~operations:1_000 ~value_bytes:64 ~seed:7 in
  check Alcotest.int "c reads" 1_000 c.R.reads;
  check Alcotest.int "c writes" 0 (c.R.updates + c.R.inserts + c.R.rmws);
  store.Dyn.d_close ()

let test_workload_d_inserts_grow_keyspace () =
  let store = small_store () in
  let records = 1_000 in
  ignore (R.load store ~records ~value_bytes:64 ~seed:9);
  let d = R.run store W.workload_d ~records ~operations:2_000 ~value_bytes:64 ~seed:9 in
  Alcotest.(check bool) "some inserts happened" true (d.R.inserts > 0);
  (* inserted records are retrievable *)
  let found = ref 0 in
  for i = records to records + d.R.inserts - 1 do
    if store.Dyn.d_get (R.key_of_record i) <> None then incr found
  done;
  check Alcotest.int "all inserts visible" d.R.inserts !found;
  store.Dyn.d_close ()

let test_workload_e_scans () =
  let store = small_store () in
  let records = 1_000 in
  ignore (R.load store ~records ~value_bytes:64 ~seed:11);
  let e = R.run store W.workload_e ~records ~operations:300 ~value_bytes:64 ~seed:11 in
  Alcotest.(check bool) "mostly scans" true (e.R.scans > 250);
  Alcotest.(check bool) "seeks recorded in engine stats" true
    ((store.Dyn.d_stats ()).Pdb_kvs.Engine_stats.seeks > 0);
  store.Dyn.d_close ()

let test_workload_f_rmw () =
  let store = small_store () in
  let records = 500 in
  ignore (R.load store ~records ~value_bytes:64 ~seed:13);
  let f = R.run store W.workload_f ~records ~operations:1_000 ~value_bytes:64 ~seed:13 in
  Alcotest.(check bool) "rmw present" true (f.R.rmws > 300);
  (* every rmw does a get and a put *)
  let st = store.Dyn.d_stats () in
  Alcotest.(check bool) "engine saw both reads and writes" true
    (st.Pdb_kvs.Engine_stats.gets > 0 && st.Pdb_kvs.Engine_stats.puts > 0);
  store.Dyn.d_close ()

(* ---------- app shims ---------- *)

let test_hyperdex_read_before_write () =
  let store = small_store () in
  let app = Pdb_apps.App_shim.wrap Pdb_apps.App_shim.hyperdex store in
  let gets_before = (store.Dyn.d_stats ()).Pdb_kvs.Engine_stats.gets in
  app.Dyn.d_put "k" "v";
  let gets_after = (store.Dyn.d_stats ()).Pdb_kvs.Engine_stats.gets in
  check Alcotest.int "put performed a get first" (gets_before + 1) gets_after;
  check Alcotest.(option string) "value stored" (Some "v") (app.Dyn.d_get "k");
  store.Dyn.d_close ()

let test_mongodb_no_read_before_write () =
  let store = small_store () in
  let app = Pdb_apps.App_shim.wrap Pdb_apps.App_shim.mongodb store in
  let gets_before = (store.Dyn.d_stats ()).Pdb_kvs.Engine_stats.gets in
  app.Dyn.d_put "k" "v";
  let gets_after = (store.Dyn.d_stats ()).Pdb_kvs.Engine_stats.gets in
  check Alcotest.int "no extra get" gets_before gets_after;
  store.Dyn.d_close ()

let test_app_latency_charged () =
  let store = small_store () in
  let clock = Pdb_simio.Env.clock store.Dyn.d_env in
  let app = Pdb_apps.App_shim.wrap Pdb_apps.App_shim.mongodb store in
  let before = (Pdb_simio.Clock.snapshot clock).Pdb_simio.Clock.stall_ns in
  app.Dyn.d_put "k" "v";
  let after = (Pdb_simio.Clock.snapshot clock).Pdb_simio.Clock.stall_ns in
  Alcotest.(check bool) "app latency dominates store latency" true
    (after -. before >= Pdb_apps.App_shim.mongodb.Pdb_apps.App_shim.write_latency_ns);
  store.Dyn.d_close ()

(* ---------- harness ---------- *)

let test_every_engine_opens_and_roundtrips () =
  List.iter
    (fun engine ->
      let store =
        Pdb_harness.Stores.open_engine
          ~tweak:(fun o ->
            { o with Pdb_kvs.Options.memtable_bytes = 8 * 1024 })
          engine
      in
      store.Dyn.d_put "hello" "world";
      check Alcotest.(option string)
        ("roundtrip " ^ store.Dyn.d_name)
        (Some "world") (store.Dyn.d_get "hello");
      store.Dyn.d_delete "hello";
      check Alcotest.(option string)
        ("delete " ^ store.Dyn.d_name)
        None (store.Dyn.d_get "hello");
      store.Dyn.d_check_invariants ();
      store.Dyn.d_close ())
    [
      Pdb_harness.Stores.Pebblesdb;
      Pdb_harness.Stores.Pebblesdb_one;
      Pdb_harness.Stores.Hyperleveldb;
      Pdb_harness.Stores.Leveldb;
      Pdb_harness.Stores.Rocksdb;
      Pdb_harness.Stores.Btree;
      Pdb_harness.Stores.Wiredtiger;
    ]

let test_write_amp_helper () =
  let store = small_store () in
  for i = 0 to 999 do
    store.Dyn.d_put (Printf.sprintf "key%06d" i) (String.make 100 'v')
  done;
  store.Dyn.d_flush ();
  Alcotest.(check bool) "write amp > 1" true
    (Pdb_harness.Bench_util.write_amp store > 1.0);
  store.Dyn.d_close ()

let test_fill_and_read_helpers () =
  let store = small_store () in
  let fill = Pdb_harness.Bench_util.fill_random store ~n:500 ~value_bytes:64 ~seed:1 in
  check Alcotest.int "fill ops" 500 fill.Pdb_harness.Bench_util.ops;
  let reads = Pdb_harness.Bench_util.read_random store ~n:500 ~ops:200 ~seed:1 in
  Alcotest.(check bool) "read throughput positive" true
    (reads.Pdb_harness.Bench_util.kops > 0.0);
  let seeks = Pdb_harness.Bench_util.seek_random store ~n:500 ~ops:50 ~nexts:5 ~seed:1 in
  Alcotest.(check bool) "seek throughput positive" true
    (seeks.Pdb_harness.Bench_util.kops > 0.0);
  store.Dyn.d_close ()

let test_experiment_registry () =
  Alcotest.(check bool) "registry nonempty" true
    (List.length Pdb_harness.Experiments.all >= 15);
  Alcotest.(check bool) "fig1.1 registered" true
    (Pdb_harness.Experiments.find "fig1.1" <> None);
  Alcotest.(check bool) "unknown id" true
    (Pdb_harness.Experiments.find "nope" = None)

let test_unknown_id_rejected () =
  let ran = ref false in
  let r =
    Pdb_harness.Experiments.run_ids
      ~extra:[ ("probe", fun () -> ran := true) ]
      [ "probe"; "nope" ]
  in
  Alcotest.(check bool) "a list naming an unknown id is rejected" true
    (Result.is_error r);
  Alcotest.(check bool) "nothing ran before the rejection" false !ran

(* the ids of the bench-smoke step in .github/workflows/ci.yml *)
let ci_smoke_ids =
  [ "mt-smoke"; "latency-smoke"; "shard-smoke"; "policy-smoke";
    "stability-smoke"; "read-smoke"; "repl-smoke"; "elastic-smoke" ]

let test_ci_smoke_ids_resolve () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true
        (Option.is_some (Pdb_harness.Experiments.find id)))
    ci_smoke_ids

let () =
  Alcotest.run "ycsb-apps-harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "mixes sum to 1" `Quick test_specs_sum_to_one;
          Alcotest.test_case "draw_op mix" `Quick test_draw_op_respects_mix;
          Alcotest.test_case "by_name" `Quick test_by_name;
        ] );
      ( "runner",
        [
          Alcotest.test_case "key_of_record" `Quick
            test_key_of_record_deterministic_unique;
          Alcotest.test_case "load + C" `Quick test_load_then_read_workloads;
          Alcotest.test_case "D inserts grow" `Quick
            test_workload_d_inserts_grow_keyspace;
          Alcotest.test_case "E scans" `Quick test_workload_e_scans;
          Alcotest.test_case "F rmw" `Quick test_workload_f_rmw;
        ] );
      ( "app-shims",
        [
          Alcotest.test_case "hyperdex read-before-write" `Quick
            test_hyperdex_read_before_write;
          Alcotest.test_case "mongodb plain writes" `Quick
            test_mongodb_no_read_before_write;
          Alcotest.test_case "app latency charged" `Quick
            test_app_latency_charged;
        ] );
      ( "harness",
        [
          Alcotest.test_case "all engines roundtrip" `Quick
            test_every_engine_opens_and_roundtrips;
          Alcotest.test_case "write amp helper" `Quick test_write_amp_helper;
          Alcotest.test_case "fill/read/seek helpers" `Quick
            test_fill_and_read_helpers;
          Alcotest.test_case "experiment registry" `Quick
            test_experiment_registry;
          Alcotest.test_case "unknown id rejected before any run" `Quick
            test_unknown_id_rejected;
          Alcotest.test_case "CI smoke ids resolve" `Quick
            test_ci_smoke_ids_resolve;
        ] );
    ]
