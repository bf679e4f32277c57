(* Tests for the YCSB workload generator/runner and the application shims. *)

module W = Pdb_ycsb.Workload
module R = Pdb_ycsb.Runner
module P = Pdb_kvs.Phase
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

(* The hand-rolled hex rendering writes exactly the bytes of the
   [Printf] format it replaced. *)
let test_key_of_record_matches_sprintf () =
  let reference n =
    let open Int64 in
    let h = ref 0xCBF29CE484222325L in
    let v = ref (of_int n) in
    for _ = 0 to 7 do
      h := mul (logxor !h (logand !v 0xffL)) 0x100000001B3L;
      v := shift_right_logical !v 8
    done;
    Printf.sprintf "user%016Lx" !h
  in
  let same n =
    let got = R.key_of_record n and want = reference n in
    if not (String.equal got want) then
      Alcotest.failf "key_of_record %d = %S, sprintf gives %S" n got want
  in
  for n = 0 to 100_000 do
    same n
  done;
  List.iter same [ max_int; min_int; -1 ]

let test_load_then_read_workloads () =
  let store = small_store () in
  let records = 2_000 in
  let load = R.load store ~records ~value_bytes:64 ~seed:7 in
  check Alcotest.int "load ops" records load.R.run.P.ops;
  Alcotest.(check bool) "load throughput positive" true
    (load.R.run.P.kops > 0.0);
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

(* The default client count and explicit ones apply one drawn op
   stream: the same counts and the same store files at any client
   count, and both engines end with the same contents. *)
let test_serial_and_clients_same_ops () =
  let phases ?clients engine =
    let store =
      Pdb_harness.Stores.open_engine
        ~tweak:(fun o -> { o with Pdb_kvs.Options.memtable_bytes = 8 * 1024 })
        engine
    in
    let records = 2_000 and value_bytes = 64 and seed = 5 in
    let counts (r : R.result) =
      (r.R.reads, r.R.updates, r.R.inserts, r.R.scans, r.R.rmws)
    in
    let load = R.load ?clients store ~records ~value_bytes ~seed in
    let runs =
      List.map
        (fun spec ->
          counts
            (R.run ?clients store spec ~records ~operations:1_000 ~value_bytes
               ~seed))
        W.[ workload_a; workload_d; workload_e; workload_f ]
    in
    let md5 = Pdb_simio.Fingerprint.md5 store.Dyn.d_env in
    let contents = Pdb_kvs.Iter.to_list (store.Dyn.d_iterator ()) in
    store.Dyn.d_close ();
    (counts load :: runs, md5, contents)
  in
  let same_paths engine =
    let counts, md5, contents = phases engine in
    List.iter
      (fun clients ->
        let counts', md5', _ = phases ~clients engine in
        let what = Printf.sprintf "%d client(s)" clients in
        Alcotest.(check bool) (what ^ ": same counts") true (counts = counts');
        check Alcotest.string (what ^ ": same files") md5 md5')
      [ 1; 4 ];
    (counts, contents)
  in
  let counts_p, contents_p = same_paths Pdb_harness.Stores.Pebblesdb in
  let counts_h, contents_h = same_paths Pdb_harness.Stores.Hyperleveldb in
  Alcotest.(check bool) "same counts on both engines" true
    (counts_p = counts_h);
  Alcotest.(check bool) "same contents on both engines" true
    (contents_p = contents_h)

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

(* A harness phase commits its puts as batches through client lanes:
   the shim still charges each one the application's write latency and,
   for HyperDex, its read-before-write. *)
let test_app_shim_on_lanes () =
  let store = small_store () in
  let config = Pdb_apps.App_shim.hyperdex in
  let app = Pdb_apps.App_shim.wrap config store in
  let records = 200 in
  let load = R.load app ~records ~value_bytes:64 ~seed:3 in
  check Alcotest.int "one get per put" records
    (store.Dyn.d_stats ()).Pdb_kvs.Engine_stats.gets;
  Alcotest.(check bool) "every put pays the app latency" true
    (load.R.run.P.elapsed_ns
    >= float_of_int records *. config.Pdb_apps.App_shim.write_latency_ns);
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
  check Alcotest.int "fill ops" 500 fill.P.ops;
  let reads = Pdb_harness.Bench_util.read_random store ~n:500 ~ops:200 ~seed:1 in
  Alcotest.(check bool) "read throughput positive" true
    (reads.P.kops > 0.0);
  let seeks = Pdb_harness.Bench_util.seek_random store ~n:500 ~ops:50 ~nexts:5 ~seed:1 in
  Alcotest.(check bool) "seek throughput positive" true
    (seeks.P.kops > 0.0);
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
  let probe =
    {
      Pdb_harness.Experiments.id = "probe";
      title = "probe";
      run =
        (fun () ->
          ran := true;
          Pdb_harness.Bench_util.lines []);
    }
  in
  let _, r = Pdb_harness.Experiments.run_ids ~extra:[ probe ] [ "probe"; "nope" ] in
  Alcotest.(check bool) "a list naming an unknown id is rejected" true
    (Result.is_error r);
  Alcotest.(check bool) "nothing ran before the rejection" false !ran

(* A run fails exactly when a report it returned holds a missed shape
   check; a report whose checks hold passes. *)
let test_missed_check_fails_run () =
  let module B = Pdb_harness.Bench_util in
  let run_with ok =
    let checked =
      {
        Pdb_harness.Experiments.id = "checked";
        title = "one shape check";
        run = (fun () -> B.lines [ B.Check (ok, "shape") ]);
      }
    in
    snd (Pdb_harness.Experiments.run_ids ~extra:[ checked ] [ "checked" ])
  in
  Alcotest.(check bool) "a held check passes" true (Result.is_ok (run_with true));
  Alcotest.(check bool) "a missed check fails" true
    (Result.is_error (run_with false))

(* The renderer's text for a small report, pinned: aligned columns, two
   spaces after every cell, then the indented lines. *)
let test_render_pinned () =
  let module B = Pdb_harness.Bench_util in
  let report =
    B.concat
      [
        B.table ~title:"Sample" ~header:[ "store"; "KOps/s"; "share" ]
          [
            [ B.Text "pebblesdb"; B.num 2 12.5; B.pct 41.6 ];
            [ B.Text "leveldb"; B.ratio 1.5; B.int 7 ];
          ];
        B.lines [ B.Note "a note"; B.Check (false, "a check [missed]") ];
      ]
  in
  Alcotest.(check string) "rendered"
    "\n== Sample ==\n\
     store      KOps/s  share  \n\
     ---------  ------  -----  \n\
     pebblesdb  12.50   42%    \n\
     leveldb    1.50x   7      \n\
    \  a note\n\
    \  a check [missed]\n"
    (B.render report)

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
          Alcotest.test_case "key_of_record matches sprintf" `Quick
            test_key_of_record_matches_sprintf;
          Alcotest.test_case "load + C" `Quick test_load_then_read_workloads;
          Alcotest.test_case "D inserts grow" `Quick
            test_workload_d_inserts_grow_keyspace;
          Alcotest.test_case "E scans" `Quick test_workload_e_scans;
          Alcotest.test_case "F rmw" `Quick test_workload_f_rmw;
          Alcotest.test_case "serial and client paths run the same ops" `Quick
            test_serial_and_clients_same_ops;
        ] );
      ( "app-shims",
        [
          Alcotest.test_case "hyperdex read-before-write" `Quick
            test_hyperdex_read_before_write;
          Alcotest.test_case "mongodb plain writes" `Quick
            test_mongodb_no_read_before_write;
          Alcotest.test_case "app latency charged" `Quick
            test_app_latency_charged;
          Alcotest.test_case "app shim charges lane writes" `Quick
            test_app_shim_on_lanes;
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
          Alcotest.test_case "a missed shape check fails the run" `Quick
            test_missed_check_fails_run;
          Alcotest.test_case "report renders as pinned" `Quick
            test_render_pinned;
          Alcotest.test_case "CI smoke ids resolve" `Quick
            test_ci_smoke_ids_resolve;
        ] );
    ]
