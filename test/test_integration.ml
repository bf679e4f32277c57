(* Cross-engine integration tests: every engine must agree on results for
   identical operation sequences; stores must survive crashes at random
   points; the experiment machinery must hold together end-to-end. *)

module Dyn = Pdb_kvs.Store_intf
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter
module P = Pebblesdb.Pebbles_store

let check = Alcotest.check

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let small_tweak (o : Pdb_kvs.Options.t) =
  { o with Pdb_kvs.Options.memtable_bytes = 4 * 1024 }

let all_engines =
  [
    Pdb_harness.Stores.Pebblesdb;
    Pdb_harness.Stores.Pebblesdb_one;
    Pdb_harness.Stores.Hyperleveldb;
    Pdb_harness.Stores.Leveldb;
    Pdb_harness.Stores.Rocksdb;
    Pdb_harness.Stores.Btree;
    Pdb_harness.Stores.Wiredtiger;
  ]

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d" i

(* Apply a deterministic op sequence, return final sorted contents. *)
let run_sequence engine ops =
  let store = Pdb_harness.Stores.open_engine ~tweak:small_tweak engine in
  List.iter
    (fun op ->
      match op with
      | `Put (k, v) -> store.Dyn.d_put k v
      | `Delete k -> store.Dyn.d_delete k)
    ops;
  let contents = Iter.to_list (store.Dyn.d_iterator ()) in
  store.Dyn.d_check_invariants ();
  store.Dyn.d_close ();
  contents

let make_ops seed n =
  let rng = Pdb_util.Rng.create seed in
  List.init n (fun i ->
      let k = key (Pdb_util.Rng.int rng 300) in
      if Pdb_util.Rng.int rng 10 < 2 then `Delete k
      else `Put (k, value i))

let test_engines_agree () =
  let ops = make_ops 77 2_000 in
  match List.map (fun e -> run_sequence e ops) all_engines with
  | [] -> ()
  | reference :: rest ->
    List.iteri
      (fun i contents ->
        check Alcotest.int
          (Printf.sprintf "engine %d same cardinality" i)
          (List.length reference) (List.length contents);
        Alcotest.(check bool)
          (Printf.sprintf "engine %d same contents" i)
          true (contents = reference))
      rest

let prop_engines_agree_random =
  qtest "all engines agree on random op sequences" ~count:5
    QCheck.(small_int)
    (fun seed ->
      let ops = make_ops seed 800 in
      match List.map (fun e -> run_sequence e ops) all_engines with
      | [] -> true
      | reference :: rest -> List.for_all (fun c -> c = reference) rest)

(* ---------- crash points ---------- *)

let test_pebbles_crash_at_random_points () =
  (* write in bursts with explicit flushes (sync points); crash at random
     moments; recovery must never lose synced data nor corrupt structure *)
  let rng = Pdb_util.Rng.create 123 in
  for round = 0 to 9 do
    let env = Env.create () in
    let opts =
      { (Pdb_kvs.Options.pebblesdb ()) with
        Pdb_kvs.Options.memtable_bytes = 4 * 1024 }
    in
    let db = P.open_store opts ~env ~dir:"db" in
    let durable = Hashtbl.create 64 in
    let bursts = 1 + Pdb_util.Rng.int rng 5 in
    for b = 0 to bursts - 1 do
      let burst = Hashtbl.create 16 in
      for i = 0 to 99 do
        let k = key ((b * 100) + i) in
        let v = value ((round * 10_000) + i) in
        P.put db k v;
        Hashtbl.replace burst k v
      done;
      (* flush makes the burst durable (sstables are synced) *)
      P.flush db;
      Hashtbl.iter (fun k v -> Hashtbl.replace durable k v) burst
    done;
    (* a trailing unsynced burst that may vanish *)
    for i = 0 to Pdb_util.Rng.int rng 100 do
      P.put db (key (9_000 + i)) "volatile"
    done;
    Env.crash env;
    let db2 = P.open_store opts ~env ~dir:"db" in
    P.check_invariants db2;
    Hashtbl.iter
      (fun k v ->
        check
          Alcotest.(option string)
          (Printf.sprintf "round %d durable %s" round k)
          (Some v) (P.get db2 k))
      durable;
    P.close db2
  done

let test_double_crash_recovery () =
  let env = Env.create () in
  let opts =
    { (Pdb_kvs.Options.pebblesdb ()) with
      Pdb_kvs.Options.memtable_bytes = 4 * 1024 }
  in
  let db = P.open_store opts ~env ~dir:"db" in
  for i = 0 to 499 do
    P.put db (key i) (value i)
  done;
  P.flush db;
  Env.crash env;
  let db2 = P.open_store opts ~env ~dir:"db" in
  for i = 500 to 699 do
    P.put db2 (key i) (value i)
  done;
  P.flush db2;
  Env.crash env;
  let db3 = P.open_store opts ~env ~dir:"db" in
  P.check_invariants db3;
  for i = 0 to 699 do
    check Alcotest.(option string) ("after two crashes " ^ key i)
      (Some (value i)) (P.get db3 (key i))
  done;
  P.close db3

(* ---------- aged environment ---------- *)

let test_store_on_aged_device () =
  let env = Env.create () in
  Pdb_simio.Device.set_aging (Env.device env) 3.0;
  let store =
    Pdb_harness.Stores.open_engine ~tweak:small_tweak ~env
      Pdb_harness.Stores.Pebblesdb
  in
  for i = 0 to 999 do
    store.Dyn.d_put (key i) (value i)
  done;
  for i = 0 to 999 do
    check Alcotest.(option string) "aged device readback" (Some (value i))
      (store.Dyn.d_get (key i))
  done;
  store.Dyn.d_check_invariants ();
  store.Dyn.d_close ()

(* ---------- pebbles-specific throughput invariants ---------- *)

let test_pebbles_beats_lsm_on_write_io_at_scale () =
  (* the headline FLSM property at a slightly larger scale: write IO of
     PebblesDB must be well below HyperLevelDB for identical inserts *)
  let n = 10_000 in
  let io_of engine =
    let store = Pdb_harness.Stores.open_engine engine in
    ignore
      (Pdb_harness.Bench_util.fill_random store ~n ~value_bytes:512 ~seed:5);
    store.Dyn.d_flush ();
    let io =
      (Env.stats store.Dyn.d_env).Pdb_simio.Io_stats.bytes_written
    in
    store.Dyn.d_close ();
    io
  in
  let pebbles = io_of Pdb_harness.Stores.Pebblesdb in
  let hyper = io_of Pdb_harness.Stores.Hyperleveldb in
  Alcotest.(check bool)
    (Printf.sprintf "pebbles %dMB <= 0.7 * hyper %dMB" (pebbles / 1048576)
       (hyper / 1048576))
    true
    (float_of_int pebbles <= 0.7 *. float_of_int hyper)

let test_ycsb_on_every_kv_engine () =
  List.iter
    (fun engine ->
      let store = Pdb_harness.Stores.open_engine ~tweak:small_tweak engine in
      let r1 = Pdb_ycsb.Runner.load store ~records:500 ~value_bytes:64 ~seed:3 in
      let r2 =
        Pdb_ycsb.Runner.run store Pdb_ycsb.Workload.workload_a ~records:500
          ~operations:500 ~value_bytes:64 ~seed:3
      in
      Alcotest.(check bool)
        ("ycsb sane on " ^ store.Dyn.d_name)
        true
        (r1.Pdb_ycsb.Runner.run.Pdb_kvs.Phase.kops > 0.0
         && r2.Pdb_ycsb.Runner.run.Pdb_kvs.Phase.kops > 0.0
         && r2.Pdb_ycsb.Runner.reads + r2.Pdb_ycsb.Runner.updates = 500);
      store.Dyn.d_check_invariants ();
      store.Dyn.d_close ())
    all_engines

(* ---------- repair ---------- *)

let test_repair_rebuilds_manifest () =
  let env = Env.create () in
  let opts =
    { (Pdb_kvs.Options.pebblesdb ()) with
      Pdb_kvs.Options.memtable_bytes = 4 * 1024 }
  in
  let db = P.open_store opts ~env ~dir:"db" in
  for i = 0 to 799 do
    P.put db (key i) (value i)
  done;
  P.flush db;
  P.close db;
  (* destroy the manifest and CURRENT *)
  List.iter
    (fun name ->
      if
        Filename.check_suffix name ".log"
        || String.length (Filename.basename name) >= 8
           && String.sub (Filename.basename name) 0 8 = "MANIFEST"
        || Filename.basename name = "CURRENT"
      then Env.delete env name)
    (Env.list env);
  Alcotest.(check bool) "manifest gone" true
    (Pdb_manifest.Manifest.recover env ~dir:"db" = None);
  let report = Pdb_manifest.Repair.repair env ~dir:"db" in
  Alcotest.(check bool) "tables recovered" true
    (report.Pdb_manifest.Repair.tables_recovered > 0);
  let db2 = P.open_store opts ~env ~dir:"db" in
  P.check_invariants db2;
  for i = 0 to 799 do
    check Alcotest.(option string) ("repaired " ^ key i) (Some (value i))
      (P.get db2 (key i))
  done;
  (* sequence numbers must not regress: a new overwrite wins *)
  P.put db2 (key 0) "overwritten-after-repair";
  check Alcotest.(option string) "new write wins" (Some "overwritten-after-repair")
    (P.get db2 (key 0));
  P.close db2

let test_repair_works_for_lsm_store_too () =
  let env = Env.create () in
  let opts =
    { (Pdb_kvs.Options.hyperleveldb ()) with
      Pdb_kvs.Options.memtable_bytes = 4 * 1024 }
  in
  let module L = Pdb_lsm.Lsm_store in
  let db = L.open_store opts ~env ~dir:"db" in
  for i = 0 to 499 do
    L.put db (key i) (value i)
  done;
  L.flush db;
  L.close db;
  List.iter
    (fun name ->
      if
        Filename.basename name = "CURRENT"
        || String.length (Filename.basename name) >= 8
           && String.sub (Filename.basename name) 0 8 = "MANIFEST"
      then Env.delete env name)
    (Env.list env);
  ignore (Pdb_manifest.Repair.repair env ~dir:"db");
  let db2 = L.open_store opts ~env ~dir:"db" in
  L.check_invariants db2;
  for i = 0 to 499 do
    check Alcotest.(option string) ("lsm repaired " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done;
  L.close db2

let () =
  Alcotest.run "integration"
    [
      ( "repair",
        [
          Alcotest.test_case "rebuilds manifest" `Quick
            test_repair_rebuilds_manifest;
          Alcotest.test_case "lsm store too" `Quick
            test_repair_works_for_lsm_store_too;
        ] );
      ( "cross-engine",
        [
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          prop_engines_agree_random;
          Alcotest.test_case "ycsb on every engine" `Quick
            test_ycsb_on_every_kv_engine;
        ] );
      ( "crash",
        [
          Alcotest.test_case "random crash points" `Quick
            test_pebbles_crash_at_random_points;
          Alcotest.test_case "double crash" `Quick test_double_crash_recovery;
        ] );
      ( "environment",
        [
          Alcotest.test_case "aged device" `Quick test_store_on_aged_device;
          Alcotest.test_case "write IO advantage" `Quick
            test_pebbles_beats_lsm_on_write_io_at_scale;
        ] );
    ]
