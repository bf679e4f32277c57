(* Replication: primary determinism, backup convergence, the ack
   contract, failover torture and net-trace visibility (see
   Pdb_repl.Repl_store and Harness.Crash_torture.run_failover). *)

module Fingerprint = Pdb_simio.Fingerprint
module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats
module Env = Pdb_simio.Env
module Trace = Pdb_simio.Trace
module Stores = Pdb_harness.Stores
module Torture = Pdb_harness.Crash_torture

let seed =
  match Sys.getenv_opt "TORTURE_SEED" with
  | Some s -> int_of_string s
  | None -> 0xFA17

let tweak ?(replicas = 0) ?(strategy = O.Log_shipping) (o : O.t) =
  {
    o with
    O.memtable_bytes = 4096;
    wal_sync_writes = true;
    replicas;
    repl_strategy = strategy;
  }

(* A small mixed workload that crosses flush and compaction machinery:
   overwrites, deletes, explicit flush, full compaction, more writes. *)
let run_workload (db : Dyn.dyn) =
  for i = 0 to 299 do
    db.Dyn.d_put
      (Printf.sprintf "key%04d" (i * 7919 mod 120))
      (Printf.sprintf "value-%05d" i)
  done;
  for i = 0 to 19 do
    db.Dyn.d_delete (Printf.sprintf "key%04d" (i * 6))
  done;
  db.Dyn.d_flush ();
  db.Dyn.d_compact_all ();
  for i = 300 to 399 do
    db.Dyn.d_put
      (Printf.sprintf "key%04d" (i * 7919 mod 120))
      (Printf.sprintf "value-%05d" i)
  done

let fingerprint = Fingerprint.files

let entries_of_dyn (db : Dyn.dyn) =
  let it = db.Dyn.d_iterator () in
  let acc = ref [] in
  it.Pdb_kvs.Iter.seek_to_first ();
  while it.Pdb_kvs.Iter.valid () do
    acc := (it.Pdb_kvs.Iter.key (), it.Pdb_kvs.Iter.value ()) :: !acc;
    it.Pdb_kvs.Iter.next ()
  done;
  List.rev !acc

(* ---------- determinism: replication must not perturb the primary ---------- *)

(* The wrapper reads primary files only via uncharged peeks and does all
   mirror work on backup environments, so the primary's file set must be
   byte-identical whether it has 0, 1 or 2 backups. *)
let test_primary_determinism strategy engine () =
  let run replicas =
    let env = Env.create () in
    let db =
      Stores.open_engine ~tweak:(tweak ~replicas ~strategy) ~env engine
    in
    run_workload db;
    let fp = fingerprint env in
    db.Dyn.d_close ();
    fp
  in
  let fp0 = run 0 in
  Alcotest.(check (list (pair string string)))
    "K=1 primary files byte-identical to unreplicated" fp0 (run 1);
  Alcotest.(check (list (pair string string)))
    "K=2 primary files byte-identical to unreplicated" fp0 (run 2)

(* ---------- convergence: a drained backup equals the primary ---------- *)

let test_log_shipping_convergence engine () =
  let h = Stores.open_repl ~tweak:(tweak ~replicas:2 ~strategy:O.Log_shipping) engine in
  run_workload h.Stores.rh_dyn;
  (* flush is forwarded as a control message, draining both memtables *)
  h.Stores.rh_dyn.Dyn.d_flush ();
  let want = entries_of_dyn h.Stores.rh_dyn in
  Alcotest.(check bool) "workload left live keys" true (want <> []);
  for i = 0 to h.Stores.rh_replicas - 1 do
    let promoted = h.Stores.rh_promote i in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "backup %d replayed to the primary's state" i)
      want (entries_of_dyn promoted)
  done;
  let st = h.Stores.rh_dyn.Dyn.d_stats () in
  Alcotest.(check bool) "log bytes shipped" true
    (st.Stats.repl_log_bytes_shipped > 0);
  Alcotest.(check bool) "backups burned replay/compaction CPU" true
    (st.Stats.repl_backup_busy_ns > 0.0);
  h.Stores.rh_dyn.Dyn.d_close ()

let test_file_shipping_convergence engine () =
  let env = Env.create () in
  let h =
    Stores.open_repl ~tweak:(tweak ~replicas:1 ~strategy:O.File_shipping) ~env
      engine
  in
  run_workload h.Stores.rh_dyn;
  h.Stores.rh_dyn.Dyn.d_flush ();
  (* the mirror is a byte-identical copy of the primary's file set *)
  Alcotest.(check (list (pair string string)))
    "mirror file set byte-identical to primary" (fingerprint env)
    (fingerprint (h.Stores.rh_backup_env 0));
  let want = entries_of_dyn h.Stores.rh_dyn in
  let promoted = h.Stores.rh_promote 0 in
  Alcotest.(check (list (pair string string)))
    "promotion over the mirror recovers the primary's state" want
    (entries_of_dyn promoted);
  let st = h.Stores.rh_dyn.Dyn.d_stats () in
  Alcotest.(check bool) "file bytes shipped" true
    (st.Stats.repl_file_bytes_shipped > 0);
  Alcotest.(check (float 0.0)) "no backup compaction CPU under file shipping"
    0.0 st.Stats.repl_backup_busy_ns;
  h.Stores.rh_dyn.Dyn.d_close ()

(* The backups' busy time is the sum of their lanes' busy time, which
   each backup's own view reports as [worker_busy_ns]. *)
let test_backup_busy engine () =
  let h =
    Stores.open_repl ~tweak:(tweak ~replicas:2 ~strategy:O.Log_shipping) engine
  in
  run_workload h.Stores.rh_dyn;
  let lanes = ref 0.0 in
  for i = 0 to h.Stores.rh_replicas - 1 do
    let st = (h.Stores.rh_promote i).Dyn.d_stats () in
    lanes := !lanes +. Array.fold_left ( +. ) 0.0 st.Stats.worker_busy_ns
  done;
  let st = h.Stores.rh_dyn.Dyn.d_stats () in
  Alcotest.(check bool) "backups were busy" true (!lanes > 0.0);
  Alcotest.(check (float 0.0)) "backup busy time = backups' lane time" !lanes
    st.Stats.repl_backup_busy_ns;
  h.Stores.rh_dyn.Dyn.d_close ()

(* ---------- the ack contract, differentially vs an oracle ---------- *)

let test_ack_differential strategy engine () =
  let h = Stores.open_repl ~tweak:(tweak ~replicas:2 ~strategy) engine in
  let db = h.Stores.rh_dyn in
  let oracle = Hashtbl.create 64 in
  let rng = Pdb_util.Rng.create seed in
  for i = 0 to 499 do
    let k = Printf.sprintf "key%03d" (Pdb_util.Rng.int rng 80) in
    if Pdb_util.Rng.int rng 10 = 0 then begin
      db.Dyn.d_delete k;
      Hashtbl.remove oracle k
    end
    else begin
      let v = Printf.sprintf "v%06d" i in
      db.Dyn.d_put k v;
      Hashtbl.replace oracle k v
    end;
    if i mod 90 = 0 then db.Dyn.d_flush ()
  done;
  for i = 0 to 79 do
    let k = Printf.sprintf "key%03d" i in
    Alcotest.(check (option string))
      (k ^ " matches the oracle through replication")
      (Hashtbl.find_opt oracle k) (db.Dyn.d_get k)
  done;
  let st = db.Dyn.d_stats () in
  Alcotest.(check bool) "acked writes waited on the network" true
    (st.Stats.repl_ack_wait_ns > 0.0);
  Alcotest.(check bool) "messages flowed to both backups" true
    (st.Stats.repl_messages > 0);
  db.Dyn.d_close ()

(* ---------- failover torture ---------- *)

let check_failover strategy engine () =
  let r = Torture.run_failover ~seed ~strategy engine in
  (match r.Torture.failures with
   | [] -> ()
   | fs ->
     List.iter
       (fun (point, msg) ->
         Printf.printf "[%s crash@%d] %s\n" r.Torture.engine point msg)
       fs);
  Alcotest.(check (list (pair int string)))
    "acked writes survive promotion at every crash point" []
    r.Torture.failures;
  Alcotest.(check bool)
    (Printf.sprintf "sweeps >= 50 crash points (got %d)" r.Torture.crash_points)
    true
    (r.Torture.crash_points >= 50)

(* ---------- trace visibility ---------- *)

let test_net_spans_in_trace () =
  let env = Env.create () in
  let tr = Trace.create ~capacity:65536 () in
  Env.set_tracer env tr;
  let h =
    Stores.open_repl
      ~tweak:(tweak ~replicas:1 ~strategy:O.File_shipping)
      ~env Stores.Leveldb
  in
  run_workload h.Stores.rh_dyn;
  h.Stores.rh_dyn.Dyn.d_close ();
  let evs = Trace.events tr in
  let net_spans =
    List.filter (fun e -> e.Trace.cat = "net" && e.Trace.dur_ns > 0.0) evs
  in
  let compaction_spans =
    List.filter (fun e -> e.Trace.cat = "compaction") evs
  in
  Alcotest.(check bool) "net:* spans recorded" true (net_spans <> []);
  Alcotest.(check bool) "net spans live on net:link-<i> lanes" true
    (List.for_all
       (fun e ->
         String.length e.Trace.lane >= 9
         && String.sub e.Trace.lane 0 9 = "net:link-")
       net_spans);
  Alcotest.(check bool) "compaction spans coexist in the same trace" true
    (compaction_spans <> [])

let () =
  Alcotest.run "repl"
    [
      ( "determinism",
        [
          Alcotest.test_case "leveldb log-shipping primary untouched" `Quick
            (test_primary_determinism O.Log_shipping Stores.Leveldb);
          Alcotest.test_case "leveldb file-shipping primary untouched" `Quick
            (test_primary_determinism O.File_shipping Stores.Leveldb);
          Alcotest.test_case "pebblesdb log-shipping primary untouched" `Quick
            (test_primary_determinism O.Log_shipping Stores.Pebblesdb);
          Alcotest.test_case "pebblesdb file-shipping primary untouched" `Quick
            (test_primary_determinism O.File_shipping Stores.Pebblesdb);
        ] );
      ( "convergence",
        [
          Alcotest.test_case "leveldb log shipping" `Quick
            (test_log_shipping_convergence Stores.Leveldb);
          Alcotest.test_case "pebblesdb log shipping" `Quick
            (test_log_shipping_convergence Stores.Pebblesdb);
          Alcotest.test_case "leveldb file shipping" `Quick
            (test_file_shipping_convergence Stores.Leveldb);
          Alcotest.test_case "pebblesdb file shipping" `Quick
            (test_file_shipping_convergence Stores.Pebblesdb);
          Alcotest.test_case "leveldb backup busy time" `Quick
            (test_backup_busy Stores.Leveldb);
          Alcotest.test_case "pebblesdb backup busy time" `Quick
            (test_backup_busy Stores.Pebblesdb);
        ] );
      ( "ack contract",
        [
          Alcotest.test_case "leveldb log shipping" `Quick
            (test_ack_differential O.Log_shipping Stores.Leveldb);
          Alcotest.test_case "pebblesdb file shipping" `Quick
            (test_ack_differential O.File_shipping Stores.Pebblesdb);
        ] );
      ( "failover torture",
        [
          Alcotest.test_case "leveldb log shipping" `Slow
            (check_failover O.Log_shipping Stores.Leveldb);
          Alcotest.test_case "leveldb file shipping" `Slow
            (check_failover O.File_shipping Stores.Leveldb);
          Alcotest.test_case "pebblesdb log shipping" `Slow
            (check_failover O.Log_shipping Stores.Pebblesdb);
          Alcotest.test_case "pebblesdb file shipping" `Slow
            (check_failover O.File_shipping Stores.Pebblesdb);
        ] );
      ( "trace",
        [
          Alcotest.test_case "net spans alongside compaction lanes" `Quick
            test_net_spans_in_trace;
        ] );
    ]
