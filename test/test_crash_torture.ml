(* Recovery torture: seeded crash-point sweeps per engine, checked against
   an in-memory oracle (see Pdb_harness.Crash_torture). *)

module Torture = Pdb_harness.Crash_torture
module Stores = Pdb_harness.Stores
module Env = Pdb_simio.Env

let seed =
  match Sys.getenv_opt "TORTURE_SEED" with
  | Some s -> int_of_string s
  | None -> 0xFA17

(* A write-through page store (kyotocabinet-sim) keeps no log: each
   update is durable when it returns and recovery writes nothing, so its
   sweeps neither tear unsynced data nor crash during recovery. *)
let logged engine = engine <> Stores.Btree

let check_engine engine () =
  let r = Torture.run ~seed engine in
  (match r.Torture.failures with
   | [] -> ()
   | fs ->
     List.iter
       (fun (point, msg) ->
         Printf.printf "[%s crash@%d] %s\n" r.Torture.engine point msg)
       fs);
  Alcotest.(check (list (pair int string)))
    "oracle-consistent recovery at every crash point" [] r.Torture.failures;
  Alcotest.(check bool)
    (Printf.sprintf "sweeps >= 50 crash points (got %d)" r.Torture.crash_points)
    true
    (r.Torture.crash_points >= 50);
  if logged engine then begin
    Alcotest.(check bool) "some crashes tore unsynced data" true
      (r.Torture.torn_crashes > 0);
    Alcotest.(check bool) "some points double-crashed during recovery" true
      (r.Torture.double_crashes > 0)
  end

(* The same sweep against the range-partitioned store: crash points land
   inside one shard's flush/compaction/WAL rotation (the other shards
   idle), and whole-store recovery — including crash-during-recovery
   points — must still match the oracle. *)
let check_sharded engine () =
  let r = Torture.run ~seed ~shards:4 ~max_points:48 engine in
  (match r.Torture.failures with
   | [] -> ()
   | fs ->
     List.iter
       (fun (point, msg) ->
         Printf.printf "[%s crash@%d] %s\n" r.Torture.engine point msg)
       fs);
  Alcotest.(check (list (pair int string)))
    "oracle-consistent sharded recovery at every crash point" []
    r.Torture.failures;
  Alcotest.(check bool)
    (Printf.sprintf "sweeps >= 30 crash points (got %d)" r.Torture.crash_points)
    true
    (r.Torture.crash_points >= 30);
  if logged engine then
    Alcotest.(check bool) "some points double-crashed during recovery" true
      (r.Torture.double_crashes > 0)

(* Migration torture: the sweep's trace live-splits, merges and migrates
   shards at scheduled op indices, so crash points land inside every
   phase of a migration — fence, copy jobs, the durable topology
   install, the post-install clean — and inside recovery itself.  Data
   must recover to the oracle and the topology must land wholly old or
   wholly new. *)
let check_elastic engine () =
  let r = Torture.run_elastic ~seed engine in
  (match r.Torture.failures with
   | [] -> ()
   | fs ->
     List.iter
       (fun (point, msg) ->
         Printf.printf "[%s crash@%d] %s\n" r.Torture.engine point msg)
       fs);
  Alcotest.(check (list (pair int string)))
    "oracle-consistent elastic recovery at every crash point" []
    r.Torture.failures;
  Alcotest.(check bool)
    (Printf.sprintf "sweeps >= 50 crash points (got %d)" r.Torture.crash_points)
    true
    (r.Torture.crash_points >= 50);
  if logged engine then
    Alcotest.(check bool) "some points double-crashed during recovery" true
      (r.Torture.double_crashes > 0)

(* The same sweep under a non-default compaction policy: tiered levels'
   stacked runs and whole-level merges (and the lazy-leveled hybrid) must
   recover through the same MANIFEST/WAL machinery. *)
let check_policy policy engine () =
  let r = Torture.run ~seed ~policy ~max_points:48 engine in
  (match r.Torture.failures with
   | [] -> ()
   | fs ->
     List.iter
       (fun (point, msg) ->
         Printf.printf "[%s crash@%d] %s\n" r.Torture.engine point msg)
       fs);
  Alcotest.(check (list (pair int string)))
    "oracle-consistent recovery at every crash point" [] r.Torture.failures;
  Alcotest.(check bool)
    (Printf.sprintf "sweeps >= 30 crash points (got %d)" r.Torture.crash_points)
    true
    (r.Torture.crash_points >= 30)

let test_background_crashes_covered () =
  (* across the paper's LSM and FLSM engines the sweep must hit crash
     points inside background flush/compaction jobs *)
  let total =
    List.fold_left
      (fun acc engine ->
        let r = Torture.run ~seed ~max_points:32 engine in
        Alcotest.(check (list (pair int string)))
          (r.Torture.engine ^ " recovery consistent")
          [] r.Torture.failures;
        acc + r.Torture.background_crashes)
      0
      [ Stores.Leveldb; Stores.Pebblesdb ]
  in
  Alcotest.(check bool) "background crash points reached" true (total > 0)

(* A table's blocks are staged and reach the device in 64 KB writes, but
   each lands in the file, and ticks the fault plan, as it is appended.
   A crash at every append of the first flushed table (a few KB: before
   its first 64 KB write and before its sync) recovers to the oracle. *)
let test_crash_between_staged_blocks () =
  let tweak (o : Pdb_kvs.Options.t) =
    {
      o with
      Pdb_kvs.Options.memtable_bytes = 8 * 1024;
      block_bytes = 512;
      wal_sync_writes = true;
    }
  in
  let keyspace = 48 in
  let trace =
    List.init 150 (fun i ->
        Torture.Put (Torture.key (i mod keyspace), Printf.sprintf "v%04d-%s" i
          (String.make 80 'x')))
  in
  (* the trace up to the [n]th IO event, where the crash fired, the
     crashing file's size, the acked ops and the op in flight *)
  let crash_at n =
    let env = Env.create () in
    let plan = Env.Fault_plan.create ~seed:n ~crash_after:n () in
    Env.set_fault_plan env plan;
    let oracle = Hashtbl.create 64 in
    let in_flight =
      match Stores.open_engine ~tweak ~env Stores.Pebblesdb with
      | db -> Torture.run_trace db oracle trace
      | exception Env.Injected_crash _ -> None
    in
    let at = Option.value ~default:"" (Env.Fault_plan.fired_at plan) in
    let file = String.sub at 7 (max 0 (String.length at - 7)) in
    let size = if Env.exists env file then Env.file_size env file else 0 in
    (env, at, size, oracle, in_flight)
  in
  let is_sst_append at =
    String.starts_with ~prefix:"append:" at && Filename.check_suffix at ".sst"
  in
  let rec first n =
    let _, at, _, _, _ = crash_at n in
    if is_sst_append at then n
    else if at = "" then Alcotest.fail "the trace appended no table"
    else first (n + 1)
  in
  let rec sweep n crashes =
    let env, at, size, oracle, in_flight = crash_at n in
    if not (is_sst_append at) then crashes
    else begin
      Alcotest.(check bool) (at ^ ": under one 64 KB write") true
        (size < Pdb_kvs.Options.io_coalesce_bytes);
      Env.crash env;
      let db = Stores.open_engine ~tweak ~env Stores.Pebblesdb in
      Alcotest.(check (list string)) (at ^ ": recovers to the oracle") []
        (Torture.verify db oracle in_flight ~keyspace);
      db.Pdb_kvs.Store_intf.d_close ();
      sweep (n + 1) (crashes + 1)
    end
  in
  Alcotest.(check bool) "crashed between several blocks" true
    (sweep (first 1) 0 > 4)

(* A PebblesDB flush commits its table, its new log and the guards of
   still-empty levels in one MANIFEST record.  A crash right after that
   record is appended (before its sync), right after its sync, and at the
   next event (the old log's deletion) recovers to the oracle; a synced
   record comes back whole, guards included. *)
let test_crash_around_flush_record () =
  let tweak (o : Pdb_kvs.Options.t) =
    {
      o with
      Pdb_kvs.Options.memtable_bytes = 2048;
      wal_sync_writes = true;
      top_level_bits = 7;
      bit_decrement = 1;
      max_levels = 5;
    }
  in
  let keyspace = 400 in
  let trace =
    List.init keyspace (fun i ->
        let k = Torture.key (i * 7 mod keyspace) in
        Torture.Put (k, Printf.sprintf "v%04d-%s" i k))
  in
  let crash_at n =
    let env = Env.create () in
    let plan = Env.Fault_plan.create ~seed:n ~crash_after:n () in
    Env.set_fault_plan env plan;
    let oracle = Hashtbl.create 64 in
    let in_flight =
      match Stores.open_engine ~tweak ~env Stores.Pebblesdb with
      | db -> Torture.run_trace db oracle trace
      | exception Env.Injected_crash _ -> None
    in
    let at = Option.value ~default:"" (Env.Fault_plan.fired_at plan) in
    (env, plan, at, oracle, in_flight)
  in
  (* a foreground append or sync of the MANIFEST once the store is open:
     a flush's record (the label names the installed MANIFEST) *)
  let flush_record plan at op =
    (not (Env.Fault_plan.fired_in_background plan))
    && String.starts_with ~prefix:(op ^ ":db/MANIFEST-") at
  in
  let recover n =
    let env, _, at, oracle, in_flight = crash_at n in
    Env.crash env;
    let last =
      match Pdb_manifest.Manifest.recover env ~dir:"db" with
      | Some (_, edits) -> List.nth_opt (List.rev edits) 0
      | None -> None
    in
    let db = Stores.open_engine ~tweak ~env Stores.Pebblesdb in
    Alcotest.(check (list string)) (at ^ ": recovers to the oracle") []
      (Torture.verify db oracle in_flight ~keyspace);
    db.Pdb_kvs.Store_intf.d_close ();
    last
  in
  (* walk the events of the first flushes, crashing around each record *)
  let rec walk n ~records ~guarded =
    let _, plan, at, _, _ = crash_at n in
    if at = "" || records = 4 then (records, guarded)
    else if flush_record plan at "append" then begin
      ignore (recover n);
      walk (n + 1) ~records ~guarded
    end
    else if flush_record plan at "sync" then begin
      let guarded =
        match recover n with
        | Some e ->
          Alcotest.(check bool) (at ^ ": the synced record names the log")
            true (e.Pdb_manifest.Manifest.log_number <> None);
          guarded || e.Pdb_manifest.Manifest.added_guards <> []
        | None -> Alcotest.fail (at ^ ": no MANIFEST after a synced record")
      in
      ignore (recover (n + 1));
      walk (n + 2) ~records:(records + 1) ~guarded
    end
    else walk (n + 1) ~records ~guarded
  in
  (* the open's own MANIFEST install ends with the CURRENT rename *)
  let rec opened n =
    let _, _, at, _, _ = crash_at n in
    if at = "rename:db/CURRENT" then n else opened (n + 1)
  in
  let records, guarded = walk (opened 1 + 1) ~records:0 ~guarded:false in
  Alcotest.(check int) "crashed around four flush records" 4 records;
  Alcotest.(check bool) "a flush record carried guards" true guarded

let test_recovery_report_surfaces () =
  (* an unsynced WAL tail lost to a crash shows up in the reopened
     engine's stats rather than vanishing silently *)
  let env = Env.create () in
  let tweak o =
    { o with Pdb_kvs.Options.wal_sync_writes = false; memtable_bytes = 1 lsl 20 }
  in
  let db = Stores.open_engine ~tweak ~env Stores.Leveldb in
  let module Dyn = Pdb_kvs.Store_intf in
  for i = 0 to 9 do
    db.Dyn.d_put (Printf.sprintf "k%d" i) "synced"
  done;
  db.Dyn.d_flush ();
  (* flush rotates the WAL; these land in the new log, unsynced *)
  for i = 0 to 9 do
    db.Dyn.d_put (Printf.sprintf "u%d" i) "unsynced"
  done;
  (* tear the unsynced tail: keep a 4 KB-granular prefix, garble the rest *)
  Env.set_fault_plan env
    (Env.Fault_plan.create ~seed:3 ~garbage_tail_prob:1.0 ~crash_after:max_int
       ());
  Env.crash env;
  let db2 = Stores.open_engine ~tweak ~env Stores.Leveldb in
  let stats = db2.Dyn.d_stats () in
  Alcotest.(check bool) "dropped WAL bytes reported" true
    (stats.Pdb_kvs.Engine_stats.wal_bytes_dropped > 0
     || stats.Pdb_kvs.Engine_stats.wal_records_recovered = 0);
  (* synced data is still all there *)
  for i = 0 to 9 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%d survives" i)
      (Some "synced")
      (db2.Dyn.d_get (Printf.sprintf "k%d" i))
  done;
  db2.Dyn.d_close ()

let () =
  Alcotest.run "crash-torture"
    [
      ( "sweep",
        [
          Alcotest.test_case "leveldb" `Slow (check_engine Stores.Leveldb);
          Alcotest.test_case "pebblesdb" `Slow (check_engine Stores.Pebblesdb);
          Alcotest.test_case "wiredtiger" `Slow
            (check_engine Stores.Wiredtiger);
          Alcotest.test_case "kyotocabinet-sim" `Slow
            (check_engine Stores.Btree);
        ] );
      ( "sharded sweep",
        [
          Alcotest.test_case "leveldb x4 shards" `Slow
            (check_sharded Stores.Leveldb);
          Alcotest.test_case "pebblesdb x4 shards" `Slow
            (check_sharded Stores.Pebblesdb);
          Alcotest.test_case "kyotocabinet-sim x4 shards" `Slow
            (check_sharded Stores.Btree);
        ] );
      ( "migration sweep",
        [
          Alcotest.test_case "leveldb elastic" `Slow
            (check_elastic Stores.Leveldb);
          Alcotest.test_case "pebblesdb elastic" `Slow
            (check_elastic Stores.Pebblesdb);
          Alcotest.test_case "kyotocabinet-sim elastic" `Slow
            (check_elastic Stores.Btree);
        ] );
      ( "policy sweep",
        [
          Alcotest.test_case "hyperleveldb tiered" `Slow
            (check_policy Pdb_kvs.Options.Tiered Stores.Hyperleveldb);
          Alcotest.test_case "hyperleveldb lazy_leveled" `Slow
            (check_policy Pdb_kvs.Options.Lazy_leveled Stores.Hyperleveldb);
        ] );
      ( "schedules",
        [
          Alcotest.test_case "background jobs crashed" `Slow
            test_background_crashes_covered;
          Alcotest.test_case "crash between staged blocks" `Quick
            test_crash_between_staged_blocks;
          Alcotest.test_case "crash around a flush record" `Quick
            test_crash_around_flush_record;
          Alcotest.test_case "recovery report surfaces" `Quick
            test_recovery_report_surfaces;
        ] );
    ]
