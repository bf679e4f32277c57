(* Foreground concurrency and WAL group commit.

   The multi-client driver must be a pure *time* model: store state —
   every on-disk byte — is identical at any client count, groups form
   deterministically under a fixed seed, a crash between a group's WAL
   append and its sync never loses an acknowledged write, and WAL
   batches that fail to decode at recovery are counted, not silently
   skipped. *)

module Dyn = Pdb_kvs.Store_intf
module Env = Pdb_simio.Env
module Stores = Pdb_harness.Stores
module B = Pdb_harness.Bench_util
module Mc = Pdb_kvs.Multi_client
module Wal = Pdb_wal.Wal

let sync_tweak o =
  { o with Pdb_kvs.Options.wal_sync_writes = true }

(* sorted (name, contents) snapshot of every file in the env *)
let files_of env =
  Env.list env
  |> List.map (fun name ->
         (name, Env.read_all env name ~hint:Pdb_simio.Device.Sequential_read))
  |> List.sort compare

let all_entries (store : Dyn.dyn) =
  let it = store.Dyn.d_iterator () in
  it.Pdb_kvs.Iter.seek_to_first ();
  let acc = ref [] in
  while it.Pdb_kvs.Iter.valid () do
    acc := (it.Pdb_kvs.Iter.key (), it.Pdb_kvs.Iter.value ()) :: !acc;
    it.Pdb_kvs.Iter.next ()
  done;
  List.rev !acc

(* ---------- client-count invariance ---------- *)

(* fill serially (no [~clients]) or on client lanes; the lane-group
   result is [None] for the serial run *)
let run_fill ?clients engine =
  let env = Env.create () in
  let store = Stores.open_engine ~tweak:sync_tweak ~env engine in
  let p = B.fill_random ?clients store ~n:3_000 ~value_bytes:128 ~seed:7 in
  let entries = all_entries store in
  (env, store, entries, p.Pdb_kvs.Phase.lanes)

let test_state_invariance engine () =
  let env0, s0, entries0, _ = run_fill engine in
  let env1, s1, entries1, r1 = run_fill engine ~clients:1 in
  let env4, s4, entries4, r4 = run_fill engine ~clients:4 in
  let env8, s8, entries8, r8 = run_fill engine ~clients:8 in
  let r1 = Option.get r1 and r4 = Option.get r4 and r8 = Option.get r8 in
  Alcotest.(check int) "8-client run formed multi-batch groups" 8
    (int_of_float r8.Mc.avg_group_size);
  (* the lane scheduler and the engine must agree on how many commit
     groups formed — every group placed on a lane is one engine-side
     write_group call, and vice versa *)
  List.iter
    (fun (clients, (r : Mc.result)) ->
      Alcotest.(check int)
        (Printf.sprintf "lane groups = engine write groups at %dc" clients)
        r.Mc.write_groups r.Mc.lane_groups)
    [ (1, r1); (4, r4); (8, r8) ];
  Alcotest.(check bool) "iteration results identical serial vs 1c" true
    (entries0 = entries1);
  Alcotest.(check bool) "iteration results identical 1c vs 4c" true
    (entries1 = entries4);
  Alcotest.(check bool) "iteration results identical 1c vs 8c" true
    (entries1 = entries8);
  List.iter (fun s -> s.Dyn.d_close ()) [ s0; s1; s4; s8 ];
  let f1 = files_of env1 in
  List.iter
    (fun (run, fn) ->
      Alcotest.(check (list string))
        (Printf.sprintf "same file set at 1 client vs %s" run)
        (List.map fst f1) (List.map fst fn);
      List.iter2
        (fun (name, b1) (_, bn) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical at 1 client vs %s" name run)
            true (String.equal b1 bn))
        f1 fn)
    [ ("serial", files_of env0); ("4 clients", files_of env4);
      ("8 clients", files_of env8) ]

(* ---------- group-formation determinism ---------- *)

let test_determinism () =
  let once () =
    let env = Env.create () in
    let store = Stores.open_engine ~tweak:sync_tweak ~env Stores.Pebblesdb in
    let p =
      B.mixed ~clients:4 store ~n:2_000 ~ops:4_000 ~value_bytes:128 ~seed:11
    in
    let r = Option.get p.Pdb_kvs.Phase.lanes in
    store.Dyn.d_close ();
    r
  in
  let a = once () and b = once () in
  Alcotest.(check int) "groups" a.Mc.write_groups b.Mc.write_groups;
  Alcotest.(check int) "lane groups agree with engine groups"
    a.Mc.write_groups a.Mc.lane_groups;
  Alcotest.(check int) "grouped batches" a.Mc.grouped_batches
    b.Mc.grouped_batches;
  Alcotest.(check int) "syncs saved" a.Mc.syncs_saved b.Mc.syncs_saved;
  Alcotest.(check (float 0.0)) "elapsed" a.Mc.elapsed_ns b.Mc.elapsed_ns;
  Alcotest.(check bool) "per-client waits" true
    (a.Mc.client_wait_ns = b.Mc.client_wait_ns);
  Alcotest.(check bool) "groups formed" true (a.Mc.write_groups > 0);
  Alcotest.(check bool) "syncs amortised" true (a.Mc.syncs_saved > 0)

(* ---------- crash between a group's WAL append and its sync ---------- *)

(* With [wal_sync_writes], [write_group] must not return before the
   group's sync completes: sweeping a crash over every IO event of a
   run of groups, any group that was acknowledged (the call returned)
   must survive reopen, and recovered values always match what was
   written — even when the crash lands exactly on the group's sync,
   after its records hit the log. *)
let test_crash_mid_group engine () =
  let value i = Printf.sprintf "value-%04d" i in
  let group g =
    (* 4 one-put batches, as 4 clients would queue them *)
    List.init 4 (fun j ->
        let b = Pdb_kvs.Write_batch.create () in
        Pdb_kvs.Write_batch.put b (Printf.sprintf "key-%02d-%d" g j)
          (value ((g * 4) + j));
        b)
  in
  let sync_window_crashes = ref 0 in
  for crash_after = 1 to 60 do
    let env = Env.create () in
    let store = Stores.open_engine ~tweak:sync_tweak ~env engine in
    let plan =
      Env.Fault_plan.create ~seed:crash_after ~crash_after ()
    in
    Env.set_fault_plan env plan;
    let acked = ref [] in
    (try
       for g = 0 to 9 do
         store.Dyn.d_write_group (group g);
         acked := g :: !acked
       done;
       Env.clear_fault_plan env
     with Env.Injected_crash _ ->
       (match Env.Fault_plan.fired_at plan with
        | Some at when String.length at >= 5 && String.sub at 0 5 = "sync:" ->
          incr sync_window_crashes
        | _ -> ());
       Env.crash env);
    let store2 = Stores.open_engine ~tweak:sync_tweak ~env engine in
    List.iter
      (fun g ->
        List.iteri
          (fun j _ ->
            let k = Printf.sprintf "key-%02d-%d" g j in
            Alcotest.(check (option string))
              (Printf.sprintf "acked %s survives crash@%d" k crash_after)
              (Some (value ((g * 4) + j)))
              (store2.Dyn.d_get k))
          (group g))
      !acked;
    (* unacked writes may or may not have survived, but any recovered
       value must be the one that was written *)
    List.iter
      (fun (k, v) ->
        if String.length k >= 4 && String.sub k 0 4 = "key-" then begin
          let g = int_of_string (String.sub k 4 2) in
          let j = int_of_string (String.sub k 7 1) in
          Alcotest.(check string)
            (Printf.sprintf "recovered %s consistent crash@%d" k crash_after)
            (value ((g * 4) + j))
            v
        end)
      (all_entries store2);
    store2.Dyn.d_close ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sweep hit the append-to-sync window (%d times)"
       !sync_window_crashes)
    true (!sync_window_crashes > 0)

(* ---------- undecodable WAL batches are counted ---------- *)

let test_wal_rejection engine () =
  let env = Env.create () in
  let store = Stores.open_engine ~env engine in
  store.Dyn.d_put "a" "keep-me";
  store.Dyn.d_close ();
  (* append one well-framed WAL record whose payload is not a decodable
     batch (13 bytes: seq + count present, first tag invalid) *)
  let log =
    Env.list env
    |> List.filter (fun n -> Filename.check_suffix n ".log")
    |> List.sort compare |> List.rev |> List.hd
  in
  let bytes = Env.read_all env log ~hint:Pdb_simio.Device.Sequential_read in
  let w = Env.create_file env log in
  Env.append w bytes;
  let wal = Wal.Writer.of_writer w ~existing_bytes:(String.length bytes) in
  Wal.Writer.add_record wal "0123456789012";
  Wal.Writer.sync wal;
  Wal.Writer.close wal;
  let store2 = Stores.open_engine ~env engine in
  let st = store2.Dyn.d_stats () in
  Alcotest.(check int) "rejected batch counted" 1
    st.Pdb_kvs.Engine_stats.wal_batches_rejected;
  Alcotest.(check bool) "rejected bytes reported" true
    (st.Pdb_kvs.Engine_stats.wal_bytes_dropped >= 13);
  Alcotest.(check (option string)) "good record still recovered"
    (Some "keep-me") (store2.Dyn.d_get "a");
  store2.Dyn.d_close ()

(* ---------- block size-estimate (satellite) ---------- *)

let test_block_estimate () =
  let open Pdb_sstable.Block in
  let b = Builder.create () in
  for i = 0 to 99 do
    (* spans several restart points at any restart_interval *)
    Builder.add b (Printf.sprintf "key%06d" i) (String.make 20 'v');
    let est = Builder.current_size_estimate b in
    Alcotest.(check bool)
      (Printf.sprintf "estimate positive after %d adds" (i + 1))
      true (est > 0)
  done;
  let est = Builder.current_size_estimate b in
  let finished = Builder.finish b in
  Alcotest.(check int) "estimate equals finished size" (String.length finished)
    est

let () =
  Alcotest.run "group-commit"
    [
      ( "invariance",
        [
          Alcotest.test_case "leveldb state invariant" `Quick
            (test_state_invariance Stores.Leveldb);
          Alcotest.test_case "pebblesdb state invariant" `Quick
            (test_state_invariance Stores.Pebblesdb);
          Alcotest.test_case "group formation deterministic" `Quick
            test_determinism;
        ] );
      ( "durability",
        [
          Alcotest.test_case "leveldb crash mid-group" `Slow
            (test_crash_mid_group Stores.Leveldb);
          Alcotest.test_case "pebblesdb crash mid-group" `Slow
            (test_crash_mid_group Stores.Pebblesdb);
          Alcotest.test_case "leveldb WAL rejection counted" `Quick
            (test_wal_rejection Stores.Leveldb);
          Alcotest.test_case "pebblesdb WAL rejection counted" `Quick
            (test_wal_rejection Stores.Pebblesdb);
        ] );
      ( "block",
        [ Alcotest.test_case "size estimate exact" `Quick test_block_estimate ]
      );
    ]
