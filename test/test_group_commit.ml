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

(* fill on [clients] client lanes *)
let run_fill ~clients engine =
  let env = Env.create () in
  let store = Stores.open_engine ~tweak:sync_tweak ~env engine in
  let p = B.fill_random ~clients store ~n:3_000 ~value_bytes:128 ~seed:7 in
  let entries = all_entries store in
  (env, store, entries, p.Pdb_kvs.Phase.lanes)

(* the same fill's draw, driven on one lane in ten slices, as the stall
   profile and the stability windows drive it *)
let run_sliced_fill engine =
  let env = Env.create () in
  let store = Stores.open_engine ~tweak:sync_tweak ~env engine in
  let draw = B.random_puts ~n:3_000 ~value_bytes:128 ~seed:7 in
  for _ = 1 to 10 do
    ignore (Pdb_kvs.Phase.drive store ~n:300 draw)
  done;
  (env, store, all_entries store)

let test_state_invariance engine () =
  let env1, s1, entries1, r1 = run_fill engine ~clients:1 in
  let env4, s4, entries4, r4 = run_fill engine ~clients:4 in
  let env8, s8, entries8, r8 = run_fill engine ~clients:8 in
  let env_sl, s_sl, entries_sl = run_sliced_fill engine in
  Alcotest.(check int) "8-client run formed multi-batch groups" 8
    (int_of_float r8.Mc.avg_group_size);
  (* the lane scheduler and the engine must agree on how many commit
     groups formed — every group placed on a lane is one engine-side
     write_group call, and vice versa *)
  List.iter
    (fun (clients, (r : Mc.result), (s : Dyn.dyn)) ->
      Alcotest.(check int)
        (Printf.sprintf "lane groups = engine write groups at %dc" clients)
        r.Mc.write_groups r.Mc.lane_groups;
      (* a put committed through a group counts like a solo put *)
      Alcotest.(check int)
        (Printf.sprintf "puts counted at %dc" clients)
        3_000 (s.Dyn.d_stats ()).Pdb_kvs.Engine_stats.puts)
    [ (1, r1, s1); (4, r4, s4); (8, r8, s8) ];
  Alcotest.(check bool) "iteration results identical 1c vs 4c" true
    (entries1 = entries4);
  Alcotest.(check bool) "iteration results identical 1c vs 8c" true
    (entries1 = entries8);
  Alcotest.(check bool) "iteration results identical 1c vs sliced" true
    (entries1 = entries_sl);
  List.iter (fun s -> s.Dyn.d_close ()) [ s1; s4; s8; s_sl ];
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
    [ ("4 clients", files_of env4); ("8 clients", files_of env8);
      ("1-client slices", files_of env_sl) ]

(* ---------- group-formation determinism ---------- *)

let test_determinism () =
  let once () =
    let env = Env.create () in
    let store = Stores.open_engine ~tweak:sync_tweak ~env Stores.Pebblesdb in
    let p =
      B.mixed ~clients:4 store ~n:2_000 ~ops:4_000 ~value_bytes:128 ~seed:11
    in
    let r = p.Pdb_kvs.Phase.lanes in
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

(* ---------- bounded lookahead ---------- *)

(* [Phase.drive ~clients:c] pulls ops as the lanes reach them: when an
   op or a commit group starts executing, at most [c] ops beyond those
   already executed have been drawn.  Groups of [c] writes form, so the
   bound is reached. *)
let test_draw_lookahead () =
  List.iter
    (fun clients ->
      let store = Stores.open_engine Stores.Pebblesdb in
      let drawn = ref 0 and executed = ref 0 and ahead = ref 0 in
      let start k =
        ahead := max !ahead (!drawn - !executed);
        executed := !executed + k
      in
      let watched =
        {
          store with
          Dyn.d_get =
            (fun key ->
              start 1;
              store.Dyn.d_get key);
          d_write_group =
            (fun batches ->
              start (List.length batches);
              store.Dyn.d_write_group batches);
        }
      in
      let rng = Pdb_util.Rng.create 3 in
      ignore
        (Pdb_kvs.Phase.drive ~clients watched ~n:2_000 (fun () ->
             incr drawn;
             let key = B.key_of (Pdb_util.Rng.int rng 500) in
             if Pdb_util.Rng.int rng 3 = 0 then Pdb_kvs.Phase.Get key
             else Pdb_kvs.Phase.Put (key, "v")));
      store.Dyn.d_close ();
      Alcotest.(check int)
        (Printf.sprintf "every op executed at %dc" clients)
        2_000 !executed;
      Alcotest.(check int)
        (Printf.sprintf "most ops drawn ahead at %dc" clients)
        clients !ahead)
    [ 1; 4 ]

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

(* ---------- the write path's allocation and WAL bytes ---------- *)

module P = Pebblesdb.Pebbles_store
module Wb = Pdb_kvs.Write_batch

let pebbles ~memtable_bytes env =
  P.open_store
    { (Pdb_kvs.Options.pebblesdb ()) with Pdb_kvs.Options.memtable_bytes }
    ~env ~dir:"db"

(* the store's one live log *)
let live_log env =
  let is_log n = Filename.check_suffix n ".log" in
  match List.filter is_log (Env.list env) with
  | [ log ] -> log
  | logs -> Alcotest.failf "expected one live log, found %d" (List.length logs)

(* Words allocated straight into the major heap: strings over 256 words
   (a 4 KB value) skip the minor heap. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Once a store's batch scratch and WAL staging buffer have grown, a put of
   a 4 KB value allocates nothing in the major heap beyond the log chunk
   its bytes land in: a copy of the value would be a second 4 KB string
   there. *)
let test_put_allocation () =
  let env = Env.create () in
  let db = pebbles ~memtable_bytes:(1 lsl 20) env in
  let value = String.make 4096 'v' in
  for i = 0 to 9 do
    P.put db (Printf.sprintf "warm%04d" i) value
  done;
  (* a rotation: the next puts write a fresh log through the same buffers *)
  P.flush db;
  let log = live_log env in
  let puts = 50 in
  let keys = Array.init puts (Printf.sprintf "key%04d") in
  let size0 = Env.file_size env log in
  let flushes0 = (P.stats db).Pdb_kvs.Engine_stats.flushes in
  let before = direct_major_words () in
  Array.iter (fun k -> P.put db k value) keys;
  let words = direct_major_words () -. before in
  Alcotest.(check int) "no flush among the puts" flushes0
    (P.stats db).Pdb_kvs.Engine_stats.flushes;
  (* each put appends at most one fresh chunk: its bytes, a header word
     and a word of padding *)
  let chunk_words = ((Env.file_size env log - size0) / 8) + (2 * puts) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f direct major words within %d of log chunks" words
       chunk_words)
    true
    (words <= float_of_int chunk_words);
  P.close db

let batch ops =
  let b = Wb.create () in
  List.iter
    (function
      | `Put (k, n) ->
        Wb.put b k (String.init n (fun i -> Char.chr (i land 0xff)))
      | `Del k -> Wb.delete b k)
    ops;
  b

(* The log [batches] make when each is encoded and added alone, the first
   at sequence number [seq]; empty batches write nothing. *)
let reference_log ~seq batches =
  let env = Env.create () in
  let w = Wal.Writer.create env "ref.log" in
  ignore
    (List.fold_left
       (fun seq b ->
         if Wb.count b > 0 then
           Wal.Writer.add_record w (Wb.encode b ~base_seq:seq);
         seq + Wb.count b)
       seq batches);
  Env.read_all env "ref.log" ~hint:Pdb_simio.Device.Sequential_read

let log_bytes env =
  Env.read_all env (live_log env) ~hint:Pdb_simio.Device.Sequential_read

(* A group's WAL bytes are its batches encoded and added one by one:
   records that cross a 32 KB block, an empty batch, and a flush in the
   middle of the group, after which the rest of the group starts the
   fresh log. *)
let test_group_log_bytes () =
  let big = 40 * 1024 in
  let env = Env.create () in
  let db = pebbles ~memtable_bytes:(64 * 1024) env in
  let group =
    [ batch [ `Put ("a", 100) ];
      batch [ `Put ("b", big) ];
      batch [];
      batch [ `Put ("c", 10); `Del "a"; `Put ("d", 3_000) ] ]
  in
  P.write_group db group;
  Alcotest.(check bool) "group log = batches added alone" true
    (String.equal (reference_log ~seq:1 group) (log_bytes env));
  let env = Env.create () in
  let db = pebbles ~memtable_bytes:(64 * 1024) env in
  let before_flush = [ batch [ `Put ("a", big) ]; batch [ `Put ("b", big) ] ] in
  let after_flush =
    [ batch []; batch [ `Put ("c", 100); `Put ("d", 200) ];
      batch [ `Put ("e", big) ]; batch [ `Del "a" ] ]
  in
  P.write_group db (before_flush @ after_flush);
  Alcotest.(check int) "one flush inside the group" 1
    (P.stats db).Pdb_kvs.Engine_stats.flushes;
  Alcotest.(check bool) "fresh log = the batches after the flush" true
    (String.equal (reference_log ~seq:3 after_flush) (log_bytes env));
  Alcotest.(check (option int)) "a batch before the flush reads back"
    (Some big) (Option.map String.length (P.get db "b"));
  Alcotest.(check (option string)) "the group's last batch applied" None
    (P.get db "a")

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
          Alcotest.test_case "draws at most clients ops ahead" `Quick
            test_draw_lookahead;
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
      ( "write-path",
        [
          Alcotest.test_case "a put allocates only its log chunk" `Quick
            test_put_allocation;
          Alcotest.test_case "group log bytes = batches added alone" `Quick
            test_group_log_bytes;
        ] );
      ( "block",
        [ Alcotest.test_case "size estimate exact" `Quick test_block_estimate ]
      );
    ]
