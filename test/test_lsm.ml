(* Tests for the baseline LSM engine. *)

module L = Pdb_lsm.Lsm_store
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter

let check = Alcotest.check

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Small store parameters so tests exercise flush + multi-level compaction
   with little data. *)
let tiny_opts () =
  {
    (O.hyperleveldb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
  }

let open_tiny ?(opts = tiny_opts ()) env = L.open_store opts ~env ~dir:"db"

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

let test_put_get () =
  let env = Env.create () in
  let db = open_tiny env in
  L.put db "a" "1";
  L.put db "b" "2";
  check Alcotest.(option string) "get a" (Some "1") (L.get db "a");
  check Alcotest.(option string) "get b" (Some "2") (L.get db "b");
  check Alcotest.(option string) "missing" None (L.get db "zz")

let test_overwrite () =
  let env = Env.create () in
  let db = open_tiny env in
  L.put db "k" "old";
  L.put db "k" "new";
  check Alcotest.(option string) "latest" (Some "new") (L.get db "k")

let test_delete () =
  let env = Env.create () in
  let db = open_tiny env in
  L.put db "k" "v";
  L.delete db "k";
  check Alcotest.(option string) "deleted" None (L.get db "k")

let test_get_after_flush () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  (* 200 * ~60B >> 2KB memtable: several flushes happened *)
  Alcotest.(check bool) "flushed" true
    ((L.stats db).Pdb_kvs.Engine_stats.flushes > 0);
  for i = 0 to 199 do
    check Alcotest.(option string) ("get " ^ key i) (Some (value i))
      (L.get db (key i))
  done;
  L.check_invariants db

let test_compaction_triggers_and_preserves_data () =
  let env = Env.create () in
  let db = open_tiny env in
  let n = 2000 in
  for i = 0 to n - 1 do
    L.put db (key (i * 7919 mod n)) (value i)
  done;
  Alcotest.(check bool) "compacted" true
    ((L.stats db).Pdb_kvs.Engine_stats.compactions > 0);
  L.check_invariants db;
  (* every key readable with its latest value *)
  let latest = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace latest (key (i * 7919 mod n)) (value i)
  done;
  Hashtbl.iter
    (fun k v -> check Alcotest.(option string) ("get " ^ k) (Some v) (L.get db k))
    latest

let test_overwrites_reclaimed_by_compaction () =
  let env = Env.create () in
  let db = open_tiny env in
  for round = 0 to 9 do
    for i = 0 to 99 do
      L.put db (key i) (value (round * 1000 + i))
    done
  done;
  L.compact_all db;
  (* after full compaction only one version of each key persists *)
  let metas = L.sstable_metas db in
  let entries =
    List.fold_left
      (fun acc (m : Pdb_sstable.Table.meta) -> acc + m.Pdb_sstable.Table.entries)
      0 metas
  in
  check Alcotest.int "one entry per live key" 100 entries

let test_tombstones_dropped_at_bottom () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 99 do
    L.put db (key i) (value i)
  done;
  for i = 0 to 99 do
    L.delete db (key i)
  done;
  L.compact_all db;
  let metas = L.sstable_metas db in
  let entries =
    List.fold_left
      (fun acc (m : Pdb_sstable.Table.meta) -> acc + m.Pdb_sstable.Table.entries)
      0 metas
  in
  check Alcotest.int "all entries reclaimed" 0 entries

let test_compact_all_pushes_down () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 499 do
    L.put db (key i) (value i)
  done;
  L.compact_all db;
  let counts = L.level_file_counts db in
  (* everything must sit in exactly one (the deepest populated) level *)
  let populated =
    Array.to_list counts |> List.filteri (fun i _ -> i >= 0)
    |> List.filter (fun c -> c > 0)
  in
  check Alcotest.int "one populated level" 1 (List.length populated);
  check Alcotest.int "L0 empty" 0 counts.(0);
  for i = 0 to 499 do
    check Alcotest.(option string) "data intact" (Some (value i))
      (L.get db (key i))
  done

let test_iterator_full_order () =
  let env = Env.create () in
  let db = open_tiny env in
  let n = 300 in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 3) perm;
  Array.iter (fun i -> L.put db (key i) (value i)) perm;
  let it = L.iterator db in
  let got = Iter.to_list it in
  check Alcotest.int "count" n (List.length got);
  let expected = List.init n (fun i -> (key i, value i)) in
  check Alcotest.(list (pair string string)) "sorted scan" expected got

let test_iterator_seek_and_range () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 299 do
    L.put db (key (2 * i)) (value i)
  done;
  let it = L.iterator db in
  it.Iter.seek (key 101);
  check Alcotest.string "seek to even successor" (key 102) (it.Iter.key ());
  (* range query: 10 keys from key 100 *)
  it.Iter.seek (key 100);
  let collected = ref [] in
  for _ = 1 to 10 do
    collected := it.Iter.key () :: !collected;
    it.Iter.next ()
  done;
  check Alcotest.int "range size" 10 (List.length !collected);
  check Alcotest.string "range start" (key 100)
    (List.hd (List.rev !collected))

let test_iterator_hides_deletions () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 99 do
    L.put db (key i) (value i)
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then L.delete db (key i)
  done;
  let got = Iter.to_list (L.iterator db) in
  check Alcotest.int "half survive" 50 (List.length got);
  List.iter
    (fun (k, _) ->
      let i = int_of_string (String.sub k 3 6) in
      Alcotest.(check bool) "odd keys only" true (i mod 2 = 1))
    got

let test_write_batch_atomic_visibility () =
  let env = Env.create () in
  let db = open_tiny env in
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b "x" "1";
  Pdb_kvs.Write_batch.put b "y" "2";
  Pdb_kvs.Write_batch.delete b "x";
  L.write db b;
  check Alcotest.(option string) "x deleted by later op in batch" None
    (L.get db "x");
  check Alcotest.(option string) "y" (Some "2") (L.get db "y")

let test_reopen_recovers_sstables_and_wal () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 299 do
    L.put db (key i) (value i)
  done;
  (* some data flushed to sstables, the tail still in WAL/memtable *)
  L.close db;
  let db2 = open_tiny env in
  for i = 0 to 299 do
    check Alcotest.(option string) ("recovered " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done;
  L.check_invariants db2

let test_crash_preserves_synced_data () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  L.flush db (* everything flushed to (synced) sstables *);
  for i = 200 to 249 do
    L.put db (key i) (value i)
  done;
  Env.crash env (* unsynced WAL tail is lost *);
  let db2 = open_tiny env in
  for i = 0 to 199 do
    check Alcotest.(option string) ("survives " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done;
  L.check_invariants db2

let test_wal_sync_makes_writes_durable () =
  let env = Env.create () in
  let opts = { (tiny_opts ()) with O.wal_sync_writes = true } in
  let db = open_tiny ~opts env in
  for i = 0 to 49 do
    L.put db (key i) (value i)
  done;
  Env.crash env;
  let db2 = open_tiny ~opts env in
  for i = 0 to 49 do
    check Alcotest.(option string) ("durable " ^ key i) (Some (value i))
      (L.get db2 (key i))
  done

let test_sequential_fill_uses_trivial_moves () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 1999 do
    L.put db (key i) (value i)
  done;
  L.flush db;
  (* sequential fill produces disjoint tables; trivial moves mean
     compaction writes far less than the random-order equivalent *)
  let seq_written =
    (L.stats db).Pdb_kvs.Engine_stats.compaction_bytes_written
  in
  let env_r = Env.create () in
  let db_r = open_tiny env_r in
  let perm = Array.init 2000 Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 5) perm;
  Array.iter (fun i -> L.put db_r (key i) (value i)) perm;
  L.flush db_r;
  let rnd_written =
    (L.stats db_r).Pdb_kvs.Engine_stats.compaction_bytes_written
  in
  Alcotest.(check bool)
    (Printf.sprintf "seq %d < rnd %d" seq_written rnd_written)
    true
    (seq_written < rnd_written)

let test_write_amp_accounting () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 999 do
    L.put db (key i) (value (i * 31))
  done;
  L.flush db;
  let user = (L.stats db).Pdb_kvs.Engine_stats.user_bytes_written in
  let device = (Env.stats env).Pdb_simio.Io_stats.bytes_written in
  Alcotest.(check bool) "write amp > 1" true (device > user);
  Alcotest.(check bool) "write amp sane (< 100)" true (device < 100 * user)

let test_memory_and_describe () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  Alcotest.(check bool) "memory positive" true (L.memory_bytes db > 0);
  let d = L.describe db in
  Alcotest.(check bool) "describe mentions levels" true
    (String.length d > 0)

let prop_model_random_ops =
  (* The store must agree with a Hashtbl model under random interleaved
     puts/deletes/gets across flush and compaction. *)
  qtest "store = model under random ops" ~count:15
    QCheck.(list (pair (int_bound 200) (option (int_bound 1000))))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let ks = key k in
          match v with
          | Some v ->
            L.put db ks (value v);
            Hashtbl.replace model ks (value v)
          | None ->
            L.delete db ks;
            Hashtbl.remove model ks)
        ops;
      L.check_invariants db;
      Hashtbl.fold
        (fun k v acc -> acc && L.get db k = Some v)
        model true
      && List.for_all
           (fun (k, _) ->
             let ks = key k in
             L.get db ks = Hashtbl.find_opt model ks)
           ops)

let prop_iterator_matches_model =
  qtest "iterator = sorted model" ~count:10
    QCheck.(list (pair (int_bound 300) (int_bound 1000)))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          L.put db (key k) (value v);
          Hashtbl.replace model (key k) (value v))
        ops;
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Iter.to_list (L.iterator db) = expected)

let prop_recovery_equals_pre_close =
  qtest "reopen preserves every write" ~count:10
    QCheck.(list (pair (int_bound 150) (int_bound 1000)))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          L.put db (key k) (value v);
          Hashtbl.replace model (key k) (value v))
        ops;
      L.close db;
      let db2 = open_tiny env in
      Hashtbl.fold (fun k v acc -> acc && L.get db2 k = Some v) model true)

(* After every install, in random fills under the leveled, tiered and
   lazy-leveled policies (some holding snapshots, so one user key's
   versions can straddle two tables), each leveled level is sorted by
   smallest key, disjoint, and what [sort_by_smallest] makes of it:
   splicing outputs in where their inputs were keeps the order a re-sort
   gives.  A tiered level stays newest first. *)
let prop_installs_keep_level_order =
  let module Table = Pdb_sstable.Table in
  let module Ik = Pdb_kvs.Internal_key in
  qtest "every install keeps each level's order" ~count:20
    QCheck.(
      pair
        (oneofl [ O.Leveled; O.Tiered; O.Lazy_leveled ])
        (list_of_size Gen.(int_range 100 700)
           (pair (int_bound 300) (int_bound 1000))))
    (fun (policy, ops) ->
      let env = Env.create () in
      let opts =
        { (tiny_opts ()) with O.compaction_policy = policy; max_levels = 4 }
      in
      let db = open_tiny ~opts env in
      let numbers = List.map (fun (m : Table.meta) -> m.Table.number) in
      let ok = ref true and installs = ref 0 in
      let check_levels _job =
        incr installs;
        for level = 1 to opts.O.max_levels - 1 do
          let files = L.level_tables db level in
          let rec ordered = function
            | (a : Table.meta) :: (b :: _ as rest) ->
              (if L.tiered_level db level then a.Table.number > b.Table.number
               else Ik.compare a.Table.largest b.Table.smallest < 0)
              && ordered rest
            | [ _ ] | [] -> true
          in
          if
            not
              (ordered files
              && (L.tiered_level db level
                 || numbers (L.sort_by_smallest files) = numbers files))
          then ok := false
        done
      in
      Pdb_compaction.Scheduler.set_observer (L.compaction_scheduler db)
        check_levels;
      List.iter
        (fun (k, v) ->
          if v mod 97 = 0 then ignore (L.snapshot db);
          L.put db (key k) (value v))
        ops;
      L.compact_all db;
      !installs > 0 && !ok)

let () =
  Alcotest.run "lsm"
    [
      ( "basic",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "batch atomicity" `Quick
            test_write_batch_atomic_visibility;
        ] );
      ( "flush-compaction",
        [
          Alcotest.test_case "get after flush" `Quick test_get_after_flush;
          Alcotest.test_case "compaction preserves data" `Quick
            test_compaction_triggers_and_preserves_data;
          Alcotest.test_case "overwrites reclaimed" `Quick
            test_overwrites_reclaimed_by_compaction;
          Alcotest.test_case "tombstones dropped" `Quick
            test_tombstones_dropped_at_bottom;
          Alcotest.test_case "compact_all pushes down" `Quick
            test_compact_all_pushes_down;
          Alcotest.test_case "sequential trivial moves" `Quick
            test_sequential_fill_uses_trivial_moves;
          Alcotest.test_case "write amp accounting" `Quick
            test_write_amp_accounting;
        ] );
      ( "iterator",
        [
          Alcotest.test_case "full order" `Quick test_iterator_full_order;
          Alcotest.test_case "seek and range" `Quick
            test_iterator_seek_and_range;
          Alcotest.test_case "hides deletions" `Quick
            test_iterator_hides_deletions;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reopen" `Quick
            test_reopen_recovers_sstables_and_wal;
          Alcotest.test_case "crash preserves synced" `Quick
            test_crash_preserves_synced_data;
          Alcotest.test_case "wal sync durable" `Quick
            test_wal_sync_makes_writes_durable;
        ] );
      ( "misc",
        [
          Alcotest.test_case "memory/describe" `Quick test_memory_and_describe;
        ] );
      ( "properties",
        [
          prop_model_random_ops;
          prop_iterator_matches_model;
          prop_recovery_equals_pre_close;
          prop_installs_keep_level_order;
        ] );
    ]
