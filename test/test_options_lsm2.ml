(* Tests for options/profiles and additional LSM engine behaviours
   (trivial moves, seek-triggered level-0 compaction, profile
   differentiation). *)

module O = Pdb_kvs.Options
module L = Pdb_lsm.Lsm_store
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter

let check = Alcotest.check

(* ---------- options ---------- *)

let test_profiles_have_distinct_identities () =
  let profiles = [ O.leveldb (); O.rocksdb (); O.hyperleveldb (); O.pebblesdb () ] in
  let names = List.map (fun (o : O.t) -> o.O.name) profiles in
  check
    Alcotest.(list string)
    "names" [ "leveldb"; "rocksdb"; "hyperleveldb"; "pebblesdb" ] names;
  (* the paper's configuration differences *)
  Alcotest.(check bool) "leveldb has no sstable blooms" false
    (O.leveldb ()).O.sstable_bloom;
  Alcotest.(check bool) "hyper got blooms added (methodology)" true
    (O.hyperleveldb ()).O.sstable_bloom;
  Alcotest.(check bool) "rocksdb bigger memtable" true
    ((O.rocksdb ()).O.memtable_bytes > (O.hyperleveldb ()).O.memtable_bytes);
  Alcotest.(check bool) "rocksdb larger L0 limits" true
    ((O.rocksdb ()).O.l0_slowdown > (O.hyperleveldb ()).O.l0_slowdown)

let test_level_max_bytes_geometric () =
  let o = O.pebblesdb () in
  check Alcotest.int "L1" o.O.level_bytes_base (O.level_max_bytes o 1);
  check Alcotest.int "L2"
    (o.O.level_bytes_base * O.level_bytes_multiplier)
    (O.level_max_bytes o 2);
  check Alcotest.int "L3"
    (o.O.level_bytes_base * O.level_bytes_multiplier
     * O.level_bytes_multiplier)
    (O.level_max_bytes o 3)

let test_guard_bits_decrease_with_depth () =
  let o = O.pebblesdb () in
  let bits = List.init 6 (fun i -> O.guard_bits o ~level:(i + 1)) in
  let rec decreasing = function
    | a :: b :: rest -> a >= b && decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing bits);
  Alcotest.(check bool) "never below 1" true (List.for_all (fun b -> b >= 1) bits)

(* ---------- lsm: trivial moves ---------- *)

let tiny_opts () =
  {
    (O.hyperleveldb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
  }

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

let test_sequential_fill_compaction_is_nearly_free () =
  let env = Env.create () in
  let db = L.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 1999 do
    L.put db (key i) (value i)
  done;
  L.flush db;
  let st = L.stats db in
  let user = st.Pdb_kvs.Engine_stats.user_bytes_written in
  let cwritten = st.Pdb_kvs.Engine_stats.compaction_bytes_written in
  (* trivial moves mean compaction rewrites a small fraction of user data *)
  Alcotest.(check bool)
    (Printf.sprintf "compaction wrote %d << user %d" cwritten user)
    true
    (float_of_int cwritten < 0.5 *. float_of_int user);
  L.check_invariants db;
  for i = 0 to 1999 do
    check Alcotest.(option string) "intact" (Some (value i)) (L.get db (key i))
  done;
  L.close db

(* Few enough entries that L0 stays under the compaction trigger: only
   seeks can drain it. *)
let fill_under_l0_trigger db =
  for i = 0 to 119 do
    L.put db (key i) (value i)
  done;
  L.flush db;
  let l0 = (L.level_file_counts db).(0) in
  Alcotest.(check bool) "L0 populated under the trigger" true
    (l0 > 0 && l0 < O.l0_compaction_trigger);
  l0

let test_seek_triggered_l0_compaction () =
  let env = Env.create () in
  let db = L.open_store (tiny_opts ()) ~env ~dir:"db" in
  let l0_before = fill_under_l0_trigger db in
  (* a run of consecutive seeks must trigger the L0 drain *)
  for _ = 1 to 2 * O.seek_compaction_threshold do
    let it = L.iterator db in
    it.Iter.seek (key 100)
  done;
  Alcotest.(check bool) "L0 drained by seeks" true
    ((L.level_file_counts db).(0) < l0_before);
  L.check_invariants db;
  L.close db

let test_writes_reset_seek_run () =
  let env = Env.create () in
  let db = L.open_store (tiny_opts ()) ~env ~dir:"db" in
  let l0_before = fill_under_l0_trigger db in
  (* interleave writes: the consecutive-seek counter must reset, so no
     seek compaction fires *)
  for s = 1 to 3 * O.seek_compaction_threshold do
    let it = L.iterator db in
    it.Iter.seek (key 100);
    if s mod 3 = 0 then L.put db (key (10_000 + s)) "x"
  done;
  check Alcotest.int "L0 untouched (modulo memtable flushes)" l0_before
    (L.level_file_counts db).(0);
  L.close db

let test_stats_breakdown_populated () =
  let env = Env.create () in
  let db = L.open_store (tiny_opts ()) ~env ~dir:"db" in
  let perm = Array.init 2000 Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 4) perm;
  Array.iter (fun i -> L.put db (key i) (value i)) perm;
  let st = L.stats db in
  Alcotest.(check bool) "puts counted" true (st.Pdb_kvs.Engine_stats.puts = 2000);
  Alcotest.(check bool) "flushes counted" true
    (st.Pdb_kvs.Engine_stats.flushes > 0);
  Alcotest.(check bool) "compaction io counted" true
    (st.Pdb_kvs.Engine_stats.compaction_bytes_written > 0);
  ignore (L.get db (key 5));
  let st = L.stats db in
  Alcotest.(check bool) "sstables examined on reads" true
    (st.Pdb_kvs.Engine_stats.sstables_examined > 0);
  L.close db

let test_bloom_negative_stat_grows_on_missing_reads () =
  let env = Env.create () in
  let db = L.open_store (tiny_opts ()) ~env ~dir:"db" in
  let perm = Array.init 2000 Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 4) perm;
  Array.iter (fun i -> L.put db (key i) (value i)) perm;
  L.flush db;
  (* missing keys interleaved inside the populated range, so the range
     check passes and the bloom filter is what rejects them *)
  for i = 0 to 199 do
    ignore (L.get db (Printf.sprintf "key%06dzz" i))
  done;
  let st = L.stats db in
  Alcotest.(check bool) "bloom rejections recorded" true
    (st.Pdb_kvs.Engine_stats.bloom_negative > 0);
  L.close db

let test_describe_and_memory_nonzero_after_writes () =
  let env = Env.create () in
  let db = L.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 499 do
    L.put db (key i) (value i)
  done;
  Alcotest.(check bool) "memory > 0" true (L.memory_bytes db > 0);
  Alcotest.(check bool) "describe non-empty" true
    (String.length (L.describe db) > 10);
  L.close db

let () =
  Alcotest.run "options-lsm2"
    [
      ( "options",
        [
          Alcotest.test_case "profiles distinct" `Quick
            test_profiles_have_distinct_identities;
          Alcotest.test_case "level sizes geometric" `Quick
            test_level_max_bytes_geometric;
          Alcotest.test_case "guard bits decrease" `Quick
            test_guard_bits_decrease_with_depth;
        ] );
      ( "lsm-behaviour",
        [
          Alcotest.test_case "sequential fill near-free" `Quick
            test_sequential_fill_compaction_is_nearly_free;
          Alcotest.test_case "seek-triggered L0 drain" `Quick
            test_seek_triggered_l0_compaction;
          Alcotest.test_case "writes reset seek run" `Quick
            test_writes_reset_seek_run;
          Alcotest.test_case "stats breakdown" `Quick
            test_stats_breakdown_populated;
          Alcotest.test_case "bloom negatives" `Quick
            test_bloom_negative_stat_grows_on_missing_reads;
          Alcotest.test_case "describe/memory" `Quick
            test_describe_and_memory_nonzero_after_writes;
        ] );
    ]
