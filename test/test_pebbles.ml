(* Tests for the FLSM / PebblesDB core. *)

module P = Pebblesdb.Pebbles_store
module G = Pebblesdb.Guard
module Sel = Pebblesdb.Guard_selector
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter
module Ik = Pdb_kvs.Internal_key

let check = Alcotest.check

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Small parameters: tiny memtable and levels, and *few* guard bits so
   guards appear even with a few hundred keys. *)
let tiny_opts () =
  {
    (O.pebblesdb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
    top_level_bits = 7;
    bit_decrement = 1;
    max_levels = 5;
  }

let open_tiny ?(opts = tiny_opts ()) env = P.open_store opts ~env ~dir:"db"

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

(* ---------- guard structure unit tests ---------- *)

let meta ~number ~smallest ~largest : Pdb_sstable.Table.meta =
  {
    Pdb_sstable.Table.number;
    file_size = 100;
    entries = 10;
    smallest = Ik.encode ~user_key:smallest ~seq:1 ~kind:Ik.Value;
    largest = Ik.encode ~user_key:largest ~seq:1 ~kind:Ik.Value;
  }

let test_guard_index_and_sentinel () =
  let lvl = G.create_level () in
  G.commit_guards lvl [ "m"; "t" ];
  (* guards: "", "m", "t" *)
  check Alcotest.int "below first guard -> sentinel" 0 (G.guard_index lvl "a");
  check Alcotest.int "exact guard key" 1 (G.guard_index lvl "m");
  check Alcotest.int "inside range" 1 (G.guard_index lvl "p");
  check Alcotest.int "last guard" 2 (G.guard_index lvl "z")

let test_guard_attach_detach () =
  let lvl = G.create_level () in
  G.commit_guards lvl [ "m" ];
  let m1 = meta ~number:1 ~smallest:"a" ~largest:"c" in
  let m2 = meta ~number:2 ~smallest:"m" ~largest:"q" in
  G.attach lvl m1;
  G.attach lvl m2;
  check Alcotest.int "sentinel holds m1" 1
    (List.length lvl.G.guards.(0).G.tables);
  check Alcotest.int "guard m holds m2" 1
    (List.length lvl.G.guards.(1).G.tables);
  G.detach lvl [ 1 ];
  check Alcotest.int "m1 detached" 0 (List.length lvl.G.guards.(0).G.tables);
  check Alcotest.int "m2 kept" 1 (List.length lvl.G.guards.(1).G.tables)

let test_guard_commit_redistributes () =
  let lvl = G.create_level () in
  let m1 = meta ~number:1 ~smallest:"a" ~largest:"c" in
  let m2 = meta ~number:2 ~smallest:"p" ~largest:"q" in
  G.attach lvl m1;
  G.attach lvl m2;
  (* new guard "m" splits the sentinel's former range; both tables fit on
     one side each *)
  G.commit_guards lvl [ "m" ];
  check Alcotest.int "sentinel keeps a..c" 1
    (List.length lvl.G.guards.(0).G.tables);
  check Alcotest.int "guard m receives p..q" 1
    (List.length lvl.G.guards.(1).G.tables)

let test_guard_straddler_detection () =
  let m1 = meta ~number:1 ~smallest:"a" ~largest:"z" in
  Alcotest.(check bool) "straddles m" true (G.straddles "m" m1);
  let m2 = meta ~number:2 ~smallest:"n" ~largest:"z" in
  Alcotest.(check bool) "right of m" false (G.straddles "m" m2);
  let m3 = meta ~number:3 ~smallest:"a" ~largest:"l" in
  Alcotest.(check bool) "left of m" false (G.straddles "m" m3)

let test_guard_delete_folds_tables () =
  let lvl = G.create_level () in
  G.commit_guards lvl [ "g"; "p" ];
  let m = meta ~number:1 ~smallest:"h" ~largest:"j" in
  G.attach lvl m;
  G.delete_guard lvl "g";
  (* table folds into the sentinel (preceding guard) *)
  check Alcotest.int "guard count" 1 (G.guard_count lvl);
  check Alcotest.int "sentinel absorbed table" 1
    (List.length lvl.G.guards.(0).G.tables)

(* ---------- guard selector ---------- *)

let test_selector_deterministic_and_monotone () =
  let opts = tiny_opts () in
  for i = 0 to 5000 do
    let k = key i in
    match Sel.guard_level opts k with
    | None -> ()
    | Some l ->
      (* same key, same answer *)
      Alcotest.(check bool) "deterministic" true
        (Sel.guard_level opts k = Some l);
      (* skip-list property: guard at l implies guard at all deeper levels *)
      for deeper = l to opts.O.max_levels - 1 do
        Alcotest.(check bool) "monotone" true
          (Sel.is_guard_at opts k ~level:deeper)
      done
  done

let test_selector_density_increases_with_level () =
  let opts = tiny_opts () in
  let counts = Array.make opts.O.max_levels 0 in
  for i = 0 to 20_000 do
    match Sel.guard_level opts (key i) with
    | Some l ->
      for lvl = l to opts.O.max_levels - 1 do
        counts.(lvl) <- counts.(lvl) + 1
      done
    | None -> ()
  done;
  for lvl = 2 to opts.O.max_levels - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "level %d has more guards than %d" lvl (lvl - 1))
      true
      (counts.(lvl) > counts.(lvl - 1))
  done

(* ---------- store behaviour ---------- *)

let test_put_get_delete () =
  let env = Env.create () in
  let db = open_tiny env in
  P.put db "a" "1";
  P.put db "b" "2";
  check Alcotest.(option string) "get a" (Some "1") (P.get db "a");
  P.put db "a" "updated";
  check Alcotest.(option string) "updated" (Some "updated") (P.get db "a");
  P.delete db "a";
  check Alcotest.(option string) "deleted" None (P.get db "a");
  check Alcotest.(option string) "b untouched" (Some "2") (P.get db "b")

let test_large_insert_readback () =
  let env = Env.create () in
  let db = open_tiny env in
  let n = 2000 in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 9) perm;
  Array.iter (fun i -> P.put db (key i) (value i)) perm;
  Alcotest.(check bool) "compactions ran" true
    ((P.stats db).Pdb_kvs.Engine_stats.compactions > 0);
  Alcotest.(check bool) "guards committed" true
    ((P.stats db).Pdb_kvs.Engine_stats.guards_committed > 0);
  P.check_invariants db;
  for i = 0 to n - 1 do
    check Alcotest.(option string) ("get " ^ key i) (Some (value i))
      (P.get db (key i))
  done

let test_iterator_order_and_completeness () =
  let env = Env.create () in
  let db = open_tiny env in
  let n = 1500 in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle (Pdb_util.Rng.create 21) perm;
  Array.iter (fun i -> P.put db (key i) (value i)) perm;
  let got = Iter.to_list (P.iterator db) in
  check Alcotest.int "count" n (List.length got);
  check
    Alcotest.(list (pair string string))
    "sorted scan"
    (List.init n (fun i -> (key i, value i)))
    got

let test_range_query () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 999 do
    P.put db (key i) (value i)
  done;
  let it = P.iterator db in
  it.Iter.seek (key 500);
  let collected = ref [] in
  for _ = 1 to 50 do
    collected := (it.Iter.key (), it.Iter.value ()) :: !collected;
    it.Iter.next ()
  done;
  let got = List.rev !collected in
  check
    Alcotest.(list string)
    "range keys"
    (List.init 50 (fun i -> key (500 + i)))
    (List.map fst got)

let test_iterator_hides_tombstones () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 499 do
    P.put db (key i) (value i)
  done;
  for i = 0 to 499 do
    if i mod 3 = 0 then P.delete db (key i)
  done;
  let got = Iter.to_list (P.iterator db) in
  List.iter
    (fun (k, _) ->
      let i = int_of_string (String.sub k 3 6) in
      Alcotest.(check bool) "no deleted keys" true (i mod 3 <> 0))
    got;
  check Alcotest.int "survivor count"
    (List.length (List.filter (fun i -> i mod 3 <> 0) (List.init 500 Fun.id)))
    (List.length got)

let test_compact_all_quiescent_and_correct () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 1499 do
    P.put db (key (i * 977 mod 1500)) (value i)
  done;
  P.compact_all db;
  check Alcotest.int "L0 drained" 0 (P.l0_table_count db);
  P.check_invariants db;
  let latest = Hashtbl.create 64 in
  for i = 0 to 1499 do
    Hashtbl.replace latest (key (i * 977 mod 1500)) (value i)
  done;
  Hashtbl.iter
    (fun k v -> check Alcotest.(option string) k (Some v) (P.get db k))
    latest

let test_guard_cap_respected_after_compaction () =
  let opts = tiny_opts () in
  let env = Env.create () in
  let db = P.open_store opts ~env ~dir:"db" in
  for i = 0 to 2999 do
    P.put db (key (i * 1663 mod 3000)) (value i)
  done;
  P.compact_all db;
  Alcotest.(check bool)
    (Printf.sprintf "max tables per guard %d <= cap %d"
       (P.max_tables_in_any_guard db) opts.O.max_sstables_per_guard)
    true
    (P.max_tables_in_any_guard db <= opts.O.max_sstables_per_guard)

let test_flsm_write_amp_lower_than_lsm () =
  (* The headline claim, at miniature scale: identical random-insert
     workload, FLSM writes materially less than the leveled LSM. *)
  let n = 4000 in
  let run_pebbles () =
    let env = Env.create () in
    let db = open_tiny env in
    let perm = Array.init n Fun.id in
    Pdb_util.Rng.shuffle (Pdb_util.Rng.create 123) perm;
    Array.iter (fun i -> P.put db (key i) (value i)) perm;
    P.flush db;
    (Env.stats env).Pdb_simio.Io_stats.bytes_written
  in
  let run_lsm () =
    let env = Env.create () in
    let opts =
      {
        (O.hyperleveldb ()) with
        O.memtable_bytes = 2 * 1024;
        level_bytes_base = 8 * 1024;
        sstable_target_bytes = 4 * 1024;
        block_bytes = 512;
        max_levels = 5;
      }
    in
    let db = Pdb_lsm.Lsm_store.open_store opts ~env ~dir:"db" in
    let perm = Array.init n Fun.id in
    Pdb_util.Rng.shuffle (Pdb_util.Rng.create 123) perm;
    Array.iter (fun i -> Pdb_lsm.Lsm_store.put db (key i) (value i)) perm;
    Pdb_lsm.Lsm_store.flush db;
    (Env.stats env).Pdb_simio.Io_stats.bytes_written
  in
  let pebbles = run_pebbles () and lsm = run_lsm () in
  Alcotest.(check bool)
    (Printf.sprintf "pebbles IO %d < lsm IO %d" pebbles lsm)
    true (pebbles < lsm)

let test_reopen_recovers_guards_and_data () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 1499 do
    P.put db (key i) (value i)
  done;
  let guards_before = P.guard_counts db in
  P.close db;
  let db2 = open_tiny env in
  P.check_invariants db2;
  check Alcotest.(array int) "guard counts recovered" guards_before
    (P.guard_counts db2);
  for i = 0 to 1499 do
    check Alcotest.(option string) ("recovered " ^ key i) (Some (value i))
      (P.get db2 (key i))
  done

let test_crash_preserves_flushed_data () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 799 do
    P.put db (key i) (value i)
  done;
  P.flush db;
  for i = 800 to 899 do
    P.put db (key i) (value i)
  done;
  Env.crash env;
  let db2 = open_tiny env in
  P.check_invariants db2;
  for i = 0 to 799 do
    check Alcotest.(option string) ("survives " ^ key i) (Some (value i))
      (P.get db2 (key i))
  done

(* test_compaction's tiny store: default guard bits, 2 KB memtable *)
let fill_opts () =
  {
    (O.pebblesdb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
    compaction_threads = 1;
  }

let fill_3000 env =
  let db = P.open_store (fill_opts ()) ~env ~dir:"db" in
  for i = 0 to 2999 do
    P.put db (key (i * 7919 mod 3000)) (value i)
  done;
  db

let manifest_edits env =
  match Pdb_manifest.Manifest.recover env ~dir:"db" with
  | Some (_, edits) -> edits
  | None -> Alcotest.fail "no live MANIFEST"

(* committed guards per level, as a sorted (level, key) list *)
let committed_guards edits =
  let module M = Pdb_manifest.Manifest in
  let live = Hashtbl.create 64 in
  List.iter
    (fun (e : M.edit) ->
      List.iter (Hashtbl.remove live) e.M.deleted_guards;
      List.iter (fun g -> Hashtbl.replace live g ()) e.M.added_guards)
    edits;
  List.sort compare (Hashtbl.fold (fun g () acc -> g :: acc) live [])

(* A flush commits the guards waiting on still-empty levels in its own
   version edit: no MANIFEST record carries guards alone. *)
let test_fill_writes_no_guard_only_record () =
  let env = Env.create () in
  let db = fill_3000 env in
  let module M = Pdb_manifest.Manifest in
  let edits = manifest_edits env in
  let guard_only =
    List.filter
      (fun (e : M.edit) ->
        e.M.added_guards <> [] && e.M.added_files = []
        && e.M.deleted_files = [] && e.M.log_number = None)
      edits
  in
  Alcotest.(check bool) "the fill committed guards" true
    (committed_guards edits <> []);
  check Alcotest.int "guard-only MANIFEST records" 0 (List.length guard_only);
  P.close db

(* Every guard the fill committed is in the MANIFEST, and a reopen brings
   back exactly those guards at every level. *)
let test_reopen_restores_committed_guards () =
  let env = Env.create () in
  let db = fill_3000 env in
  let counts = P.guard_counts db in
  let logged = committed_guards (manifest_edits env) in
  let per_level guards =
    Array.init (Array.length counts) (fun level ->
        List.length (List.filter (fun (l, _) -> l = level) guards))
  in
  check Alcotest.(array int) "every committed guard is logged" counts
    (per_level logged);
  P.close db;
  let db2 = P.open_store (fill_opts ()) ~env ~dir:"db" in
  P.check_invariants db2;
  check Alcotest.(array int) "guard counts restored" counts
    (P.guard_counts db2);
  (* the reopened store's fresh MANIFEST is one snapshot of its levels *)
  check
    Alcotest.(list (pair int string))
    "committed guards restored" logged
    (committed_guards (manifest_edits env));
  P.close db2

(* The put that fills the memtable pays, in the foreground, its own WAL
   append and the flush's one MANIFEST record with its one sync. *)
let test_flush_put_pays_one_sync () =
  let env = Env.create () in
  let db = P.open_store (fill_opts ()) ~env ~dir:"db" in
  let clock = Env.clock env and device = Env.device env in
  let file prefix =
    List.find
      (fun f -> String.starts_with ~prefix f && not (Filename.check_suffix f ".tmp"))
      (Env.list env)
  in
  let manifest = file "db/MANIFEST-" in
  let flushes () = (P.stats db).Pdb_kvs.Engine_stats.flushes in
  let rec put_until_flush i =
    let fg0 = clock.Pdb_simio.Clock.times.foreground_ns in
    let m0 = Env.file_size env manifest in
    let k = key i and v = value i in
    P.put db k v;
    if flushes () = 0 then put_until_flush (i + 1)
    else begin
      let b = Pdb_kvs.Write_batch.create () in
      Pdb_kvs.Write_batch.put b k v;
      let wal_bytes =
        Pdb_wal.Wal.header_size
        + String.length (Pdb_kvs.Write_batch.encode b ~base_seq:0)
      in
      let expected =
        Pdb_simio.Device.write_cost device ~bytes:wal_bytes
        +. Pdb_simio.Device.write_cost device
             ~bytes:(Env.file_size env manifest - m0)
        +. Pdb_simio.Device.sync_cost device
      in
      check (Alcotest.float 1e-6) "foreground device time" expected
        (clock.Pdb_simio.Clock.times.foreground_ns -. fg0)
    end
  in
  put_until_flush 0;
  P.close db

let test_empty_guards_harmless () =
  let env = Env.create () in
  let db = open_tiny env in
  (* insert a range, delete it entirely, insert a disjoint range: guards
     from the first range linger empty *)
  for i = 0 to 999 do
    P.put db (key i) (value i)
  done;
  for i = 0 to 999 do
    P.delete db (key i)
  done;
  P.compact_all db;
  for i = 5000 to 5999 do
    P.put db (key i) (value i)
  done;
  P.compact_all db;
  Alcotest.(check bool) "some guards now empty" true
    (P.empty_guard_count db > 0);
  for i = 5000 to 5999 do
    check Alcotest.(option string) "reads fine" (Some (value i))
      (P.get db (key i))
  done;
  for i = 0 to 999 do
    check Alcotest.(option string) "old keys gone" None (P.get db (key i))
  done

(* The empty-guard count is derived from the guard arrays; reading it
   through [stats] must agree with the direct count. *)
let test_stats_count_empty_guards () =
  let db = open_tiny (Env.create ()) in
  for i = 0 to 1999 do
    P.put db (key i) (value i)
  done;
  for i = 0 to 1499 do
    P.delete db (key i)
  done;
  P.compact_all db;
  let via_stats = (P.stats db).Pdb_kvs.Engine_stats.guards_empty in
  let direct = P.empty_guard_count db in
  Alcotest.(check bool) "some guards empty" true (direct > 0);
  check Alcotest.int "stats agree" direct via_stats

let test_pebbles_one_behaves_like_lsm () =
  (* max_sstables_per_guard = 1 is the paper's LSM mode (§3.5): after
     compaction settles, no guard holds more than one sstable. *)
  let opts = { (tiny_opts ()) with O.max_sstables_per_guard = 1 } in
  let env = Env.create () in
  let db = P.open_store opts ~env ~dir:"db" in
  for i = 0 to 999 do
    P.put db (key (i * 31 mod 1000)) (value i)
  done;
  P.compact_all db;
  P.check_invariants db;
  Alcotest.(check bool) "at most one sstable per guard" true
    (P.max_tables_in_any_guard db <= 1);
  for i = 0 to 999 do
    Alcotest.(check bool) "readable" true (P.get db (key i) <> None)
  done

let test_describe_shows_guards () =
  let env = Env.create () in
  let db = open_tiny env in
  for i = 0 to 999 do
    P.put db (key i) (value i)
  done;
  P.flush db;
  let d = P.describe db in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions guards" true (contains d "guard")

let prop_model_random_ops =
  qtest "store = model under random ops" ~count:12
    QCheck.(list (pair (int_bound 300) (option (int_bound 1000))))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let ks = key k in
          match v with
          | Some v ->
            P.put db ks (value v);
            Hashtbl.replace model ks (value v)
          | None ->
            P.delete db ks;
            Hashtbl.remove model ks)
        ops;
      P.check_invariants db;
      Hashtbl.fold (fun k v acc -> acc && P.get db k = Some v) model true
      && List.for_all
           (fun (k, _) ->
             let ks = key k in
             P.get db ks = Hashtbl.find_opt model ks)
           ops)

let prop_iterator_matches_model =
  qtest "iterator = sorted model" ~count:8
    QCheck.(list (pair (int_bound 400) (int_bound 1000)))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          P.put db (key k) (value v);
          Hashtbl.replace model (key k) (value v))
        ops;
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Iter.to_list (P.iterator db) = expected)

let prop_recovery_preserves_model =
  qtest "reopen preserves every write" ~count:8
    QCheck.(list (pair (int_bound 200) (int_bound 1000)))
    (fun ops ->
      let env = Env.create () in
      let db = open_tiny env in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          P.put db (key k) (value v);
          Hashtbl.replace model (key k) (value v))
        ops;
      P.close db;
      let db2 = open_tiny env in
      P.check_invariants db2;
      Hashtbl.fold (fun k v acc -> acc && P.get db2 k = Some v) model true)

let () =
  Alcotest.run "pebblesdb"
    [
      ( "guard",
        [
          Alcotest.test_case "index/sentinel" `Quick
            test_guard_index_and_sentinel;
          Alcotest.test_case "attach/detach" `Quick test_guard_attach_detach;
          Alcotest.test_case "commit redistributes" `Quick
            test_guard_commit_redistributes;
          Alcotest.test_case "straddlers" `Quick
            test_guard_straddler_detection;
          Alcotest.test_case "delete folds" `Quick
            test_guard_delete_folds_tables;
        ] );
      ( "selector",
        [
          Alcotest.test_case "deterministic+monotone" `Quick
            test_selector_deterministic_and_monotone;
          Alcotest.test_case "density grows with depth" `Quick
            test_selector_density_increases_with_level;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/get/delete" `Quick test_put_get_delete;
          Alcotest.test_case "large insert readback" `Quick
            test_large_insert_readback;
          Alcotest.test_case "iterator order" `Quick
            test_iterator_order_and_completeness;
          Alcotest.test_case "range query" `Quick test_range_query;
          Alcotest.test_case "tombstones hidden" `Quick
            test_iterator_hides_tombstones;
          Alcotest.test_case "compact_all" `Quick
            test_compact_all_quiescent_and_correct;
          Alcotest.test_case "guard cap" `Quick
            test_guard_cap_respected_after_compaction;
          Alcotest.test_case "lower write amp than lsm" `Quick
            test_flsm_write_amp_lower_than_lsm;
          Alcotest.test_case "empty guards harmless" `Quick
            test_empty_guards_harmless;
          Alcotest.test_case "stats count empty guards" `Quick
            test_stats_count_empty_guards;
          Alcotest.test_case "pebblesdb-1 = lsm mode" `Quick
            test_pebbles_one_behaves_like_lsm;
          Alcotest.test_case "describe" `Quick test_describe_shows_guards;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reopen guards+data" `Quick
            test_reopen_recovers_guards_and_data;
          Alcotest.test_case "crash preserves flushed" `Quick
            test_crash_preserves_flushed_data;
          Alcotest.test_case "no guard-only MANIFEST record" `Quick
            test_fill_writes_no_guard_only_record;
          Alcotest.test_case "reopen restores committed guards" `Quick
            test_reopen_restores_committed_guards;
          Alcotest.test_case "flush put pays one sync" `Quick
            test_flush_put_pays_one_sync;
        ] );
      ( "properties",
        [
          prop_model_random_ops;
          prop_iterator_matches_model;
          prop_recovery_preserves_model;
        ] );
    ]
