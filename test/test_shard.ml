(* Range-partitioned shard layer (lib/shard).

   The router's range arithmetic; byte-invariance of the sharded store
   across client counts (sharding must stay a pure time/placement model,
   like group commit); cross-shard scans at a snapshot fence agreeing
   with a single store at the same operation prefix; and the stats
   aggregation regression: with one shared block cache the aggregate
   must report the cache's true hit/miss counters, not shards-many
   copies of them. *)

module Dyn = Pdb_kvs.Store_intf
module Env = Pdb_simio.Env
module Stores = Pdb_harness.Stores
module B = Pdb_harness.Bench_util
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats
module Router = Pdb_shard.Shard_router
module Iter = Pdb_kvs.Iter
module Mc = Pdb_kvs.Multi_client

(* ---------- router units ---------- *)

let test_router_routing () =
  let r = Router.create ~splits:[ "g"; "p" ] in
  Alcotest.(check int) "3 shards from 2 splits" 3 (Router.shards r);
  Alcotest.(check int) "below first split" 0 (Router.shard_of_key r "a");
  Alcotest.(check int) "split key belongs right" 1 (Router.shard_of_key r "g");
  Alcotest.(check int) "mid range" 1 (Router.shard_of_key r "k");
  Alcotest.(check int) "last shard" 2 (Router.shard_of_key r "p");
  Alcotest.(check int) "beyond" 2 (Router.shard_of_key r "zzz");
  Alcotest.(check (pair (option string) (option string)))
    "first range unbounded below" (None, Some "g")
    (Router.range_of_shard r 0);
  Alcotest.(check (pair (option string) (option string)))
    "last range unbounded above" (Some "p", None)
    (Router.range_of_shard r 2);
  (* ownership agrees with routing for a key sweep *)
  List.iter
    (fun k ->
      let i = Router.shard_of_key r k in
      for j = 0 to Router.shards r - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "owns(%d,%S) iff routed there" j k)
          (j = i) (Router.owns r j k)
      done)
    [ ""; "a"; "f"; "g"; "h"; "o"; "p"; "q"; "zz" ];
  Router.check_invariants r

let test_router_rejects_unsorted () =
  Alcotest.check_raises "equal splits rejected"
    (Invalid_argument
       "Shard_router.create: splits not increasing (\"m\" >= \"m\")")
    (fun () -> ignore (Router.create ~splits:[ "m"; "m" ]))

let test_router_uniform () =
  let r = Router.uniform ~shards:8 () in
  Alcotest.(check int) "8 shards" 8 (Router.shards r);
  let splits = Router.splits r in
  Alcotest.(check int) "7 splits" 7 (List.length splits);
  ignore
    (List.fold_left
       (fun prev s ->
         Alcotest.(check bool) "splits strictly increasing" true
           (String.compare prev s < 0);
         s)
       "" splits);
  (* a bounded uniform router spreads raw byte keys evenly *)
  let bkey i = Printf.sprintf "%c%c" (Char.chr (i lsr 8)) (Char.chr (i land 0xff)) in
  let r = Router.uniform ~shards:4 ~lo:(bkey 0) ~hi:(bkey 40_000) () in
  let counts = Array.make 4 0 in
  for i = 0 to 39_999 do
    let s = Router.shard_of_key r (bkey i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "bounded uniform splits balance (got %d)" c)
        true
        (abs (c - 10_000) <= 1))
    counts;
  (* bounds sharing a long prefix still interpolate (exact integer
     arithmetic on the bytes after the prefix) *)
  let r =
    Router.uniform ~shards:4 ~lo:"user00000000" ~hi:"user00000004" ()
  in
  Alcotest.(check int) "4 shards under deep prefix" 4 (Router.shards r);
  List.iter
    (fun s ->
      Alcotest.(check bool) "prefix carried into splits" true
        (String.length s >= 11 && String.sub s 0 11 = "user0000000"))
    (Router.splits r)

(* ---------- client-count byte-invariance ---------- *)

let files_of env =
  Env.list env
  |> List.map (fun name ->
         (name, Env.read_all env name ~hint:Pdb_simio.Device.Sequential_read))
  |> List.sort compare

let shard_tweak ~n ~shards o =
  {
    o with
    O.wal_sync_writes = true;
    shards;
    shard_splits = List.init (shards - 1) (fun i -> B.key_of ((i + 1) * n / shards));
  }

let test_state_invariance engine () =
  let n = 3_000 in
  let run ~clients =
    let env = Env.create () in
    let store =
      Stores.open_engine ~tweak:(shard_tweak ~n ~shards:4) ~env engine
    in
    let p = B.fill_random ~clients store ~n ~value_bytes:128 ~seed:7 in
    store.Dyn.d_close ();
    (files_of env, Option.get p.Pdb_kvs.Phase.lanes)
  in
  let f1, _ = run ~clients:1 in
  let f4, r4 = run ~clients:4 in
  Alcotest.(check (list string))
    "same file set at 1 vs 4 clients" (List.map fst f1) (List.map fst f4);
  List.iter2
    (fun (name, b1) (_, b4) ->
      Alcotest.(check bool)
        (name ^ " byte-identical at 1 vs 4 clients")
        true (String.equal b1 b4))
    f1 f4;
  (* one lane group fans out to at most shards engine-level groups *)
  Alcotest.(check bool)
    (Printf.sprintf "lane groups <= engine groups <= 4x (lanes=%d engine=%d)"
       r4.Mc.lane_groups r4.Mc.write_groups)
    true
    (r4.Mc.write_groups >= r4.Mc.lane_groups
    && r4.Mc.write_groups <= 4 * r4.Mc.lane_groups)

(* ---------- cross-shard scans at a fence ---------- *)

let entries_of_iter (it : Iter.t) =
  it.Iter.seek_to_first ();
  let acc = ref [] in
  while it.Iter.valid () do
    acc := (it.Iter.key (), it.Iter.value ()) :: !acc;
    it.Iter.next ()
  done;
  List.rev !acc

let all_entries (store : Dyn.dyn) = entries_of_iter (store.Dyn.d_iterator ())

(* Apply the same seeded op sequence to a plain store (stopping at a
   prefix) and to a 4-shard store (running to the end, with a snapshot
   pinned at the prefix): the sharded scan at the snapshot must equal the
   plain store's final scan. *)
let test_snapshot_scan engine () =
  let keyspace = 400 and ops = 1_200 and prefix = 700 in
  let op rng i =
    let k = B.key_of (Pdb_util.Rng.int rng keyspace) in
    if Pdb_util.Rng.int rng 5 = 0 then `Delete k
    else `Put (k, Printf.sprintf "v%06d-%s" i k)
  in
  let apply (store : Dyn.dyn) = function
    | `Put (k, v) -> store.Dyn.d_put k v
    | `Delete k -> store.Dyn.d_delete k
  in
  let small o = { o with O.memtable_bytes = 8 * 1024 } in
  let plain =
    Stores.open_engine ~tweak:small ~env:(Env.create ()) engine
  in
  let rng = Pdb_util.Rng.create 99 in
  for i = 0 to prefix - 1 do
    apply plain (op rng i)
  done;
  let sh =
    Stores.open_sharded
      ~tweak:(fun o -> small (shard_tweak ~n:keyspace ~shards:4 o))
      ~env:(Env.create ()) engine
  in
  Alcotest.(check int) "4 shards" 4 sh.Stores.s_shards;
  let snapshot = Option.get sh.Stores.s_snapshot in
  let iter_at = Option.get sh.Stores.s_iter_at in
  let get_at = Option.get sh.Stores.s_get_at in
  let rng = Pdb_util.Rng.create 99 in
  let snap = ref (-1) in
  for i = 0 to ops - 1 do
    if i = prefix then snap := snapshot ();
    apply sh.Stores.s_dyn (op rng i)
  done;
  let want = all_entries plain in
  let got = entries_of_iter (iter_at !snap) in
  Alcotest.(check int)
    "snapshot scan entry count = plain store scan" (List.length want)
    (List.length got);
  Alcotest.(check bool) "snapshot scan = plain store scan" true (want = got);
  (* point reads at the fence agree with the scan *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string))
        ("get_at " ^ k) (Some v) (get_at !snap k))
    want;
  (* and the live scan has moved past the fence *)
  Alcotest.(check bool) "live scan differs from pinned scan" true
    (all_entries sh.Stores.s_dyn <> got);
  sh.Stores.s_release !snap;
  plain.Dyn.d_close ();
  sh.Stores.s_dyn.Dyn.d_close ()

(* keys crossing every shard inside one batch stay atomic per shard and
   visible after the whole-group commit *)
let test_cross_shard_batch () =
  let n = 1_000 in
  let sh =
    Stores.open_sharded
      ~tweak:(shard_tweak ~n ~shards:4)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let store = sh.Stores.s_dyn in
  let batch = Pdb_kvs.Write_batch.create () in
  let hits = Array.make 4 0 in
  for i = 0 to 39 do
    let k = B.key_of (i * n / 40) in
    hits.(sh.Stores.s_shard_of_key k) <- hits.(sh.Stores.s_shard_of_key k) + 1;
    Pdb_kvs.Write_batch.put batch k (Printf.sprintf "b%d" i)
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "batch spans shard %d" i) 10 c)
    hits;
  store.Dyn.d_write batch;
  for i = 0 to 39 do
    let k = B.key_of (i * n / 40) in
    Alcotest.(check (option string))
      ("batched " ^ k)
      (Some (Printf.sprintf "b%d" i))
      (store.Dyn.d_get k)
  done;
  (* per-shard iterators see only their own range *)
  for s = 0 to 3 do
    List.iter
      (fun (k, _) ->
        Alcotest.(check int)
          (Printf.sprintf "shard %d iterator stays in range (%s)" s k)
          s
          (sh.Stores.s_shard_of_key k))
      (entries_of_iter (sh.Stores.s_shard_iter s))
  done;
  store.Dyn.d_close ()

(* ---------- fence-pin lifetime regression ---------- *)

(* An unfenced scan's fence must stay pinned while the merged iterator is
   alive: capture_fence used to release each shard's snapshot immediately,
   so a compaction landing in that window (a seek-triggered one, say)
   dropped versions/tombstones the fence should see and GC'd sstable
   files the iterator still reads — crashing the scan.  We drive the
   engine's compaction directly as a deterministic stand-in for such a
   background compaction (the store's own mutating surface legitimately
   invalidates iterators, so it cannot be used to trigger one here). *)
let test_fence_pins_survive_compaction () =
  let env = Env.create () in
  let module SP = Pdb_shard.Shard_store.Make (Stores.Pebbles_engine) in
  let opts =
    { (Stores.default_options Stores.Pebblesdb) with O.shards = 1 }
  in
  let t = SP.open_store opts ~env ~dir:"db" in
  let key i = Printf.sprintf "key-%03d" i in
  for i = 0 to 49 do SP.put t (key i) (Printf.sprintf "v-%03d" i) done;
  SP.put t "key-zz" "doomed";
  SP.flush t;
  SP.compact_all t;
  (* tombstone in a newer table above the compacted value *)
  SP.delete t "key-zz";
  SP.flush t;
  let it = SP.iterator t in
  (* compaction lands while the scan is alive; with the fence pinned the
     superseded tables stay on disk and the scan reads them intact *)
  Stores.Pebbles_engine.compact_all (SP.shard_stores t).(0);
  let got = entries_of_iter it in
  let want = List.init 50 (fun i -> (key i, Printf.sprintf "v-%03d" i)) in
  Alcotest.(check (list (pair string string)))
    "scan over pinned fence is intact" want got;
  SP.close t

(* ---------- stats aggregation: the shared-cache regression ---------- *)

(* With one shared block cache, every shard's stats mirror the same
   global Lru counters; the aggregate must pin the cache's true totals at
   any shard count — summing the mirrors would overcount ~shards-fold. *)
let test_shared_cache_counters () =
  let n = 2_000 in
  let totals =
    List.map
      (fun shards ->
        let sh =
          Stores.open_sharded
            ~tweak:(fun o ->
              { (shard_tweak ~n ~shards o) with O.block_cache_bytes = 1 lsl 20 })
            ~env:(Env.create ()) Stores.Pebblesdb
        in
        let store = sh.Stores.s_dyn in
        ignore (B.fill_random store ~n ~value_bytes:256 ~seed:5);
        ignore (B.read_random store ~n ~ops:n ~seed:6);
        let st = store.Dyn.d_stats () in
        let cache_hits, cache_misses = sh.Stores.s_cache_counters () in
        Alcotest.(check int)
          (Printf.sprintf "aggregate hits = shared cache hits at %d shards"
             shards)
          cache_hits st.Stats.block_cache_hits;
        Alcotest.(check int)
          (Printf.sprintf "aggregate misses = shared cache misses at %d shards"
             shards)
          cache_misses st.Stats.block_cache_misses;
        Alcotest.(check bool)
          (Printf.sprintf "reads hit the cache at %d shards" shards)
          true (cache_hits > 0);
        store.Dyn.d_close ();
        (st.Stats.block_cache_hits, st.Stats.block_cache_misses))
      [ 1; 4 ]
  in
  (* same workload, same shared capacity: totals stay in the same regime
     rather than multiplying with the shard count *)
  match totals with
  | [ (h1, m1); (h4, m4) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "hit totals comparable 1 vs 4 shards (%d vs %d)" h1 h4)
      true
      (h4 < 2 * (h1 + m1));
    Alcotest.(check bool)
      (Printf.sprintf "miss totals comparable 1 vs 4 shards (%d vs %d)" m1 m4)
      true
      (m4 < 2 * (h1 + m1))
  | _ -> assert false

let test_aggregate_breakdown () =
  let n = 3_000 in
  let sh =
    Stores.open_sharded
      ~tweak:(shard_tweak ~n ~shards:4)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let store = sh.Stores.s_dyn in
  ignore (B.fill_random store ~n ~value_bytes:256 ~seed:11);
  let st = store.Dyn.d_stats () in
  Alcotest.(check int) "stats report 4 shards" 4 st.Stats.shards;
  Alcotest.(check int) "per-shard breakdown has 4 entries" 4
    (Array.length st.Stats.shard_user_bytes);
  Alcotest.(check int) "breakdown sums to the aggregate"
    st.Stats.user_bytes_written
    (Array.fold_left ( + ) 0 st.Stats.shard_user_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "balance in [1, 1.5] for even splits (%.3f)"
       st.Stats.shard_balance)
    true
    (st.Stats.shard_balance >= 1.0 && st.Stats.shard_balance <= 1.5);
  Alcotest.(check bool) "every shard took writes" true
    (Array.for_all (fun b -> b > 0) st.Stats.shard_user_bytes);
  store.Dyn.d_close ()

(* Every declared counter's aggregate is its rule applied to the live
   shards' views: their sum, their max, or the one shared cache's own
   count.  The test walks the registry, so a counter declared later is
   covered without editing it. *)
let test_registry_rules () =
  let n = 3_000 and shards = 4 in
  let sh =
    Stores.open_sharded
      ~tweak:(fun o ->
        { (shard_tweak ~n ~shards o) with O.memtable_bytes = 16 * 1024 })
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let store = sh.Stores.s_dyn in
  ignore (B.fill_random store ~n ~value_bytes:256 ~seed:21);
  ignore (B.read_random store ~n ~ops:n ~seed:22);
  ignore (B.seek_random store ~n ~ops:200 ~nexts:10 ~seed:23);
  for i = 0 to (n / 10) - 1 do
    store.Dyn.d_delete (B.key_of (i * 10))
  done;
  let agg = store.Dyn.d_stats () in
  let per = List.init shards sh.Stores.s_shard_stats in
  let hits, misses = sh.Stores.s_cache_counters () in
  Alcotest.(check (pair int int))
    "shared counters are the cache's own" (hits, misses)
    (agg.Stats.block_cache_hits, agg.Stats.block_cache_misses);
  let rule_of ~sum ~max ~zero rule values =
    match (rule : Stats.rule) with
    | Stats.Sum | Stats.Now -> List.fold_left sum zero values
    | Stats.Max -> List.fold_left max zero values
    | Stats.Shared -> List.hd values
  in
  List.iter
    (function
      | Stats.Count k ->
        let values = List.map (fun v -> Stats.get v.Stats.counters k) per in
        if k.Stats.rule = Stats.Shared then
          List.iter
            (Alcotest.(check int) (k.Stats.name ^ ": one cache per shard")
               (List.hd values))
            values;
        if k.Stats.rule = Stats.Max then
          Alcotest.(check bool) (k.Stats.name ^ ": a peak was reached") true
            (List.exists (fun v -> v > 0) values);
        Alcotest.(check int) k.Stats.name
          (rule_of ~sum:( + ) ~max ~zero:0 k.Stats.rule values)
          (Stats.get agg.Stats.counters k)
      | Stats.Ns k ->
        let values = List.map (fun v -> Stats.get_ns v.Stats.counters k) per in
        Alcotest.(check (float 0.0)) k.Stats.name
          (rule_of ~sum:( +. ) ~max:Float.max ~zero:0.0 k.Stats.rule values)
          (Stats.get_ns agg.Stats.counters k))
    (Stats.registry ());
  Alcotest.(check bool) "the workload moved the counters" true
    (agg.Stats.gets = n && agg.Stats.deletes = n / 10 && agg.Stats.seeks > 0);
  store.Dyn.d_close ()

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "routing and ranges" `Quick test_router_routing;
          Alcotest.test_case "rejects unsorted splits" `Quick
            test_router_rejects_unsorted;
          Alcotest.test_case "uniform splits" `Quick test_router_uniform;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "pebblesdb bytes invariant across clients" `Quick
            (test_state_invariance Stores.Pebblesdb);
          Alcotest.test_case "leveldb bytes invariant across clients" `Quick
            (test_state_invariance Stores.Leveldb);
          Alcotest.test_case "cross-shard batch" `Quick test_cross_shard_batch;
          Alcotest.test_case "fence pins survive compaction" `Quick
            test_fence_pins_survive_compaction;
        ] );
      ( "snapshot scans",
        [
          Alcotest.test_case "pebblesdb fence scan" `Quick
            (test_snapshot_scan Stores.Pebblesdb);
          Alcotest.test_case "leveldb fence scan" `Quick
            (test_snapshot_scan Stores.Leveldb);
        ] );
      ( "stats",
        [
          Alcotest.test_case "shared cache counted once" `Quick
            test_shared_cache_counters;
          Alcotest.test_case "per-shard breakdown and balance" `Quick
            test_aggregate_breakdown;
          Alcotest.test_case "registry merges by its rules" `Quick
            test_registry_rules;
        ] );
    ]
