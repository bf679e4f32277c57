(* Elastic sharding: live split/merge/migrate (lib/shard).

   Manual topology surgery checked against full-state reads; the durable
   TOPOLOGY lineage across close/reopen; the stale-balance regression
   (balance must be computed from live resident bytes, which a migration
   changes — not from cumulative routed bytes, which it cannot); the
   elasticity controller splitting a hot shard on its own; determinism
   of elastic runs across compaction worker counts; and the migration's
   observability contract: [migrate:*] spans on the destination
   scheduler's worker lanes, charged like any compaction. *)

module Dyn = Pdb_kvs.Store_intf
module Env = Pdb_simio.Env
module Stores = Pdb_harness.Stores
module B = Pdb_harness.Bench_util
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats
module Iter = Pdb_kvs.Iter
module Trace = Pdb_simio.Trace

let keyspace = 400
let key = B.key_of

(* elastic options with the controller parked: splits/merges only happen
   when the test forces them *)
let manual_elastic ?(shards = 2) o =
  {
    o with
    O.wal_sync_writes = true;
    memtable_bytes = 8 * 1024;
    shards;
    shard_splits =
      List.init (shards - 1) (fun i -> key ((i + 1) * keyspace / shards));
    elastic = true;
    elastic_window_ops = max_int;
  }

let scan (store : Dyn.dyn) =
  let it = store.Dyn.d_iterator () in
  it.Iter.seek_to_first ();
  let acc = ref [] in
  while it.Iter.valid () do
    acc := (it.Iter.key (), it.Iter.value ()) :: !acc;
    it.Iter.next ()
  done;
  List.rev !acc

let oracle_entries oracle =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
  |> List.sort compare

let check_matches ctx (sh : Stores.sharded) oracle =
  for i = 0 to keyspace - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "%s: get %s" ctx (key i))
      (Hashtbl.find_opt oracle (key i))
      (sh.Stores.s_dyn.Dyn.d_get (key i))
  done;
  Alcotest.(check bool)
    (ctx ^ ": scan equals oracle")
    true
    (scan sh.Stores.s_dyn = oracle_entries oracle);
  sh.Stores.s_dyn.Dyn.d_check_invariants ()

let fill sh oracle ~seed ~n =
  let rng = Pdb_util.Rng.create seed in
  for i = 0 to n - 1 do
    let k = key (Pdb_util.Rng.int rng keyspace) in
    if Pdb_util.Rng.int rng 6 = 0 then begin
      sh.Stores.s_dyn.Dyn.d_delete k;
      Hashtbl.remove oracle k
    end
    else begin
      let v = Printf.sprintf "v%06d-%s" i k in
      sh.Stores.s_dyn.Dyn.d_put k v;
      Hashtbl.replace oracle k v
    end
  done

(* ---------- manual split / merge correctness ---------- *)

let test_split_merge engine () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) engine
  in
  let oracle = Hashtbl.create 256 in
  fill sh oracle ~seed:11 ~n:1_500;
  Alcotest.(check int) "starts at 2 shards" 2 (sh.Stores.s_shard_count ());
  (* split shard 0 at a key strictly inside its range *)
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  Alcotest.(check int) "3 shards after split" 3 (sh.Stores.s_shard_count ());
  Alcotest.(check (list string))
    "split vector gained the new key"
    [ key (keyspace / 4); key (keyspace / 2) ]
    (sh.Stores.s_splits ());
  check_matches "after split" sh oracle;
  (* rejected splits: outside the range, on the boundary, bad index *)
  Alcotest.(check bool) "split at own lower bound rejected" false
    (sh.Stores.s_split ~shard:1 ~key:(key (keyspace / 4)));
  Alcotest.(check bool) "split outside the range rejected" false
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 2)));
  Alcotest.(check bool) "split of a bogus shard rejected" false
    (sh.Stores.s_split ~shard:9 ~key:(key 1));
  Alcotest.(check int) "rejections change nothing" 3
    (sh.Stores.s_shard_count ());
  (* more churn on the post-split topology, then merge the pair back *)
  fill sh oracle ~seed:12 ~n:800;
  Alcotest.(check bool) "merge accepted" true (sh.Stores.s_merge ~at:0);
  Alcotest.(check int) "2 shards after merge" 2 (sh.Stores.s_shard_count ());
  Alcotest.(check (list string))
    "merge dropped the split key"
    [ key (keyspace / 2) ]
    (sh.Stores.s_splits ());
  check_matches "after merge" sh oracle;
  Alcotest.(check bool) "merge of last shard rejected" false
    (sh.Stores.s_merge ~at:1);
  fill sh oracle ~seed:13 ~n:400;
  check_matches "after post-merge churn" sh oracle;
  Alcotest.(check int) "topology version advanced per migration" 2
    (sh.Stores.s_topo_version ());
  sh.Stores.s_dyn.Dyn.d_close ()

(* A key deleted in the donor must stay dead when its range migrates
   into a survivor holding a stale (clipped-out) copy: the merge purges
   the survivor's stale keys below the incoming copies. *)
let test_merge_no_resurrection () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let oracle = Hashtbl.create 64 in
  fill sh oracle ~seed:21 ~n:600;
  let probe = key (3 * keyspace / 4) in
  sh.Stores.s_dyn.Dyn.d_put probe "stale";
  Hashtbl.replace oracle probe "stale";
  (* move [3/4, end) into a new shard 2; shard 1 keeps a stale copy of
     [probe] on disk, clipped out of its routed range *)
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:1 ~key:probe);
  sh.Stores.s_dyn.Dyn.d_delete probe;
  Hashtbl.remove oracle probe;
  (* merging shard 2 back must not resurrect the survivor's stale copy *)
  Alcotest.(check bool) "merge accepted" true (sh.Stores.s_merge ~at:1);
  Alcotest.(check (option string))
    "deleted key stays dead across the merge" None
    (sh.Stores.s_dyn.Dyn.d_get probe);
  check_matches "after merge-back" sh oracle;
  sh.Stores.s_dyn.Dyn.d_close ()

(* ---------- snapshots across a resplit ---------- *)

let test_snapshot_across_resplit () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let oracle = Hashtbl.create 256 in
  fill sh oracle ~seed:31 ~n:1_000;
  let pinned = Hashtbl.copy oracle in
  let snap = (Option.get sh.Stores.s_snapshot) () in
  let get_at = Option.get sh.Stores.s_get_at in
  (* resplit under the pin: split, churn, merge the old pair *)
  Alcotest.(check bool) "split under pin" true
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  fill sh oracle ~seed:32 ~n:800;
  Alcotest.(check bool) "merge under pin" true (sh.Stores.s_merge ~at:0);
  fill sh oracle ~seed:33 ~n:400;
  (* the pinned view reads the pre-migration world *)
  for i = 0 to keyspace - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "pinned view of %s survives the resplit" (key i))
      (Hashtbl.find_opt pinned (key i))
      (get_at snap (key i))
  done;
  let snap_scan =
    let it = (Option.get sh.Stores.s_iter_at) snap in
    it.Iter.seek_to_first ();
    let acc = ref [] in
    while it.Iter.valid () do
      acc := (it.Iter.key (), it.Iter.value ()) :: !acc;
      it.Iter.next ()
    done;
    List.rev !acc
  in
  Alcotest.(check bool) "pinned scan equals pinned oracle" true
    (snap_scan = oracle_entries pinned);
  sh.Stores.s_release snap;
  check_matches "live state after release" sh oracle;
  sh.Stores.s_dyn.Dyn.d_close ()

(* ---------- durable topology across reopen ---------- *)

let test_topology_reopen () =
  let env = Env.create () in
  let oracle = Hashtbl.create 256 in
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2) ~env
      Stores.Pebblesdb
  in
  fill sh oracle ~seed:41 ~n:1_200;
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:0 ~key:(key 77));
  Alcotest.(check bool) "second split accepted" true
    (sh.Stores.s_split ~shard:2 ~key:(key 300));
  let splits = sh.Stores.s_splits () in
  let version = sh.Stores.s_topo_version () in
  fill sh oracle ~seed:42 ~n:300;
  sh.Stores.s_dyn.Dyn.d_close ();
  (* reopen over the same file system: the installed topology — not the
     2-shard Options profile — is authoritative *)
  let sh2 =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2) ~env
      Stores.Pebblesdb
  in
  Alcotest.(check (list string))
    "reopen restores the installed split vector" splits
    (sh2.Stores.s_splits ());
  Alcotest.(check int) "reopen restores the topology version" version
    (sh2.Stores.s_topo_version ());
  Alcotest.(check int) "reopen restores the shard count" 4
    (sh2.Stores.s_shard_count ());
  check_matches "reopened state" sh2 oracle;
  sh2.Stores.s_dyn.Dyn.d_close ()

(* ---------- the stale-balance regression ---------- *)

(* Cumulative routed bytes report the historical write distribution; a
   migration cannot change them.  shard_balance must instead reflect
   what is resident right now: after migrating the hot half of a hot
   shard away (split), the reported balance improves even though the
   cumulative per-shard user bytes stay maximally skewed. *)
(* leveldb: its full compaction reclaims completely, so resident bytes
   track the migration tightly (the FLSM engine retains per-guard
   generations, which blurs the signal at this toy scale) *)
let test_balance_tracks_migration () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) Stores.Leveldb
  in
  (* every write lands in shard 0's range [0, keyspace/2) *)
  let rng = Pdb_util.Rng.create 51 in
  for i = 0 to 2_999 do
    let k = key (Pdb_util.Rng.int rng (keyspace / 2)) in
    sh.Stores.s_dyn.Dyn.d_put k (Printf.sprintf "w%06d" i)
  done;
  sh.Stores.s_dyn.Dyn.d_flush ();
  let before = sh.Stores.s_dyn.Dyn.d_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "one-sided load reads as imbalance (%.2f)"
       before.Stats.shard_balance)
    true
    (before.Stats.shard_balance > 1.5);
  (* split the hot shard at its midpoint: half its bytes migrate *)
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  let after = sh.Stores.s_dyn.Dyn.d_stats () in
  (* the regression: cumulative user bytes still say "all of it went to
     the old hot shard" — only the resident basis can improve *)
  Alcotest.(check bool)
    (Printf.sprintf "cumulative user-bytes skew is unchanged (%.2f)"
       (Stats.balance_of after.Stats.shard_user_bytes))
    true
    (Stats.balance_of after.Stats.shard_user_bytes
     > after.Stats.shard_balance);
  Alcotest.(check bool)
    (Printf.sprintf "resident balance improves after the migration \
                     (%.2f -> %.2f)"
       before.Stats.shard_balance after.Stats.shard_balance)
    true
    (after.Stats.shard_balance < before.Stats.shard_balance -. 0.05);
  Alcotest.(check int) "resident breakdown matches the live shard count" 3
    (Array.length after.Stats.shard_resident_bytes);
  Alcotest.(check int) "migration counted" 1 after.Stats.elastic_splits;
  Alcotest.(check bool) "migrated bytes counted" true
    (after.Stats.elastic_migrated_bytes > 0);
  sh.Stores.s_dyn.Dyn.d_close ()

(* ---------- the controller ---------- *)

let auto_elastic o =
  {
    (manual_elastic ~shards:2 o) with
    O.elastic_window_ops = 512;
    elastic_split_ratio = 1.6;
    elastic_merge_ratio = 0.4;
    elastic_max_shards = 8;
  }

(* hammer one narrow range: the controller must split the hot shard at a
   sampled request key, and the split must land inside the hot range *)
let test_controller_splits_hot_shard () =
  let sh =
    Stores.open_sharded ~tweak:auto_elastic ~env:(Env.create ())
      Stores.Pebblesdb
  in
  let oracle = Hashtbl.create 256 in
  let rng = Pdb_util.Rng.create 61 in
  for i = 0 to 3_999 do
    (* 90% of the load on [0, keyspace/8) — all inside shard 0 *)
    let k =
      if Pdb_util.Rng.int rng 10 < 9 then
        key (Pdb_util.Rng.int rng (keyspace / 8))
      else key (Pdb_util.Rng.int rng keyspace)
    in
    let v = Printf.sprintf "h%06d" i in
    sh.Stores.s_dyn.Dyn.d_put k v;
    Hashtbl.replace oracle k v
  done;
  let st = sh.Stores.s_dyn.Dyn.d_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "controller split the hot shard (%d splits)"
       st.Stats.elastic_splits)
    true
    (st.Stats.elastic_splits >= 1);
  Alcotest.(check bool) "shard count grew" true
    (sh.Stores.s_shard_count () > 2);
  (* at least one new split key lies inside the hot range *)
  Alcotest.(check bool) "a split landed inside the hot range" true
    (List.exists
       (fun s -> String.compare s (key (keyspace / 8)) < 0)
       (sh.Stores.s_splits ()));
  check_matches "post-controller state" sh oracle;
  sh.Stores.s_dyn.Dyn.d_close ()

(* a cold adjacent pair merges once the load moves away *)
let test_controller_merges_cold_pair () =
  let sh =
    Stores.open_sharded
      ~tweak:(fun o ->
        {
          (auto_elastic o) with
          O.shards = 4;
          shard_splits =
            List.init 3 (fun i -> key ((i + 1) * keyspace / 4));
          elastic_split_ratio = 100.0 (* merges only *);
        })
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let rng = Pdb_util.Rng.create 71 in
  for i = 0 to 2_999 do
    (* all load on the last quarter: shards 0-2 go cold *)
    let k = key (3 * keyspace / 4 + Pdb_util.Rng.int rng (keyspace / 4)) in
    sh.Stores.s_dyn.Dyn.d_put k (Printf.sprintf "m%06d" i)
  done;
  let st = sh.Stores.s_dyn.Dyn.d_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "controller merged cold pairs (%d merges)"
       st.Stats.elastic_merges)
    true
    (st.Stats.elastic_merges >= 1);
  Alcotest.(check bool) "shard count shrank" true
    (sh.Stores.s_shard_count () < 4);
  sh.Stores.s_dyn.Dyn.d_close ()

(* ---------- determinism across compaction worker counts ---------- *)

let files_of env =
  Env.list env
  |> List.map (fun name ->
         (name, Env.read_all env name ~hint:Pdb_simio.Device.Sequential_read))
  |> List.sort compare

(* the controller's decisions are op-count windowed and its split keys
   come from a deterministic reservoir: worker count must change modeled
   time only — same final topology, byte-identical files *)
let test_worker_count_determinism engine () =
  let run ~threads =
    let env = Env.create () in
    let sh =
      Stores.open_sharded
        ~tweak:(fun o ->
          { (auto_elastic o) with O.compaction_threads = threads })
        ~env engine
    in
    let rng = Pdb_util.Rng.create 81 in
    for i = 0 to 3_499 do
      let k =
        if Pdb_util.Rng.int rng 10 < 8 then
          key (Pdb_util.Rng.int rng (keyspace / 6))
        else key (Pdb_util.Rng.int rng keyspace)
      in
      if Pdb_util.Rng.int rng 7 = 0 then sh.Stores.s_dyn.Dyn.d_delete k
      else sh.Stores.s_dyn.Dyn.d_put k (Printf.sprintf "d%06d" i)
    done;
    let st = sh.Stores.s_dyn.Dyn.d_stats () in
    let out =
      ( sh.Stores.s_splits (),
        sh.Stores.s_topo_version (),
        st.Stats.elastic_splits,
        st.Stats.elastic_merges )
    in
    sh.Stores.s_dyn.Dyn.d_close ();
    (out, files_of env)
  in
  let (splits1, v1, s1, m1), f1 = run ~threads:1 in
  let (splits4, v4, s4, m4), f4 = run ~threads:4 in
  Alcotest.(check bool) "the run actually resplit" true (s1 >= 1);
  Alcotest.(check (list string))
    "identical split decisions at 1 vs 4 workers" splits1 splits4;
  Alcotest.(check int) "identical topology version" v1 v4;
  Alcotest.(check (pair int int))
    "identical split/merge counts" (s1, m1) (s4, m4);
  Alcotest.(check (list string))
    "same file set at 1 vs 4 workers" (List.map fst f1) (List.map fst f4);
  List.iter2
    (fun (name, b1) (_, b4) ->
      Alcotest.(check bool)
        (name ^ " byte-identical at 1 vs 4 workers")
        true (String.equal b1 b4))
    f1 f4

(* ---------- migration observability ---------- *)

(* migration copy work must surface as [migrate:*] spans on the
   destination scheduler's worker lanes — the same timeline rows (and
   backlog accounting) as compaction *)
let test_migrate_spans_on_worker_lanes () =
  let env = Env.create () in
  let tr = Trace.create () in
  Env.set_tracer env tr;
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2) ~env
      Stores.Pebblesdb
  in
  let oracle = Hashtbl.create 256 in
  fill sh oracle ~seed:91 ~n:1_500;
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  let evs = Trace.events tr in
  let worker_lane (e : Trace.event) =
    String.length e.Trace.lane >= 6 && String.sub e.Trace.lane 0 6 = "worker"
  in
  let copy_spans =
    List.filter
      (fun (e : Trace.event) -> e.Trace.name = "migrate:copy")
      evs
  in
  Alcotest.(check bool) "migrate:copy spans present" true (copy_spans <> []);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "migrate:copy span on a worker lane (got %s)"
           e.Trace.lane)
        true (worker_lane e))
    copy_spans;
  Alcotest.(check bool) "migrate:clean spans present" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "migrate:clean")
       evs);
  Alcotest.(check bool) "router install instant present" true
    (List.exists
       (fun (e : Trace.event) ->
         e.Trace.cat = "migration" && e.Trace.lane = "router")
       evs);
  check_matches "traced split" sh oracle;
  sh.Stores.s_dyn.Dyn.d_close ()

(* ---------- counters across migrations ---------- *)

(* What clients did; a migration moves data and serves no client. *)
let client_counters (st : Stats.t) =
  [
    ("user_bytes_written", st.Stats.user_bytes_written);
    ("puts", st.Stats.puts);
    ("gets", st.Stats.gets);
    ("deletes", st.Stats.deletes);
  ]

(* A merge retires the donor's engine, not what it counted: the client
   counters stay, and no cumulative counter or peak falls. *)
let test_merge_keeps_donor_counters () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let d = sh.Stores.s_dyn in
  for i = 0 to keyspace - 1 do
    d.Dyn.d_put (key i) (Printf.sprintf "v%d" i)
  done;
  for i = 0 to keyspace - 1 do
    ignore (d.Dyn.d_get (key i))
  done;
  let before = d.Dyn.d_stats () in
  Alcotest.(check bool) "merge accepted" true (sh.Stores.s_merge ~at:0);
  let after = d.Dyn.d_stats () in
  Alcotest.(check (list (pair string int)))
    "client counters kept" (client_counters before) (client_counters after);
  let kept name rule b a =
    if (rule = Stats.Sum || rule = Stats.Max) && a < b then
      Alcotest.failf "%s fell across the merge: %g -> %g" name b a
  in
  List.iter
    (function
      | Stats.Count k ->
        kept k.Stats.name k.Stats.rule
          (float_of_int (Stats.get before.Stats.counters k))
          (float_of_int (Stats.get after.Stats.counters k))
      | Stats.Ns k ->
        kept k.Stats.name k.Stats.rule
          (Stats.get_ns before.Stats.counters k)
          (Stats.get_ns after.Stats.counters k))
    (Stats.registry ());
  d.Dyn.d_close ()

(* A merge deletes the donor's files, and their blocks leave the cache
   the shards share: they could never hit again.  Every block cached
   after the merge and 2,000 more writes belongs to a live file. *)
module Pebbles_shards = Pdb_shard.Shard_store.Make (Stores.Pebbles_engine)

let test_merged_donor_leaves_no_cached_block () =
  let module S = Pebbles_shards in
  let module Cache = Pdb_sstable.Block_cache in
  let n = 6_000 in
  let env = Env.create () in
  let opts =
    Stores.profile
      ~tweak:(fun o ->
        { (manual_elastic ~shards:2 o) with O.shard_splits = [ key (n / 2) ] })
      Stores.Pebblesdb
  in
  let t = S.open_store opts ~env ~dir:"db" in
  let rng = Pdb_util.Rng.create 1 in
  for i = 0 to n - 1 do
    S.put t (key i) (B.value_of rng 100)
  done;
  for i = 0 to n - 1 do
    ignore (S.get t (key i))
  done;
  let cache = S.shared_block_cache t in
  Alcotest.(check bool) "the donor has cached blocks" true
    (List.exists
       (String.starts_with ~prefix:"db/shards/1/")
       (Cache.cached_files cache));
  Alcotest.(check bool) "merge accepted" true (S.merge t ~at:0);
  for i = 0 to 1_999 do
    S.put t (key (i * 3)) (B.value_of rng 100)
  done;
  List.iter
    (fun file ->
      if not (Env.exists env file) then
        Alcotest.failf "a block of deleted %s is still cached" file)
    (Cache.cached_files cache);
  S.close t

(* A merge closes the donor's lanes, not the time they ran: neither the
   flush-lane time nor the summed worker-lane time falls across it. *)
let test_merge_keeps_donor_lane_time () =
  let n = 4_000 in
  let sh =
    Stores.open_sharded
      ~tweak:(fun o ->
        { (manual_elastic ~shards:2 o) with
          O.wal_sync_writes = false;
          memtable_bytes = (O.pebblesdb ()).O.memtable_bytes;
          shard_splits = [ key (n / 2) ] })
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let d = sh.Stores.s_dyn in
  for i = 0 to n - 1 do
    d.Dyn.d_put (key i) (String.make 100 'v')
  done;
  d.Dyn.d_flush ();
  let lanes () =
    let st = d.Dyn.d_stats () in
    ( st.Stats.flush_busy_ns,
      Array.fold_left ( +. ) 0.0 st.Stats.worker_busy_ns )
  in
  let flush0, busy0 = lanes () in
  Alcotest.(check bool) "the donor's lanes ran" true (flush0 > 0.0);
  Alcotest.(check bool) "merge accepted" true (sh.Stores.s_merge ~at:0);
  let flush1, busy1 = lanes () in
  if flush1 < flush0 then
    Alcotest.failf "flush_busy_ns fell across the merge: %.0f -> %.0f" flush0
      flush1;
  if busy1 < busy0 then
    Alcotest.failf "summed worker_busy_ns fell across the merge: %.0f -> %.0f"
      busy0 busy1;
  d.Dyn.d_close ()

(* A donor a fence still pins serves fenced reads after the merge: they
   count, in the view while it is pinned and in the totals once the
   release closes it. *)
let test_pinned_donor_keeps_counting () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let d = sh.Stores.s_dyn in
  for i = 0 to keyspace - 1 do
    d.Dyn.d_put (key i) (Printf.sprintf "v%d" i)
  done;
  let snap = (Option.get sh.Stores.s_snapshot) () in
  Alcotest.(check bool) "merge under pin" true (sh.Stores.s_merge ~at:0);
  let gets () = (d.Dyn.d_stats ()).Stats.gets in
  let before = gets () in
  let get_at = Option.get sh.Stores.s_get_at in
  (* the donor held the upper half of the keys *)
  for i = keyspace / 2 to keyspace - 1 do
    ignore (get_at snap (key i))
  done;
  let reads = keyspace - (keyspace / 2) in
  Alcotest.(check int) "fenced reads on the donor counted" (before + reads)
    (gets ());
  sh.Stores.s_release snap;
  Alcotest.(check int) "kept when the donor closes" (before + reads) (gets ());
  d.Dyn.d_close ()

(* Migrated bytes are no client's payload: with no client operation in
   between, a split and a merge leave the client counters as they were
   and count the moved bytes as migrated. *)
let test_migration_is_not_user_payload engine () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) engine
  in
  fill sh (Hashtbl.create 256) ~seed:21 ~n:800;
  let before = sh.Stores.s_dyn.Dyn.d_stats () in
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  Alcotest.(check bool) "merge accepted" true (sh.Stores.s_merge ~at:0);
  let after = sh.Stores.s_dyn.Dyn.d_stats () in
  Alcotest.(check (list (pair string int)))
    "client counters unchanged" (client_counters before)
    (client_counters after);
  Alcotest.(check bool) "moved bytes counted as migrated" true
    (after.Stats.elastic_migrated_bytes > before.Stats.elastic_migrated_bytes);
  sh.Stores.s_dyn.Dyn.d_close ()

(* A split's migration batches run as one round of jobs on the
   destination, and each batch's commit is priced on L0 alone, so a
   moving range many memtables long adds no write stall. *)
let test_split_adds_no_stall () =
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2)
      ~env:(Env.create ()) Stores.Pebblesdb
  in
  let value = String.make 2048 'v' in
  (* shard 0 holds [0, keyspace / 2); the split moves its upper half *)
  for i = 0 to (keyspace / 2) - 1 do
    sh.Stores.s_dyn.Dyn.d_put (key i) value
  done;
  let before = sh.Stores.s_dyn.Dyn.d_stats () in
  Alcotest.(check bool) "split accepted" true
    (sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  let after = sh.Stores.s_dyn.Dyn.d_stats () in
  let memtable_bytes = (manual_elastic (O.pebblesdb ())).O.memtable_bytes in
  Alcotest.(check bool) "moved more than 8 memtables" true
    (after.Stats.elastic_migrated_bytes - before.Stats.elastic_migrated_bytes
    > 8 * memtable_bytes);
  Alcotest.(check (float 0.0))
    "no slowdown stall" before.Stats.stall_slowdown_ns
    after.Stats.stall_slowdown_ns;
  Alcotest.(check (float 0.0)) "no stop stall" before.Stats.stall_stop_ns
    after.Stats.stall_stop_ns;
  sh.Stores.s_dyn.Dyn.d_close ()

(* Every nanosecond of background work is placed on a lane once: a
   migration batch's write can flush inside its job, and the job's
   placed time is only what the flush did not already place, so a split
   and a merge each add exactly as much lane time as background time. *)
let test_migration_places_once engine () =
  let env = Env.create () in
  let sh =
    Stores.open_sharded ~tweak:(manual_elastic ~shards:2) ~env engine
  in
  let d = sh.Stores.s_dyn in
  let value = String.make 2048 'v' in
  for i = 0 to (keyspace / 2) - 1 do
    d.Dyn.d_put (key i) value
  done;
  let times () =
    ( Pdb_simio.Clock.background_ns (Env.clock env),
      Array.fold_left ( +. ) 0.0 (d.Dyn.d_stats ()).Stats.worker_busy_ns )
  in
  let check what f =
    let bg0, lanes0 = times () in
    Alcotest.(check bool) (what ^ " accepted") true (f ());
    let bg1, lanes1 = times () in
    Alcotest.(check bool) (what ^ " ran background work") true (bg1 > bg0);
    Alcotest.(check (float 0.0))
      (what ^ ": lane time added = background time added")
      (bg1 -. bg0) (lanes1 -. lanes0)
  in
  check "split" (fun () ->
      sh.Stores.s_split ~shard:0 ~key:(key (keyspace / 4)));
  check "merge" (fun () -> sh.Stores.s_merge ~at:0);
  d.Dyn.d_close ()

let () =
  Alcotest.run "elastic"
    [
      ( "split/merge",
        [
          Alcotest.test_case "pebblesdb split+merge" `Quick
            (test_split_merge Stores.Pebblesdb);
          Alcotest.test_case "leveldb split+merge" `Quick
            (test_split_merge Stores.Leveldb);
          Alcotest.test_case "kyotocabinet-sim split+merge (inline copy)"
            `Quick
            (test_split_merge Stores.Btree);
          Alcotest.test_case "merge does not resurrect deletes" `Quick
            test_merge_no_resurrection;
          Alcotest.test_case "pebblesdb split adds no stall" `Quick
            test_split_adds_no_stall;
        ] );
      ( "fences",
        [
          Alcotest.test_case "snapshot pinned across a resplit" `Quick
            test_snapshot_across_resplit;
        ] );
      ( "durability",
        [
          Alcotest.test_case "topology survives reopen" `Quick
            test_topology_reopen;
        ] );
      ( "balance",
        [
          Alcotest.test_case "balance tracks migration (stale-balance \
                              regression)"
            `Quick test_balance_tracks_migration;
        ] );
      ( "controller",
        [
          Alcotest.test_case "splits the hot shard" `Quick
            test_controller_splits_hot_shard;
          Alcotest.test_case "merges cold pairs" `Quick
            test_controller_merges_cold_pair;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pebblesdb 1 vs 4 workers" `Quick
            (test_worker_count_determinism Stores.Pebblesdb);
          Alcotest.test_case "leveldb 1 vs 4 workers" `Quick
            (test_worker_count_determinism Stores.Leveldb);
        ] );
      ( "observability",
        [
          Alcotest.test_case "migrate spans on worker lanes" `Quick
            test_migrate_spans_on_worker_lanes;
        ] );
      ( "counters",
        [
          Alcotest.test_case "merge keeps the donor's counters" `Quick
            test_merge_keeps_donor_counters;
          Alcotest.test_case "a merged donor leaves no cached block" `Quick
            test_merged_donor_leaves_no_cached_block;
          Alcotest.test_case "merge keeps the donor's lane time" `Quick
            test_merge_keeps_donor_lane_time;
          Alcotest.test_case "pinned donor keeps counting" `Quick
            test_pinned_donor_keeps_counting;
          Alcotest.test_case "pebblesdb migration is not user payload" `Quick
            (test_migration_is_not_user_payload Stores.Pebblesdb);
          Alcotest.test_case "kyotocabinet-sim migration is not user payload"
            `Quick
            (test_migration_is_not_user_payload Stores.Btree);
          Alcotest.test_case "pebblesdb migration placed once" `Quick
            (test_migration_places_once Stores.Pebblesdb);
          Alcotest.test_case "leveldb migration placed once" `Quick
            (test_migration_places_once Stores.Leveldb);
        ] );
    ]
