(** The paper's evaluation, experiment by experiment (DESIGN.md §4).

    Each experiment regenerates one table or figure of chapter 5 (plus the
    chapter-2 B+-tree motivation): same workload structure, scaled-down
    sizes (DESIGN.md §1), same comparisons, printed as rows.  Absolute
    numbers are simulated-device throughputs; the paper's *shape* — who
    wins, by roughly what factor — is the reproduction target recorded in
    EXPERIMENTS.md.  Each experiment returns its tables, summary lines,
    shape self-checks and named results as a {!Bench_util.report};
    {!run_ids} prints and collects them. *)

module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module B = Bench_util
module P = Pdb_kvs.Phase
module Mc = Pdb_kvs.Multi_client
module Iter = Pdb_kvs.Iter

type experiment = {
  id : string;
  title : string;
  run : unit -> B.report;
}

(* Default scaled workload sizes.  The paper's runs use 50-500M keys; the
   scaled stores (64 KB memtables, 160 KB level-1) keep the same
   dataset/memtable and level-occupancy ratios at these sizes. *)
let n_large = 60_000
let n_medium = 30_000
let value_1k = 1024
let value_small = 128

let seed = 42

let rel base v = if base = 0.0 then 0.0 else v /. base
let note fmt = Printf.ksprintf (fun s -> B.Note s) fmt

(* A shape self-check line; [miss] marks it when the shape did not hold. *)
let check ok ~miss fmt =
  Printf.ksprintf (fun s -> B.Check (ok, if ok then s else s ^ miss)) fmt

(* Number cells that are also [store]'s named results. *)
let named ~store digits =
  List.map (fun (name, v) -> B.metric ~store name digits v)

(* ---------------- fig 1.1 / fig 5.1a : write amplification ------------- *)

let run_write_amp () =
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        let n = 100_000 in
        ignore (B.fill_random store ~n ~value_bytes:value_small ~seed);
        store.Dyn.d_flush ();
        let wa = B.write_amp store in
        let written =
          (Env.stats store.Dyn.d_env).Pdb_simio.Io_stats.bytes_written
        in
        store.Dyn.d_close ();
        (Stores.engine_name engine, written, wa))
      Stores.paper_stores
  in
  B.concat
    [
      B.table ~title:"Fig 1.1 — write IO for random inserts (100k x 128B)"
        ~header:[ "store"; "write IO (MB)"; "write amp" ]
        (List.map
           (fun (name, written, wa) ->
             [ B.Text name; B.num 2 (B.mb written); B.num 2 wa ])
           rows);
      B.lines
        (match rows with
         | (_, _, pebbles_wa) :: _ ->
           List.filter_map
             (fun (name, _, wa) ->
               if name = "pebblesdb" then None
               else
                 Some
                   (note "%s / pebblesdb write-amp ratio: %.2fx" name
                      (wa /. pebbles_wa)))
             rows
         | [] -> []);
    ]

(* ---------------- sec 2.2 : B+-tree motivation ------------------------- *)

let run_btree_motivation () =
  let n = 20_000 in
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        ignore (B.fill_random store ~n ~value_bytes:value_small ~seed);
        (* a second pass of random updates shows the in-place rewrite cost *)
        ignore (B.fill_random store ~n ~value_bytes:value_small ~seed);
        store.Dyn.d_flush ();
        let wa = B.write_amp store in
        store.Dyn.d_close ();
        [ B.Text (Stores.engine_name engine); B.num 2 wa ])
      [ Stores.Btree; Stores.Hyperleveldb; Stores.Pebblesdb ]
  in
  B.table
    ~title:"Sec 2.2 — B+-tree vs LSM write amplification (insert+update)"
    ~header:[ "store"; "write amp" ]
    rows

(* ---------------- table 5.1 : sstable size distribution ---------------- *)

let run_sstable_sizes () =
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        ignore (B.fill_random store ~n:n_large ~value_bytes:value_1k ~seed);
        store.Dyn.d_flush ();
        let env = store.Dyn.d_env in
        let h = Pdb_util.Histogram.create () in
        List.iter
          (fun name ->
            if Filename.check_suffix name ".sst" then
              Pdb_util.Histogram.add h
                (float_of_int (Env.file_size env name) /. 1024.0))
          (Env.list env);
        store.Dyn.d_close ();
        B.Text (Stores.engine_name engine)
        :: B.int (Pdb_util.Histogram.count h)
        :: List.map (B.num 2)
             [
               Pdb_util.Histogram.mean h;
               Pdb_util.Histogram.median h;
               Pdb_util.Histogram.percentile h 90.0;
               Pdb_util.Histogram.percentile h 95.0;
             ])
      [ Stores.Pebblesdb; Stores.Hyperleveldb ]
  in
  B.table
    ~title:"Table 5.1 — sstable size distribution (KB) after 60k x 1KB inserts"
    ~header:[ "store"; "sstables"; "mean"; "median"; "p90"; "p95" ]
    rows

(* ---------------- table 5.2 : update throughput ------------------------ *)

let run_update_throughput () =
  let n = n_medium in
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        let insert = B.fill_random store ~n ~value_bytes:value_1k ~seed in
        let up1 = B.fill_random store ~n ~value_bytes:value_1k ~seed:(seed + 1) in
        let up2 = B.fill_random store ~n ~value_bytes:value_1k ~seed:(seed + 2) in
        store.Dyn.d_close ();
        (B.Text (Stores.engine_name engine)
        :: List.map (B.num 2) [ insert.P.kops; up1.P.kops; up2.P.kops ])
        @ [ B.pct (100.0 *. up2.P.kops /. insert.P.kops) ])
      Stores.paper_stores
  in
  B.table
    ~title:
      "Table 5.2 — insert + two update rounds, KOps/s (30k x 1KB per round)"
    ~header:[ "store"; "insert"; "update-1"; "update-2"; "retained" ]
    rows

(* ---------------- fig 5.1b : single-threaded micro-benchmarks ---------- *)

let run_micro_single () =
  let n = 40_000 in
  let rows =
    List.map
      (fun engine ->
        (* sequential fill on its own store *)
        let seq_store = Stores.open_engine engine in
        let fillseq =
          B.fill_seq seq_store ~n ~value_bytes:value_1k ~seed
        in
        seq_store.Dyn.d_close ();
        (* random fill, reads, compacted seeks, deletes on a second store *)
        let store = Stores.open_engine engine in
        let fillrand = B.fill_random store ~n ~value_bytes:value_1k ~seed in
        let reads = B.read_random store ~n ~ops:20_000 ~seed in
        store.Dyn.d_compact_all ();
        let seeks = B.seek_random store ~n ~ops:5_000 ~nexts:0 ~seed in
        let deletes = B.delete_random store ~n ~seed in
        store.Dyn.d_close ();
        ( Stores.engine_name engine,
          [ fillseq.P.kops; fillrand.P.kops; reads.P.kops; seeks.P.kops;
            deletes.P.kops ] ))
      Stores.paper_stores
  in
  let hyper =
    try List.assoc "hyperleveldb" rows with Not_found -> [ 1.; 1.; 1.; 1.; 1. ]
  in
  let header =
    [ "store"; "fillseq"; "fillrandom"; "readrandom"; "seekrandom";
      "deleterandom" ]
  in
  B.concat
    [
      B.table
        ~title:
          "Fig 5.1(b) — db_bench micro-benchmarks, KOps/s (40k x 1KB; seeks \
           after full compaction)"
        ~header
        (List.map
           (fun (name, vals) -> B.Text name :: List.map (B.num 2) vals)
           rows);
      B.table ~title:"Fig 5.1(b) — relative to HyperLevelDB" ~header
        (List.map
           (fun (name, vals) ->
             B.Text name :: List.map2 (fun v h -> B.ratio (rel h v)) vals hyper)
           rows);
    ]

(* ---------------- fig 5.1c : multi-threaded + mixed -------------------- *)

(* The paper's "default RocksDB parameters" runs use a 64 MB memtable and a
   large level 0; scaled to the experiment datasets this is 256 KB (keeping
   the dataset/memtable ratio, DESIGN.md §1). *)
let rocksdb_params (o : O.t) =
  { o with O.memtable_bytes = 256 * 1024; l0_slowdown = 20; l0_stop = 24 }

let run_micro_multi () =
  let n = 40_000 in
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine ~tweak:rocksdb_params engine in
        let writes = B.fill_random store ~n ~value_bytes:value_1k ~seed in
        let reads = B.read_random store ~n ~ops:20_000 ~seed in
        (* mixed: interleave reads and writes 50/50 *)
        let rng = Pdb_util.Rng.create (seed + 9) in
        let mixed =
          P.measure store 20_000 (fun () ->
              for _ = 1 to 10_000 do
                ignore (store.Dyn.d_get (B.key_of (Pdb_util.Rng.int rng n)));
                store.Dyn.d_put
                  (B.key_of (Pdb_util.Rng.int rng n))
                  (Pdb_util.Rng.alpha rng value_1k)
              done)
        in
        store.Dyn.d_close ();
        B.Text (Stores.engine_name engine)
        :: List.map (B.num 2) [ writes.P.kops; reads.P.kops; mixed.P.kops ])
      Stores.paper_stores
  in
  B.table
    ~title:
      "Fig 5.1(c) — concurrent-style workload with RocksDB params (64MB-class \
       memtable): writes / reads / mixed KOps/s"
    ~header:[ "store"; "writes"; "reads"; "mixed" ]
    rows

(* ------------- fig 5.1d/e, 5.2a/b : writes / reads / seeks ------------- *)

(* One row per store: the write phase ([writes], a random fill of [n]
   keys by default), then [reads] point lookups and [seeks] seeks over
   the [n]-key space, in KOps/s.  [open_] opens each store. *)
let write_read_seek_table ~title ?(open_ = fun e -> Stores.open_engine e)
    ?(value_bytes = value_1k) ?writes ~n ~reads ~seeks engines =
  B.table ~title ~header:[ "store"; "writes"; "reads"; "seeks" ]
    (List.map
       (fun engine ->
         let store = open_ engine in
         let w =
           match writes with
           | Some f -> f store
           | None -> B.fill_random store ~n ~value_bytes ~seed
         in
         let r = B.read_random store ~n ~ops:reads ~seed in
         let s = B.seek_random store ~n ~ops:seeks ~nexts:0 ~seed in
         store.Dyn.d_close ();
         B.Text (Stores.engine_name engine)
         :: List.map (B.num 2) [ w.P.kops; r.P.kops; s.P.kops ])
       engines)

let run_micro_cached () =
  write_read_seek_table
    ~title:
      "Fig 5.1(d) — fully cached dataset (4k x 1KB inside the 8MB block \
       cache): KOps/s"
    ~n:4_000 ~reads:10_000 ~seeks:5_000
    [ Stores.Hyperleveldb; Stores.Pebblesdb; Stores.Pebblesdb_one ]

let run_micro_small_values () =
  write_read_seek_table
    ~title:"Fig 5.1(e) — small key-value pairs (100k x 128B): KOps/s"
    ~value_bytes:value_small ~n:100_000 ~reads:20_000 ~seeks:5_000
    Stores.paper_stores

let run_aged () =
  let n = 30_000 in
  write_read_seek_table
    ~title:
      "Fig 5.2(a) — aged file system (2x fragmentation) + aged store: KOps/s"
    ~open_:(fun engine ->
      let env = Env.create () in
      (* file-system aging: degrade the device *)
      Pdb_simio.Device.set_aging (Env.device env) 2.0;
      Stores.open_engine ~env engine)
    ~writes:(fun store ->
      (* key-value store aging: inserts + deletes + updates *)
      ignore (B.fill_random store ~n ~value_bytes:value_1k ~seed);
      let rng = Pdb_util.Rng.create (seed + 4) in
      for _ = 1 to n * 2 / 5 do
        store.Dyn.d_delete (B.key_of (Pdb_util.Rng.int rng n))
      done;
      for _ = 1 to n * 2 / 5 do
        store.Dyn.d_put
          (B.key_of (Pdb_util.Rng.int rng n))
          (Pdb_util.Rng.alpha rng value_1k)
      done;
      (* now the measured phases *)
      P.measure store (n / 2) (fun () ->
          for _ = 1 to n / 2 do
            store.Dyn.d_put
              (B.key_of (Pdb_util.Rng.int rng n))
              (Pdb_util.Rng.alpha rng value_1k)
          done))
    ~n ~reads:10_000 ~seeks:3_000 Stores.paper_stores

let run_low_memory () =
  (* dataset ~51MB; cache limited to ~6% of it, as in the paper's 4GB-RAM
     configuration *)
  let tweak (o : O.t) =
    {
      o with
      O.block_cache_bytes = 3 * 1024 * 1024;
      table_cache_entries = 40;
      memtable_bytes = 1024 * 1024;
      l0_slowdown = 20;
      l0_stop = 24;
    }
  in
  write_read_seek_table
    ~title:"Fig 5.2(b) — low memory (cache ~6% of dataset): KOps/s"
    ~open_:(fun engine -> Stores.open_engine ~tweak engine)
    ~n:50_000 ~reads:10_000 ~seeks:3_000 Stores.paper_stores

(* ---------------- fig 5.3 : space amplification ------------------------- *)

let run_space_amp () =
  let table title ~n build =
    B.table ~title ~header:[ "store"; "space (MB)"; "space amp" ]
      (List.map
         (fun engine ->
           let store = Stores.open_engine engine in
           build store n;
           let live = n * (value_1k + 13) in
           let used = Env.total_file_bytes store.Dyn.d_env in
           store.Dyn.d_close ();
           B.Text (Stores.engine_name engine)
           :: List.map (B.num 2)
                [ B.mb used; float_of_int used /. float_of_int live ])
         Stores.paper_stores)
  in
  let unique =
    table "Fig 5.3(i) — space amplification, 40k unique 1KB inserts"
      ~n:40_000 (fun store n ->
        ignore (B.fill_random store ~n ~value_bytes:value_1k ~seed);
        store.Dyn.d_flush ();
        store.Dyn.d_compact_all ())
  in
  let duplicates =
    table
      "Fig 5.3(ii) — space amplification, 4k keys x 10 duplicate updates \
       (uncompacted)"
      ~n:4_000
      (fun store n ->
        (* 10 update rounds, uncompacted: the paper's duplicate-keys case *)
        for round = 0 to 9 do
          ignore
            (B.fill_random store ~n ~value_bytes:value_1k ~seed:(seed + round))
        done;
        store.Dyn.d_flush ())
  in
  B.concat [ unique; duplicates ]

(* ---------------- fig 5.4 : time-series / empty guards ------------------ *)

let run_time_series () =
  let iterations = 8 in
  let per_iter = 6_000 in
  let engines = [ Stores.Pebblesdb; Stores.Hyperleveldb; Stores.Rocksdb ] in
  let results =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        let rng = Pdb_util.Rng.create seed in
        let per_iteration =
          List.init iterations (fun it ->
              let base = it * per_iter in
              let writes =
                P.measure store per_iter (fun () ->
                    for i = base to base + per_iter - 1 do
                      store.Dyn.d_put (B.key_of i)
                        (Pdb_util.Rng.alpha rng 512)
                    done)
              in
              let reads =
                P.measure store per_iter (fun () ->
                    for _ = 1 to per_iter do
                      ignore
                        (store.Dyn.d_get
                           (B.key_of (base + Pdb_util.Rng.int rng per_iter)))
                    done)
              in
              P.measure store per_iter (fun () ->
                  for i = base to base + per_iter - 1 do
                    store.Dyn.d_delete (B.key_of i)
                  done)
              |> ignore;
              store.Dyn.d_compact_all ();
              (writes.P.kops, reads.P.kops))
        in
        (engine, store, per_iteration))
      engines
  in
  List.iter (fun (_, store, _) -> store.Dyn.d_close ()) results;
  B.concat
    [
      B.table
        ~title:
          "Fig 5.4 — time-series pattern (insert range / read / delete-all, 8 \
           iterations): read KOps/s per iteration"
        ~header:
          ("store"
          :: List.init iterations (fun i -> Printf.sprintf "it%d" (i + 1)))
        (List.map
           (fun (engine, _, per_iteration) ->
             B.Text (Stores.engine_name engine)
             :: List.map (fun (_, r) -> B.num 2 r) per_iteration)
           results);
      B.lines
        (List.filter_map
           (fun (engine, _, per_iteration) ->
             match engine with
             | Stores.Pebblesdb ->
               Some
                 (note
                    "pebblesdb write KOps/s first -> last iteration: %.1f -> %.1f"
                    (fst (List.hd per_iteration))
                    (fst (List.nth per_iteration (iterations - 1))))
             | _ -> None)
           results);
    ]

(* ---------------- fig 5.5 : YCSB ---------------------------------------- *)

module W = Pdb_ycsb.Workload

let kops_of (r : Pdb_ycsb.Runner.result) = r.Pdb_ycsb.Runner.run.P.kops

(* The YCSB load of [records] then workloads A, B, C, D and F ([ops]
   each) on [store]: KOps/s of the load and A-D, and of F. *)
let ycsb_load_to_f store ~records ~ops =
  let load = Pdb_ycsb.Runner.load store ~records ~value_bytes:value_1k ~seed in
  let phase spec =
    kops_of
      (Pdb_ycsb.Runner.run store spec ~records ~operations:ops
         ~value_bytes:value_1k ~seed)
  in
  let a = phase W.workload_a in
  let b = phase W.workload_b in
  let c = phase W.workload_c in
  let d = phase W.workload_d in
  let f = phase W.workload_f in
  ([ kops_of load; a; b; c; d ], f)

let run_ycsb () =
  let records = 25_000 in
  let ops = 10_000 in
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine ~tweak:rocksdb_params engine in
        let load_to_d, f = ycsb_load_to_f store ~records ~ops in
        (* E runs on a fresh store per the YCSB spec *)
        let store_e = Stores.open_engine ~tweak:rocksdb_params engine in
        let load_e =
          Pdb_ycsb.Runner.load store_e ~records ~value_bytes:value_1k
            ~seed:(seed + 5)
        in
        let e =
          Pdb_ycsb.Runner.run store_e W.workload_e ~records
            ~operations:(ops / 4) ~value_bytes:value_1k ~seed:(seed + 5)
        in
        let total_io_mb =
          B.mb
            ((Env.stats store.Dyn.d_env).Pdb_simio.Io_stats.bytes_written
             + (Env.stats store_e.Dyn.d_env).Pdb_simio.Io_stats.bytes_written)
        in
        store.Dyn.d_close ();
        store_e.Dyn.d_close ();
        B.Text (Stores.engine_name engine)
        :: List.map (B.num 2)
             (load_to_d @ [ kops_of load_e; kops_of e; f; total_io_mb ]))
      [ Stores.Pebblesdb; Stores.Hyperleveldb; Stores.Rocksdb; Stores.Leveldb ]
  in
  B.table
    ~title:
      "Fig 5.5 — YCSB suite (25k records, 10k ops/workload, 1KB values): \
       KOps/s and total write IO"
    ~header:
      [ "store"; "LoadA"; "A"; "B"; "C"; "D"; "LoadE"; "E"; "F"; "IO(MB)" ]
    rows

(* ---------------- fig 5.6 : applications -------------------------------- *)

let run_apps () =
  let records = 10_000 in
  let ops = 5_000 in
  let app_suite shim tweak engines title =
    let rows =
      List.map
        (fun engine ->
          let store = shim (Stores.open_engine ~tweak engine) in
          let load_to_d, f = ycsb_load_to_f store ~records ~ops in
          let e =
            Pdb_ycsb.Runner.run store W.workload_e ~records
              ~operations:(ops / 10) ~value_bytes:value_1k ~seed
          in
          let io =
            B.mb (Env.stats store.Dyn.d_env).Pdb_simio.Io_stats.bytes_written
          in
          store.Dyn.d_close ();
          B.Text store.Dyn.d_name
          :: List.map (B.num 2) (load_to_d @ [ kops_of e; f; io ]))
        engines
    in
    B.table ~title
      ~header:[ "engine"; "LoadA"; "A"; "B"; "C"; "D"; "E"; "F"; "IO(MB)" ]
      rows
  in
  (* HyperDex: 16 MB memtables scaled to 256 KB *)
  let hyperdex =
    app_suite
      (Pdb_apps.App_shim.wrap Pdb_apps.App_shim.hyperdex)
      (fun o -> { o with O.memtable_bytes = 256 * 1024 })
      [ Stores.Hyperleveldb; Stores.Pebblesdb ]
      "Fig 5.6(a) — HyperDex-sim (read-before-write + app latency): KOps/s"
  in
  (* MongoDB: 16 MB memtable + 8 MB cache scaled to 256 KB / 128 KB *)
  let mongodb =
    app_suite
      (Pdb_apps.App_shim.wrap Pdb_apps.App_shim.mongodb)
      (fun o ->
        { o with O.memtable_bytes = 256 * 1024; block_cache_bytes = 128 * 1024 })
      [ Stores.Wiredtiger; Stores.Rocksdb; Stores.Pebblesdb ]
      "Fig 5.6(b) — MongoDB-sim (app latency; WiredTiger default): KOps/s"
  in
  B.concat [ hyperdex; mongodb ]

(* ---------------- table 5.4 : memory consumption ------------------------ *)

let run_memory () =
  let n = 50_000 in
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        ignore (B.fill_random store ~n ~value_bytes:value_1k ~seed);
        let after_writes = store.Dyn.d_memory_bytes () in
        ignore (B.read_random store ~n ~ops:10_000 ~seed);
        let after_reads = store.Dyn.d_memory_bytes () in
        ignore (B.seek_random store ~n ~ops:5_000 ~nexts:0 ~seed);
        let after_seeks = store.Dyn.d_memory_bytes () in
        store.Dyn.d_close ();
        B.Text (Stores.engine_name engine)
        :: List.map
             (fun bytes -> B.num 2 (B.mb bytes))
             [ after_writes; after_reads; after_seeks ])
      [ Stores.Hyperleveldb; Stores.Rocksdb; Stores.Pebblesdb ]
  in
  B.table
    ~title:"Table 5.4 — modeled memory consumption (MB) after each phase"
    ~header:[ "store"; "writes"; "reads"; "seeks" ]
    rows

(* ---------------- sec 5.5 : CPU + bloom construction cost --------------- *)

let run_cpu_cost () =
  let n = n_medium in
  let rows =
    List.map
      (fun engine ->
        let store = Stores.open_engine engine in
        let clock = Env.clock store.Dyn.d_env in
        ignore (B.fill_random store ~n ~value_bytes:value_1k ~seed);
        let snap = Pdb_simio.Clock.snapshot clock in
        let fg = snap.Pdb_simio.Clock.foreground_ns +. snap.Pdb_simio.Clock.cpu_ns in
        let bg = snap.Pdb_simio.Clock.background_ns in
        store.Dyn.d_close ();
        (B.Text (Stores.engine_name engine)
        :: List.map (B.num 2) [ bg /. 1e9; fg /. 1e9 ])
        @ [ B.pct (100.0 *. bg /. (fg +. bg)) ])
      Stores.paper_stores
  in
  (* bloom construction cost: real wall-clock, scaled to per-GB-of-sstable *)
  let keys = 200_000 in
  let t0 = Unix.gettimeofday () in
  let bloom = Pdb_bloom.Bloom.create keys in
  for i = 0 to keys - 1 do
    Pdb_bloom.Bloom.add bloom (Printf.sprintf "user%016d" i)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let bytes_covered = keys * (16 + value_1k) in
  B.concat
    [
      B.table
        ~title:
          "Sec 5.5 — compaction (background) vs foreground time during 30k x \
           1KB inserts (simulated seconds)"
        ~header:[ "store"; "compaction s"; "foreground s"; "compaction share" ]
        rows;
      B.lines
        [
          note
            "bloom construction: %.3fs for %d keys (~%.2f s per GB of sstable \
             data; paper: 1.2 s/GB)"
            dt keys
            (dt *. (1024.0 *. 1024.0 *. 1024.0) /. float_of_int bytes_covered);
        ];
    ]

(* ---------------- ablation : §5.2 impact of optimizations --------------- *)

let run_ablation () =
  let n = 20_000 in
  let variant label tweak =
    let store = Stores.open_engine ~tweak Stores.Pebblesdb in
    ignore (B.fill_random store ~n ~value_bytes:value_1k ~seed);
    (* reads are measured on the as-written store (multiple sstables per
       guard — where bloom filters matter); seeks after full compaction,
       the paper's worst case *)
    let reads = B.read_random store ~n ~ops:10_000 ~seed in
    store.Dyn.d_compact_all ();
    let seeks = B.seek_random store ~n ~ops:3_000 ~nexts:0 ~seed in
    store.Dyn.d_close ();
    [ B.Text label; B.num 2 seeks.P.kops; B.num 2 reads.P.kops ]
  in
  let rows =
    [
      variant "all optimizations" Fun.id;
      variant "no parallel seeks"
        (fun o -> { o with O.probe_budget = 1 });
      variant "no seek compaction"
        (fun o -> { o with O.seek_based_compaction = false });
      variant "neither seek optimization"
        (fun o ->
          {
            o with
            O.probe_budget = 1;
            seek_based_compaction = false;
          });
      variant "no sstable blooms" (fun o -> { o with O.sstable_bloom = false });
    ]
  in
  B.table
    ~title:
      "Sec 5.2 ablation — PebblesDB seek/read throughput under optimization \
       subsets (KOps/s)"
    ~header:[ "variant"; "seekrandom"; "readrandom" ]
    rows

(* ---------------- sec 3.5 : tuning FLSM --------------------------------- *)

let run_tuning () =
  (* the paper's single tuning knob: max_sstables_per_guard caps read and
     range-query latency at the price of more compaction IO; at 1, FLSM
     "behaves like LSM and obtains similar read and write performance" *)
  let n = 20_000 in
  let rows =
    List.map
      (fun cap ->
        let store =
          Stores.open_engine
            ~tweak:(fun o -> { o with O.max_sstables_per_guard = cap })
            Stores.Pebblesdb
        in
        let fill = B.fill_random store ~n ~value_bytes:value_1k ~seed in
        let wa = B.write_amp store in
        store.Dyn.d_compact_all ();
        let seeks = B.seek_random store ~n ~ops:3_000 ~nexts:0 ~seed in
        store.Dyn.d_close ();
        B.int cap :: List.map (B.num 2) [ fill.P.kops; wa; seeks.P.kops ])
      [ 1; 2; 4; 8; 16 ]
  in
  B.table
    ~title:
      "Sec 3.5 — tuning max_sstables_per_guard: write IO vs read/range        latency (cap=1 is the paper's LSM mode)"
    ~header:[ "cap"; "fillrandom KOps/s"; "write amp"; "seekrandom KOps/s" ]
    rows

(* ---------------- future work (chapter 7) ------------------------------- *)

let run_future_work () =
  (* guard-parallel compaction: FLSM compaction is "trivially
     parallelizable" per guard (§3.4, §7).  Jobs over disjoint guards
     land on separate worker lanes; the leveled baseline's wide
     compactions conflict and serialise, so extra workers help it less. *)
  let n = n_medium in
  let fill_at engine threads =
    let store =
      Stores.open_engine
        ~tweak:(fun o -> { o with O.compaction_threads = threads })
        engine
    in
    let fill = B.fill_random store ~n ~value_bytes:value_1k ~seed in
    let sched = B.scheduler_summary store in
    store.Dyn.d_close ();
    (fill.P.kops, sched)
  in
  let rows, summaries =
    List.map
      (fun engine ->
        let name = Stores.engine_name engine in
        let k1, s1 = fill_at engine 1 in
        let k4, s4 = fill_at engine 4 in
        ( [ B.Text name; B.num 2 k1; B.num 2 k4; B.num 2 (rel k1 k4) ],
          [ (name ^ " @1", s1); (name ^ " @4", s4) ] ))
      [ Stores.Pebblesdb; Stores.Hyperleveldb ]
    |> List.split
  in
  (* guard deletion: time-series churn accumulates empty guards; deleting
     them trims the metadata without disturbing data *)
  let env = Env.create () in
  let opts = O.pebblesdb () in
  let db = Pebblesdb.Pebbles_store.open_store opts ~env ~dir:"db" in
  let module P = Pebblesdb.Pebbles_store in
  for it = 0 to 3 do
    for i = it * 8_000 to ((it + 1) * 8_000) - 1 do
      P.put db (B.key_of i) (String.make 256 'v')
    done;
    for i = it * 8_000 to ((it + 1) * 8_000) - 1 do
      P.delete db (B.key_of i)
    done;
    P.compact_all db
  done;
  let before = P.empty_guard_count db in
  let removed = P.delete_empty_guards db in
  P.check_invariants db;
  P.close db;
  B.concat
    [
      B.table
        ~title:
          "Sec 7 (future work) — guard-parallel compaction: fillrandom vs        compaction workers (speedup = 4w / 1w)"
        ~header:
          [ "store"; "KOps/s (1 worker)"; "KOps/s (4 workers)"; "speedup" ]
        rows;
      B.lines
        (List.filter_map
           (fun (label, s) ->
             if s = "" then None else Some (note "%-16s %s" label s))
           (List.concat summaries)
        @ [
            note
              "guard deletion (§3.3): %d empty guards accumulated by time-series      churn; delete_empty_guards removed %d; invariants hold"
              before removed;
          ]);
    ]

(* A scaling table: per store, KOps/s ([at per count]) at each of
   [counts] (clients or shards, suffixed [unit]), each the store's
   result [metric count], and the 4-vs-1 ratio. *)
let scaling_table ~title ~unit ~metric counts results at =
  B.table ~title
    ~header:
      (("store" :: List.map (fun c -> Printf.sprintf "%d%s KOps/s" c unit) counts)
      @ [ Printf.sprintf "4%s/1%s" unit unit ])
    (List.map
       (fun (name, per) ->
         let at = at per in
         (B.Text name
         :: List.map (fun c -> B.metric ~store:name (metric c) 1 (at c)) counts)
         @ [ B.num 2 (rel (at 1) (at 4)) ])
       results)

(* ---------------- mt : multithreaded clients + group commit ------------- *)

(* The paper's multithreaded-throughput figures (§4.2, ch. 5): N client
   threads drive the store concurrently.  Here N foreground client lanes
   replay the same seeded workload round-robin (store state is identical
   at every client count — tested in test_group_commit.ml); writes run
   under [wal_sync_writes], where the WAL group commit amortizes the
   per-commit sync across the clients queued in the window.  Expected
   shape: write throughput rises from 1 to 4 clients for every engine
   (the leader's one sync covers the whole group), reads scale until the
   shared device saturates, and PebblesDB stays ahead of the leveled
   baselines — its foreground is the same, but its guard-parallel
   compaction drains the background horizon faster. *)
let run_multithreaded ~n =
  let client_counts = [ 1; 2; 4; 8 ] in
  let sync_tweak o = { o with O.wal_sync_writes = true } in
  (* per store: clients -> ((fill, read, mixed) phases, fill's group-commit
     result) *)
  let results =
    List.map
      (fun engine ->
        let name = Stores.engine_name engine in
        let per_clients =
          List.map
            (fun clients ->
              let store = Stores.open_engine ~tweak:sync_tweak engine in
              let fill =
                B.fill_random ~clients store ~n ~value_bytes:value_1k ~seed
              in
              let read = B.read_random ~clients store ~n ~ops:(n / 2) ~seed in
              let mixed =
                B.mixed ~clients store ~n ~ops:(n / 2) ~value_bytes:value_1k
                  ~seed
              in
              store.Dyn.d_close ();
              (clients, ((fill, read, mixed), Option.get fill.P.lanes)))
            client_counts
        in
        (name, per_clients))
      Stores.paper_stores
  in
  let kops per pick c = (pick (fst (List.assoc c per))).P.kops in
  let kops_table title label pick =
    scaling_table ~title ~unit:"c"
      ~metric:(Printf.sprintf "%s_kops_%dc" label)
      client_counts results
      (fun per -> kops per pick)
  in
  B.concat
    [
      kops_table "Multithreaded write-only (random fill, wal_sync_writes)"
        "write" (fun (f, _, _) -> f);
      kops_table "Multithreaded read-only (random point lookups)" "read"
        (fun (_, r, _) -> r);
      kops_table "Multithreaded mixed (50% reads / 50% writes)" "mixed"
        (fun (_, _, m) -> m);
      (* group-commit accounting for the write-only phase *)
      B.table ~title:"Group commit (write-only phase)"
        ~header:
          [ "store"; "clients"; "groups"; "avg group"; "syncs saved";
            "max wait (ms)" ]
        (List.concat_map
           (fun (name, per) ->
             List.map
               (fun (clients, (_, (fr : Mc.result))) ->
                 [ B.Text name; B.int clients; B.int fr.Mc.write_groups;
                   B.num 2 fr.Mc.avg_group_size;
                   B.metric ~store:name
                     (Printf.sprintf "syncs_saved_%dc" clients)
                     0
                     (float_of_int fr.Mc.syncs_saved);
                   B.num 2
                     (Array.fold_left Float.max 0.0 fr.Mc.client_wait_ns
                     /. 1e6) ])
               per)
           results);
      (* the acceptance shape, stated explicitly *)
      B.lines
        (List.map
           (fun (name, per) ->
             let write = kops per (fun (f, _, _) -> f) in
             note
               "%s: write 1->4 clients %.1f -> %.1f KOps/s (%.2fx), syncs saved \
                at 8 clients: %d"
               name (write 1) (write 4)
               (rel (write 1) (write 4))
               (snd (List.assoc 8 per)).Mc.syncs_saved)
           results);
    ]

(* ---------------- latency : fig 5.5 latency comparison + stall profile -- *)

module L = Pdb_kvs.Latency
module H = Pdb_util.Histogram

(* Per-operation latency percentiles per engine (the paper reports average
   and 99th-percentile read/write latency, Fig 5.5), then a
   latency-under-load profile: the fill replayed in chunks, sampling
   throughput, compaction backlog and stall time over simulated time —
   the write-stall dynamics where LSM designs differ most (Luo & Carey). *)
let run_latency ~n =
  let lat_row store_name label h =
    let us p = H.percentile h p /. 1e3 in
    (B.Text store_name :: B.Text label
    :: List.map (B.num 1) [ H.mean h /. 1e3; us 50.0; us 90.0 ])
    @ [ B.metric ~store:store_name (label ^ "_p99_us") 1 (us 99.0);
        B.num 1 (us 99.9) ]
  in
  let rows =
    List.concat_map
      (fun engine ->
        let name = Stores.engine_name engine in
        let store = Stores.open_engine engine in
        let lat = L.create () in
        let timed = L.instrument lat store in
        ignore (B.fill_random timed ~n ~value_bytes:value_1k ~seed);
        ignore (B.read_random timed ~n ~ops:(n / 2) ~seed);
        ignore (B.seek_random timed ~n ~ops:(n / 10) ~nexts:0 ~seed);
        store.Dyn.d_close ();
        List.filter_map
          (fun (kind, label) ->
            let h = L.hist lat kind in
            if H.count h = 0 then None else Some (lat_row name label h))
          L.kinds)
      Stores.paper_stores
  in
  let latency =
    B.table
      ~title:
        (Printf.sprintf
           "Fig 5.5 latency — per-op modeled latency, us (%dk x 1KB fill, then \
            reads and seeks)"
           (n / 1000))
      ~header:[ "store"; "op"; "mean"; "p50"; "p90"; "p99"; "p99.9" ]
      rows
  in
  (* stall profile: chunked fill sampled over simulated time *)
  let chunks = 10 in
  let per_chunk = max 1 (n / chunks) in
  let stall_profile engine =
    let name = Stores.engine_name engine in
    let store = Stores.open_engine engine in
    let clock = Env.clock store.Dyn.d_env in
    let rng = Pdb_util.Rng.create seed in
    let perm = Array.init (chunks * per_chunk) Fun.id in
    Pdb_util.Rng.shuffle rng perm;
    let prev_stall = ref 0.0 in
    let sample_rows =
      List.init chunks (fun c ->
          let lat = L.create () in
          let timed = L.instrument lat store in
          let phase =
            P.measure timed per_chunk (fun () ->
                for i = c * per_chunk to ((c + 1) * per_chunk) - 1 do
                  timed.Dyn.d_put (B.key_of perm.(i))
                    (Pdb_util.Rng.alpha rng value_1k)
                done)
          in
          let st = store.Dyn.d_stats () in
          let stall =
            st.Pdb_kvs.Engine_stats.stall_slowdown_ns
            +. st.Pdb_kvs.Engine_stats.stall_stop_ns
          in
          let pending = st.Pdb_kvs.Engine_stats.compaction_pending in
          let backlog = st.Pdb_kvs.Engine_stats.compaction_backlog_bytes in
          let stall_delta = stall -. !prev_stall in
          prev_stall := stall;
          let t_ms =
            Pdb_simio.Clock.elapsed_ns (Pdb_simio.Clock.snapshot clock)
            /. 1e6
          in
          [ B.num 1 t_ms; B.num 1 phase.P.kops; B.int pending;
            B.num 2 (B.mb backlog); B.num 1 (stall_delta /. 1e6);
            B.num 1 (H.percentile (L.hist lat L.Write) 99.0 /. 1e3) ])
    in
    store.Dyn.d_close ();
    B.table
      ~title:
        (Printf.sprintf
           "Stall profile — %s: chunked fill over simulated time (%d chunks x \
            %d ops)"
           name chunks per_chunk)
      ~header:
        [ "t (ms)"; "KOps/s"; "pending"; "backlog MB"; "stall ms";
          "write p99 us" ]
      sample_rows
  in
  B.concat
    (latency
    :: List.map stall_profile [ Stores.Pebblesdb; Stores.Hyperleveldb ])

(* ---------------- shard : range-partitioned scale-out ------------------ *)

(* One level above the guards: the keyspace range-partitioned over N
   complete engine instances (lib/shard), every engine behind the same
   router.  The sweep runs shard counts x client counts for each engine.
   Expected shape: at 4 clients, mixed throughput improves from 1 to 4
   shards for every engine — each shard has its own memtable (N x buffer
   before any flush), its own WAL writer queue, and its own compaction
   scheduler whose worker lanes overlap with the other shards' — and
   PebblesDB stays ahead of the leveled baselines at every shard count,
   since within each shard its guard-parallel compaction still moves less
   data.  The balance column is max/mean user bytes across shards (1.00 =
   perfectly even splits).

   The sweep runs the default durability profile (no per-commit sync).
   Under [wal_sync_writes] sharding carries a real tradeoff: each lane
   commit group splits into per-shard groups with their own WAL sync, so
   a group of 4 batches that cost one sync on a single store costs up to
   4 across shards — group-commit amortization and shard parallelism
   pull in opposite directions (see the mt experiment for the sync-bound
   regime). *)

(* Explicit splits for the bench keyspace: B.key_of covers [0, n), so the
   uniform byte-interpolated defaults (which split the full byte space)
   would park every "key..." key in one shard. *)
let shard_splits_for ~n ~shards =
  List.init (shards - 1) (fun i -> B.key_of ((i + 1) * n / shards))

let run_shard ~n =
  let shard_counts = [ 1; 2; 4; 8 ] in
  let client_counts = [ 1; 4 ] in
  let results =
    List.map
      (fun engine ->
        let name = Stores.engine_name engine in
        let per =
          List.concat_map
            (fun shards ->
              let tweak o =
                { o with O.shards; shard_splits = shard_splits_for ~n ~shards }
              in
              List.map
                (fun clients ->
                  let sh = Stores.open_sharded ~tweak engine in
                  let store = sh.Stores.s_dyn in
                  let fill =
                    B.fill_random ~clients store ~n ~value_bytes:value_1k
                      ~seed
                  in
                  let mixed =
                    B.mixed ~clients store ~n ~ops:(n / 2)
                      ~value_bytes:value_1k ~seed
                  in
                  let st = store.Dyn.d_stats () in
                  let balance = st.Pdb_kvs.Engine_stats.shard_balance in
                  store.Dyn.d_close ();
                  ((shards, clients), (fill, mixed, balance)))
                client_counts)
            shard_counts
        in
        (name, per))
      Stores.paper_stores
  in
  let cell ~clients pick per shards =
    let fill, mixed, _ = List.assoc (shards, clients) per in
    (pick (fill, mixed)).P.kops
  in
  let kops_name label clients shards =
    Printf.sprintf "%s_kops_%ds_%dc" label shards clients
  in
  let kops_table title label clients pick =
    scaling_table ~title ~unit:"s" ~metric:(kops_name label clients)
      shard_counts results (cell ~clients pick)
  in
  B.concat
    [
      kops_table "Sharded write-only, 4 clients (random fill)" "write" 4
        (fun (f, _) -> f);
      kops_table "Sharded mixed 50/50, 4 clients" "mixed" 4 (fun (_, m) -> m);
      kops_table "Sharded mixed 50/50, 1 client" "mixed" 1 (fun (_, m) -> m);
      B.table ~title:"Shard balance (max/mean user bytes written per shard)"
        ~header:
          ("store" :: List.map (fun s -> Printf.sprintf "%ds" s) shard_counts)
        (List.map
           (fun (name, per) ->
             B.Text name
             :: List.map
                  (fun shards ->
                    let _, _, balance = List.assoc (shards, 1) per in
                    B.metric ~store:name
                      (Printf.sprintf "balance_%ds" shards)
                      2 balance)
                  shard_counts)
           results);
      (* the acceptance shape, stated explicitly *)
      B.lines
        (List.map
           (fun (name, per) ->
             let m = cell ~clients:4 (fun (_, m) -> m) per in
             note
               "%s: mixed 1->4 shards at 4 clients %.1f -> %.1f KOps/s (%.2fx)"
               name (m 1) (m 4)
               (rel (m 1) (m 4)))
           results);
      (* the single-client write-only sweep is in no table *)
      B.metrics
        (List.concat_map
           (fun (name, per) ->
             List.map
               (fun shards ->
                 ( { B.store = name; name = kops_name "write" 1 shards },
                   cell ~clients:1 (fun (f, _) -> f) per shards ))
               shard_counts)
           results);
    ]

(* ---------------- elastic : resplit under a shifting hotspot ------------- *)

(* The case for elasticity: a skewed workload whose hot range moves.
   Static quartile splits concentrate a narrow hot window inside one
   shard — every client hammers that shard's memtable and read path
   while three shards idle — and when the window hops to a different
   shard the penalty simply moves with it.  The elastic store starts
   from the *same* quartile topology but is allowed to resplit: the
   controller detects the hot shard from per-shard op counters, splits
   it at the sampled median request key, migrates the range on the
   compaction lanes, and merges the shards the hotspot abandoned.

   The run is two hotspot phases (the window hops at the halfway
   point).  The shifted second phase is reported in two slices: the
   convergence slice right after the hop (where the elastic store pays
   for detection and migration) and the steady remainder.  The
   acceptance shape is the steady slice — resplit *recovers* >= 1.3x
   the static store's mixed throughput — plus elastic >= static on the
   run as a whole for every engine.

   Keys come from [B.key_of] (ordered, not hashed) so the hot window is
   a contiguous key range — spatial skew, which routing can act on; the
   YCSB runner's hashed keys would spread any hotspot uniformly. *)
let run_elastic ~n =
  let clients = 4 in
  (* a compact keyspace with many overwrites: resident data stays small
     (cheap migrations) while the op stream is long enough for two full
     hotspot phases *)
  let keyspace = max 1500 (n / 15) in
  let ops = 16 * keyspace in
  let shards0 = 4 in
  (* one shifting-hotspot mixed op stream per store: identical key/RW
     sequence (same seeds) *)
  let mixed_draw () =
    let dist =
      Pdb_util.Dist.shifting_hotspot ~span:0.06 ~hot:0.98 ~seed
        ~period:(ops / 2) keyspace
    in
    let rng = Pdb_util.Rng.create (seed + 11) in
    fun () ->
      let key = B.key_of (Pdb_util.Dist.next dist) in
      if Pdb_util.Rng.int rng 2 = 0 then P.Get key
      else P.Put (key, B.value_of rng value_1k)
  in
  let run_one engine ~elastic =
    let tweak o =
      let o =
        { o with O.shards = shards0;
          shard_splits = shard_splits_for ~n:keyspace ~shards:shards0;
          memtable_bytes = 256 * 1024 }
      in
      if not elastic then o
      else
        { o with O.elastic = true;
          elastic_window_ops = max 300 (ops / 80);
          elastic_split_ratio = 2.0;
          elastic_merge_ratio = 0.1;
          elastic_max_shards = 12 }
    in
    let sh = Stores.open_sharded ~tweak engine in
    let store = sh.Stores.s_dyn in
    ignore (B.fill_random ~clients store ~n:keyspace ~value_bytes:128 ~seed);
    (* the stream in three slices: the first hotspot phase, the
       convergence right after the hop, and the steady remainder *)
    let draw = mixed_draw () in
    let slice n = P.drive ~clients store ~n draw in
    let ra = slice (ops / 2) in
    let rc = slice (ops / 6) in
    let rs = slice (ops - (ops / 2) - (ops / 6)) in
    let st = store.Dyn.d_stats () in
    let splits = st.Pdb_kvs.Engine_stats.elastic_splits in
    let merges = st.Pdb_kvs.Engine_stats.elastic_merges in
    let shard_count = sh.Stores.s_shard_count () in
    store.Dyn.d_close ();
    let overall_kops =
      P.kops ~ops
        ~elapsed_ns:(ra.P.elapsed_ns +. rc.P.elapsed_ns +. rs.P.elapsed_ns)
    in
    (ra, rc, rs, overall_kops, splits, merges, shard_count)
  in
  let results =
    List.map
      (fun engine ->
        let name = Stores.engine_name engine in
        let sa, sc, ss, s_all, _, _, _ = run_one engine ~elastic:false in
        let ea, ec, es, e_all, splits, merges, shards =
          run_one engine ~elastic:true
        in
        (name, (sa, sc, ss, s_all), (ea, ec, es, e_all), splits, merges,
         shards))
      Stores.paper_stores
  in
  B.concat
    [
      B.table
        ~title:
          (Printf.sprintf
             "Shifting hotspot (span 6%%, hop at midpoint), mixed 50/50, %d \
              clients"
             clients)
        ~header:
          [ "store"; "topology"; "phase-A"; "shift+conv"; "steady"; "overall";
            "splits"; "merges"; "shards" ]
        (List.concat_map
           (fun (name, (sa, sc, ss, s_all), (ea, ec, es, e_all), splits, merges,
                 shards) ->
             let m = B.metric ~store:name in
             [
               [ B.Text name; B.Text "static"; B.num 1 sa.P.kops;
                 B.num 1 sc.P.kops; m "steady_kops_static" 1 ss.P.kops;
                 m "overall_kops_static" 1 s_all; B.Text "0"; B.Text "0";
                 B.int shards0 ];
               [ B.Text ""; B.Text "elastic"; B.num 1 ea.P.kops;
                 B.num 1 ec.P.kops; m "steady_kops_elastic" 1 es.P.kops;
                 m "overall_kops_elastic" 1 e_all;
                 m "elastic_splits" 0 (float_of_int splits);
                 m "elastic_merges" 0 (float_of_int merges); B.int shards ];
             ])
           results);
      (* the acceptance shape, stated explicitly *)
      B.lines
        (List.map
           (fun (name, (_, _, ss, s_all), (_, _, es, e_all), splits, merges, _) ->
             note
               "%s: steady shifted-phase mixed static %.1f -> elastic %.1f \
                KOps/s (%.2fx, target >=1.3x); overall %.1f -> %.1f (%.2fx); \
                %d splits, %d merges"
               name ss.P.kops es.P.kops
               (rel ss.P.kops es.P.kops)
               s_all e_all (rel s_all e_all) splits merges)
           results);
      B.metrics
        (List.map
           (fun (name, (_, _, ss, _), (_, _, es, _), _, _, _) ->
             ( { B.store = name; name = "recovered_ratio" },
               rel ss.P.kops es.P.kops ))
           results);
    ]

(* ---------------- policy : compaction policy sweep ---------------------- *)

(* The compaction design space as configuration (lib/compaction/policy.ml):
   the same workload under each of the four named policies, on the engine
   that implements it (flsm_guarded -> the FLSM engine, the rest -> the
   leveled/tiered LSM engine).  Expected shape — the classic three-way
   tradeoff: tiered minimizes write-amp (runs stack, nothing rewrites),
   leveled minimizes scan cost and space-amp (one run per level), and
   lazy_leveled sits between (tiered uppers, leveled last level), with
   flsm_guarded near lazy_leveled (fragments stack inside guards but
   guard-grain compaction keeps levels bounded).

   The sweep runs with [max_levels = 4] so the scaled dataset actually
   reaches the last level — that is where lazy_leveled diverges from
   tiered and where space-amp differences live. *)

let run_policy ~n =
  let policies = O.all_compaction_policies in
  let rows =
    List.map
      (fun p ->
        let name = O.compaction_policy_name p in
        let engine = Stores.engine_for_policy Stores.Hyperleveldb p in
        let tweak (o : O.t) =
          { o with O.compaction_policy = p; max_levels = 4 }
        in
        let store = Stores.open_engine ~tweak engine in
        let fill = B.fill_random store ~n ~value_bytes:value_1k ~seed in
        store.Dyn.d_flush ();
        let wa = B.write_amp store in
        (* space as written by the policy, before any manual compaction *)
        let live = n * (value_1k + 13) in
        let used = Env.total_file_bytes store.Dyn.d_env in
        let space_amp = float_of_int used /. float_of_int live in
        let reads = B.read_random store ~n ~ops:(n / 2) ~seed in
        (* scan cost: full forward iteration; tiered pays one iterator per
           run where leveled pays one per level *)
        let scan =
          P.measure store n (fun () ->
              let it = store.Dyn.d_iterator () in
              it.Iter.seek_to_first ();
              while it.Iter.valid () do
                ignore (it.Iter.key ());
                it.Iter.next ()
              done)
        in
        let triggers = B.trigger_summary store in
        store.Dyn.d_close ();
        ( B.Text name
          :: named ~store:name 2
               [ ("fill_kops", fill.P.kops); ("write_amp", wa);
                 ("read_kops", reads.P.kops); ("scan_kops", scan.P.kops);
                 ("space_amp", space_amp) ],
          (name, triggers) ))
      policies
  in
  B.concat
    [
      B.table
        ~title:
          (Printf.sprintf
             "Compaction policy sweep — %dk x 1KB random fill, then reads and a \
              full scan (max_levels=4)"
             (n / 1000))
        ~header:
          [ "policy"; "fill KOps/s"; "write amp"; "read KOps/s"; "scan KOps/s";
            "space amp" ]
        (List.map fst rows);
      B.lines
        (List.filter_map
           (fun (_, (name, triggers)) ->
             if triggers = "" then None else Some (note "%-14s %s" name triggers))
           rows);
    ]

(* ---------------- engine x policy grid --------------------------------- *)

(* The engine x compaction-policy combinations the stability and read
   sweeps cover; each engine implements its policy. *)
let policy_combos =
  [
    (Stores.Pebblesdb, O.Flsm_guarded);
    (Stores.Hyperleveldb, O.Leveled);
    (Stores.Hyperleveldb, O.Tiered);
    (Stores.Hyperleveldb, O.Lazy_leveled);
    (Stores.Leveldb, O.Leveled);
    (Stores.Rocksdb, O.Leveled);
  ]

(* [combo_sweep variants run] runs every combo under each named variant:
   ("engine/policy", [(variant name, run combo variant)]) per combo. *)
let combo_sweep variants run =
  List.map
    (fun ((engine, policy) as combo) ->
      ( Printf.sprintf "%s/%s" (Stores.engine_name engine)
          (O.compaction_policy_name policy),
        List.map (fun (name, v) -> (name, run combo v)) variants ))
    policy_combos

(* ---------------- stability : sustained-ingest write stability --------- *)

(* Luo & Carey ("On Performance Stability in LSM-based Storage Systems"):
   under sustained ingest, p99.9 write latency and windowed throughput
   variance are governed by how writes are throttled and how background
   work is scheduled, not by total compaction volume.  This experiment
   drives the same long random-ingest run per engine x compaction policy
   twice — once under the seed Slowdown/Stop cliff and once under the
   debt-keyed token-bucket controller (Pdb_kvs.Backpressure) — and
   reports mean throughput, the coefficient of variation over ingest
   windows, the stall share of elapsed time, and write p99/p99.9.  The
   target shape, checked explicitly below: for every engine the smooth
   controller trades the cliff's stall bursts for pacing, lowering both
   the variance and the p99.9 tail at equal or better mean throughput. *)

let run_stability ~n =
  (* windows must be shorter than one L0 build-drain cycle (~4 flushes)
     or the cliff's burstiness averages out inside each window instead of
     showing up as inter-window variance *)
  let per_window = 120 in
  let windows = max 2 (n / per_window) in
  let total = windows * per_window in
  let run_one (engine, policy) throttle =
    (* The simulated scheduler drains synchronously, so L0 never exceeds
       the compaction trigger and the engines' stock slowdown/stop
       thresholds (8/12 files, calibrated for asynchronous real systems)
       are unreachable — the seed recorded zero explicit stalls at bench
       scale.  Scaling the thresholds below the trigger, like every other
       size in this repro is scaled, recreates the regime the throttle
       governs: ingest outpacing compaction. *)
    let tweak (o : O.t) =
      {
        o with
        O.compaction_policy = policy;
        throttle;
        l0_slowdown = 2;
        l0_stop = 4;
      }
    in
    let store = Stores.open_engine ~tweak engine in
    let clock = Env.clock store.Dyn.d_env in
    let rng = Pdb_util.Rng.create seed in
    let perm = Array.init total Fun.id in
    Pdb_util.Rng.shuffle rng perm;
    let lat = L.create () in
    let timed = L.instrument lat store in
    let kops = Array.make windows 0.0 in
    for w = 0 to windows - 1 do
      let phase =
        P.measure timed per_window (fun () ->
            for i = w * per_window to ((w + 1) * per_window) - 1 do
              timed.Dyn.d_put (B.key_of perm.(i))
                (Pdb_util.Rng.alpha rng value_1k)
            done)
      in
      kops.(w) <- phase.P.kops
    done;
    let st = store.Dyn.d_stats () in
    let stall_ns =
      st.Pdb_kvs.Engine_stats.stall_slowdown_ns
      +. st.Pdb_kvs.Engine_stats.stall_stop_ns
    in
    let elapsed_ns =
      Pdb_simio.Clock.elapsed_ns (Pdb_simio.Clock.snapshot clock)
    in
    store.Dyn.d_close ();
    let wf = float_of_int windows in
    let mean = Array.fold_left ( +. ) 0.0 kops /. wf in
    let var =
      Array.fold_left (fun acc k -> acc +. ((k -. mean) ** 2.0)) 0.0 kops /. wf
    in
    let cv = if mean <= 0.0 then 0.0 else 100.0 *. sqrt var /. mean in
    let h = L.hist lat L.Write in
    ( mean,
      cv,
      (if elapsed_ns <= 0.0 then 0.0 else 100.0 *. stall_ns /. elapsed_ns),
      H.percentile h 99.0 /. 1e3,
      H.percentile h 99.9 /. 1e3 )
  in
  let results =
    combo_sweep
      (List.map (fun t -> (O.throttle_name t, t)) [ O.Cliff; O.Token_bucket ])
      run_one
  in
  B.concat
    [
      B.table
        ~title:
          (Printf.sprintf
             "Write stability — sustained ingest, %d windows x %d x 1KB puts: \
              windowed throughput variance and write tail, Slowdown/Stop cliff \
              vs debt-keyed token bucket"
             windows per_window)
        ~header:
          [ "engine/policy"; "throttle"; "KOps/s"; "cv %"; "stall %"; "p99 us";
            "p99.9 us" ]
        (List.concat_map
           (fun (label, per_throttle) ->
             List.map
               (fun (throttle, (mean, cv, stall, p99, p999)) ->
                 B.Text label :: B.Text throttle
                 :: named ~store:(label ^ "+" ^ throttle) 1
                      [ ("mean_kops", mean); ("window_cv_pct", cv);
                        ("stall_share_pct", stall); ("write_p99_us", p99);
                        ("write_p999_us", p999) ])
               per_throttle)
           results);
      (* the acceptance shape, stated explicitly: smooth beats cliff on
         variance and tail without giving up mean throughput *)
      B.lines
        (List.filter_map
           (function
             | ( label,
                 [ (_, (c_mean, c_cv, _, _, c_p999)); (_, (t_mean, t_cv, _, _, t_p999)) ]
               ) ->
               Some
                 (check
                    (t_cv <= c_cv && t_p999 <= c_p999 && t_mean >= c_mean)
                    ~miss:"  [CLIFF WINS — investigate]"
                    "%s: cv %.1f%% -> %.1f%% p99.9 %.1f -> %.1fus mean %.1f -> \
                     %.1f KOps/s"
                    label c_cv t_cv c_p999 t_p999 c_mean t_mean)
             | _ -> None)
           results);
    ]

(* ---------------- read : read-path optimizations ------------------------ *)

(* Production-scale read path (DESIGN.md "Read path"): guard-aware seek
   filtering, index summaries above the table cache, and the per-device
   parallel-probe budget, measured on a read-heavy (YCSB C) and a
   scan-heavy (YCSB E, scans only) mix at 4 and 8 clients.  Each engine x
   policy combo runs twice — "on" is the default read path, "off"
   disables all three optimizations (seek_filtering=false,
   index_summary_stride=0, probe_budget=1).  Two invariants are
   checked explicitly: the read path must be invisible to the write path
   (load throughput unchanged, bytes on storage byte-identical between
   configs), and with it on PebblesDB must close its scan/read gap
   rather than widen it.  The table cache is shrunk well below the table
   count so evictions — where index summaries pay — actually happen. *)

let run_read ~n =
  let configs =
    [
      ("on", Fun.id);
      ( "off",
        fun (o : O.t) ->
          {
            o with
            O.seek_filtering = false;
            index_summary_stride = 0;
            probe_budget = 1;
          } );
    ]
  in
  let run_one (engine, policy) cfg_tweak =
    let tweak (o : O.t) =
      cfg_tweak
        { o with O.compaction_policy = policy; table_cache_entries = 64 }
    in
    let store = Stores.open_engine ~tweak engine in
    let load =
      Pdb_ycsb.Runner.load ~clients:4 store ~records:n ~value_bytes:value_1k
        ~seed
    in
    store.Dyn.d_flush ();
    let phase spec ~clients ~operations =
      kops_of
        (Pdb_ycsb.Runner.run ~clients store spec ~records:n ~operations
           ~value_bytes:value_1k ~seed)
    in
    let c4 = phase W.workload_c ~clients:4 ~operations:(n / 2) in
    let c8 = phase W.workload_c ~clients:8 ~operations:(n / 2) in
    let e4 = phase W.workload_e_scan_only ~clients:4 ~operations:(n / 10) in
    let st = store.Dyn.d_stats () in
    (* the write path must leave identical bytes with the read path on
       or off *)
    let disk = Pdb_simio.Fingerprint.md5 store.Dyn.d_env in
    store.Dyn.d_close ();
    (kops_of load, c4, c8, e4, disk, st)
  in
  let results = combo_sweep configs run_one in
  B.concat
    [
      B.table
        ~title:
          (Printf.sprintf
             "Read path — %dk x 1KB YCSB load (4 clients), then workload C \
              (reads) at 4/8 clients and scan-only E at 4 clients, read-path \
              optimizations on vs off"
             (n / 1000))
        ~header:
          [ "engine/policy"; "read path"; "load KOps/s"; "C@4 KOps/s";
            "C@8 KOps/s"; "E@4 KOps/s"; "filter skips"; "summary hits" ]
        (List.concat_map
           (fun (label, per_cfg) ->
             List.map
               (fun (cfg, (load, c4, c8, e4, _, st)) ->
                 let store = label ^ "+" ^ cfg in
                 (B.Text label :: B.Text cfg
                 :: named ~store 2
                      [ ("load_kops", load); ("c_kops_4c", c4);
                        ("c_kops_8c", c8); ("e_kops_4c", e4) ])
                 @ named ~store 0
                     [ ("seek_bloom_skips",
                        float_of_int st.Pdb_kvs.Engine_stats.seek_bloom_skips);
                       ("summary_hits",
                        float_of_int st.Pdb_kvs.Engine_stats.summary_hits) ])
               per_cfg)
           results);
      (* the acceptance shape, stated explicitly: reads and scans speed up
         (or hold) with the read path on, the write path is untouched, and
         the bytes on storage are identical either way *)
      B.lines
        (List.filter_map
           (function
             | ( label,
                 [
                   (_, (on_load, on_c4, _, on_e4, on_disk, _));
                   (_, (off_load, off_c4, _, off_e4, off_disk, _));
                 ] ) ->
               Some
                 (check
                    (on_disk = off_disk
                    && on_c4 >= 0.98 *. off_c4
                    && on_e4 >= 0.98 *. off_e4)
                    ~miss:"  [OFF WINS — investigate]"
                    "%s: C@4 %.1f -> %.1f (%.2fx) E@4 %.1f -> %.1f (%.2fx) load \
                     %.1f -> %.1f, disk %s"
                    label off_c4 on_c4 (rel off_c4 on_c4) off_e4 on_e4
                    (rel off_e4 on_e4) off_load on_load
                    (if on_disk = off_disk then "identical" else "DIVERGED"))
             | _ -> None)
           results);
    ]

(* ---------------- repl : replication over a simulated network ----------- *)

(* Log shipping vs file (compaction) shipping (DESIGN.md "Replication"):
   the same seeded fill against each paper engine, replicated to K
   backups over simulated 10GbE links.  Log shipping forwards each
   committed group and the backup re-runs the whole write path — its
   own flushes and compactions — so the wire carries user bytes once
   per backup but backup CPU duplicates the primary's.  File shipping
   mirrors sstables and manifest edits as flush/compaction installs
   them: the backup spends no compaction CPU at all, but the wire
   carries the engine's full write amplification — which is why the
   FLSM engine, with the lowest WA, ships the fewest file-shipping
   bytes among the LSM stores. *)
let run_repl ~n =
  let strategies = [ O.Log_shipping; O.File_shipping ] in
  let run_one engine strategy k =
    let tweak (o : O.t) = { o with O.replicas = k; repl_strategy = strategy } in
    let store = Stores.open_engine ~tweak engine in
    let lat = L.create () in
    let timed = L.instrument lat store in
    let fill = B.fill_random timed ~n ~value_bytes:value_1k ~seed in
    store.Dyn.d_flush ();
    let st = store.Dyn.d_stats () in
    let net_bytes =
      st.Pdb_kvs.Engine_stats.repl_log_bytes_shipped
      + st.Pdb_kvs.Engine_stats.repl_file_bytes_shipped
    in
    let backup_cpu_ms =
      st.Pdb_kvs.Engine_stats.repl_backup_busy_ns /. 1e6
    in
    let ack_wait_ms = st.Pdb_kvs.Engine_stats.repl_ack_wait_ns /. 1e6 in
    let p99_us = H.percentile (L.hist lat L.Write) 99.0 /. 1e3 in
    let messages = st.Pdb_kvs.Engine_stats.repl_messages in
    store.Dyn.d_close ();
    (fill.P.kops, net_bytes, messages, backup_cpu_ms, ack_wait_ms, p99_us)
  in
  let results =
    List.concat_map
      (fun engine ->
        List.concat_map
          (fun strategy ->
            List.map
              (fun k -> ((engine, strategy, k), run_one engine strategy k))
              [ 1; 2 ])
          strategies)
      Stores.paper_stores
  in
  let table =
    B.table
      ~title:
        (Printf.sprintf
           "Replication — %dk x 1KB fill, log vs file shipping to K backups \
            over 10GbE links"
           (n / 1000))
      ~header:
        [ "store"; "strategy"; "K"; "fill KOps/s"; "net MB"; "messages";
          "backup CPU ms"; "ack wait ms"; "write p99 us" ]
      (List.map
         (fun ((engine, strategy, k),
               (kops, net_bytes, messages, backup_cpu_ms, ack_wait_ms, p99_us))
         ->
           let name = Stores.engine_name engine in
           let strategy = O.repl_strategy_name strategy in
           let m = B.metric ~store:(Printf.sprintf "%s+%s+k%d" name strategy k) in
           [ B.Text name; B.Text strategy; B.int k; m "fill_kops" 1 kops;
             m "net_mb" 2 (B.mb net_bytes); B.int messages;
             m "backup_cpu_ms" 1 backup_cpu_ms; m "ack_wait_ms" 1 ack_wait_ms;
             m "write_ack_p99_us" 1 p99_us ])
         results)
  in
  (* the acceptance shape, stated explicitly: per engine (at K=1), file
     shipping puts more bytes on the wire but relieves the backup of
     (at least 5x) the compaction CPU; and across engines, the FLSM
     store ships the fewest file-shipping bytes — fragmented guards
     rewrite the least data, so they also replicate the least data *)
  let find engine strategy =
    List.assoc_opt (engine, strategy, 1) results
  in
  let per_engine =
    List.filter_map
      (fun engine ->
        match (find engine O.Log_shipping, find engine O.File_shipping) with
        | ( Some (_, log_net, _, log_cpu, _, log_p99),
            Some (_, file_net, _, file_cpu, _, file_p99) ) ->
          Some
            (check
               (file_net > log_net && file_cpu *. 5.0 <= log_cpu)
               ~miss:"  [SHAPE MISS — investigate]"
               "%s: net MB log %.1f file %.1f (%.2fx), backup CPU ms log %.1f \
                file %.1f, write p99 us log %.1f file %.1f"
               (Stores.engine_name engine)
               (B.mb log_net) (B.mb file_net)
               (rel (B.mb log_net) (B.mb file_net))
               log_cpu file_cpu log_p99 file_p99)
        | _ -> None)
      Stores.paper_stores
  in
  let fewest =
    match
      List.filter_map
        (fun engine ->
          Option.map
            (fun (_, net, _, _, _, _) -> (engine, net))
            (find engine O.File_shipping))
        Stores.paper_stores
    with
    | (_, pebbles_net) :: rest when rest <> [] ->
      let ok = List.for_all (fun (_, net) -> pebbles_net <= net) rest in
      [
        B.Check
          ( ok,
            Printf.sprintf "file-shipping bytes: pebblesdb %.1f MB %s"
              (B.mb pebbles_net)
              (if ok then "(fewest — lowest WA replicates least)"
               else "[NOT fewest — investigate]") );
      ]
    | _ -> []
  in
  B.concat [ table; B.lines (per_engine @ fewest) ]

(* ---------------- registry ---------------------------------------------- *)

(* One registry row per experiment.  A [scaled] experiment takes its key
   count and registers twice: [id] at full scale and [id-smoke] at a
   fifth of it (the CI smoke set). *)
let one id title run = [ { id; title; run } ]

let scaled id name detail run =
  [
    { id; title = name ^ detail; run = (fun () -> run ~n:n_medium) };
    {
      id = id ^ "-smoke";
      title = name ^ " (reduced scale)";
      run = (fun () -> run ~n:(n_medium / 5));
    };
  ]

let all : experiment list =
  List.concat
    [
      one "fig1.1" "Write amplification" run_write_amp;
      one "sec2.2" "B+-tree motivation" run_btree_motivation;
      one "tab5.1" "SSTable sizes" run_sstable_sizes;
      one "tab5.2" "Update throughput" run_update_throughput;
      one "fig5.1b" "Micro-benchmarks" run_micro_single;
      one "fig5.1c" "Multi-threaded micro" run_micro_multi;
      one "fig5.1d" "Cached dataset" run_micro_cached;
      one "fig5.1e" "Small values" run_micro_small_values;
      one "fig5.2a" "Aged file system" run_aged;
      one "fig5.2b" "Low memory" run_low_memory;
      one "fig5.3" "Space amplification" run_space_amp;
      one "fig5.4" "Time-series data" run_time_series;
      one "fig5.5" "YCSB" run_ycsb;
      one "fig5.6" "NoSQL applications" run_apps;
      one "tab5.4" "Memory consumption" run_memory;
      one "sec5.5" "CPU and bloom cost" run_cpu_cost;
      one "ablation" "Optimization ablation" run_ablation;
      one "tuning" "Tuning FLSM (sec 3.5)" run_tuning;
      scaled "mt" "Multithreaded clients" " (group commit)" run_multithreaded;
      scaled "latency" "Latency percentiles" " and stall profile" run_latency;
      scaled "shard" "Range-partitioned shards" " (scale-out)" run_shard;
      scaled "elastic" "Elastic resplit" " under a shifting hotspot" run_elastic;
      scaled "policy" "Compaction policy sweep" "" run_policy;
      scaled "stability" "Write stability" " under sustained ingest"
        run_stability;
      scaled "read" "Read path" ": filtering, summaries, probe budget" run_read;
      scaled "repl" "Replication" ": log vs file shipping" run_repl;
      one "future" "Future-work features (ch. 7)" run_future_work;
    ]

let find id = List.find_opt (fun e -> e.id = id) all

(** [run_ids ?extra ids] runs the experiments named by [ids], in order,
    printing each report as it completes; [[]] or [["all"]] runs every
    registry row except the [-smoke] duplicates, then every [extra].
    [extra] names runs outside the registry (the bench's [micro]).
    Every id is resolved before any runs: an unknown id is an [Error]
    and nothing runs.  Returns the [(id, report)] pairs run and an
    [Error] if any report's shape self-check missed. *)
let run_ids ?(extra = []) ids =
  let known = all @ extra in
  let lookup id = List.find_opt (fun e -> e.id = id) known in
  let selected =
    match (ids, List.filter (fun id -> lookup id = None) ids) with
    | ([] | [ "all" ]), _ ->
      Ok (List.filter (fun e -> not (String.ends_with ~suffix:"-smoke" e.id)) known)
    | _, [] -> Ok (List.filter_map lookup ids)
    | _, unknown -> Error ("unknown experiment id: " ^ String.concat ", " unknown)
  in
  let run e =
    B.print_heading ~id:e.id ~title:e.title;
    let r = e.run () in
    B.print_report r;
    (e.id, r)
  in
  match Result.map (List.map run) selected with
  | Error msg -> ([], Error msg)
  | Ok reports -> (
    match List.fold_left (fun acc (_, r) -> acc + B.missed r) 0 reports with
    | 0 -> (reports, Ok ())
    | n ->
      ( reports,
        Error
          (Printf.sprintf "%d shape self-check(s) missed (marked in the output)" n)
      ))
