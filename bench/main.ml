(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (chapter 5, plus the chapter-2 motivation), then runs
   Bechamel micro-benchmarks on the core data-structure operations.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig1.1 ... # selected experiments
     dune exec bench/main.exe micro      # only the bechamel section
     dune exec bench/main.exe -- --json mt-smoke
                                         # also write results to BENCH.json
     dune exec bench/main.exe compare [--allow W/M]... OLD.json NEW.json
                                         # per-metric deltas of two perf.exe
                                         # --json files (see compare.ml)
     dune exec bench/main.exe trajectory bench/trajectory
                                         # each committed point against the
                                         # one before it, at each seed *)

(* Minor-heap words allocated, exactly.  Bechamel's
   [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat], whose minor
   count on OCaml 5.1 advances only at minor collections, so short runs
   read as allocating nothing; [Gc.minor_words] counts every word. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  let open Bechamel in
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* Words allocated directly in the major heap: strings and buffers over
   256 words (a 4 KB block) skip the minor heap, so [Minor_words] never
   sees them.  [Gc.counters] gives them as major words less promoted
   words, as bench/perf/meter.ml reads them. *)
module Major_direct_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()

  let get () =
    let _, promoted, major = Gc.counters () in
    major -. promoted

  let label () = "major-direct-words"
  let unit () = "mjw"
end

let major_direct_words =
  let open Bechamel in
  Measure.instance
    (module Major_direct_words)
    (Measure.register (module Major_direct_words))

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let memtable_insert =
    Test.make ~name:"memtable.add x100"
      (Staged.stage (fun () ->
           let m = Pdb_kvs.Memtable.create () in
           for i = 0 to 99 do
             Pdb_kvs.Memtable.add m ~seq:i ~kind:Pdb_kvs.Internal_key.Value
               ~user_key:(Printf.sprintf "key%06d" (i * 7919 mod 100))
               ~value:"value"
           done))
  in
  let bloom = Pdb_bloom.Bloom.create 10_000 in
  let () =
    for i = 0 to 9_999 do
      Pdb_bloom.Bloom.add bloom (Printf.sprintf "key%06d" i)
    done
  in
  let bloom_check =
    Test.make ~name:"bloom.mem x2"
      (Staged.stage (fun () ->
           ignore (Pdb_bloom.Bloom.mem bloom "key004242");
           ignore (Pdb_bloom.Bloom.mem bloom "missing-key")))
  in
  let sl =
    let sl = Pdb_skiplist.Skiplist.create ~compare:String.compare "" "" in
    for i = 0 to 9_999 do
      Pdb_skiplist.Skiplist.insert sl (Printf.sprintf "key%06d" i) "v"
    done;
    sl
  in
  let skiplist_seek =
    Test.make ~name:"skiplist.seek"
      (Staged.stage (fun () ->
           ignore (Pdb_skiplist.Skiplist.seek sl "key004242")))
  in
  let level =
    let level = Pebblesdb.Guard.create_level () in
    Pebblesdb.Guard.commit_guards level
      (List.init 512 (fun i -> Printf.sprintf "g%06d" (i * 16)));
    level
  in
  let guard_search =
    Test.make ~name:"guard.index"
      (Staged.stage (fun () ->
           ignore (Pebblesdb.Guard.guard_index level "g004242")))
  in
  (* a flush's guard commit on a still-empty level: eight fresh keys,
     each between two of the level's 400 guards *)
  let guard_commit =
    let level = Pebblesdb.Guard.create_level () in
    Pebblesdb.Guard.commit_guards level
      (List.init 400 (fun i -> Printf.sprintf "g%06d" (i * 16)));
    let guards = level.Pebblesdb.Guard.guards in
    let keys = List.init 8 (fun i -> Printf.sprintf "g%06d" ((i * 800) + 8)) in
    Test.make ~name:"guard.commit (8 keys into 400 empty guards)"
      (Staged.stage (fun () ->
           level.Pebblesdb.Guard.guards <- guards;
           Pebblesdb.Guard.commit_guards level keys))
  in
  (* the compaction pick of a store that has committed 400 guards over its
     levels, all empty, with one flushed table in level 0: nothing due *)
  let flsm_pick =
    let module P = Pebblesdb.Pebbles_store in
    let opts = Pdb_kvs.Options.pebblesdb () in
    let db = P.open_store opts ~env:(Pdb_simio.Env.create ()) ~dir:"micro" in
    let last = opts.Pdb_kvs.Options.max_levels - 1 in
    let guards = ref 0 and i = ref 0 in
    while !guards < 400 do
      let key = Printf.sprintf "key%08d" !i in
      incr i;
      match Pebblesdb.Guard_selector.guard_level opts key with
      | Some l when !guards + last - l + 1 <= 400 ->
        guards := !guards + last - l + 1;
        P.put db key "v"
      | Some _ | None -> ()
    done;
    P.flush db;
    if Array.fold_left ( + ) 0 (P.guard_counts db) <> 400
       || P.due_compactions db <> 0
    then failwith "micro: flsm.pick needs 400 guards and nothing due";
    Test.make ~name:"flsm.pick (400 guards, none due)"
      (Staged.stage (fun () -> ignore (P.due_compactions db)))
  in
  let murmur =
    Test.make ~name:"murmur3+trailing_ones"
      (Staged.stage (fun () ->
           ignore
             (Pdb_util.Murmur3.trailing_ones
                (Pdb_util.Murmur3.hash32 "some-user-key-0042"))))
  in
  (* the read path: internal-key compare, a data block of four 1 KB
     values (a 4 KB block), and a table point lookup whose data block is
     already in the block cache *)
  let module Ik = Pdb_kvs.Internal_key in
  let module Iter = Pdb_kvs.Iter in
  let ik i seq =
    Ik.encode ~user_key:(Printf.sprintf "user%016d" i) ~seq ~kind:Ik.Value
  in
  let ikey_a = ik 4242 7 and ikey_b = ik 4242 9 in
  let ikey_compare =
    Test.make ~name:"ikey.compare"
      (Staged.stage (fun () -> ignore (Ik.compare ikey_a ikey_b)))
  in
  let block =
    let b = Pdb_sstable.Block.Builder.create () in
    for i = 0 to 3 do
      Pdb_sstable.Block.Builder.add b (ik i 1) (String.make 1024 'v')
    done;
    Pdb_sstable.Block.decode (Pdb_sstable.Block.Builder.finish b)
  in
  let block_seek =
    Test.make ~name:"block.seek (last of 4 x 1 KB)"
      (Staged.stage (fun () ->
           let it = Pdb_sstable.Block.iterator ~compare:Ik.compare block in
           it.Iter.seek (ik 3 1);
           ignore (it.Iter.value ())))
  in
  let block_next =
    Test.make ~name:"block.next (4 x 1 KB)"
      (Staged.stage (fun () ->
           let it = Pdb_sstable.Block.iterator ~compare:Ik.compare block in
           it.Iter.seek_to_first ();
           while it.Iter.valid () do
             ignore (it.Iter.key ());
             it.Iter.next ()
           done))
  in
  let table_get ~name user_key =
    let env = Pdb_simio.Env.create () in
    let b =
      Pdb_sstable.Table.Builder.create env ~dir:"micro" ~number:1
        ~block_bytes:4096 ~bloom:true
    in
    for i = 0 to 999 do
      Pdb_sstable.Table.Builder.add b (ik i 1) (String.make 100 'v')
    done;
    let meta = fst (Option.get (Pdb_sstable.Table.Builder.finish b)) in
    let reader = Pdb_sstable.Table.open_reader env ~dir:"micro" meta in
    let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 20) in
    let lookup = Ik.max_for_lookup user_key in
    let get () =
      Pdb_sstable.Table.get reader ~cache
        ~hint:Pdb_simio.Device.Random_read lookup
    in
    ignore (get ());
    Test.make ~name (Staged.stage (fun () -> ignore (get ())))
  in
  let table_get_absent =
    table_get ~name:"table.get (cached block, absent key)"
      (Printf.sprintf "user%016dx" 424)
  in
  let table_get =
    table_get ~name:"table.get (cached block)" (Printf.sprintf "user%016d" 424)
  in
  (* a store get that misses the memtable and probes several tables whose
     blooms all reject the key, and a probe session of eight tables *)
  let shell_get =
    let module P = Pebblesdb.Pebbles_store in
    let module O = Pdb_kvs.Options in
    let opts =
      { (O.pebblesdb ()) with O.memtable_bytes = 8 * 1024;
        sstable_target_bytes = 8 * 1024; block_bytes = 512 }
    in
    let db = P.open_store opts ~env:(Pdb_simio.Env.create ()) ~dir:"micro" in
    for i = 0 to 1999 do
      P.put db (Printf.sprintf "key%05d" (i * 7919 mod 2000 * 2)) "value"
    done;
    P.flush db;
    let key = "key02001" in
    (* a stats view is a snapshot: take one before the get and one after *)
    let before = P.stats db in
    ignore (P.get db key);
    let after = P.stats db in
    let delta f = f after - f before in
    let tables = delta (fun s -> s.Pdb_kvs.Engine_stats.sstables_examined) in
    if tables < 2
       || delta (fun s -> s.Pdb_kvs.Engine_stats.bloom_negative) <> tables
    then failwith "micro: shell.get must probe several bloom-negative tables";
    Test.make ~name:"shell.get (bloom-negative tables)"
      (Staged.stage (fun () -> ignore (P.get db key)))
  in
  let probe_session =
    let clock = Pdb_simio.Clock.create () in
    let ctx =
      Pdb_simio.Probe.create_ctx ~clock ~budget:4
        ~tracer:(fun () -> None) ()
    in
    let costs = List.init 8 (fun i -> float_of_int (100 * (8 - (i mod 3)))) in
    let advance = Pdb_simio.Clock.advance clock in
    let rec probe = function
      | [] -> ()
      | c :: rest ->
        Pdb_simio.Probe.measure ctx advance c;
        probe rest
    in
    let session () = probe costs in
    Test.make ~name:"probe session (8 tables)"
      (Staged.stage (fun () ->
           Pdb_simio.Probe.with_session ctx ~label:"get" session))
  in
  (* the write path: a 1 KB put's WAL payload encoded into a store's
     scratch, a four-put group commit into a WAL that rotates every 64 KB
     as a memtable's log would, and a table of 64 1 KB entries built from
     start to footer *)
  let value_1k = String.make 1024 'v' in
  let wb_encode =
    let b = Pdb_kvs.Write_batch.create () in
    Pdb_kvs.Write_batch.put b (Printf.sprintf "user%016d" 4242) value_1k;
    let encoded = Pdb_kvs.Write_batch.scratch () in
    Test.make ~name:"wb.encode (1 KB put)"
      (Staged.stage (fun () ->
           Pdb_kvs.Write_batch.clear encoded;
           Pdb_kvs.Write_batch.encode_into encoded b ~base_seq:4242))
  in
  let wal_add_records =
    let env = Pdb_simio.Env.create () in
    let encoded = Pdb_kvs.Write_batch.scratch () in
    for i = 0 to 3 do
      let b = Pdb_kvs.Write_batch.create () in
      Pdb_kvs.Write_batch.put b (Printf.sprintf "user%016d" i) value_1k;
      Pdb_kvs.Write_batch.encode_into encoded b ~base_seq:i
    done;
    (* one staging buffer for every log, as a store hands it on *)
    let staging = Buffer.create 4096 in
    let wal = ref (Pdb_wal.Wal.Writer.create ~staging env "micro.log") in
    Test.make ~name:"wal.add_records (4 x 1 KB)"
      (Staged.stage (fun () ->
           if Pdb_wal.Wal.Writer.size !wal >= 65536 then
             wal := Pdb_wal.Wal.Writer.create ~staging env "micro.log";
           Pdb_wal.Wal.Writer.add_records !wal encoded.Pdb_kvs.Write_batch.bytes
             ~ends:encoded.Pdb_kvs.Write_batch.ends
             encoded.Pdb_kvs.Write_batch.records))
  in
  let table_build =
    let env = Pdb_simio.Env.create () in
    let keys = Array.init 64 (fun i -> ik i 1) in
    (* one store's scratch, lent to every table it builds *)
    let scratch = Pdb_sstable.Table.Builder.scratch () in
    Test.make ~name:"table.build (64 x 1 KB)"
      (Staged.stage (fun () ->
           let b =
             Pdb_sstable.Table.Builder.create ~scratch env ~dir:"micro"
               ~number:2 ~block_bytes:4096 ~bloom:true
           in
           Array.iter (fun k -> Pdb_sstable.Table.Builder.add b k value_1k) keys;
           ignore (Pdb_sstable.Table.Builder.finish b)))
  in
  (* compaction and block loads: a scan of a 16-block table whose blocks
     are cached, the merge of four 32 KB tables into one (readers opened,
     inputs streamed through a compaction view of a cache that holds none
     of them, output built and synced, as a compaction does), and one
     4 KB block loaded on a cache miss at two offsets *)
  let scan_env = Pdb_simio.Env.create () in
  let scan_meta =
    let b =
      Pdb_sstable.Table.Builder.create scan_env ~dir:"micro" ~number:3
        ~block_bytes:4096 ~bloom:true
    in
    for i = 0 to 63 do
      Pdb_sstable.Table.Builder.add b (ik i 1) value_1k
    done;
    fst (Option.get (Pdb_sstable.Table.Builder.finish b))
  in
  let table_scan =
    let reader = Pdb_sstable.Table.open_reader scan_env ~dir:"micro" scan_meta in
    let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 20) in
    let scan () =
      let it =
        Pdb_sstable.Table.iterator reader ~cache
          ~hint:Pdb_simio.Device.Random_read
      in
      Pdb_sstable.Table.seek_to_first it;
      while Pdb_sstable.Table.valid it do
        ignore (Pdb_sstable.Table.key it);
        Pdb_sstable.Table.next it
      done
    in
    scan ();
    Test.make ~name:"table.scan (64 x 1 KB, 16 blocks)" (Staged.stage scan)
  in
  let compaction_merge =
    let env = Pdb_simio.Env.create () in
    let inputs =
      List.init 4 (fun t ->
          let b =
            Pdb_sstable.Table.Builder.create env ~dir:"micro" ~number:(10 + t)
              ~block_bytes:4096 ~bloom:true
          in
          for i = 0 to 31 do
            Pdb_sstable.Table.Builder.add b (ik ((4 * i) + t) 1) value_1k
          done;
          fst (Option.get (Pdb_sstable.Table.Builder.finish b)))
    in
    let hint = Pdb_simio.Device.Sequential_read in
    let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 20) in
    let scratch = Pdb_sstable.Table.Builder.scratch () in
    Test.make ~name:"compaction.merge (4 x 32 KB tables)"
      (Staged.stage (fun () ->
           let view = Pdb_sstable.Block_cache.for_compaction cache in
           let tables =
             Array.of_list
               (List.map
                  (fun m ->
                    Pdb_sstable.Table.iterator ~cache:view ~hint
                      (Pdb_sstable.Table.open_reader ~hint env ~dir:"micro" m))
                  inputs)
           in
           let merge =
             Pdb_kvs.Merging_iter.merge ~compare:Ik.compare
               (Array.map Pdb_sstable.Table.to_iter tables)
           in
           let merged = Pdb_kvs.Merging_iter.to_iter merge in
           let b =
             Pdb_sstable.Table.Builder.create ~scratch env ~dir:"micro"
               ~number:20 ~block_bytes:4096 ~bloom:true
           in
           merged.Iter.seek_to_first ();
           while merged.Iter.valid () do
             Pdb_sstable.Table.Builder.add_current b (merged.Iter.key ())
               tables.(Pdb_kvs.Merging_iter.current_index merge);
             merged.Iter.next ()
           done;
           ignore (Pdb_sstable.Table.Builder.finish b)))
  in
  (* a leveled install into a target level of 200 files: one level-1
     input and the three target files it overlaps replaced by three
     outputs, in place (the level bookkeeping alone; nothing is written) *)
  let lsm_install =
    let meta number lo hi =
      {
        Pdb_sstable.Table.number;
        file_size = 32 * 1024;
        entries = 32;
        smallest = ik lo 1;
        largest = ik hi 1;
      }
    in
    let target = List.init 200 (fun i -> meta (100 + i) (10 * i) ((10 * i) + 9)) in
    let levels = [| []; [ meta 1 1000 1029 ]; target; [] |] in
    let inputs_lo = levels.(1) in
    let inputs_hi = List.filteri (fun i _ -> i >= 100 && i < 103) target in
    let outputs = List.init 3 (fun i -> meta (400 + i) (1000 + (10 * i)) (1009 + (10 * i))) in
    Test.make ~name:"lsm.install (3 of 200 target files)"
      (Staged.stage (fun () ->
           Pdb_lsm.Lsm_store.install_levels (Array.copy levels) ~tiered:false
             ~level:1 ~inputs_lo ~inputs_hi ~outputs))
  in
  (* one 4 KB block, sealed as a table seals one (at least [block_bytes]
     = 4096 bytes), appended after [offset] bytes of its own file and
     loaded from there on a cache miss.  A file's chunks follow its
     appends, so the block is one chunk at either offset and the load
     views it. *)
  let block_raw =
    let b = Pdb_sstable.Block.Builder.create () in
    let i = ref 0 in
    while Pdb_sstable.Block.Builder.current_size_estimate b < 4096 do
      Pdb_sstable.Block.Builder.add b (ik !i 1) value_1k;
      incr i
    done;
    Pdb_sstable.Block.Builder.finish b
  in
  let block_load ~name ~offset =
    let file = Printf.sprintf "micro/block%d" offset in
    let w = Pdb_simio.Env.create_file scan_env file in
    Pdb_simio.Env.append w (String.make offset '\000');
    Pdb_simio.Env.append w block_raw;
    Pdb_simio.Env.sync w;
    let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 16) in
    Test.make ~name
      (Staged.stage (fun () ->
           (* evicting the block the last run loaded makes this one miss *)
           Pdb_sstable.Block_cache.evict_file cache ~file;
           let id = Pdb_sstable.Block_cache.intern cache file in
           ignore
             (Pdb_sstable.Block_cache.find_or_load cache scan_env ~id ~file
                ~offset
                ~size:(String.length block_raw)
                ~hint:Pdb_simio.Device.Random_read)))
  in
  let block_load_first =
    block_load ~name:"block_cache.load (miss, at 0)" ~offset:0
  in
  let block_load_far =
    block_load ~name:"block_cache.load (miss, at 64 KB)" ~offset:65536
  in
  (* a fresh file grown as a table grows: eight 4 KB blocks, then a
     1 KB tail *)
  let env_append =
    let env = Pdb_simio.Env.create () in
    let block = String.make 4096 'b' and tail = String.make 1024 't' in
    Test.make ~name:"env.append (8 x 4 KB blocks + 1 KB)"
      (Staged.stage (fun () ->
           let w = Pdb_simio.Env.create_file env "micro/append" in
           for _ = 1 to 8 do
             Pdb_simio.Env.append w block
           done;
           Pdb_simio.Env.append w tail))
  in
  let crc_1k =
    Test.make ~name:"crc32c.update (1 KB)"
      (Staged.stage (fun () -> ignore (Pdb_util.Crc32c.update 0 value_1k 0 1024)))
  in
  (* the scan path: a table iterator created and sought in a table whose
     blocks are cached; a level iterator walking fifty empty guards (a
     probe context attached, as in an engine); and a whole engine scan, a
     fresh iterator sought and stepped fifty times over a store whose
     levels hold several guards and tables *)
  let table_iterator =
    let env = Pdb_simio.Env.create () in
    let b =
      Pdb_sstable.Table.Builder.create env ~dir:"micro" ~number:4
        ~block_bytes:4096 ~bloom:true
    in
    for i = 0 to 999 do
      Pdb_sstable.Table.Builder.add b (ik i 1) (String.make 100 'v')
    done;
    let meta = fst (Option.get (Pdb_sstable.Table.Builder.finish b)) in
    let reader = Pdb_sstable.Table.open_reader env ~dir:"micro" meta in
    let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 20) in
    let target = Ik.max_for_lookup (Printf.sprintf "user%016d" 424) in
    let seek () =
      let it =
        Pdb_sstable.Table.iterator reader ~cache
          ~hint:Pdb_simio.Device.Random_read
      in
      Pdb_sstable.Table.seek it target
    in
    seek ();
    Test.make ~name:"table.iterator (create + seek)" (Staged.stage seek)
  in
  let level_iter_empty =
    let env = Pdb_simio.Env.create () in
    let level = Pebblesdb.Guard.create_level () in
    Pebblesdb.Guard.commit_guards level
      (List.init 50 (fun i -> Printf.sprintf "g%03d" i));
    let probe =
      Pdb_simio.Probe.create_ctx ~clock:(Pdb_simio.Env.clock env)
        ~budget:4 ~tracer:(fun () -> None) ()
    in
    let it =
      Pdb_sstable.Level_iter.create ~probe
        ~cache:(Pdb_sstable.Table_cache.create env ~dir:"micro" ~entries:10)
        ~block_cache:(Pdb_sstable.Block_cache.create ~capacity:(1 lsl 16))
        ~hint:Pdb_simio.Device.Random_read ~on_table:ignore
        (Pebblesdb.Pebbles_store.guard_view level)
    in
    Test.make ~name:"level_iter.seek_to_first (50 empty partitions)"
      (Staged.stage (fun () -> it.Iter.seek_to_first ()))
  in
  let engine_scan =
    let module P = Pebblesdb.Pebbles_store in
    let module O = Pdb_kvs.Options in
    let opts =
      { (O.pebblesdb ()) with O.memtable_bytes = 16 * 1024;
        sstable_target_bytes = 16 * 1024; level_bytes_base = 64 * 1024;
        block_bytes = 1024; seek_based_compaction = false }
    in
    let db = P.open_store opts ~env:(Pdb_simio.Env.create ()) ~dir:"micro" in
    for i = 0 to 7999 do
      P.put db (Printf.sprintf "key%05d" (i * 7919 mod 4000)) (String.make 100 'v')
    done;
    let scan () =
      let it = P.iterator db in
      it.Iter.seek "key02000";
      for _ = 1 to 50 do
        ignore (it.Iter.key ());
        ignore (it.Iter.value ());
        it.Iter.next ()
      done
    in
    scan ();
    Test.make ~name:"engine scan (create, seek, 50 nexts)" (Staged.stage scan)
  in
  let tests =
    [ table_iterator; level_iter_empty; engine_scan; memtable_insert; bloom_check; skiplist_seek; guard_search; murmur;
      ikey_compare; block_seek; block_next; table_get; table_get_absent;
      guard_commit; flsm_pick; shell_get; probe_session; wb_encode;
      wal_add_records; table_build; table_scan; compaction_merge; lsm_install;
      block_load_first; block_load_far; env_append; crc_1k ]
  in
  (* time, minor-heap and direct major-heap allocation per run, each an
     OLS estimate *)
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let instances =
      [ Instance.monotonic_clock; minor_words; major_direct_words ]
    in
    let raw = Benchmark.all cfg instances test in
    let estimate instance =
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance raw
      in
      fun name ->
        match Analyze.OLS.estimates (Hashtbl.find results name) with
        | Some [ est ] -> Some est
        | Some _ | None | (exception Not_found) -> None
    in
    let ns = estimate Instance.monotonic_clock
    and words = estimate minor_words
    and major = estimate major_direct_words in
    List.map
      (fun name ->
        Pdb_harness.Bench_util.Note
          (match (ns name, words name, major name) with
           | Some ns, Some words, Some major ->
             Printf.sprintf
               "%-46s %12.1f ns/run %10.1f minor %8.1f major words/run" name ns
               words major
           | _ -> Printf.sprintf "%-46s (no estimate)" name))
      (List.of_seq (Hashtbl.to_seq_keys raw))
  in
  Pdb_harness.Bench_util.lines (List.concat_map benchmark tests)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
   | "compare" :: rest -> exit (Compare.main rest)
   | "trajectory" :: rest -> exit (Compare.trajectory_main rest)
   | _ -> ());
  let json, ids = List.partition (fun a -> a = "--json") args in
  let micro = "Bechamel micro-benchmarks (core operations)" in
  let reports, result =
    Pdb_harness.Experiments.(
      run_ids ~extra:[ { id = "micro"; title = micro; run = run_bechamel } ] ids)
  in
  if json <> [] then begin
    Pdb_harness.Bench_util.Json.write_file "BENCH.json" reports;
    print_endline "\nwrote BENCH.json"
  end;
  match result with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("bench: " ^ msg);
    exit 1
