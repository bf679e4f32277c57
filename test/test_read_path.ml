(* Tests for the production-scale read path: seek filtering at guard
   boundaries, index summaries above the table cache, the parallel-probe
   budget, and the invariant the whole feature set rests on — reads may
   get faster, but neither results nor on-disk bytes may change. *)

module Fingerprint = Pdb_simio.Fingerprint
module Env = Pdb_simio.Env
module Device = Pdb_simio.Device
module Clock = Pdb_simio.Clock
module Probe = Pdb_simio.Probe
module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter
module O = Pdb_kvs.Options
module Dyn = Pdb_kvs.Store_intf
module T = Pdb_sstable.Table
module TC = Pdb_sstable.Table_cache
module BC = Pdb_sstable.Block_cache
module SF = Pdb_sstable.Seek_filter
module G = Pebblesdb.Guard
module P = Pebblesdb.Pebbles_store
module Stores = Pdb_harness.Stores

let check = Alcotest.check
let checkf = Alcotest.(check (float 1e-9))

let ikey ?(seq = 1) k = Ik.encode ~user_key:k ~seq ~kind:Ik.Value

let build_table ?(prefix_bloom_len = 0) ?(block_bytes = 512) env ~number
    entries =
  let b =
    T.Builder.create ~prefix_bloom_len env ~dir:"db" ~number ~block_bytes
      ~bloom:true ~expected_keys:(List.length entries)
  in
  List.iter (fun (k, v) -> T.Builder.add b (ikey k) v) entries;
  Option.get (T.Builder.finish b)

(* ---------- probe budget: makespan and determinism ---------- *)

let test_makespan () =
  checkf "one lane is serial" 6.0 (Probe.makespan ~lanes:1 [ 1.0; 2.0; 3.0 ]);
  checkf "enough lanes -> max" 3.0 (Probe.makespan ~lanes:3 [ 1.0; 2.0; 3.0 ]);
  checkf "LPT packing" 5.0 (Probe.makespan ~lanes:2 [ 3.0; 3.0; 2.0; 2.0 ]);
  checkf "empty" 0.0 (Probe.makespan ~lanes:4 []);
  checkf "more lanes than jobs" 3.0 (Probe.makespan ~lanes:8 [ 3.0; 1.0 ])

(* Drive the same seeded workload at several budgets: results and disk
   bytes must be identical (the budget refunds time, nothing else), the
   simulated clock must be deterministic at a fixed budget, and more
   lanes can only make the run faster. *)
let run_at_budget budget =
  let tweak (o : O.t) =
    {
      o with
      O.memtable_bytes = 8 * 1024;
      table_cache_entries = 8;
      probe_budget_override = Some budget;
    }
  in
  let store = Stores.open_engine ~tweak Stores.Pebblesdb in
  let rng = Pdb_util.Rng.create 11 in
  let key i = Printf.sprintf "user%04d" i in
  for _ = 1 to 800 do
    store.Dyn.d_put (key (Pdb_util.Rng.int rng 300)) (Pdb_util.Rng.alpha rng 64)
  done;
  store.Dyn.d_flush ();
  for _ = 1 to 400 do
    ignore (store.Dyn.d_get (key (Pdb_util.Rng.int rng 300)))
  done;
  for s = 0 to 19 do
    let it = store.Dyn.d_iterator () in
    it.Iter.seek (key (s * 15));
    for _ = 1 to 10 do
      if it.Iter.valid () then it.Iter.next ()
    done
  done;
  let contents = Iter.to_list (store.Dyn.d_iterator ()) in
  let env = store.Dyn.d_env in
  let disk = Fingerprint.files env in
  let elapsed = Clock.elapsed_ns (Clock.snapshot (Env.clock env)) in
  store.Dyn.d_close ();
  (contents, disk, elapsed)

let test_probe_budget_determinism () =
  let c1, d1, e1 = run_at_budget 1 in
  let c4, d4, e4 = run_at_budget 4 in
  let c8, d8, e8 = run_at_budget 8 in
  let c4', d4', e4' = run_at_budget 4 in
  check Alcotest.bool "contents 1=4" true (c1 = c4);
  check Alcotest.bool "contents 4=8" true (c4 = c8);
  check Alcotest.bool "disk 1=4" true (d1 = d4);
  check Alcotest.bool "disk 4=8" true (d4 = d8);
  check Alcotest.bool "rerun identical" true (c4 = c4' && d4 = d4' && e4 = e4');
  check Alcotest.bool "more lanes never slower" true (e1 >= e4 && e4 >= e8)

(* ---------- seek filter: boundary decisions ---------- *)

let null_filter ?upper_user () =
  SF.create ?upper_user ~filtering:true
    ~peek:(fun _ -> None)
    ~on_check:(fun ~skipped:_ -> ())
    ()

let test_skip_seek_boundaries () =
  let env = Env.create () in
  let meta = build_table env ~number:1 [ ("g", "v"); ("k", "v") ] in
  let f = null_filter () in
  check Alcotest.bool "target inside range" false
    (SF.skip_seek f meta ~target:(Ik.max_for_lookup "h"));
  check Alcotest.bool "target exactly at largest" false
    (SF.skip_seek f meta ~target:(Ik.max_for_lookup "k"));
  check Alcotest.bool "target past largest" true
    (SF.skip_seek f meta ~target:(Ik.max_for_lookup "k\x00"));
  check Alcotest.bool "filtering off never skips" false
    (SF.skip_seek SF.none meta ~target:(Ik.max_for_lookup "z"));
  (* the upper-bound side, at its boundary *)
  check Alcotest.bool "upper below smallest" true
    (SF.skip_first (null_filter ~upper_user:"a" ()) meta);
  check Alcotest.bool "upper exactly at smallest" false
    (SF.skip_first (null_filter ~upper_user:"g" ()) meta);
  check Alcotest.bool "no upper keeps" false (SF.skip_first f meta)

let test_prefix_bloom () =
  let env = Env.create () in
  let meta =
    build_table ~prefix_bloom_len:4 env ~number:1
      [ ("aaaa1", "v"); ("aaaa2", "v"); ("cccc1", "v") ]
  in
  let r = T.open_reader env ~dir:"db" meta in
  check Alcotest.int "prefix length recorded" 4 (T.prefix_len r);
  check Alcotest.bool "present prefix" true (T.may_contain_prefix r "aaaa");
  check Alcotest.bool "absent prefix" false (T.may_contain_prefix r "bbbb");
  check Alcotest.bool "wrong-length probe passes" true
    (T.may_contain_prefix r "bb");
  check Alcotest.bool "point probes still work" true (T.may_contain r "aaaa1");
  (* integration: a prefix-bounded scan over an absent prefix skips the
     table; over a present one it does not *)
  let filter upper =
    SF.create ~upper_user:upper ~filtering:true
      ~peek:(fun _ -> Some r)
      ~on_check:(fun ~skipped:_ -> ())
      ()
  in
  check Alcotest.bool "absent prefix range skipped" true
    (SF.skip_seek (filter "bbbb9") meta ~target:(Ik.max_for_lookup "bbbb0"));
  check Alcotest.bool "present prefix range kept" false
    (SF.skip_seek (filter "aaaa9") meta ~target:(Ik.max_for_lookup "aaaa0"));
  (* bounds spanning two prefixes: the certificate does not apply *)
  check Alcotest.bool "mixed-prefix range kept" false
    (SF.skip_seek (filter "cccc9") meta ~target:(Ik.max_for_lookup "bbbb0"))

(* ---------- FLSM level iterator at guard boundaries ---------- *)

let make_level env specs =
  let level = G.create_level () in
  G.commit_guards level (List.filter_map fst specs);
  let number = ref 1 in
  List.iter
    (fun (_, tables) ->
      List.iter
        (fun keys ->
          let entries = List.map (fun k -> (k, "v-" ^ k)) keys in
          let meta = build_table env ~number:!number entries in
          incr number;
          G.attach level meta)
        tables)
    specs;
  level

let counting_filter ?upper_user ~peek () =
  let checks = ref 0 and skips = ref 0 in
  let f =
    SF.create ?upper_user ~filtering:true ~peek
      ~on_check:(fun ~skipped ->
        incr checks;
        if skipped then incr skips)
      ()
  in
  (f, checks, skips)

let iter_of ?filter ?(on_table = fun () -> ()) env level =
  let tc = TC.create env ~dir:"db" ~entries:100 in
  let bc = BC.create ~capacity:(1 lsl 20) in
  Pebblesdb.Flsm_level_iter.create ?filter ~level ~cache:tc ~block_cache:bc
    ~hint:Device.Random_read ~on_table ()

let test_level_iter_skips_dead_member () =
  let env = Env.create () in
  (* guard g holds two overlapping tables; a seek past one's largest key
     must skip it without changing the answer *)
  let level =
    make_level env
      [ (None, [ [ "a"; "c" ] ]); (Some "g", [ [ "g"; "m" ]; [ "h"; "k" ] ]) ]
  in
  let tc = TC.create env ~dir:"db" ~entries:100 in
  let f, checks, skips = counting_filter ~peek:(TC.peek tc) () in
  let it = iter_of ~filter:f env level in
  it.Iter.seek (Ik.max_for_lookup "l");
  check Alcotest.string "answer unchanged" "m" (Ik.user_key (it.Iter.key ()));
  check Alcotest.bool "member checked" true (!checks > 0);
  check Alcotest.int "dead member skipped" 1 !skips;
  (* same seek without filtering gives the same answer *)
  let it0 = iter_of env level in
  it0.Iter.seek (Ik.max_for_lookup "l");
  check Alcotest.string "unfiltered agrees" "m" (Ik.user_key (it0.Iter.key ()))

let test_level_iter_boundary_seeks () =
  let env = Env.create () in
  let level =
    make_level env
      [ (None, [ [ "a"; "c" ] ]); (Some "g", [ [ "g"; "m" ]; [ "h"; "k" ] ]) ]
  in
  let f, _, _ = counting_filter ~peek:(fun _ -> None) () in
  let it = iter_of ~filter:f env level in
  (* exactly at a member's largest key: the member must survive *)
  it.Iter.seek (Ik.max_for_lookup "k");
  check Alcotest.string "largest-key boundary" "k" (Ik.user_key (it.Iter.key ()));
  (* exactly at the guard key *)
  it.Iter.seek (Ik.max_for_lookup "g");
  check Alcotest.string "guard-key boundary" "g" (Ik.user_key (it.Iter.key ()));
  (* just before the guard key: sentinel tables are all dead, the scan
     must roll into the guard *)
  it.Iter.seek (Ik.max_for_lookup "d");
  check Alcotest.string "rolls over dead sentinel" "g"
    (Ik.user_key (it.Iter.key ()))

let test_level_iter_upper_bound_stops () =
  let env = Env.create () in
  let level =
    make_level env
      [ (None, [ [ "a"; "b" ] ]); (Some "m", [ [ "m"; "z" ] ]) ]
  in
  let f, _, _ = counting_filter ~upper_user:"c" ~peek:(fun _ -> None) () in
  let opened = ref 0 in
  let it = iter_of ~filter:f ~on_table:(fun () -> incr opened) env level in
  it.Iter.seek_to_first ();
  check Alcotest.string "first" "a" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "second" "b" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.bool "stops at bound" false (it.Iter.valid ());
  (* the guard past the bound is never entered: its table stays closed *)
  check Alcotest.int "out-of-range guard never opened" 1 !opened

(* ---------- engine iterator with an upper bound ---------- *)

let test_engine_upper_bound () =
  let env = Env.create () in
  let opts = { (O.pebblesdb ()) with O.memtable_bytes = 8 * 1024 } in
  let t = P.open_store opts ~env ~dir:"db" in
  let key i = Printf.sprintf "k%03d" i in
  for i = 0 to 99 do
    P.put t (key i) (string_of_int i)
  done;
  P.flush t;
  let collect it =
    it.Iter.seek_to_first ();
    let acc = ref [] in
    while it.Iter.valid () do
      acc := it.Iter.key () :: !acc;
      it.Iter.next ()
    done;
    List.rev !acc
  in
  let bounded = collect (P.iterator ~upper_bound:(key 49) t) in
  let all = collect (P.iterator t) in
  check Alcotest.int "all keys" 100 (List.length all);
  check Alcotest.(list string) "bounded = prefix of unbounded"
    (List.filteri (fun i _ -> i < 50) all)
    bounded;
  let it = P.iterator ~upper_bound:(key 49) t in
  it.Iter.seek (key 60);
  check Alcotest.bool "seek past bound is invalid" false (it.Iter.valid ());
  P.close t

(* ---------- index summaries ---------- *)

let summary_fixture () =
  let env = Env.create () in
  let entries =
    List.init 64 (fun i -> (Printf.sprintf "key%02d" i, String.make 32 'x'))
  in
  let meta = build_table ~block_bytes:256 env ~number:1 entries in
  (env, entries, meta)

let test_index_summary_shape () =
  let env, _, meta = summary_fixture () in
  let r = T.open_reader env ~dir:"db" meta in
  let s = T.summarize ~stride:4 r in
  let module IS = Pdb_sstable.Index_summary in
  check Alcotest.int "entries" 64 (IS.entries s);
  check Alcotest.bool "samples strictly between 1 and index size" true
    (IS.nsamples s >= 2);
  let keys = List.map fst (IS.samples s) in
  check Alcotest.(list string) "samples sorted" (List.sort compare keys) keys;
  check Alcotest.bool "slice no bigger than index" true
    (IS.slice_bytes s <= IS.index_bytes s);
  check Alcotest.bool "summary smaller than what it summarizes" true
    (IS.size_bytes s < IS.resident_table_bytes s)

let test_open_via_summary_equivalent () =
  let env, entries, meta = summary_fixture () in
  let r = T.open_reader env ~dir:"db" meta in
  let s = T.summarize ~stride:4 r in
  let r2 = T.open_via_summary env ~dir:"db" meta s in
  check Alcotest.bool "filter deferred" false (T.filter_resident r2);
  let bc = BC.create ~capacity:(1 lsl 20) in
  List.iter
    (fun (k, _) ->
      let a = T.get r ~cache:bc ~hint:Device.Random_read (Ik.max_for_lookup k)
      and b =
        T.get r2 ~cache:bc ~hint:Device.Random_read (Ik.max_for_lookup k)
      in
      check Alcotest.bool ("get " ^ k) true (a = b))
    entries;
  ignore (T.may_contain r2 "key00");
  check Alcotest.bool "filter loaded on first probe" true (T.filter_resident r2);
  check Alcotest.bool "absent key" true
    (T.may_contain r2 "nope" = T.may_contain r "nope");
  let dump rd = Iter.to_list (T.iterator rd ~cache:bc ~hint:Device.Random_read) in
  check Alcotest.bool "iterators agree" true (dump r = dump r2)

let test_table_cache_summary_reopen () =
  let env = Env.create () in
  let metas =
    List.init 5 (fun t ->
        build_table env ~number:(t + 1)
          (List.init 8 (fun i -> (Printf.sprintf "t%d-%02d" t i, "v"))))
  in
  let tc = TC.create ~summary_stride:4 env ~dir:"db" ~entries:2 in
  let bc = BC.create ~capacity:(1 lsl 20) in
  let touch () =
    List.iteri
      (fun t m ->
        let r = TC.find tc m in
        let k = Ik.max_for_lookup (Printf.sprintf "t%d-03" t) in
        match T.get r ~cache:bc ~hint:Device.Random_read k with
        | Some (ik, _) ->
          check Alcotest.string "cache read correct"
            (Printf.sprintf "t%d-03" t) (Ik.user_key ik)
        | None -> Alcotest.fail "lost key through summary reopen")
      metas
  in
  touch ();
  check Alcotest.int "first pass: all cold opens" 0 (TC.summary_hits tc);
  touch ();
  (* 5 tables through a 2-entry cache: every second-pass open is a
     summary-guided reopen *)
  check Alcotest.bool "reopens guided by summaries" true
    (TC.summary_hits tc >= 3);
  check Alcotest.int "every table summarized once" 5 (TC.summary_misses tc)

let test_table_cache_byte_bound () =
  let env = Env.create () in
  let metas =
    List.init 6 (fun t ->
        build_table env ~number:(t + 1)
          (List.init 40 (fun i -> (Printf.sprintf "t%d-%02d" t i, "value"))))
  in
  let w =
    T.resident_bytes (T.open_reader env ~dir:"db" (List.hd metas))
  in
  let budget = (2 * w) + (w / 2) in
  let tc = TC.create ~bytes:budget env ~dir:"db" ~entries:1_000_000 in
  List.iter (fun m -> ignore (TC.find tc m)) metas;
  check Alcotest.bool "byte budget respected" true
    (TC.resident_bytes tc <= budget);
  check Alcotest.bool "cache not emptied" true (TC.open_tables tc >= 1);
  (* reads through the bounded cache still work *)
  let bc = BC.create ~capacity:(1 lsl 20) in
  let r = TC.find tc (List.nth metas 0) in
  check Alcotest.bool "read-through after eviction" true
    (T.get r ~cache:bc ~hint:Device.Random_read (Ik.max_for_lookup "t0-07")
    <> None)

(* ---------- memory accounting uses actual resident bytes ---------- *)

let test_memory_accounting_actual () =
  (* two identical stores, one with prefix blooms (which double the
     filter): memory_bytes must reflect the decoded filters' actual
     size, not the bits-per-key estimate (which is blind to prefixes) *)
  let mb_with prefix_len =
    let env = Env.create () in
    let opts =
      { (O.pebblesdb ()) with O.memtable_bytes = 256 * 1024;
        prefix_bloom_len = prefix_len }
    in
    let t = P.open_store opts ~env ~dir:"db" in
    let key i = Printf.sprintf "user%04d" i in
    for i = 0 to 499 do
      P.put t (key i) (String.make 64 'v')
    done;
    P.flush t;
    (* touch the data so every sstable's reader is resident *)
    for i = 0 to 499 do
      ignore (P.get t (key i))
    done;
    let mb = P.memory_bytes t in
    P.close t;
    mb
  in
  let plain = mb_with 0 and prefixed = mb_with 8 in
  check Alcotest.bool "positive" true (plain > 0);
  (* 500 keys at 10 bits/key: prefix probes roughly double the filter,
     so actual-bytes accounting must differ by at least half a plain
     filter; the old estimate differed by at most a few index entries *)
  check Alcotest.bool "prefix blooms show up in memory accounting" true
    (prefixed - plain >= 500 * 10 / 8 / 2)

(* ---------- differential: read path on vs off ---------- *)

let read_path_off (o : O.t) =
  {
    o with
    O.seek_filtering = false;
    index_summary_stride = 0;
    probe_budget_override = Some 1;
  }

let observe engine cfg =
  let tweak (o : O.t) =
    cfg { o with O.memtable_bytes = 8 * 1024; table_cache_entries = 4 }
  in
  let store = Stores.open_engine ~tweak engine in
  let rng = Pdb_util.Rng.create 7 in
  let key i = Printf.sprintf "user%04d" i in
  for i = 1 to 2_000 do
    let k = key (Pdb_util.Rng.int rng 400) in
    if i mod 7 = 0 then store.Dyn.d_delete k
    else store.Dyn.d_put k (Pdb_util.Rng.alpha rng 48);
    if i mod 3 = 0 then ignore (store.Dyn.d_get (key (Pdb_util.Rng.int rng 400)));
    if i mod 50 = 0 then begin
      let it = store.Dyn.d_iterator () in
      it.Iter.seek (key (Pdb_util.Rng.int rng 400));
      for _ = 1 to 10 do
        if it.Iter.valid () then it.Iter.next ()
      done
    end;
    if i mod 500 = 0 then store.Dyn.d_flush ()
  done;
  let gets = List.init 400 (fun i -> store.Dyn.d_get (key i)) in
  let scan = Iter.to_list (store.Dyn.d_iterator ()) in
  let env = store.Dyn.d_env in
  let disk = Fingerprint.files env in
  store.Dyn.d_close ();
  (gets, scan, disk)

let diff_on_off engine () =
  let g_on, s_on, d_on = observe engine Fun.id in
  let g_off, s_off, d_off = observe engine read_path_off in
  check Alcotest.bool "gets identical" true (g_on = g_off);
  check Alcotest.bool "scans identical" true (s_on = s_off);
  check Alcotest.bool "disk byte-identical" true (d_on = d_off)

let () =
  Alcotest.run "read-path"
    [
      ( "probe-budget",
        [
          Alcotest.test_case "makespan packing" `Quick test_makespan;
          Alcotest.test_case "deterministic across budgets" `Quick
            test_probe_budget_determinism;
        ] );
      ( "seek-filter",
        [
          Alcotest.test_case "skip decisions at boundaries" `Quick
            test_skip_seek_boundaries;
          Alcotest.test_case "prefix blooms" `Quick test_prefix_bloom;
          Alcotest.test_case "level iter skips dead member" `Quick
            test_level_iter_skips_dead_member;
          Alcotest.test_case "level iter boundary seeks" `Quick
            test_level_iter_boundary_seeks;
          Alcotest.test_case "level iter upper bound" `Quick
            test_level_iter_upper_bound_stops;
          Alcotest.test_case "engine iterator upper bound" `Quick
            test_engine_upper_bound;
        ] );
      ( "index-summary",
        [
          Alcotest.test_case "summary shape" `Quick test_index_summary_shape;
          Alcotest.test_case "summary reopen equivalent" `Quick
            test_open_via_summary_equivalent;
          Alcotest.test_case "table cache summary reopens" `Quick
            test_table_cache_summary_reopen;
          Alcotest.test_case "table cache byte bound" `Quick
            test_table_cache_byte_bound;
          Alcotest.test_case "memory accounting actual" `Quick
            test_memory_accounting_actual;
        ] );
      ( "differential",
        [
          Alcotest.test_case "pebblesdb on=off" `Quick
            (diff_on_off Stores.Pebblesdb);
          Alcotest.test_case "hyperleveldb on=off" `Quick
            (diff_on_off Stores.Hyperleveldb);
          Alcotest.test_case "tiered on=off" `Quick
            (diff_on_off
               (Stores.engine_for_policy Stores.Hyperleveldb O.Tiered));
        ] );
    ]
