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
module LI = Pdb_sstable.Level_iter
module G = Pebblesdb.Guard
module P = Pebblesdb.Pebbles_store
module Stores = Pdb_harness.Stores

let check = Alcotest.check
let checkf = Alcotest.(check (float 1e-9))

let ikey ?(seq = 1) k = Ik.encode ~user_key:k ~seq ~kind:Ik.Value

let build_table ?(block_bytes = 512) env ~number entries =
  let b = T.Builder.create env ~dir:"db" ~number ~block_bytes ~bloom:true in
  List.iter (fun (k, v) -> T.Builder.add b (ikey k) v) entries;
  fst (Option.get (T.Builder.finish b))

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
      probe_budget = budget;
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

(* An [on_check] callback counting checks and skips. *)
let counting_check () =
  let checks = ref 0 and skips = ref 0 in
  let on_check ~skipped =
    incr checks;
    if skipped then incr skips
  in
  (on_check, checks, skips)

let iter_of ?on_check ?(on_table = fun () -> ()) env view =
  let tc = TC.create env ~dir:"db" ~entries:100 in
  let bc = BC.create ~capacity:(1 lsl 20) in
  LI.create ?on_check ~cache:tc ~block_cache:bc ~hint:Device.Random_read
    ~on_table (fun () -> view)

let test_skip_seek_boundaries () =
  let env = Env.create () in
  let meta = build_table env ~number:1 [ ("g", "v"); ("k", "v") ] in
  let on_check, checks, skips = counting_check () in
  let opened = ref 0 in
  let it =
    iter_of ~on_check ~on_table:(fun () -> incr opened) env (LI.pile [ meta ])
  in
  let seek what k ~skipped ~key =
    let checks0 = !checks and skips0 = !skips in
    it.Iter.seek (Ik.max_for_lookup k);
    check Alcotest.int (what ^ ": one check") (checks0 + 1) !checks;
    check Alcotest.int (what ^ ": skip") (skips0 + Bool.to_int skipped) !skips;
    check Alcotest.(option string) (what ^ ": key") key
      (if it.Iter.valid () then Some (Ik.user_key (it.Iter.key ())) else None)
  in
  seek "target inside range" "h" ~skipped:false ~key:(Some "k");
  seek "target exactly at largest" "k" ~skipped:false ~key:(Some "k");
  seek "target past largest" "k\x00" ~skipped:true ~key:None;
  check Alcotest.int "skipped member never opened" 2 !opened;
  (* no callback: filtering off, the member is opened and never skipped *)
  let opened = ref 0 in
  let it0 = iter_of ~on_table:(fun () -> incr opened) env (LI.pile [ meta ]) in
  it0.Iter.seek (Ik.max_for_lookup "z");
  check Alcotest.bool "filtering off: past the end" false (it0.Iter.valid ());
  check Alcotest.int "filtering off never skips" 1 !opened

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

let guard_iter ?on_check ?on_table env level =
  iter_of ?on_check ?on_table env (P.guard_view level ())

let test_level_iter_skips_dead_member () =
  let env = Env.create () in
  (* guard g holds two overlapping tables; a seek past one's largest key
     must skip it without changing the answer *)
  let level =
    make_level env
      [ (None, [ [ "a"; "c" ] ]); (Some "g", [ [ "g"; "m" ]; [ "h"; "k" ] ]) ]
  in
  let on_check, checks, skips = counting_check () in
  let it = guard_iter ~on_check env level in
  it.Iter.seek (Ik.max_for_lookup "l");
  check Alcotest.string "answer unchanged" "m" (Ik.user_key (it.Iter.key ()));
  check Alcotest.bool "member checked" true (!checks > 0);
  check Alcotest.int "dead member skipped" 1 !skips;
  (* same seek without filtering gives the same answer *)
  let it0 = guard_iter env level in
  it0.Iter.seek (Ik.max_for_lookup "l");
  check Alcotest.string "unfiltered agrees" "m" (Ik.user_key (it0.Iter.key ()))

let test_level_iter_boundary_seeks () =
  let env = Env.create () in
  let level =
    make_level env
      [ (None, [ [ "a"; "c" ] ]); (Some "g", [ [ "g"; "m" ]; [ "h"; "k" ] ]) ]
  in
  let on_check, _, _ = counting_check () in
  let it = guard_iter ~on_check env level in
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

(* A scan that exhausts a guard positions every member of the next one
   from its first key: each counts one check, and none can be skipped. *)
let test_level_iter_scan_rolls_into_next_guard () =
  let env = Env.create () in
  let level =
    make_level env
      [
        (None, [ [ "a"; "c" ] ]);
        (Some "g", [ [ "g"; "m" ]; [ "h"; "k" ] ]);
        (Some "p", [ [ "p"; "q" ] ]);
      ]
  in
  let on_check, checks, skips = counting_check () in
  let opened = ref 0 in
  let it = guard_iter ~on_check ~on_table:(fun () -> incr opened) env level in
  it.Iter.seek (Ik.max_for_lookup "b");
  check Alcotest.string "seek lands in the sentinel" "c"
    (Ik.user_key (it.Iter.key ()));
  check Alcotest.int "seek: one check" 1 !checks;
  it.Iter.next ();
  check Alcotest.string "rolled into guard g" "g" (Ik.user_key (it.Iter.key ()));
  check Alcotest.int "guard g: one check per member" 3 !checks;
  let keys = ref [] in
  while it.Iter.valid () do
    keys := Ik.user_key (it.Iter.key ()) :: !keys;
    it.Iter.next ()
  done;
  check Alcotest.(list string) "scan order" [ "g"; "h"; "k"; "m"; "p"; "q" ]
    (List.rev !keys);
  check Alcotest.int "guard p: one more check" 4 !checks;
  check Alcotest.int "no skips" 0 !skips;
  check Alcotest.int "every checked member opened" !checks !opened

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
  let dump rd =
    Iter.to_list (T.to_iter (T.iterator rd ~cache:bc ~hint:Device.Random_read))
  in
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
        | Some (Ik.Value, v) -> check Alcotest.string "cache read correct" "v" v
        | Some (Ik.Deletion, _) | None ->
          Alcotest.fail "lost key through summary reopen")
      metas
  in
  let count k = Pdb_kvs.Engine_stats.get (TC.counters tc) k in
  touch ();
  check Alcotest.int "first pass: all cold opens" 0
    (count Pdb_kvs.Engine_stats.summary_hits);
  touch ();
  (* 5 tables through a 2-entry cache: every second-pass open is a
     summary-guided reopen *)
  check Alcotest.bool "reopens guided by summaries" true
    (count Pdb_kvs.Engine_stats.summary_hits >= 3);
  check Alcotest.int "every table summarized once" 5
    (count Pdb_kvs.Engine_stats.summary_misses)

(* ---------- memory accounting uses actual resident bytes ---------- *)

(* Tables under [Bloom.min_keys] keys carry a filter sized for
   [min_keys] keys, bigger than the bits-per-key estimate.  A reopened
   store has opened none of its tables, so [memory_bytes] counts each by
   that estimate; once gets have opened them all, it must count their
   actual footprint, and grow by at least the filters' gap. *)
let test_memory_accounting_actual () =
  let module Bloom = Pdb_bloom.Bloom in
  let env = Env.create () in
  (* no block cache: the gets' data blocks add nothing to memory *)
  let opts = { (O.pebblesdb ()) with O.block_cache_bytes = 0 } in
  let key i = Printf.sprintf "user%04d" i in
  let t = P.open_store opts ~env ~dir:"db" in
  (* three level-0 tables of 30 keys: too few to trigger a compaction *)
  for i = 0 to 89 do
    P.put t (key i) (String.make 64 'v');
    if i mod 30 = 29 then P.flush t
  done;
  P.close t;
  let t = P.open_store opts ~env ~dir:"db" in
  let metas = P.sstable_metas t in
  check Alcotest.bool "every table under min_keys keys" true
    (metas <> []
    && List.for_all (fun (m : T.meta) -> m.T.entries < Bloom.min_keys) metas);
  let estimated = P.memory_bytes t in
  for i = 0 to 89 do
    ignore (P.get t (key i))
  done;
  check Alcotest.bool "gets change no table" true (P.sstable_metas t = metas);
  let actual = P.memory_bytes t in
  P.close t;
  let filter_gap =
    List.fold_left
      (fun acc (m : T.meta) ->
        acc + ((Bloom.min_keys - m.T.entries) * Bloom.bits_per_key / 8))
      0 metas
  in
  check Alcotest.bool "filters counted at their actual size" true
    (actual - estimated >= filter_gap)

(* ---------- compaction and the block cache ---------- *)

module type CACHED_ENGINE = sig
  type t

  val open_store :
    ?block_cache:BC.t -> O.t -> env:Env.t -> dir:string -> t

  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val get : ?snapshot:int -> t -> string -> string option
  val flush : t -> unit
  val iterator : ?snapshot:int -> t -> Iter.t
  val compact_all : t -> unit
  val close : t -> unit
end

let cache_engines =
  [
    ("pebblesdb", (module P : CACHED_ENGINE), O.pebblesdb ());
    ("hyperleveldb", (module Pdb_lsm.Lsm_store : CACHED_ENGINE),
     O.hyperleveldb ());
  ]

let cache_key i = Printf.sprintf "key%04d" i
let cache_value k = Printf.sprintf "value-%04d-%s" k (String.make 80 'v')

(* An empty store over [bc] with 512-byte blocks and two levels, whose
   memtable flushes only when asked. *)
let cached_store (type a) (module E : CACHED_ENGINE with type t = a) opts bc =
  let env = Env.create () in
  let opts =
    {
      opts with
      O.memtable_bytes = 1 lsl 20;
      block_bytes = 512;
      block_cache_bytes = 1 lsl 20;
      max_levels = 2;
    }
  in
  (env, E.open_store ~block_cache:bc opts ~env ~dir:"db")

(* A store over [bc] holding keys 0-299 in three level-0 tables: no
   compaction has run, and nothing has been read.  With two levels, a
   full compaction is one merge of the three into level 1. *)
let three_l0_tables (type a) (module E : CACHED_ENGINE with type t = a) opts
    bc =
  let env, db = cached_store (module E) opts bc in
  for t = 0 to 2 do
    for i = 0 to 99 do
      let k = (i * 3) + t in
      E.put db (cache_key k) (cache_value k)
    done;
    E.flush db
  done;
  (env, db)

(* Scan user keys [lo, hi) through the store's iterator. *)
let scan_range (it : Iter.t) ~lo ~hi =
  it.Iter.seek (cache_key lo);
  let n = ref 0 in
  while it.Iter.valid () && it.Iter.key () < cache_key hi do
    incr n;
    it.Iter.next ()
  done;
  !n

let read_ops env = (Env.stats env).Pdb_simio.Io_stats.read_ops
let bytes_read env = (Env.stats env).Pdb_simio.Io_stats.bytes_read
let tables env =
  List.filter (fun n -> Filename.check_suffix n ".sst") (Env.list env)

(* Readers over the store's live tables, opened (and charged) now. *)
let live_readers env =
  List.map
    (fun name ->
      let number =
        int_of_string (Filename.chop_suffix (Filename.basename name) ".sst")
      in
      T.open_reader env ~dir:"db" (T.recover_meta env ~dir:"db" ~number))
    (List.sort compare (tables env))

(* Every entry of [readers], each with whether its block is resident in
   [bc] (read through a compaction view, which leaves [bc] as it was). *)
let residency bc readers =
  let view = BC.for_compaction bc in
  List.concat_map
    (fun r ->
      let it = T.iterator r ~cache:view ~hint:Device.Sequential_read in
      T.seek_to_first it;
      let acc = ref [] in
      while T.valid it do
        acc := (Ik.user_key (T.key it), T.resident it) :: !acc;
        T.next it
      done;
      List.rev !acc)
    readers

(* (a) A range read until cached stays cached across its compaction:
   re-reading the compacted range reads nothing from the device. *)
let test_compaction_keeps_hot_range (module E : CACHED_ENGINE) opts () =
  let bc = BC.create ~capacity:(1 lsl 20) in
  let env, db = three_l0_tables (module E) opts bc in
  for _ = 1 to 2 do
    check Alcotest.int "scanned" 300 (scan_range (E.iterator db) ~lo:0 ~hi:300)
  done;
  let inputs = tables env in
  E.compact_all db;
  check Alcotest.bool "the compaction rewrote every table" true
    (List.for_all (fun n -> not (Env.exists env n)) inputs);
  let readers = live_readers env in
  let ops = read_ops env in
  let entries =
    List.fold_left
      (fun n r ->
        let it = T.iterator r ~cache:bc ~hint:Device.Random_read in
        T.seek_to_first it;
        let n = ref n in
        while T.valid it do
          incr n;
          T.next it
        done;
        !n)
      0 readers
  in
  check Alcotest.int "entries re-read" 300 entries;
  check Alcotest.int "re-reading the compacted range reads nothing" 0
    (read_ops env - ops);
  E.close db

(* (b) A compaction admits only hot blocks: never-read tables leave the
   cache as it was, and a half-read store caches its read half and not
   the other. *)
let test_compaction_leaves_cold_out (module E : CACHED_ENGINE) opts () =
  let bc = BC.create ~capacity:(1 lsl 20) in
  let env, db = three_l0_tables (module E) opts bc in
  let used = BC.used bc and hits = BC.hits bc and misses = BC.misses bc in
  E.compact_all db;
  check Alcotest.int "never-read tables admit nothing" used (BC.used bc);
  check Alcotest.(pair int int) "hits and misses unchanged" (hits, misses)
    (BC.hits bc, BC.misses bc);
  check Alcotest.bool "no output block is resident" true
    (List.for_all (fun (_, hot) -> not hot) (residency bc (live_readers env)));
  E.close db;
  let bc = BC.create ~capacity:(1 lsl 20) in
  let env, db = three_l0_tables (module E) opts bc in
  check Alcotest.int "scanned" 100 (scan_range (E.iterator db) ~lo:0 ~hi:100);
  E.compact_all db;
  let entries = residency bc (live_readers env) in
  check Alcotest.bool "the read half is cached" true
    (List.for_all (fun (uk, hot) -> hot || uk >= cache_key 100) entries);
  check Alcotest.bool "the last key is not" false
    (List.assoc (cache_key 299) entries);
  E.close db

(* (c) A compaction of fully resident inputs reads nothing from the
   device: their data blocks come from the block cache, and their readers
   (footer, index and filter) from the table cache, which admitted each
   table as it was flushed.  No cache counter moves. *)
let test_compaction_reads_resident_inputs (module E : CACHED_ENGINE) opts () =
  let bc = BC.create ~capacity:(1 lsl 20) in
  let env, db = three_l0_tables (module E) opts bc in
  check Alcotest.int "scanned" 300 (scan_range (E.iterator db) ~lo:0 ~hi:300);
  let inputs = tables env in
  let bytes = bytes_read env and hits = BC.hits bc and misses = BC.misses bc in
  E.compact_all db;
  check Alcotest.bool "the compaction rewrote every table" true
    (List.for_all (fun n -> not (Env.exists env n)) inputs);
  check Alcotest.int "nothing read from the device" 0 (bytes_read env - bytes);
  check Alcotest.(pair int int) "hits and misses unchanged" (hits, misses)
    (BC.hits bc, BC.misses bc);
  E.close db

(* The index block of table [file], read without a device charge. *)
let table_index env file =
  let size = Env.file_size env file in
  let footer = Env.peek env file ~pos:(size - T.footer_size) ~len:T.footer_size in
  let field i = Pdb_util.Varint.get_fixed32 footer (4 * i) in
  Pdb_sstable.Block.decode (Env.peek env file ~pos:(field 2) ~len:(field 3))

(* The bytes of [file]'s data blocks that [bc] does not hold, and how
   many such blocks there are: the index's handles. *)
let uncached_data env bc file =
  let index = table_index env file in
  let id = BC.intern (BC.for_compaction bc) file in
  let bytes = ref 0 and blocks = ref 0 in
  Pdb_sstable.Block.iter_index index (fun _ _ offset size ->
      if BC.held bc ~id ~offset = None then begin
        bytes := !bytes + size;
        incr blocks
      end);
  (!bytes, !blocks)

(* (d) A compaction reads its inputs with readahead: the device reads
   exactly the bytes of the input blocks the cache does not hold, in
   fewer reads than there are such blocks.  A readahead stops at a block
   the cache holds, so a cached middle range splits each input into two
   reads. *)
let test_compaction_reads_ahead (module E : CACHED_ENGINE) opts () =
  List.iter
    (fun (what, lo, hi, reads_per_input) ->
      let bc = BC.create ~capacity:(1 lsl 20) in
      let env, db = three_l0_tables (module E) opts bc in
      if hi > lo then
        check Alcotest.int "scanned" (hi - lo) (scan_range (E.iterator db) ~lo ~hi);
      let inputs = tables env in
      let bytes, blocks =
        List.fold_left
          (fun (b, n) file ->
            let b', n' = uncached_data env bc file in
            (b + b', n + n'))
          (0, 0) inputs
      in
      let before = bytes_read env and ops = read_ops env in
      E.compact_all db;
      check Alcotest.bool (what ^ ": every table rewritten") true
        (List.for_all (fun n -> not (Env.exists env n)) inputs);
      check Alcotest.int (what ^ ": bytes read") bytes (bytes_read env - before);
      check Alcotest.int (what ^ ": device reads")
        (reads_per_input * List.length inputs)
        (read_ops env - ops);
      check Alcotest.bool (what ^ ": fewer reads than blocks") true
        (read_ops env - ops < blocks);
      E.close db)
    [ ("cold", 0, 0, 1); ("middle cached", 100, 200, 2) ]

(* ---------- flushes and the block cache ---------- *)

let put_range (type a) (module E : CACHED_ENGINE with type t = a) db lo hi =
  for k = lo to hi - 1 do
    E.put db (cache_key k) (cache_value k)
  done

let cache_state bc = (BC.used bc, BC.hits bc, BC.misses bc)

(* (a) Keys read from the memtable and then flushed re-read with no
   device read: the flush admitted the blocks holding them. *)
let test_flush_keeps_read_keys (module E : CACHED_ENGINE) opts () =
  let bc = BC.create ~capacity:(1 lsl 20) in
  let env, db = cached_store (module E) opts bc in
  put_range (module E) db 0 300;
  let get_all () =
    for k = 100 to 199 do
      check Alcotest.(option string) "value" (Some (cache_value k))
        (E.get db (cache_key k))
    done
  in
  get_all ();
  E.flush db;
  check Alcotest.int "flushed to one table" 1 (List.length (tables env));
  let ops = read_ops env in
  get_all ();
  check Alcotest.int "re-reading the flushed keys reads nothing" 0
    (read_ops env - ops);
  E.close db

(* (b) A flush after no gets leaves the block cache as it was; the same
   flush after one get admits that key's block. *)
let test_flush_unread_admits_nothing (module E : CACHED_ENGINE) opts () =
  let bc = BC.create ~capacity:(1 lsl 20) in
  let _env, db = cached_store (module E) opts bc in
  put_range (module E) db 0 100;
  let before = cache_state bc in
  E.flush db;
  check Alcotest.(triple int int int) "an unread flush moves no counter"
    before (cache_state bc);
  put_range (module E) db 100 200;
  ignore (E.get db (cache_key 150));
  let used = BC.used bc in
  E.flush db;
  check Alcotest.bool "a flush after a get admits its block" true
    (BC.used bc > used);
  E.close db

(* The last internal key of each data block of table [file]. *)
let block_ends env file =
  let ends = ref [] in
  Pdb_sstable.Block.iter_index (table_index env file) (fun key len _ _ ->
      ends := Bytes.sub_string key 0 len :: !ends);
  List.rev !ends

(* (c) A flush admits exactly the data blocks holding an entry a get
   returned, a tombstone as well as a value. *)
let test_flush_admits_read_blocks (module E : CACHED_ENGINE) opts () =
  let bc = BC.create ~capacity:(1 lsl 20) in
  let env, db = cached_store (module E) opts bc in
  put_range (module E) db 0 300;
  E.delete db (cache_key 250);
  let read k = k mod 37 = 0 || k = 250 in
  for k = 0 to 299 do
    if read k then
      check Alcotest.(option string) "value"
        (if k = 250 then None else Some (cache_value k))
        (E.get db (cache_key k))
  done;
  E.flush db;
  let ends = block_ends env (List.hd (tables env)) in
  let block_of ikey =
    let rec go i = function
      | last :: rest -> if Ik.compare ikey last <= 0 then i else go (i + 1) rest
      | [] -> invalid_arg "block_of"
    in
    go 0 ends
  in
  let it =
    T.iterator (List.hd (live_readers env)) ~cache:(BC.for_compaction bc)
      ~hint:Device.Sequential_read
  in
  T.seek_to_first it;
  (* (block, resident, a get returned this entry): the newest entry of
     each user key read *)
  let entries = ref [] and prev = ref "" in
  while T.valid it do
    let ikey = T.key it in
    let uk = Ik.user_key ikey in
    let returned =
      uk <> !prev && read (int_of_string (String.sub uk 3 4))
    in
    prev := uk;
    entries := (block_of ikey, T.resident it, returned) :: !entries;
    T.next it
  done;
  let entries = List.rev !entries in
  let hot =
    List.filter_map (fun (b, _, returned) -> if returned then Some b else None)
      entries
  in
  check Alcotest.bool "several blocks, some unread" true
    (List.length ends > List.length (List.sort_uniq compare hot));
  List.iter
    (fun (b, resident, _) ->
      check Alcotest.bool
        (Printf.sprintf "block %d resident iff it holds a read entry" b)
        (List.mem b hot) resident)
    entries;
  E.close db

(* (d) A seeded op sequence writes the same files with gets interleaved
   as without: reads move only the cache's contents and the clock. *)
let test_flush_gets_keep_bytes (module E : CACHED_ENGINE) opts () =
  let run ~gets =
    let bc = BC.create ~capacity:(1 lsl 20) in
    let env, db = cached_store (module E) opts bc in
    let ops = Random.State.make [| 39 |] and reads = Random.State.make [| 7 |] in
    let admitted = ref 0 in
    for round = 1 to 6 do
      for _ = 1 to 150 do
        let k = Random.State.int ops 400 in
        if Random.State.int ops 8 = 0 then E.delete db (cache_key k)
        else E.put db (cache_key k) (cache_value (k + round));
        if gets then ignore (E.get db (cache_key (Random.State.int reads 400)))
      done;
      let used = BC.used bc in
      E.flush db;
      if round = 1 then admitted := BC.used bc - used
    done;
    E.compact_all db;
    E.close db;
    (Fingerprint.files env, !admitted)
  in
  let cold, none = run ~gets:false and hot, admitted = run ~gets:true in
  check Alcotest.int "no gets admit nothing" 0 none;
  check Alcotest.bool "the first flush after gets admits blocks" true
    (admitted > 0);
  check Alcotest.(list (pair string string)) "files byte-identical" cold hot

(* ---------- new tables: the builder's reader ---------- *)

(* Over random tables — with a filter and with none; some keys in two
   versions, the older a tombstone — the reader [Builder.finish] returns
   costs no device read and answers every get, filter probe, seek and
   full scan exactly as [open_reader] on the same file. *)
let prop_builder_reader =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"builder reader = opened reader"
       QCheck.(
         pair (list_of_size (Gen.int_range 1 400) (int_bound 3000)) bool)
       (fun (ids, bloom) ->
         let env = Env.create () in
         let key i = Printf.sprintf "k%05d" i in
         let ids = List.sort_uniq compare ids in
         let b =
           T.Builder.create env ~dir:"db" ~number:1 ~block_bytes:256 ~bloom
         in
         List.iter
           (fun i ->
             T.Builder.add b (ikey ~seq:5 (key i)) (Printf.sprintf "v%d" i);
             if i mod 3 = 0 then
               T.Builder.add b
                 (Ik.encode ~user_key:(key i) ~seq:2 ~kind:Ik.Deletion)
                 "")
           ids;
         let ops = read_ops env in
         let meta, built = Option.get (T.Builder.finish b) in
         if read_ops env <> ops then QCheck.Test.fail_report "finish read";
         let opened = T.open_reader env ~dir:"db" meta in
         let cache () = BC.create ~capacity:(1 lsl 20) in
         let bc_built = cache () and bc_opened = cache () in
         let same what f =
           if f built bc_built <> f opened bc_opened then
             QCheck.Test.fail_reportf "%s differs" what
         in
         same "shape" (fun r _ ->
             ( T.number r,
               T.has_filter r,
               T.filter_resident r,
               T.resident_bytes r ));
         for i = 0 to 3010 do
           let k = key i in
           same ("get " ^ k) (fun r cache ->
               T.get r ~cache ~hint:Device.Random_read (Ik.max_for_lookup k));
           same ("snapshot get " ^ k) (fun r cache ->
               T.get r ~cache ~hint:Device.Random_read
                 (Ik.lookup_at ~user_key:k ~seq:3));
           same ("may_contain " ^ k) (fun r _ -> T.may_contain r k)
         done;
         let walk r cache ~from =
           let it = T.iterator r ~cache ~hint:Device.Sequential_read in
           (match from with
            | None -> T.seek_to_first it
            | Some k -> T.seek it (Ik.max_for_lookup k));
           let acc = ref [] in
           while T.valid it do
             acc := (T.key it, T.value it) :: !acc;
             T.next it
           done;
           List.rev !acc
         in
         same "scan" (walk ~from:None);
         List.iter
           (fun i -> same "seek" (walk ~from:(Some (key i))))
           [ 0; 1; 17; 1500; 2999; 3001 ];
         true))

(* ---------- differential: read path on vs off ---------- *)

let read_path_off (o : O.t) =
  {
    o with
    O.seek_filtering = false;
    index_summary_stride = 0;
    probe_budget = 1;
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
          Alcotest.test_case "level iter skips dead member" `Quick
            test_level_iter_skips_dead_member;
          Alcotest.test_case "level iter boundary seeks" `Quick
            test_level_iter_boundary_seeks;
          Alcotest.test_case "level iter scan rolls into next guard" `Quick
            test_level_iter_scan_rolls_into_next_guard;
        ] );
      ( "index-summary",
        [
          Alcotest.test_case "summary shape" `Quick test_index_summary_shape;
          Alcotest.test_case "summary reopen equivalent" `Quick
            test_open_via_summary_equivalent;
          Alcotest.test_case "table cache summary reopens" `Quick
            test_table_cache_summary_reopen;
          Alcotest.test_case "memory accounting actual" `Quick
            test_memory_accounting_actual;
        ] );
      ( "compaction cache",
        List.concat_map
          (fun (name, e, opts) ->
            [
              Alcotest.test_case (name ^ " hot range stays cached") `Quick
                (test_compaction_keeps_hot_range e opts);
              Alcotest.test_case (name ^ " cold tables admit nothing") `Quick
                (test_compaction_leaves_cold_out e opts);
              Alcotest.test_case (name ^ " cold inputs read ahead") `Quick
                (test_compaction_reads_ahead e opts);
              Alcotest.test_case (name ^ " resident inputs read no data")
                `Quick
                (test_compaction_reads_resident_inputs e opts);
            ])
          cache_engines );
      ( "flush cache",
        List.concat_map
          (fun (name, e, opts) ->
            [
              Alcotest.test_case (name ^ " read keys re-read cached") `Quick
                (test_flush_keeps_read_keys e opts);
              Alcotest.test_case (name ^ " unread flush admits nothing")
                `Quick
                (test_flush_unread_admits_nothing e opts);
              Alcotest.test_case (name ^ " only read blocks admitted") `Quick
                (test_flush_admits_read_blocks e opts);
              Alcotest.test_case (name ^ " gets keep file bytes") `Quick
                (test_flush_gets_keep_bytes e opts);
            ])
          cache_engines );
      ("new tables", [ prop_builder_reader ]);
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
