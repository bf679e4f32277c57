(* Observability layer: per-op latency histograms, the event tracer, and
   block-cache eviction on sstable GC.

   The invariants: reporting is purely *observational* — store state is
   byte-identical with latency collection on or off, and runs are
   deterministic (same seed + client count ⇒ identical histograms);
   traces are well-formed Chrome trace-event JSON whose spans lie within
   the run's simulated time; GC never strands decoded blocks of deleted
   files in the shared cache. *)

module Dyn = Pdb_kvs.Store_intf
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Trace = Pdb_simio.Trace
module Stores = Pdb_harness.Stores
module B = Pdb_harness.Bench_util
module L = Pdb_kvs.Latency
module H = Pdb_util.Histogram
module Lsm = Pdb_lsm.Lsm_store

let files_of env =
  Env.list env
  |> List.map (fun name ->
         (name, Env.read_all env name ~hint:Pdb_simio.Device.Sequential_read))
  |> List.sort compare

(* ---------- latency determinism ---------- *)

(* fill + read with a fixed seed, optionally collecting latency *)
let run_workload ?clients ?latency env =
  let store = Stores.open_engine ~env Stores.Pebblesdb in
  ignore
    (B.fill_random ?clients ?latency store ~n:2_000 ~value_bytes:128 ~seed:5);
  ignore (B.read_random ?clients ?latency store ~n:2_000 ~ops:1_000 ~seed:5);
  store.Dyn.d_close ()

let hist_fingerprint lat kind =
  let h = L.hist lat kind in
  (H.count h, H.mean h, H.percentile h 50.0, H.percentile h 99.0,
   H.percentile h 99.9)

let test_latency_deterministic () =
  List.iter
    (fun clients ->
      let once () =
        let lat = L.create () in
        run_workload ?clients ~latency:lat (Env.create ());
        lat
      in
      let a = once () and b = once () in
      List.iter
        (fun (kind, label) ->
          let ca, _, _, _, _ = hist_fingerprint a kind in
          Alcotest.(check bool)
            (Printf.sprintf "%s histogram populated (%s)" label
               (match clients with
                | None -> "serial"
                | Some c -> Printf.sprintf "%dc" c))
            true
            (* fill + read issues no seeks and no read-modify-writes *)
            (ca > 0 || kind = L.Seek || kind = L.Other);
          Alcotest.(check bool)
            (Printf.sprintf "%s histogram identical across reruns" label)
            true
            (hist_fingerprint a kind = hist_fingerprint b kind))
        L.kinds)
    [ None; Some 1; Some 4; Some 8 ]

let test_latency_observational () =
  (* identical store bytes with latency collection on vs off, on both the
     serial and the multi-client path *)
  List.iter
    (fun clients ->
      let env_off = Env.create () and env_on = Env.create () in
      run_workload ?clients env_off;
      run_workload ?clients ~latency:(L.create ()) env_on;
      let off = files_of env_off and on = files_of env_on in
      Alcotest.(check (list string)) "same file set" (List.map fst off)
        (List.map fst on);
      List.iter2
        (fun (name, b_off) (_, b_on) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical with latency on/off" name)
            true
            (String.equal b_off b_on))
        off on)
    [ None; Some 4 ]

(* ---------- trace smoke ---------- *)

(* minimal JSON validator (recursive descent); we only need "is this
   well-formed", not a parse tree *)
let json_valid (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let continue = ref true in
          while !continue && not !fail do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some '}' ->
              incr pos;
              continue := false
            | _ -> fail := true
          done
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let continue = ref true in
          while !continue && not !fail do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some ']' ->
              incr pos;
              continue := false
            | _ -> fail := true
          done
        end
      | Some '"' -> string_lit ()
      | Some ('t' | 'f' | 'n') ->
        let lit w =
          if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
          then pos := !pos + String.length w
          else fail := true
        in
        (match peek () with
         | Some 't' -> lit "true"
         | Some 'f' -> lit "false"
         | _ -> lit "null")
      | Some ('-' | '0' .. '9') ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
              | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
              | _ -> false)
        do
          incr pos
        done;
        if
          float_of_string_opt (String.sub s start (!pos - start)) = None
        then fail := true
      | _ -> fail := true
    end
  and string_lit () =
    if !fail then ()
    else begin
      expect '"';
      let closed = ref false in
      while (not !closed) && not !fail do
        if !pos >= n then fail := true
        else
          match s.[!pos] with
          | '"' ->
            incr pos;
            closed := true
          | '\\' ->
            pos := !pos + 2;
            if !pos > n then fail := true
          | _ -> incr pos
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_json_validator () =
  (* sanity-check the checker itself *)
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (json_valid s))
    [ {|{}|}; {|[]|}; {|{"a":[1,2.5,-3e2],"b":"x\"y","c":null}|} ];
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (json_valid s))
    [ {|{|}; {|{"a":}|}; {|[1,]|}; {|"unterminated|}; {|{}extra|} ]

(* Regression: the probe span's duration must be measured before the
   overlap refund rewinds the clock — measuring after under-reports the
   session window by the refunded amount (and can go negative on
   seek-heavy traces, which the dur >= 0 assertion above now catches
   since Trace.span no longer clamps). *)
let test_probe_span_timing () =
  let clock = Clock.create () in
  let tr = Trace.create () in
  let ctx =
    Pdb_simio.Probe.create_ctx ~clock
      ~budget:2
      ~tracer:(fun () -> Some tr)
      ()
  in
  Pdb_simio.Probe.with_session ctx ~label:"seek" (fun () ->
      Pdb_simio.Probe.measure ctx (Clock.advance clock) 1_000.0;
      Pdb_simio.Probe.measure ctx (Clock.advance clock) 1_000.0);
  (* two 1000ns probes on a budget of 2: serial total 2000, makespan 1000,
     refund 0.5 * (2000 - 1000) = 500.  The session's real window is the
     full 2000ns of measured device time before the refund. *)
  let ev =
    List.find (fun e -> e.Trace.cat = "probe") (Trace.events tr)
  in
  Alcotest.(check (float 1e-6))
    "probe span covers the pre-refund window" 2_000.0 ev.Trace.dur_ns;
  Alcotest.(check (float 1e-6))
    "refund still applied" 1_500.0
    (Clock.elapsed_ns (Clock.snapshot clock))

let test_trace_smoke () =
  let env = Env.create () in
  let tr = Trace.create () in
  Env.set_tracer env tr;
  let store = Stores.open_engine ~env Stores.Pebblesdb in
  ignore (B.fill_random store ~n:3_000 ~value_bytes:512 ~seed:1);
  store.Dyn.d_close ();
  let horizon = Clock.elapsed_ns (Clock.snapshot (Env.clock env)) in
  let evs = Trace.events tr in
  Alcotest.(check bool) "events recorded" true (evs <> []);
  Alcotest.(check bool) "compaction spans present" true
    (List.exists (fun e -> e.Trace.cat = "compaction" && e.Trace.dur_ns > 0.0) evs);
  Alcotest.(check bool) "flush jobs traced" true
    (List.exists (fun e -> e.Trace.name = "flush") evs);
  Alcotest.(check bool) "wal events traced" true
    (List.exists (fun e -> e.Trace.cat = "wal") evs);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s starts at ts >= 0" e.Trace.name)
        true (e.Trace.ts_ns >= 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s has dur >= 0" e.Trace.name)
        true (e.Trace.dur_ns >= 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s ends within the run (%.0f <= %.0f)" e.Trace.name
           (e.Trace.ts_ns +. e.Trace.dur_ns)
           horizon)
        true
        (e.Trace.ts_ns +. e.Trace.dur_ns <= horizon +. 1.0))
    evs;
  let json = Trace.to_chrome_json tr in
  Alcotest.(check bool) "chrome trace JSON well-formed" true (json_valid json)

(* ---------- block-cache eviction on file GC ---------- *)

(* The files with a block in [cache], read from its key layout (the file's
   id in the high bits); a block under an id no name maps to any more
   shows as "<evicted>". *)
let cached_files (cache : Pdb_sstable.Block_cache.t) =
  let name id =
    Hashtbl.fold
      (fun file i acc -> if i = id then file else acc)
      cache.Pdb_sstable.Block_cache.ids "<evicted>"
  in
  Pdb_util.Lru.fold cache.Pdb_sstable.Block_cache.lru
    (fun acc k _ ->
      let file = name (k lsr 32) in
      if List.mem file acc then acc else file :: acc)
    []

let test_evict_file_unit () =
  let open Pdb_sstable in
  let b = Block.Builder.create () in
  Block.Builder.add b "k" "v";
  let block = Block.decode (Block.Builder.finish b) in
  let cache = Block_cache.create ~capacity:4096 in
  let key file offset =
    Block_cache.key ~id:(Block_cache.intern cache file) ~offset
  in
  List.iter
    (fun k -> Pdb_util.Lru.insert cache.Block_cache.lru k block ~weight:16)
    [ key "db/000001.sst" 0; key "db/000001.sst" 4096; key "db/000011.sst" 0 ];
  let gone = [ key "db/000001.sst" 0; key "db/000001.sst" 4096 ] in
  Block_cache.evict_file cache ~file:"db/000001.sst";
  Alcotest.(check bool) "blocks of deleted file gone" true
    (List.for_all
       (fun k -> Pdb_util.Lru.find cache.Block_cache.lru k = None)
       gone);
  Alcotest.(check bool) "other files untouched" true
    (Pdb_util.Lru.find cache.Block_cache.lru (key "db/000011.sst" 0) <> None);
  Alcotest.(check (list string)) "only the live file is cached"
    [ "db/000011.sst" ] (cached_files cache);
  (* a re-interned name gets a fresh id: no block of the evicted file can
     hit under it *)
  Alcotest.(check bool) "evicted name gets a fresh id" true
    (not (List.mem (key "db/000001.sst" 0) gone))

(* Blocks of five files inserted, evicted by capacity and re-inserted in
   a churned order: evicting one file drops its blocks and keeps every
   block of the others, whatever their order in the LRU. *)
let test_evict_file_keeps_others () =
  let open Pdb_sstable in
  let b = Block.Builder.create () in
  Block.Builder.add b "k" "v";
  let block = Block.decode (Block.Builder.finish b) in
  let cache = Block_cache.create ~capacity:(40 * 16) in
  let lru = cache.Block_cache.lru in
  let file i = Printf.sprintf "db/%06d.sst" i in
  let rng = Pdb_util.Rng.create 11 in
  for _ = 1 to 400 do
    let f = file (Pdb_util.Rng.int rng 5) in
    let k =
      Block_cache.key ~id:(Block_cache.intern cache f)
        ~offset:(4096 * Pdb_util.Rng.int rng 20)
    in
    Pdb_util.Lru.insert lru k block ~weight:16
  done;
  let id f = Block_cache.intern cache f in
  let cached () = Pdb_util.Lru.fold lru (fun acc k _ -> k :: acc) [] in
  let before = cached () in
  let victim = id (file 2) in
  Alcotest.(check bool) "the victim has cached blocks" true
    (List.exists (fun k -> k lsr 32 = victim) before);
  Block_cache.evict_file cache ~file:(file 2);
  Alcotest.(check (list int)) "exactly the other files' blocks remain"
    (List.sort compare (List.filter (fun k -> k lsr 32 <> victim) before))
    (List.sort compare (cached ()));
  Alcotest.(check int) "used bytes follow" (16 * List.length (cached ()))
    (Block_cache.used cache)

(* After compactions delete sstables, no cached block may reference a file
   that no longer exists: the regression the GC eviction fix closes. *)
let test_cache_files_live () =
  let env = Env.create () in
  let t =
    Lsm.open_store (Stores.default_options Stores.Leveldb) ~env ~dir:"db"
  in
  let rng = Pdb_util.Rng.create 3 in
  let key i = Printf.sprintf "key%06d" i in
  let cache = t.Pdb_engine.Shell.block_cache in
  let check_no_stale msg =
    let live = Env.list env in
    let stale =
      List.filter
        (fun file -> not (List.mem file live))
        (cached_files cache)
    in
    Alcotest.(check (list string)) msg [] stale
  in
  for i = 0 to 4_999 do
    Lsm.put t (key (Pdb_util.Rng.int rng 2_000)) (Pdb_util.Rng.alpha rng 256);
    (* interleave reads so the cache holds blocks of files that the
       compactions triggered by later puts then delete *)
    if i mod 7 = 0 then ignore (Lsm.get t (key (Pdb_util.Rng.int rng 2_000)))
  done;
  (* mid-fill compactions have deleted many of the files those reads
     cached; with eviction-on-GC the cache holds only live files *)
  Alcotest.(check bool) "cache is populated" true
    (Pdb_sstable.Block_cache.used cache > 0);
  check_no_stale "no stale blocks after fill-time GC";
  Lsm.compact_all t;
  check_no_stale "no stale blocks after compact_all";
  Lsm.close t

let () =
  Alcotest.run "observability"
    [
      ( "latency",
        [
          Alcotest.test_case "deterministic across reruns" `Quick
            test_latency_deterministic;
          Alcotest.test_case "byte-identical state on/off" `Quick
            test_latency_observational;
        ] );
      ( "trace",
        [
          Alcotest.test_case "json validator sanity" `Quick test_json_validator;
          Alcotest.test_case "probe span measured before refund" `Quick
            test_probe_span_timing;
          Alcotest.test_case "smoke: spans, bounds, json" `Quick
            test_trace_smoke;
        ] );
      ( "block-cache",
        [
          Alcotest.test_case "evict_file drops only that file" `Quick
            test_evict_file_unit;
          Alcotest.test_case "evict_file keeps other files' blocks" `Quick
            test_evict_file_keeps_others;
          Alcotest.test_case "no stale blocks after GC" `Quick
            test_cache_files_live;
        ] );
    ]
