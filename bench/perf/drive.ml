(** One store, run in its own process: set-up, untimed warm-up, the timed
    phase, and the metrics of all three.

    Each metric is printed on one line as [class name value unit], with
    [class] one of [sim] (simulated: repeats exactly for a seed), [host]
    (host cost of the simulator) or [layer] (a per-layer metric of the
    timed phase).  Percentiles carry a trailing [n=<samples>]. *)

module Dyn = Pdb_kvs.Store_intf
module Iter = Pdb_kvs.Iter
module Mc = Pdb_kvs.Multi_client
module Es = Pdb_kvs.Engine_stats
module Lat = Pdb_kvs.Latency
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Io = Pdb_simio.Io_stats
module Trace = Pdb_simio.Trace
module H = Pdb_util.Histogram
module Crc = Pdb_util.Crc32c

(* The closed loop: 4 client lanes, each issuing its next op when its
   previous one completes in simulated time. *)
let clients = 4

(* Ops drawn and executed per chunk, so pre-drawn ops never fill the
   heap. *)
let chunk_ops = 8192

(* The compaction triggers whose jobs carry a byte estimate (seek jobs
   estimate nothing; [core.seek_compactions] counts them). *)
let triggers = [ "flush"; "l0"; "size"; "cap"; "merge" ]

(* Reused by every scan: the entries it returned, digested after the
   call so that the check stays out of the store's brackets. *)
let scan_keys = Array.make Pdb_ycsb.Workload.workload_e.max_scan_len ""
let scan_values = Array.make Pdb_ycsb.Workload.workload_e.max_scan_len ""

let scan_store (store : Dyn.dyn) start len =
  let it = store.Dyn.d_iterator () in
  it.Iter.seek start;
  let n = ref 0 in
  while !n < len && it.Iter.valid () do
    scan_keys.(!n) <- it.Iter.key ();
    scan_values.(!n) <- it.Iter.value ();
    incr n;
    if !n < len then it.Iter.next ()
  done;
  !n

type ctx = {
  raw : Dyn.dyn;
  store : Dyn.dyn;  (** [raw] with its commit groups metered *)
  meter : Meter.t;
  gen : Gen.t;
  pending : int Queue.t;  (** ids of drawn writes, in execution order *)
}

(* Commit groups reach the store through [d_write_group]; metering it
   there charges each group once, to the writes it covers. *)
let wrap meter pending (raw : Dyn.dyn) =
  {
    raw with
    Dyn.d_write_group =
      (fun batches ->
        let n = List.length batches in
        let first = Queue.peek pending in
        for _ = 1 to n do
          ignore (Queue.pop pending)
        done;
        ignore
          (Meter.call meter Meter.Write ~first ~ops:n (fun () ->
               raw.Dyn.d_write_group batches)));
  }

let to_mc c = function
  | Gen.Put { id; key; value } ->
    Queue.push id c.pending;
    let b = Pdb_kvs.Write_batch.create () in
    Pdb_kvs.Write_batch.put b key value;
    Mc.Write b
  | Gen.Get { id; key; crc } ->
    Mc.Read
      (fun () ->
        match
          Meter.call c.meter Meter.Read ~first:id ~ops:1 (fun () ->
              c.raw.Dyn.d_get key)
        with
        | None -> ()
        | Some (Some v) ->
          if crc < 0 || Crc.string v <> crc then Meter.fail c.meter
        | Some None -> if crc >= 0 then Meter.fail c.meter)
  | Gen.Scan { id; start; len; count; digest } ->
    Mc.Seek
      (fun () ->
        match
          Meter.call c.meter Meter.Scan ~first:id ~ops:1 (fun () ->
              scan_store c.raw start len)
        with
        | None -> ()
        | Some n ->
          let h = ref 0 in
          for i = 0 to n - 1 do
            h := Gen.digest !h scan_keys.(i) (Crc.string scan_values.(i))
          done;
          if n <> count || !h <> digest then Meter.fail c.meter)

type phase = {
  mutable elapsed_ns : float;  (** simulated, summed over the chunks *)
  mutable wait_ns : float;  (** client blocked time, all lanes *)
}

(** [run c ?latency ~ops draw] draws and executes [ops] ops in chunks. *)
let run ?latency c ~ops draw =
  let p = { elapsed_ns = 0.0; wait_ns = 0.0 } in
  let remaining = ref ops in
  while !remaining > 0 do
    let n = min chunk_ops !remaining in
    let chunk =
      Meter.gen c.meter ~first:(Gen.next_id c.gen) ~ops:n (fun () ->
          let acc = ref [] in
          for _ = 1 to n do
            acc := to_mc c (draw c.gen) :: !acc
          done;
          List.rev !acc)
    in
    let r = Mc.run ?latency c.store ~clients chunk in
    p.elapsed_ns <- p.elapsed_ns +. r.Mc.elapsed_ns;
    p.wait_ns <- p.wait_ns +. Array.fold_left ( +. ) 0.0 r.Mc.client_wait_ns;
    remaining := !remaining - n
  done;
  p

(* Public counters read before and after the timed phase.  Engine stats
   records are mutable and may be shared, so values are copied out. *)
let counters (store : Dyn.dyn) =
  let s = store.Dyn.d_stats () in
  let io = Env.stats store.Dyn.d_env in
  let ck = Clock.snapshot (Env.clock store.Dyn.d_env) in
  let f = float_of_int in
  [
    ("write_groups", f s.Es.write_groups);
    ("write_group_batches", f s.Es.write_group_batches);
    ("stall_slowdown_ns", s.Es.stall_slowdown_ns);
    ("stall_stop_ns", s.Es.stall_stop_ns);
    ("write_stalls", f s.Es.write_stalls);
    ("flushes", f s.Es.flushes);
    ("sstables_built", f s.Es.sstables_built);
    ("gets", f s.Es.gets);
    ("seeks", f s.Es.seeks);
    ("sstables_examined", f s.Es.sstables_examined);
    ("bloom_checks", f s.Es.bloom_checks);
    ("bloom_negative", f s.Es.bloom_negative);
    ("seek_bloom_checks", f s.Es.seek_bloom_checks);
    ("seek_bloom_skips", f s.Es.seek_bloom_skips);
    ("block_cache_hits", f s.Es.block_cache_hits);
    ("block_cache_misses", f s.Es.block_cache_misses);
    ("table_cache_hits", f s.Es.table_cache_hits);
    ("table_cache_misses", f s.Es.table_cache_misses);
    ("summary_hits", f s.Es.summary_hits);
    ("summary_misses", f s.Es.summary_misses);
    ("compaction_jobs", f s.Es.compaction_jobs);
    ("compaction_bytes_read", f s.Es.compaction_bytes_read);
    ("compaction_bytes_written", f s.Es.compaction_bytes_written);
    ("compaction_serialized_jobs", f s.Es.compaction_serialized_jobs);
    ("flush_busy_ns", s.Es.flush_busy_ns);
    ("worker_busy_ns", Array.fold_left ( +. ) 0.0 s.Es.worker_busy_ns);
    ("seek_compactions", f s.Es.seek_compactions);
    ("read_ops", f io.Io.read_ops);
    ("bytes_read", f io.Io.bytes_read);
    ("syncs", f io.Io.syncs);
    ("cpu_ns", ck.Clock.cpu_ns);
    ("foreground_ns", ck.Clock.foreground_ns);
    ("background_ns", ck.Clock.background_ns);
    ("bg_horizon_ns", ck.Clock.bg_horizon_ns);
    ("stall_ns", ck.Clock.stall_ns);
  ]
  @ List.map
      (fun trig ->
        ( "trigger_bytes." ^ trig,
          match List.assoc_opt trig s.Es.compaction_by_trigger with
          | Some (_, bytes) -> f bytes
          | None -> 0.0 ))
      triggers

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mib = 1024.0 *. 1024.0

(* Simulated time of [f]: the clock's elapsed delta across the call. *)
let sim_ns clock f =
  let c0 = Clock.snapshot clock in
  let r = f () in
  (r, Clock.elapsed_ns (Clock.diff (Clock.snapshot clock) c0))

(** [verify_reopen c engine] closes the store, reopens it on the same
    environment and compares a full scan with the oracle. *)
let verify_reopen c engine =
  c.raw.Dyn.d_close ();
  let checked = ref 0 in
  (try
     let store = Pdb_harness.Stores.open_engine ~env:c.raw.Dyn.d_env engine in
     let it = store.Dyn.d_iterator () in
     it.Iter.seek_to_first ();
     Gen.Smap.iter
       (fun k (e : Gen.entry) ->
         incr checked;
         if
           (not (it.Iter.valid ()))
           || it.Iter.key () <> k
           || Crc.string (it.Iter.value ()) <> e.Gen.crc
         then Meter.fail c.meter;
         if it.Iter.valid () then it.Iter.next ())
       (Gen.oracle c.gen);
     while it.Iter.valid () do
       Meter.fail c.meter;
       it.Iter.next ()
     done;
     store.Dyn.d_close ()
   with _ -> Meter.fail c.meter);
  c.meter.Meter.attempted <- c.meter.Meter.attempted + !checked

type line = {
  cls : string;
  name : string;
  value : float;
  unit : string;
  samples : int option;
}

let main (spec : Gen.spec) ~seed ~seconds ~scale ~trace_dir =
  let scaled n = int_of_float (Float.round (float_of_int n *. scale)) in
  let timed_ops =
    float_of_int spec.Gen.ops_per_second *. seconds
    |> int_of_float |> scaled |> max 1
  in
  let preload = scaled spec.Gen.preload in
  let warm_ops = max 1 (timed_ops / 10) in
  let loaded =
    if spec.Gen.mix = Gen.Load then warm_ops + timed_ops else preload
  in
  let host0 = Unix.gettimeofday () in
  let env = Env.create () in
  let tracer =
    Option.map
      (fun _ ->
        (* room for every event of the run: nothing may be dropped *)
        let events = (4 * (preload + warm_ops + timed_ops)) + 65536 in
        let tr = Trace.create ~capacity:events () in
        Env.set_tracer env tr;
        tr)
      trace_dir
  in
  let clock = Env.clock env in
  let raw, open_ns =
    sim_ns clock (fun () -> Pdb_harness.Stores.open_engine ~env spec.Gen.engine)
  in
  let meter = Meter.create ~traced:(tracer <> None) in
  let pending = Queue.create () in
  let c =
    { raw; store = wrap meter pending raw; meter;
      gen = Gen.create spec ~seed ~loaded; pending }
  in
  let load = run c ~ops:preload Gen.insert in
  let warm = run c ~ops:warm_ops Gen.next in
  let setup_ns = open_ns +. load.elapsed_ns +. warm.elapsed_ns in
  (* --- the timed phase --- *)
  let host1 = Unix.gettimeofday () in
  let k0 = counters raw in
  let trace0 = Option.map Trace.count tracer in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  Meter.reset meter;
  let lat = Lat.create () in
  let p = run ~latency:lat c ~ops:timed_ops Gen.next in
  let gc1 = (Gc.quick_stat ()).Gc.major_collections in
  let host2 = Unix.gettimeofday () in
  let k1 = counters raw in
  (* --- metrics --- *)
  let d name = List.assoc name k1 -. List.assoc name k0 in
  let stats = raw.Dyn.d_stats () in
  let lines = ref [] in
  let emit ?samples cls name unit value =
    lines := { cls; name; value; unit; samples } :: !lines
  in
  (* the median and the 99.9th percentile; a percentile is reported only
     with ten samples beyond it, and per-layer ones read 0 below that, so
     that every workload prints them *)
  let percentiles ?(zero = false) cls prefix h =
    let n = H.count h in
    List.iter
      (fun (label, p) ->
        let name = prefix ^ label ^ "_us" in
        if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then
          emit ~samples:n cls name "us" (H.percentile h p /. 1e3)
        else if zero then emit ~samples:n cls name "us" 0.0)
      [ ("p50", 50.0); ("p999", 99.9) ]
  in
  let kinds =
    [ (Lat.Write, "write"); (Lat.Read, "read"); (Lat.Seek, "scan") ]
  in
  let all = H.create () in
  List.iter
    (fun (kind, _) ->
      let h = Lat.hist lat kind in
      for i = 0 to H.count h - 1 do
        H.add all h.H.values.(i)
      done)
    kinds;
  let per_op k a =
    let i = Meter.index k in
    ratio a.(i) (float_of_int meter.Meter.ops.(i))
  in
  let store_kinds = [ Meter.Write; Meter.Read; Meter.Scan ] in
  let sum a =
    List.fold_left (fun acc k -> acc +. a.(Meter.index k)) 0.0 store_kinds
  in
  (* end to end *)
  emit "sim" "sim_kops" "kop/s"
    (float_of_int timed_ops /. (p.elapsed_ns /. 1e9) /. 1000.0);
  percentiles "sim" "" all;
  emit "sim" "write_amp" "x"
    (ratio
       (float_of_int (Env.stats env).Io.bytes_written)
       (float_of_int stats.Es.user_bytes_written));
  emit "sim" "space_amp" "x"
    (ratio
       (float_of_int (Env.total_file_bytes env))
       (float_of_int (Gen.live_bytes c.gen)));
  emit "sim" "mem_mb" "MiB" (float_of_int (raw.Dyn.d_memory_bytes ()) /. mib);
  emit "sim" "setup_s" "s" (setup_ns /. 1e9);
  emit "host" "alloc_words_per_op" "words"
    (sum meter.Meter.words /. float_of_int timed_ops);
  (* per layer *)
  List.iter
    (fun k ->
      let label = Meter.names.(Meter.index k) in
      emit "layer" ("kvs.alloc_words_per_op." ^ label) "words"
        (per_op k meter.Meter.words);
      if tracer <> None then
        emit "layer" ("kvs.host_ns_per_op." ^ label) "ns"
          (per_op k meter.Meter.ns))
    store_kinds;
  List.iter
    (fun (kind, label) ->
      percentiles ~zero:true "layer" ("kvs." ^ label ^ "_") (Lat.hist lat kind))
    kinds;
  let layer name unit value = emit "layer" name unit value in
  let queries = d "gets" +. d "seeks" in
  let rate hits misses = ratio (d hits) (d hits +. d misses) in
  layer "kvs.avg_group_size" "batches"
    (ratio (d "write_group_batches") (d "write_groups"));
  layer "kvs.client_wait_ms" "ms" (p.wait_ns /. 1e6);
  layer "kvs.stall_ms.slowdown" "ms" (d "stall_slowdown_ns" /. 1e6);
  layer "kvs.stall_ms.stop" "ms" (d "stall_stop_ns" /. 1e6);
  layer "kvs.write_stalls" "count" (d "write_stalls");
  layer "simio.cpu_ms" "ms" (d "cpu_ns" /. 1e6);
  layer "simio.fg_io_ms" "ms" (d "foreground_ns" /. 1e6);
  layer "simio.bg_io_ms" "ms" (d "background_ns" /. 1e6);
  layer "simio.bg_horizon_ms" "ms" (d "bg_horizon_ns" /. 1e6);
  layer "simio.stall_ms" "ms" (d "stall_ns" /. 1e6);
  layer "simio.read_ops_per_get" "ops" (ratio (d "read_ops") queries);
  layer "simio.read_kb_per_get" "KiB"
    (ratio (d "bytes_read" /. 1024.0) queries);
  layer "wal.group_commits" "count" (d "write_groups");
  layer "wal.syncs" "count" (d "syncs");
  layer "memtable.flushes" "count" (d "flushes");
  layer "sstable.tables_built" "count" (d "sstables_built");
  layer "sstable.tables_per_get" "tables"
    (ratio (d "sstables_examined") queries);
  layer "sstable.block_cache_hit_rate" "ratio"
    (rate "block_cache_hits" "block_cache_misses");
  layer "sstable.table_cache_hit_rate" "ratio"
    (rate "table_cache_hits" "table_cache_misses");
  layer "sstable.summary_hit_rate" "ratio"
    (rate "summary_hits" "summary_misses");
  layer "sstable.seek_filter_skip_rate" "ratio"
    (ratio (d "seek_bloom_skips") (d "seek_bloom_checks"));
  layer "bloom.checks_per_get" "checks" (ratio (d "bloom_checks") (d "gets"));
  layer "bloom.negative_rate" "ratio"
    (ratio (d "bloom_negative") (d "bloom_checks"));
  layer "compaction.jobs" "count" (d "compaction_jobs");
  layer "compaction.read_mb" "MiB" (d "compaction_bytes_read" /. mib);
  layer "compaction.write_mb" "MiB" (d "compaction_bytes_written" /. mib);
  List.iter
    (fun trig ->
      layer ("compaction.by_trigger." ^ trig ^ ".mb") "MiB"
        (d ("trigger_bytes." ^ trig) /. mib))
    triggers;
  layer "compaction.conflicts" "count" (d "compaction_serialized_jobs");
  layer "compaction.worker_util" "ratio"
    (ratio (d "worker_busy_ns")
       (float_of_int (max 1 (Array.length stats.Es.worker_busy_ns))
       *. p.elapsed_ns));
  layer "compaction.flush_lane_ms" "ms" (d "flush_busy_ns" /. 1e6);
  layer "compaction.backlog_peak_mb" "MiB"
    (float_of_int stats.Es.compaction_backlog_peak_bytes /. mib);
  layer "core.guards" "count" (float_of_int stats.Es.guards_committed);
  layer "core.empty_guards" "count" (float_of_int stats.Es.guards_empty);
  layer "core.seek_compactions" "count" (d "seek_compactions");
  (match (tracer, trace0) with
   | Some tr, Some c0 ->
     let probe_ns = ref 0.0 and rotations = ref 0 in
     List.iteri
       (fun i (ev : Trace.event) ->
         if i >= c0 then
           if String.starts_with ~prefix:"probe:" ev.Trace.name then
             probe_ns := !probe_ns +. ev.Trace.dur_ns
           else if ev.Trace.name = "wal-rotate" then incr rotations)
       (Trace.events tr);
     layer "simio.probe_ms" "ms" (!probe_ns /. 1e6);
     layer "wal.rotations" "count" (float_of_int !rotations);
     layer "host.store_s" "s" (sum meter.Meter.ns /. 1e9);
     layer "host.gen_s" "s" (meter.Meter.ns.(Meter.index Meter.Gen) /. 1e9)
   | _ -> ());
  layer "host.setup_s" "s" (host1 -. host0);
  layer "host.timed_s" "s" (host2 -. host1);
  layer "host.gc_major" "count" (float_of_int (gc1 - gc0));
  if spec.Gen.verify_reopen then verify_reopen c spec.Gen.engine;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  emit "host" "peak_heap_mb" "MiB"
    (float_of_int (top * (Sys.word_size / 8)) /. mib);
  (match (trace_dir, tracer) with
   | Some dir, Some tr ->
     layer "trace.dropped" "count" (float_of_int (Trace.dropped tr));
     let write suffix f =
       let oc = open_out (Filename.concat dir (spec.Gen.name ^ suffix)) in
       f oc;
       close_out oc
     in
     write ".sim.trace.json" (fun oc ->
         output_string oc (Trace.to_chrome_json tr));
     write ".host.trace.json" (Meter.write_chrome meter)
   | _ -> ());
  List.iter
    (fun l ->
      Printf.printf "%s %s %.17g %s%s\n" l.cls l.name l.value l.unit
        (match l.samples with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    (List.rev !lines);
  Printf.printf "count attempted %d\ncount failed %d\n%!"
    meter.Meter.attempted meter.Meter.failed
