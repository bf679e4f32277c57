(* db_bench — LevelDB-style micro-benchmark CLI over the simulated stores.

   Example:
     db_bench --store pebblesdb --benchmarks fillrandom,readrandom \
              --num 50000 --value-size 1024 *)

open Cmdliner
module Dyn = Pdb_kvs.Store_intf
module B = Pdb_harness.Bench_util
module L = Pdb_kvs.Latency
module O = Pdb_kvs.Options

let run (c : Cli.t) l0_slowdown l0_stop benchmarks num seed probe_budget
    no_seek_filtering table_cache table_cache_bytes =
  let value_size = c.Cli.value_size and clients = c.Cli.clients in
  (* the db_bench-only option flags *)
  let tweak (o : O.t) =
    let pick v d = Option.value v ~default:d in
    let pick_opt v d = if Option.is_some v then v else d in
    {
      o with
      O.l0_slowdown = pick l0_slowdown o.O.l0_slowdown;
      l0_stop = pick l0_stop o.O.l0_stop;
      probe_budget_override = pick_opt probe_budget o.O.probe_budget_override;
      seek_filtering = o.O.seek_filtering && not no_seek_filtering;
      table_cache_entries = pick table_cache o.O.table_cache_entries;
      table_cache_bytes = pick_opt table_cache_bytes o.O.table_cache_bytes;
    }
  in
  (* --shards splits match the bench keyspace (key%010d over [0, num)) *)
  let store, env =
    Cli.open_store c ~tweak ~splits:(fun shards ->
        List.init (shards - 1) (fun i -> B.key_of ((i + 1) * num / shards)))
  in
  let report name (p : B.phase) =
    Printf.printf "%-14s : %8.1f KOps/s  (%d ops, %.1f MB written, %.1f MB read)\n%!"
      name p.B.kops p.B.ops (B.mb p.B.bytes_written) (B.mb p.B.bytes_read)
  in
  (* with --clients > 1, report the multi-client phase plus its
     group-commit accounting *)
  let report_mc name ((p : B.phase), (r : B.Mc.result)) =
    report name p;
    Printf.printf
      "               clients=%d groups=%d avg-group=%.2f syncs-saved=%d \
       max-wait=%.1fms\n%!"
      r.B.Mc.clients r.B.Mc.write_groups r.B.Mc.avg_group_size
      r.B.Mc.syncs_saved
      (Array.fold_left Float.max 0.0 r.B.Mc.client_wait_ns /. 1e6)
  in
  let ran_fill = ref false in
  let ensure_fill () =
    if not !ran_fill then
      ignore (B.fill_random store ~n:num ~value_bytes:value_size ~seed);
    ran_fill := true
  in
  List.iter
    (fun bench ->
      (* per-benchmark latency histograms: serial phases run through an
         instrumented store (clock-snapshot deltas); multi-client phases
         collect the lane-placement latencies.  Purely observational —
         store state is byte-identical with reporting off. *)
      let lat = L.create () in
      let timed = L.instrument lat store in
      (match bench with
      | "fillseq" -> report bench (B.fill_seq timed ~n:num ~value_bytes:value_size ~seed)
      | "fillrandom" when clients > 1 ->
        ran_fill := true;
        report_mc bench
          (B.mc_fill_random ~latency:lat store ~clients ~n:num
             ~value_bytes:value_size ~seed)
      | "fillrandom" ->
        ran_fill := true;
        report bench (B.fill_random timed ~n:num ~value_bytes:value_size ~seed)
      | "fillbatch" ->
        (* batched writes: 100 entries per atomic batch *)
        ran_fill := true;
        let rng = Pdb_util.Rng.create seed in
        report bench
          (B.measure timed num (fun () ->
               let i = ref 0 in
               while !i < num do
                 let batch = Pdb_kvs.Write_batch.create () in
                 for _ = 1 to min 100 (num - !i) do
                   Pdb_kvs.Write_batch.put batch
                     (B.key_of (Pdb_util.Rng.int rng num))
                     (Pdb_util.Rng.alpha rng value_size);
                   incr i
                 done;
                 timed.Dyn.d_write batch
               done))
      | "overwrite" when clients > 1 ->
        report_mc bench
          (B.mc_fill_random ~latency:lat store ~clients ~n:num
             ~value_bytes:value_size ~seed)
      | "overwrite" ->
        report bench (B.update_random timed ~n:num ~value_bytes:value_size ~seed)
      | "readrandom" when clients > 1 ->
        ensure_fill ();
        report_mc bench
          (B.mc_read_random ~latency:lat store ~clients ~n:num ~ops:num ~seed)
      | "readrandom" ->
        ensure_fill ();
        report bench (B.read_random timed ~n:num ~ops:num ~seed)
      | "mixed" ->
        (* 50% reads / 50% overwrites through the client lanes *)
        ensure_fill ();
        report_mc bench
          (B.mc_mixed ~latency:lat store ~clients:(max 1 clients) ~n:num
             ~ops:num ~value_bytes:value_size ~seed)
      | "readseq" ->
        (* full forward scan via one iterator *)
        ensure_fill ();
        report bench
          (B.measure timed num (fun () ->
               let it = timed.Dyn.d_iterator () in
               it.Pdb_kvs.Iter.seek_to_first ();
               while it.Pdb_kvs.Iter.valid () do
                 ignore (it.Pdb_kvs.Iter.key ());
                 it.Pdb_kvs.Iter.next ()
               done))
      | "readmissing" ->
        (* lookups for keys that are never present: bloom-filter country *)
        ensure_fill ();
        let rng = Pdb_util.Rng.create (seed + 21) in
        report bench
          (B.measure timed num (fun () ->
               for _ = 1 to num do
                 ignore
                   (timed.Dyn.d_get
                      (Printf.sprintf "missing%010d" (Pdb_util.Rng.int rng num)))
               done))
      | "readhot" ->
        (* reads concentrated on 1% of the key space *)
        ensure_fill ();
        let hot = max 1 (num / 100) in
        let rng = Pdb_util.Rng.create (seed + 22) in
        report bench
          (B.measure timed num (fun () ->
               for _ = 1 to num do
                 ignore (timed.Dyn.d_get (B.key_of (Pdb_util.Rng.int rng hot)))
               done))
      | "seekrandom" ->
        ensure_fill ();
        report bench (B.seek_random timed ~n:num ~ops:(num / 4) ~nexts:0 ~seed)
      | "seekordered" ->
        (* seeks at ascending positions (locality-friendly) *)
        ensure_fill ();
        let ops = num / 4 in
        report bench
          (B.measure timed ops (fun () ->
               for i = 0 to ops - 1 do
                 let it = timed.Dyn.d_iterator () in
                 it.Pdb_kvs.Iter.seek (B.key_of (i * (num / max 1 ops)))
               done))
      | "deleterandom" -> report bench (B.delete_random timed ~n:num ~seed)
      | "compact" ->
        store.Dyn.d_compact_all ();
        Printf.printf "%-14s : done\n%!" bench
      | "stats" ->
        Printf.printf "%s\n  write-amp: %.2f\n%!" (store.Dyn.d_describe ())
          (B.write_amp store);
        (match B.scheduler_summary store with
         | "" -> ()
         | s -> Printf.printf "  compaction: %s\n%!" s);
        (match B.trigger_summary store with
         | "" -> ()
         | s -> Printf.printf "  by-trigger: %s\n%!" s);
        let st = store.Dyn.d_stats () in
        Printf.printf
          "  read path: seek-filter checks %d / skips %d, index-summary \
           hits %d / misses %d\n\
           %!"
          st.Pdb_kvs.Engine_stats.seek_bloom_checks
          st.Pdb_kvs.Engine_stats.seek_bloom_skips
          st.Pdb_kvs.Engine_stats.summary_hits
          st.Pdb_kvs.Engine_stats.summary_misses
      | other -> Printf.printf "unknown benchmark %S (skipped)\n%!" other);
      L.print_summary ~indent:"               " lat)
    benchmarks;
  Printf.printf "final write amplification: %.2f\n" (B.write_amp store);
  (match B.scheduler_summary store with
   | "" -> ()
   | s -> Printf.printf "compaction scheduler: %s\n" s);
  (match B.trigger_summary store with
   | "" -> ()
   | s -> Printf.printf "compaction by trigger: %s\n" s);
  store.Dyn.d_close ();
  Cli.write_trace c env

let l0_slowdown_arg =
  Arg.(value & opt (some int) None
       & info [ "l0-slowdown" ] ~docv:"N"
           ~doc:"Override the L0 slowdown threshold (debt points past \
                 which the throttle engages).  The profile defaults never \
                 fire at bench scale — compaction drains synchronously, so \
                 L0 stays at or below the compaction trigger.")

let l0_stop_arg =
  Arg.(value & opt (some int) None
       & info [ "l0-stop" ] ~docv:"N"
           ~doc:"Override the L0 stop threshold (debt points at which the \
                 full per-entry penalty applies).")

let benchmarks_arg =
  Arg.(value
       & opt (list string) [ "fillrandom"; "readrandom"; "seekrandom" ]
       & info [ "benchmarks" ] ~docv:"LIST"
           ~doc:"fillseq, fillrandom, overwrite, readrandom, mixed, \
                 seekrandom, deleterandom, compact, stats")

let num_arg =
  Arg.(value & opt int 50_000 & info [ "num" ] ~doc:"Number of keys.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

let probe_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "probe-budget" ] ~docv:"N"
           ~doc:"Override the device's parallel-probe budget: concurrent \
                 sstable probes a multi-table seek or get may overlap; 1 \
                 serialises every probe.")

let no_seek_filtering_arg =
  Arg.(value & flag
       & info [ "no-seek-filtering" ]
           ~doc:"Disable read-path seek filtering (per-table range and \
                 prefix-bloom checks); on-disk state is unaffected either \
                 way.")

let table_cache_arg =
  Arg.(value & opt (some int) None
       & info [ "table-cache" ] ~docv:"N"
           ~doc:"Cap the table cache at N open sstables (index + filter \
                 resident); evicted tables reopen through their index \
                 summaries.")

let table_cache_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "table-cache-bytes" ] ~docv:"BYTES"
           ~doc:"Bound the table cache by resident bytes instead of entry \
                 count.")

let clients_doc =
  "Foreground client lanes for fillrandom / overwrite / readrandom / mixed \
   (round-robin interleave, WAL group commit); 1 = serial."

let cmd =
  Cmd.v
    (Cmd.info "db_bench" ~doc:"Micro-benchmarks over the simulated stores")
    Term.(const run
          $ Cli.term ~clients_default:1 ~clients_doc
          $ l0_slowdown_arg $ l0_stop_arg $ benchmarks_arg $ num_arg $ seed_arg
          $ probe_budget_arg $ no_seek_filtering_arg $ table_cache_arg
          $ table_cache_bytes_arg)

let () = exit (Cmd.eval cmd)
