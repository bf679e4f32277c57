(* db_bench — LevelDB-style micro-benchmark CLI over the simulated stores.

   Example:
     db_bench --store pebblesdb --benchmarks fillrandom,readrandom \
              --num 50000 --value-size 1024 *)

open Cmdliner
module Dyn = Pdb_kvs.Store_intf
module B = Pdb_harness.Bench_util
module P = Pdb_kvs.Phase
module Mc = Pdb_kvs.Multi_client
module L = Pdb_kvs.Latency
module O = Pdb_kvs.Options

(* What a benchmark body sees: the store, the same store instrumented
   into [lat] (ad-hoc loops and seekrandom, warmup included, run through
   it; op-stream phases hand [lat] to the driver), and the sizing flags. *)
type ctx = {
  name : string;
  store : Dyn.dyn;
  timed : Dyn.dyn;
  lat : L.t;
  num : int;
  value_size : int;
  clients : int;
  seed : int;
  filled : bool ref;  (** a fill has run, so reads need no implicit one *)
}

(* the phase, plus its group-commit accounting when it ran on client
   lanes *)
let report x (p : P.result) =
  Printf.printf
    "%-14s : %8.1f KOps/s  (%d ops, %.1f MB written, %.1f MB read)\n%!" x.name
    p.P.kops p.P.ops (B.mb p.P.bytes_written) (B.mb p.P.bytes_read);
  Option.iter
    (fun (r : Mc.result) ->
      Printf.printf
        "               clients=%d groups=%d avg-group=%.2f syncs-saved=%d \
         max-wait=%.1fms\n%!"
        r.Mc.clients r.Mc.write_groups r.Mc.avg_group_size r.Mc.syncs_saved
        (Array.fold_left Float.max 0.0 r.Mc.client_wait_ns /. 1e6))
    p.P.lanes

let ensure_fill x =
  if not !(x.filled) then
    ignore
      (B.fill_random x.store ~n:x.num ~value_bytes:x.value_size ~seed:x.seed);
  x.filled := true

(* fill and read phases run on client lanes only with --clients > 1 *)
let lanes x = if x.clients > 1 then Some x.clients else None

let fill_random x =
  report x
    (B.fill_random ?clients:(lanes x) ~latency:x.lat x.store ~n:x.num
       ~value_bytes:x.value_size ~seed:x.seed)

(* [reads x ops draw] runs [ops] drawn reads after an implicit fill *)
let reads x ops draw =
  ensure_fill x;
  report x (P.drive ~latency:x.lat x.store ~n:ops draw)

(* every benchmark, by the name --benchmarks takes, in help order *)
let benchmarks =
  [
    ( "fillseq",
      fun x ->
        report x
          (B.fill_seq ~latency:x.lat x.store ~n:x.num
             ~value_bytes:x.value_size ~seed:x.seed) );
    ( "fillrandom",
      fun x ->
        x.filled := true;
        fill_random x );
    ( "fillbatch",
      fun x ->
        (* batched writes: 100 entries per atomic batch *)
        x.filled := true;
        let rng = Pdb_util.Rng.create x.seed in
        report x
          (P.measure x.timed x.num (fun () ->
               let i = ref 0 in
               while !i < x.num do
                 let batch = Pdb_kvs.Write_batch.create () in
                 for _ = 1 to min 100 (x.num - !i) do
                   Pdb_kvs.Write_batch.put batch
                     (B.key_of (Pdb_util.Rng.int rng x.num))
                     (Pdb_util.Rng.alpha rng x.value_size);
                   incr i
                 done;
                 x.timed.Dyn.d_write batch
               done)) );
    ("overwrite", fill_random);
    ( "readrandom",
      fun x ->
        ensure_fill x;
        report x
          (B.read_random ?clients:(lanes x) ~latency:x.lat x.store ~n:x.num
             ~ops:x.num ~seed:x.seed) );
    ( "mixed",
      fun x ->
        (* 50% reads / 50% overwrites through the client lanes *)
        ensure_fill x;
        report x
          (B.mixed ~clients:(max 1 x.clients) ~latency:x.lat x.store ~n:x.num
             ~ops:x.num ~value_bytes:x.value_size ~seed:x.seed) );
    ( "readseq",
      fun x ->
        (* full forward scan via one iterator *)
        ensure_fill x;
        report x
          (P.measure x.timed x.num (fun () ->
               let it = x.timed.Dyn.d_iterator () in
               it.Pdb_kvs.Iter.seek_to_first ();
               while it.Pdb_kvs.Iter.valid () do
                 ignore (it.Pdb_kvs.Iter.key ());
                 it.Pdb_kvs.Iter.next ()
               done)) );
    ( "readmissing",
      fun x ->
        (* lookups for keys that are never present: bloom-filter country *)
        let rng = Pdb_util.Rng.create (x.seed + 21) in
        reads x x.num (fun () ->
            P.Get (Printf.sprintf "missing%010d" (Pdb_util.Rng.int rng x.num)))
    );
    ( "readhot",
      fun x ->
        (* reads concentrated on 1% of the key space *)
        let hot = max 1 (x.num / 100) in
        let rng = Pdb_util.Rng.create (x.seed + 22) in
        reads x x.num (fun () -> P.Get (B.key_of (Pdb_util.Rng.int rng hot))) );
    ( "seekrandom",
      fun x ->
        ensure_fill x;
        report x
          (B.seek_random x.timed ~n:x.num ~ops:(x.num / 4) ~nexts:0
             ~seed:x.seed) );
    ( "seekordered",
      fun x ->
        (* seeks at ascending positions (locality-friendly) *)
        let ops = x.num / 4 in
        reads x ops
          (B.each (fun i -> P.Scan (B.key_of (i * (x.num / max 1 ops)), 0))) );
    ( "deleterandom",
      fun x ->
        report x (B.delete_random ~latency:x.lat x.store ~n:x.num ~seed:x.seed)
    );
    ( "compact",
      fun x ->
        x.store.Dyn.d_compact_all ();
        Printf.printf "%-14s : done\n%!" x.name );
    ( "stats",
      fun x ->
        let store = x.store in
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
          st.Pdb_kvs.Engine_stats.summary_misses );
  ]

let run (c : Cli.t) l0_slowdown l0_stop names num seed probe_budget
    no_seek_filtering table_cache =
  (* the db_bench-only option flags *)
  let tweak (o : O.t) =
    let pick v d = Option.value v ~default:d in
    {
      o with
      O.l0_slowdown = pick l0_slowdown o.O.l0_slowdown;
      l0_stop = pick l0_stop o.O.l0_stop;
      probe_budget = pick probe_budget o.O.probe_budget;
      seek_filtering = o.O.seek_filtering && not no_seek_filtering;
      table_cache_entries = pick table_cache o.O.table_cache_entries;
    }
  in
  (* --shards splits match the bench keyspace (key%010d over [0, num)) *)
  let store, env =
    Cli.open_store c ~tweak ~splits:(fun shards ->
        List.init (shards - 1) (fun i -> B.key_of ((i + 1) * num / shards)))
  in
  let filled = ref false in
  List.iter
    (fun name ->
      (* per-benchmark latency histograms; purely observational — store
         state is byte-identical with reporting off *)
      let lat = L.create () in
      List.assoc name benchmarks
        {
          name;
          store;
          timed = L.instrument lat store;
          lat;
          num;
          value_size = c.Cli.value_size;
          clients = c.Cli.clients;
          seed;
          filled;
        };
      L.print_summary ~indent:"               " lat)
    names;
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

(* an unknown name is a usage error, reported before any benchmark runs *)
let benchmarks_arg =
  let names = List.map (fun (n, _) -> (n, n)) benchmarks in
  Arg.(value
       & opt (list (enum names)) [ "fillrandom"; "readrandom"; "seekrandom" ]
       & info [ "benchmarks" ] ~docv:"LIST"
           ~doc:("Comma-separated benchmarks, run in order: "
                 ^ String.concat ", " (List.map fst names)))

let num_arg =
  Arg.(value & opt int 50_000 & info [ "num" ] ~doc:"Number of keys.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

let probe_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "probe-budget" ] ~docv:"N"
           ~doc:"Override the parallel-probe budget (default 4): \
                 concurrent sstable probes a multi-table seek or get may \
                 overlap; 1 serialises every probe.")

let no_seek_filtering_arg =
  Arg.(value & flag
       & info [ "no-seek-filtering" ]
           ~doc:"Disable read-path seek filtering (per-table key-range \
                 checks); on-disk state is unaffected either way.")

let table_cache_arg =
  Arg.(value & opt (some int) None
       & info [ "table-cache" ] ~docv:"N"
           ~doc:"Cap the table cache at N open sstables (index + filter \
                 resident); evicted tables reopen through their index \
                 summaries.")

let clients_doc =
  "Foreground client lanes for fillrandom / overwrite / readrandom / mixed \
   (round-robin interleave, WAL group commit); 1 = serial."

let cmd =
  Cmd.v
    (Cmd.info "db_bench" ~doc:"Micro-benchmarks over the simulated stores")
    Term.(const run
          $ Cli.term ~clients_default:1 ~clients_doc
          $ l0_slowdown_arg $ l0_stop_arg $ benchmarks_arg $ num_arg $ seed_arg
          $ probe_budget_arg $ no_seek_filtering_arg $ table_cache_arg)

let () = exit (Cmd.eval cmd)
