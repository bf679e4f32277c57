(** Measurement and reporting helpers shared by the benchmark harness and
    the repro CLI. *)

module Dyn = Pdb_kvs.Store_intf
module Clock = Pdb_simio.Clock
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter

type phase = {
  ops : int;
  elapsed_ns : float;
  kops : float;
  bytes_written : int;
  bytes_read : int;
}

(* the IO a store's environment did while [f ()] ran *)
let io_during (store : Dyn.dyn) f =
  let snap () = Pdb_simio.Io_stats.snapshot (Env.stats store.Dyn.d_env) in
  let io0 = snap () in
  let r = f () in
  (r, Pdb_simio.Io_stats.diff (snap ()) io0)

let phase ~ops ~elapsed_ns (io : Pdb_simio.Io_stats.t) =
  {
    ops;
    elapsed_ns;
    kops =
      (if elapsed_ns <= 0.0 then 0.0
       else float_of_int ops /. (elapsed_ns /. 1e9) /. 1000.0);
    bytes_written = io.Pdb_simio.Io_stats.bytes_written;
    bytes_read = io.Pdb_simio.Io_stats.bytes_read;
  }

(** [measure store ops f] runs [f ()] and reports modeled throughput and IO
    for the phase. *)
let measure (store : Dyn.dyn) ops f =
  let clock = Env.clock store.Dyn.d_env in
  let c0 = Clock.snapshot clock in
  let (), io = io_during store f in
  let delta = Clock.diff (Clock.snapshot clock) c0 in
  phase ~ops ~elapsed_ns:(Clock.elapsed_ns delta) io

(* ---------- canonical workload phases (db_bench-style) ---------- *)

let key_of i = Printf.sprintf "key%010d" i
let value_of rng n = Pdb_util.Rng.alpha rng n

(** [fill_random store ~n ~value_bytes ~seed] puts [n] keys in random
    order: an insert pass on a fresh store, an overwrite pass (same keys,
    fresh values under a new seed) on a filled one. *)
let fill_random (store : Dyn.dyn) ~n ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create seed in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle rng perm;
  measure store n (fun () ->
      Array.iter
        (fun i -> store.Dyn.d_put (key_of i) (value_of rng value_bytes))
        perm)

(** [fill_seq store ~n ~value_bytes ~seed] inserts [n] keys in ascending
    order — LSM's trivial-move fast path, FLSM's worst case (§5.2). *)
let fill_seq (store : Dyn.dyn) ~n ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create seed in
  measure store n (fun () ->
      for i = 0 to n - 1 do
        store.Dyn.d_put (key_of i) (value_of rng value_bytes)
      done)

(** [read_random store ~n ~ops ~seed] issues [ops] point lookups over the
    [n]-key space. *)
let read_random (store : Dyn.dyn) ~n ~ops ~seed =
  let rng = Pdb_util.Rng.create (seed + 1) in
  measure store ops (fun () ->
      for _ = 1 to ops do
        ignore (store.Dyn.d_get (key_of (Pdb_util.Rng.int rng n)))
      done)

(** [seek_random store ~n ~ops ~nexts ~seed] issues [ops] seeks, each
    followed by [nexts] next() calls (a range query).  A short untimed
    warmup first brings the table cache to steady state, as the paper's
    10M-operation runs do implicitly. *)
let seek_random (store : Dyn.dyn) ~n ~ops ~nexts ~seed =
  let wrng = Pdb_util.Rng.create (seed + 11) in
  for _ = 1 to 2_000 do
    let it = store.Dyn.d_iterator () in
    it.Iter.seek (key_of (Pdb_util.Rng.int wrng n))
  done;
  let rng = Pdb_util.Rng.create (seed + 2) in
  measure store ops (fun () ->
      for _ = 1 to ops do
        let it = store.Dyn.d_iterator () in
        it.Iter.seek (key_of (Pdb_util.Rng.int rng n));
        let steps = ref 0 in
        while it.Iter.valid () && !steps < nexts do
          ignore (it.Iter.key ());
          it.Iter.next ();
          incr steps
        done
      done)

(** [delete_random store ~n ~seed] deletes every key once, random order. *)
let delete_random (store : Dyn.dyn) ~n ~seed =
  let rng = Pdb_util.Rng.create (seed + 3) in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle rng perm;
  measure store n (fun () ->
      Array.iter (fun i -> store.Dyn.d_delete (key_of i)) perm)

(* ---------- multi-client phases (foreground lanes + group commit) ------ *)

module Mc = Pdb_kvs.Multi_client

(** [mc_run store ~clients ops] drives [ops] through the multi-client
    executor and reports both the phase (throughput, IO) and the
    executor's group-commit result. *)
let mc_run ?latency (store : Dyn.dyn) ~clients ops =
  let r, io = io_during store (fun () -> Mc.run ?latency store ~clients ops) in
  (phase ~ops:r.Mc.ops ~elapsed_ns:r.Mc.elapsed_ns io, r)

let put_op key value =
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b key value;
  Mc.Write b

(** [mc_fill_random] — the write-only multithreaded workload: [n] puts in
    random key order across [clients] lanes. *)
let mc_fill_random ?latency (store : Dyn.dyn) ~clients ~n ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create seed in
  let perm = Array.init n Fun.id in
  Pdb_util.Rng.shuffle rng perm;
  let ops =
    Array.to_list
      (Array.map (fun i -> put_op (key_of i) (value_of rng value_bytes)) perm)
  in
  mc_run ?latency store ~clients ops

(** [mc_read_random] — the read-only multithreaded workload: [ops] point
    lookups across [clients] lanes. *)
let mc_read_random ?latency (store : Dyn.dyn) ~clients ~n ~ops ~seed =
  let rng = Pdb_util.Rng.create (seed + 1) in
  let acc = ref [] in
  for _ = 1 to ops do
    let key = key_of (Pdb_util.Rng.int rng n) in
    acc := Mc.Read (fun () -> ignore (store.Dyn.d_get key)) :: !acc
  done;
  mc_run ?latency store ~clients (List.rev !acc)

(** [mc_mixed] — the mixed multithreaded workload: 50% reads / 50%
    overwrites, uniform over the [n]-key space. *)
let mc_mixed ?latency (store : Dyn.dyn) ~clients ~n ~ops ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create (seed + 2) in
  let acc = ref [] in
  for _ = 1 to ops do
    let op =
      if Pdb_util.Rng.int rng 2 = 0 then begin
        let key = key_of (Pdb_util.Rng.int rng n) in
        Mc.Read (fun () -> ignore (store.Dyn.d_get key))
      end
      else put_op (key_of (Pdb_util.Rng.int rng n)) (value_of rng value_bytes)
    in
    acc := op :: !acc
  done;
  mc_run ?latency store ~clients (List.rev !acc)

(* ---------- reporting ---------- *)

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

(** Machine-readable results collector behind [bench/main.exe --json]:
    every printed table is mirrored here structurally, and experiments
    push named numeric metrics (ops/s, write-amp, group-commit stats);
    {!Json.write_file} dumps everything as BENCH.json so the perf
    trajectory is trackable across PRs. *)
module Json = struct
  type table = {
    title : string;
    header : string list;
    rows : string list list;
  }

  let enabled = ref false
  let current = ref "global"

  (* accumulated in reverse arrival order, tagged with the experiment id
     that was current when they were recorded *)
  let tables : (string * table) list ref = ref []
  let metrics : (string * (string * string * float)) list ref = ref []

  let enable () = enabled := true
  let set_context id = current := id

  let record_table ~title ~header rows =
    if !enabled then tables := (!current, { title; header; rows }) :: !tables

  (** [metric ~store name value] attaches one numeric result to the
      current experiment. *)
  let metric ~store name value =
    if !enabled then metrics := (!current, (store, name, value)) :: !metrics

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let write_file path =
    let tables = List.rev !tables and metrics = List.rev !metrics in
    (* experiment ids in first-appearance order *)
    let ids = ref [] in
    List.iter
      (fun id -> if not (List.mem id !ids) then ids := id :: !ids)
      (List.map fst tables @ List.map fst metrics);
    let ids = List.rev !ids in
    let b = Buffer.create 65536 in
    let str s = Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s)) in
    let strings sep f xs =
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b sep;
          f x)
        xs
    in
    Buffer.add_string b "{\n  \"experiments\": [";
    strings ","
      (fun id ->
        Buffer.add_string b "\n    {\n      \"id\": ";
        str id;
        Buffer.add_string b ",\n      \"tables\": [";
        strings ","
          (fun (_, t) ->
            Buffer.add_string b "\n        {\"title\": ";
            str t.title;
            Buffer.add_string b ", \"header\": [";
            strings ", " str t.header;
            Buffer.add_string b "], \"rows\": [";
            strings ", "
              (fun row ->
                Buffer.add_char b '[';
                strings ", " str row;
                Buffer.add_char b ']')
              t.rows;
            Buffer.add_string b "]}")
          (List.filter (fun (i, _) -> i = id) tables);
        Buffer.add_string b "],\n      \"metrics\": [";
        strings ","
          (fun (_, (store, name, value)) ->
            Buffer.add_string b "\n        {\"store\": ";
            str store;
            Buffer.add_string b ", \"name\": ";
            str name;
            Buffer.add_string b
              (Printf.sprintf ", \"value\": %.6g}" value))
          (List.filter (fun (i, _) -> i = id) metrics);
        Buffer.add_string b "]\n    }")
      ids;
    Buffer.add_string b "\n  ]\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc
end

(** Render rows as an aligned table with a header (mirrored into the
    {!Json} collector when enabled). *)
let print_table ~title ~header rows =
  Json.record_table ~title ~header rows;
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  Printf.printf "\n== %s ==\n" title;
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

let fmt_f ?(digits = 2) v = Printf.sprintf "%.*f" digits v

(** One-line background-scheduler summary for a store: jobs drained, peak
    queue depth and backlog, footprint conflicts, per-worker utilization
    (busy time over the background completion horizon), and stall-time
    attribution.  Empty for engines without scheduled background work. *)
let scheduler_summary (store : Dyn.dyn) =
  let st = store.Dyn.d_stats () in
  if st.Pdb_kvs.Engine_stats.compaction_jobs = 0 then ""
  else begin
    let horizon = Clock.bg_horizon_ns (Env.clock store.Dyn.d_env) in
    let util =
      Array.to_list st.Pdb_kvs.Engine_stats.worker_busy_ns
      |> List.map (fun busy ->
             Printf.sprintf "%.0f%%"
               (if horizon <= 0.0 then 0.0 else 100.0 *. busy /. horizon))
      |> String.concat " "
    in
    let flush =
      (* busy time on the reserved flush lane(s), when the engines run
         one — it is also the last entry of [util] *)
      if st.Pdb_kvs.Engine_stats.flush_busy_ns > 0.0 then
        Printf.sprintf " flush=%.1fms"
          (st.Pdb_kvs.Engine_stats.flush_busy_ns /. 1e6)
      else ""
    in
    Printf.sprintf
      "jobs=%d queue<=%d backlog<=%.1fMB conflicts=%d util=[%s]%s \
       stall(slow/stop)=%.1f/%.1fms"
      st.Pdb_kvs.Engine_stats.compaction_jobs
      st.Pdb_kvs.Engine_stats.compaction_queue_peak
      (mb st.Pdb_kvs.Engine_stats.compaction_backlog_peak_bytes)
      st.Pdb_kvs.Engine_stats.compaction_serialized_jobs util flush
      (st.Pdb_kvs.Engine_stats.stall_slowdown_ns /. 1e6)
      (st.Pdb_kvs.Engine_stats.stall_stop_ns /. 1e6)
  end

(** One line of per-trigger compaction counters ("flush=12x/3.4MB
    l0=5x/..."), or "" when nothing ran.  Runs and estimated bytes keyed
    by {!Pdb_compaction.Job.trigger}, aggregated across shards. *)
let trigger_summary (store : Dyn.dyn) =
  let st = store.Dyn.d_stats () in
  match st.Pdb_kvs.Engine_stats.compaction_by_trigger with
  | [] -> ""
  | by_trigger ->
    List.sort (fun (a, _) (b, _) -> String.compare a b) by_trigger
    |> List.map (fun (trig, (runs, bytes)) ->
           Printf.sprintf "%s=%dx/%.1fMB" trig runs (mb bytes))
    |> String.concat " "

(** Write amplification of a store at this instant: device writes over user
    payload. *)
let write_amp (store : Dyn.dyn) =
  let st = store.Dyn.d_stats () in
  let io = Env.stats store.Dyn.d_env in
  if st.Pdb_kvs.Engine_stats.user_bytes_written = 0 then 0.0
  else
    float_of_int io.Pdb_simio.Io_stats.bytes_written
    /. float_of_int st.Pdb_kvs.Engine_stats.user_bytes_written
