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

(** A named result in BENCH.json: the store (or configuration) it
    measures and the metric's name. *)
type key = { store : string; name : string }

(** A table cell: text, or a number printed with [digits] decimals and a
    [suffix].  A number that is also a named result carries its [key]. *)
type cell =
  | Text of string
  | Num of { value : float; digits : int; suffix : string; key : key option }

type table = { title : string; header : string list; rows : cell list list }

(** A line printed under the tables: a note, or a shape self-check and
    whether the expected shape held. *)
type line = Note of string | Check of bool * string

(** What an experiment returns: its tables, the lines printed under them,
    and the named results that appear in no table.  {!print_report}
    prints it and {!Json.write_file} records it, so each number is
    produced once. *)
type report = {
  tables : table list;
  lines : line list;
  metrics : (key * float) list;
}

(** Reports are built from parts: [table] is a report of one table,
    [lines] and [metrics] of lines or named results alone, and [concat]
    joins reports in order. *)
let table ~title ~header rows =
  { tables = [ { title; header; rows } ]; lines = []; metrics = [] }

let lines lines = { tables = []; lines; metrics = [] }
let metrics metrics = { tables = []; lines = []; metrics }

let concat rs =
  let all f = List.concat_map f rs in
  {
    tables = all (fun r -> r.tables);
    lines = all (fun r -> r.lines);
    metrics = all (fun r -> r.metrics);
  }

let num digits value = Num { value; digits; suffix = ""; key = None }
let int n = num 0 (float_of_int n)
let ratio value = Num { value; digits = 2; suffix = "x"; key = None }
let pct value = Num { value; digits = 0; suffix = "%"; key = None }

(** [metric ~store name digits value] is a number cell that is also the
    named result [name] of [store]. *)
let metric ~store name digits value =
  Num { value; digits; suffix = ""; key = Some { store; name } }

let cell_text = function
  | Text s -> s
  | Num n -> Printf.sprintf "%.*f%s" n.digits n.value n.suffix

(** [missed r] counts the shape self-checks of [r] that did not hold. *)
let missed r =
  List.length
    (List.filter (function Check (ok, _) -> not ok | Note _ -> false) r.lines)

(** [render r] is the report's text: each table as aligned columns under
    its title, then each line indented. *)
let render r =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      let rows = t.header :: List.map (List.map cell_text) t.rows in
      let width c =
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c)))
          0 rows
      in
      let widths = List.mapi (fun c _ -> width c) t.header in
      let add_row row =
        List.iter2 (fun w cell -> Printf.bprintf b "%-*s  " w cell) widths row;
        Buffer.add_char b '\n'
      in
      Printf.bprintf b "\n== %s ==\n" t.title;
      add_row t.header;
      add_row (List.map (fun w -> String.make w '-') widths);
      List.iter add_row (List.tl rows))
    r.tables;
  List.iter
    (function Note s | Check (_, s) -> Printf.bprintf b "  %s\n" s)
    r.lines;
  Buffer.contents b

(** Prints the line that opens an experiment's output. *)
let print_heading ~id ~title = Printf.printf "\n#### %s — %s\n%!" id title

let print_report r =
  print_string (render r);
  flush stdout

(** BENCH.json, the machine-readable record behind [bench/main.exe
    --json]: per experiment, every table (cells as printed) and every
    named result, from table cells and from the report's own metrics. *)
module Json = struct
  let str s = "\"" ^ Pdb_simio.Trace.json_escape s ^ "\""
  let list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

  let metrics r =
    List.filter_map
      (function Num { value; key = Some k; _ } -> Some (k, value) | _ -> None)
      (List.concat_map (fun t -> List.concat t.rows) r.tables)
    @ r.metrics

  (** [write_file path reports] writes [(experiment id, report)] pairs,
      in order, to [path]. *)
  let write_file path reports =
    let table t =
      Printf.sprintf "\n        {\"title\": %s, \"header\": %s, \"rows\": %s}"
        (str t.title) (list str t.header)
        (list (list (fun c -> str (cell_text c))) t.rows)
    in
    let metric (k, value) =
      Printf.sprintf "\n        {\"store\": %s, \"name\": %s, \"value\": %.6g}"
        (str k.store) (str k.name) value
    in
    let experiment (id, r) =
      Printf.sprintf
        "\n    {\n      \"id\": %s,\n      \"tables\": [%s],\n      \"metrics\": \
         [%s]\n    }"
        (str id)
        (String.concat "," (List.map table r.tables))
        (String.concat "," (List.map metric (metrics r)))
    in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"experiments\": [%s\n  ]\n}\n"
      (String.concat "," (List.map experiment reports));
    close_out oc
end

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
