(** Measurement and reporting helpers shared by the benchmark harness and
    the repro CLI. *)

module Dyn = Pdb_kvs.Store_intf
module Clock = Pdb_simio.Clock
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter
module Phase = Pdb_kvs.Phase
module Rng = Pdb_util.Rng

(* ---------- canonical workload phases (db_bench-style) ----------

   Each phase draws one op stream and {!Phase.drive} runs it: serially
   by default, on [~clients] foreground lanes (WAL group commit) for the
   phases that take them.  The stream — and so the store's final state —
   is the same either way.  An ad-hoc loop is timed with
   {!Phase.measure}. *)

let key_of i = Printf.sprintf "key%010d" i
let value_of rng n = Rng.alpha rng n

(* a draw whose [i]-th op is [f i], or [f order.(i)] with [~order] *)
let each ?order f =
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    f (match order with Some perm -> perm.(i) | None -> i)

let shuffled rng n =
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  perm

(** [fill_random store ~n ~value_bytes ~seed] puts [n] keys in random
    order: an insert pass on a fresh store, an overwrite pass (same keys,
    fresh values under a new seed) on a filled one. *)
let fill_random ?clients ?latency (store : Dyn.dyn) ~n ~value_bytes ~seed =
  let rng = Rng.create seed in
  let order = shuffled rng n in
  Phase.drive ?clients ?latency store ~n
    (each ~order (fun i -> Phase.Put (key_of i, value_of rng value_bytes)))

(** [fill_seq store ~n ~value_bytes ~seed] inserts [n] keys in ascending
    order — LSM's trivial-move fast path, FLSM's worst case (§5.2). *)
let fill_seq ?latency (store : Dyn.dyn) ~n ~value_bytes ~seed =
  let rng = Rng.create seed in
  Phase.drive ?latency store ~n
    (each (fun i -> Phase.Put (key_of i, value_of rng value_bytes)))

(** [read_random store ~n ~ops ~seed] issues [ops] point lookups over the
    [n]-key space. *)
let read_random ?clients ?latency (store : Dyn.dyn) ~n ~ops ~seed =
  let rng = Rng.create (seed + 1) in
  Phase.drive ?clients ?latency store ~n:ops (fun () ->
      Phase.Get (key_of (Rng.int rng n)))

(** [seek_random store ~n ~ops ~nexts ~seed] issues [ops] seeks, each
    followed by [nexts] next() calls (a range query).  A short untimed
    warmup first brings the table cache to steady state, as the paper's
    10M-operation runs do implicitly. *)
let seek_random (store : Dyn.dyn) ~n ~ops ~nexts ~seed =
  let wrng = Rng.create (seed + 11) in
  for _ = 1 to 2_000 do
    let it = store.Dyn.d_iterator () in
    it.Iter.seek (key_of (Rng.int wrng n))
  done;
  let rng = Rng.create (seed + 2) in
  Phase.drive store ~n:ops (fun () ->
      Phase.Scan (key_of (Rng.int rng n), nexts))

(** [delete_random store ~n ~seed] deletes every key once, random order. *)
let delete_random ?latency (store : Dyn.dyn) ~n ~seed =
  let rng = Rng.create (seed + 3) in
  let order = shuffled rng n in
  Phase.drive ?latency store ~n
    (each ~order (fun i -> Phase.Delete (key_of i)))

(** [mixed store ~n ~ops ~value_bytes ~seed] — 50% reads / 50%
    overwrites, uniform over the [n]-key space. *)
let mixed ?clients ?latency (store : Dyn.dyn) ~n ~ops ~value_bytes ~seed =
  let rng = Rng.create (seed + 2) in
  Phase.drive ?clients ?latency store ~n:ops (fun () ->
      if Rng.int rng 2 = 0 then Phase.Get (key_of (Rng.int rng n))
      else
        (* an overwrite draws its value before its key *)
        let value = value_of rng value_bytes in
        Phase.Put (key_of (Rng.int rng n), value))

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
