(** YCSB workload runner over any packaged store ({!Pdb_kvs.Store_intf.dyn}).

    Keys follow the YCSB convention of hashing the logical record number so
    that loads arrive in effectively random key order.  The runner reports
    modeled throughput (operations over simulated elapsed time) and the IO
    performed during the phase — the quantities plotted in Figure 5.5. *)

module Dyn = Pdb_kvs.Store_intf
module Iter = Pdb_kvs.Iter
module Clock = Pdb_simio.Clock
module Multi_client = Pdb_kvs.Multi_client

let hex_digits = "0123456789abcdef"

(* FNV-64 over the record number, hex-rendered: "user" ^ 16 hex chars,
   the bytes of [Printf.sprintf "user%016Lx"] written into one buffer. *)
let key_of_record n =
  let open Int64 in
  let h = ref 0xCBF29CE484222325L in
  let v = ref (of_int n) in
  for _ = 0 to 7 do
    h := mul (logxor !h (logand !v 0xffL)) 0x100000001B3L;
    v := shift_right_logical !v 8
  done;
  let key = Bytes.create 20 in
  Bytes.blit_string "user" 0 key 0 4;
  for i = 0 to 15 do
    let nibble = to_int (logand (shift_right_logical !h (60 - (4 * i))) 0xfL) in
    Bytes.set key (4 + i) hex_digits.[nibble]
  done;
  Bytes.unsafe_to_string key

type result = {
  phase : string;
  ops : int;
  elapsed_ns : float;
  kops_per_s : float;
  bytes_written : int;
  bytes_read : int;
  reads : int;
  updates : int;
  inserts : int;
  scans : int;
  rmws : int;
  (* foreground-concurrency fields; 1 / zero for the serial path *)
  clients : int;
  write_groups : int;
  avg_group_size : float;
  syncs_saved : int;
}

let make_value rng n = Pdb_util.Rng.alpha rng n

(* One drawn YCSB operation.  Keys and values are fixed when it is
   drawn, so the serial path and the client lanes apply one stream. *)
type op =
  | Get of string
  | Put of string * string  (** an update or an insert *)
  | Scan of string * int  (** start key, records to step over *)
  | Rmw of string * string

let apply (store : Dyn.dyn) = function
  | Get key -> ignore (store.Dyn.d_get key)
  | Put (key, value) -> store.Dyn.d_put key value
  | Scan (start, len) ->
    let it = store.Dyn.d_iterator () in
    it.Iter.seek start;
    let steps = ref 0 in
    while it.Iter.valid () && !steps < len do
      ignore (it.Iter.key ());
      ignore (it.Iter.value ());
      it.Iter.next ();
      incr steps
    done
  | Rmw (key, value) ->
    ignore (store.Dyn.d_get key);
    store.Dyn.d_put key value

let client_op store op =
  match op with
  | Get _ -> Multi_client.Read (fun () -> apply store op)
  | Put (key, value) ->
    let b = Pdb_kvs.Write_batch.create () in
    Pdb_kvs.Write_batch.put b key value;
    Multi_client.Write b
  | Scan _ -> Multi_client.Seek (fun () -> apply store op)
  | Rmw _ -> Multi_client.Other (fun () -> apply store op)

(* Run [n] ops from [draw] as one phase; IO comes from the env counters.
   Serially, each op is applied as it is drawn and the phase takes the
   clock delta (background completion = per-worker timeline horizon).
   With [~clients], the ops are drawn first and replayed round-robin on
   the client lanes, writes group-committing; elapsed comes from the lane
   placement.  [counts ()] is read once every op is drawn. *)
let drive ?clients ?latency (store : Dyn.dyn) phase ~n draw ~counts =
  let io () =
    Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Dyn.d_env)
  in
  let io0 = io () in
  let elapsed_ns, clients, write_groups, avg_group_size, syncs_saved =
    match clients with
    | None ->
      let store =
        match latency with
        | Some lat -> Pdb_kvs.Latency.instrument lat store
        | None -> store
      in
      let clock = Pdb_simio.Env.clock store.Dyn.d_env in
      let c0 = Clock.snapshot clock in
      for _ = 1 to n do
        apply store (draw ())
      done;
      (Clock.elapsed_ns (Clock.diff (Clock.snapshot clock) c0), 1, 0, 0.0, 0)
    | Some clients ->
      let ops = List.init n (fun _ -> client_op store (draw ())) in
      let r = Multi_client.run ?latency store ~clients ops in
      Multi_client.
        (r.elapsed_ns, r.clients, r.write_groups, r.avg_group_size,
         r.syncs_saved)
  in
  let io = Pdb_simio.Io_stats.diff (io ()) io0 in
  let reads, updates, inserts, scans, rmws = counts () in
  {
    phase;
    ops = n;
    elapsed_ns;
    kops_per_s =
      (if elapsed_ns <= 0.0 then 0.0
       else float_of_int n /. (elapsed_ns /. 1e9) /. 1000.0);
    bytes_written = io.Pdb_simio.Io_stats.bytes_written;
    bytes_read = io.Pdb_simio.Io_stats.bytes_read;
    reads;
    updates;
    inserts;
    scans;
    rmws;
    clients;
    write_groups;
    avg_group_size;
    syncs_saved;
  }

(** [load ?clients ?latency store ~records ~value_bytes ~seed] is the
    YCSB load phase: insert [records] fresh records.  With [~clients:n]
    the inserts interleave round-robin across [n] client lanes and commit
    in groups; the values (and hence the store's final state) are the
    same at any client count.  With [?latency], per-operation modeled
    latencies are collected (clock-snapshot deltas on the serial path,
    lane placement on the client path) without changing store state. *)
let load ?clients ?latency (store : Dyn.dyn) ~records ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create seed in
  let next = ref 0 in
  let draw () =
    let key = key_of_record !next in
    incr next;
    Put (key, make_value rng value_bytes)
  in
  drive ?clients ?latency store "load" ~n:records draw
    ~counts:(fun () -> (0, 0, records, 0, 0))

(** [run ?clients ?latency store spec ~records ~operations ~value_bytes
    ~seed] executes the transaction phase of [spec] against a store
    already loaded with [records] records.  With [~clients:n] the ops
    interleave round-robin across [n] client lanes (writes group-commit);
    the drawn op sequence — and the store's final state — is the same at
    any client count.  With [?latency], per-operation modeled latencies
    are collected without changing store state. *)
let run ?clients ?latency (store : Dyn.dyn) (spec : Workload.spec) ~records
    ~operations ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create (seed + 17) in
  let dist =
    match spec.Workload.dist with
    | Workload.Zipfian -> Pdb_util.Dist.scrambled_zipfian ~seed records
    | Workload.Latest -> Pdb_util.Dist.latest ~seed records
    | Workload.Uniform -> Pdb_util.Dist.uniform ~seed records
    | Workload.Shifting_hotspot ->
      (* a handful of hotspot phases per run, so the skew drifts while
         any one phase still lasts long enough to matter *)
      Pdb_util.Dist.shifting_hotspot ~seed
        ~period:(max 1 (operations / 5))
        records
    | Workload.Diurnal ->
      Pdb_util.Dist.diurnal ~seed ~period:(max 1 operations) records
  in
  let record_count = ref records in
  let reads = ref 0
  and updates = ref 0
  and inserts = ref 0
  and scans = ref 0
  and rmws = ref 0 in
  let existing () = key_of_record (Pdb_util.Dist.next dist) in
  let draw () =
    match Workload.draw_op spec rng with
    | Workload.Read ->
      incr reads;
      Get (existing ())
    | Workload.Update ->
      incr updates;
      let key = existing () in
      Put (key, make_value rng value_bytes)
    | Workload.Insert ->
      incr inserts;
      let key = key_of_record !record_count in
      incr record_count;
      Pdb_util.Dist.set_item_count dist !record_count;
      Put (key, make_value rng value_bytes)
    | Workload.Scan ->
      incr scans;
      let start = existing () in
      Scan (start, 1 + Pdb_util.Rng.int rng spec.Workload.max_scan_len)
    | Workload.Read_modify_write ->
      incr rmws;
      let key = existing () in
      Rmw (key, make_value rng value_bytes)
  in
  drive ?clients ?latency store ("run-" ^ spec.Workload.name) ~n:operations
    draw ~counts:(fun () -> (!reads, !updates, !inserts, !scans, !rmws))
