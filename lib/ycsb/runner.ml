(** YCSB workload runner over any packaged store ({!Pdb_kvs.Store_intf.dyn}).

    Keys follow the YCSB convention of hashing the logical record number so
    that loads arrive in effectively random key order.  The runner reports
    modeled throughput (operations over simulated elapsed time) and the IO
    performed during the phase — the quantities plotted in Figure 5.5. *)

module Dyn = Pdb_kvs.Store_intf
module Iter = Pdb_kvs.Iter
module Clock = Pdb_simio.Clock

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

(* Measure a phase: simulated elapsed via the clock lanes (background
   completion = per-worker timeline horizon), IO via the env counters. *)
let measure (store : Dyn.dyn) name f =
  let clock = Pdb_simio.Env.clock store.Dyn.d_env in
  let io0 = Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Dyn.d_env) in
  let c0 = Clock.snapshot clock in
  let ops, reads, updates, inserts, scans, rmws = f () in
  let c1 = Clock.snapshot clock in
  let io1 = Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Dyn.d_env) in
  let delta = Clock.diff c1 c0 in
  let elapsed = Clock.elapsed_ns delta in
  let io = Pdb_simio.Io_stats.diff io1 io0 in
  {
    phase = name;
    ops;
    elapsed_ns = elapsed;
    kops_per_s =
      (if elapsed <= 0.0 then 0.0
       else float_of_int ops /. (elapsed /. 1e9) /. 1000.0);
    bytes_written = io.Pdb_simio.Io_stats.bytes_written;
    bytes_read = io.Pdb_simio.Io_stats.bytes_read;
    reads;
    updates;
    inserts;
    scans;
    rmws;
    clients = 1;
    write_groups = 0;
    avg_group_size = 0.0;
    syncs_saved = 0;
  }

(* Measure a phase driven through the multi-client executor: ops
   interleave round-robin across [clients] foreground lanes and writes
   group-commit; elapsed comes from the lane placement. *)
let measure_clients ?latency (store : Dyn.dyn) name ~clients ops
    ~counts:(nops, reads, updates, inserts, scans, rmws) =
  let io0 = Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Dyn.d_env) in
  let r = Pdb_kvs.Multi_client.run ?latency store ~clients ops in
  let io1 = Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Dyn.d_env) in
  let io = Pdb_simio.Io_stats.diff io1 io0 in
  {
    phase = name;
    ops = nops;
    elapsed_ns = r.Pdb_kvs.Multi_client.elapsed_ns;
    kops_per_s =
      (if r.Pdb_kvs.Multi_client.elapsed_ns <= 0.0 then 0.0
       else
         float_of_int nops
         /. (r.Pdb_kvs.Multi_client.elapsed_ns /. 1e9)
         /. 1000.0);
    bytes_written = io.Pdb_simio.Io_stats.bytes_written;
    bytes_read = io.Pdb_simio.Io_stats.bytes_read;
    reads;
    updates;
    inserts;
    scans;
    rmws;
    clients = r.Pdb_kvs.Multi_client.clients;
    write_groups = r.Pdb_kvs.Multi_client.write_groups;
    avg_group_size = r.Pdb_kvs.Multi_client.avg_group_size;
    syncs_saved = r.Pdb_kvs.Multi_client.syncs_saved;
  }

let put_op key value =
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b key value;
  Pdb_kvs.Multi_client.Write b

(** [load ?clients ?latency store ~records ~value_bytes ~seed] is the
    YCSB load phase: insert [records] fresh records.  With [~clients:n]
    the inserts interleave round-robin across [n] client lanes and commit
    in groups; the values (and hence the store's final state) are the
    same at any client count.  With [?latency], per-operation modeled
    latencies are collected (clock-snapshot deltas on the serial path,
    lane placement on the client path) without changing store state. *)
let load ?clients ?latency (store : Dyn.dyn) ~records ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create seed in
  match clients with
  | None ->
    let store =
      match latency with
      | Some lat -> Pdb_kvs.Latency.instrument lat store
      | None -> store
    in
    measure store "load" (fun () ->
        for n = 0 to records - 1 do
          store.Dyn.d_put (key_of_record n) (make_value rng value_bytes)
        done;
        (records, 0, 0, records, 0, 0))
  | Some clients ->
    let ops = ref [] in
    for n = 0 to records - 1 do
      ops := put_op (key_of_record n) (make_value rng value_bytes) :: !ops
    done;
    measure_clients ?latency store "load" ~clients (List.rev !ops)
      ~counts:(records, 0, 0, records, 0, 0)

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
  let scan_op (st : Dyn.dyn) start len =
    let it = st.Dyn.d_iterator () in
    it.Iter.seek (key_of_record start);
    let steps = ref 0 in
    while it.Iter.valid () && !steps < len do
      ignore (it.Iter.key ());
      ignore (it.Iter.value ());
      it.Iter.next ();
      incr steps
    done
  in
  match clients with
  | None ->
    let store =
      match latency with
      | Some lat -> Pdb_kvs.Latency.instrument lat store
      | None -> store
    in
    measure store ("run-" ^ spec.Workload.name) (fun () ->
        for _ = 1 to operations do
          match Workload.draw_op spec rng with
          | Workload.Read ->
            incr reads;
            ignore (store.Dyn.d_get (key_of_record (Pdb_util.Dist.next dist)))
          | Workload.Update ->
            incr updates;
            store.Dyn.d_put
              (key_of_record (Pdb_util.Dist.next dist))
              (make_value rng value_bytes)
          | Workload.Insert ->
            incr inserts;
            let n = !record_count in
            incr record_count;
            store.Dyn.d_put (key_of_record n) (make_value rng value_bytes);
            Pdb_util.Dist.set_item_count dist !record_count
          | Workload.Scan ->
            incr scans;
            let start = Pdb_util.Dist.next dist in
            let len = 1 + Pdb_util.Rng.int rng spec.Workload.max_scan_len in
            scan_op store start len
          | Workload.Read_modify_write ->
            incr rmws;
            let n = Pdb_util.Dist.next dist in
            ignore (store.Dyn.d_get (key_of_record n));
            store.Dyn.d_put (key_of_record n) (make_value rng value_bytes)
        done;
        (operations, !reads, !updates, !inserts, !scans, !rmws))
  | Some clients ->
    (* draw the whole op sequence first (rng/dist state advances exactly
       as in the serial path), then replay it across the client lanes *)
    let ops = ref [] in
    let push op = ops := op :: !ops in
    for _ = 1 to operations do
      match Workload.draw_op spec rng with
      | Workload.Read ->
        incr reads;
        let key = key_of_record (Pdb_util.Dist.next dist) in
        push (Pdb_kvs.Multi_client.Read (fun () -> ignore (store.Dyn.d_get key)))
      | Workload.Update ->
        incr updates;
        let key = key_of_record (Pdb_util.Dist.next dist) in
        push (put_op key (make_value rng value_bytes))
      | Workload.Insert ->
        incr inserts;
        let n = !record_count in
        incr record_count;
        push (put_op (key_of_record n) (make_value rng value_bytes));
        Pdb_util.Dist.set_item_count dist !record_count
      | Workload.Scan ->
        incr scans;
        let start = Pdb_util.Dist.next dist in
        let len = 1 + Pdb_util.Rng.int rng spec.Workload.max_scan_len in
        push (Pdb_kvs.Multi_client.Seek (fun () -> scan_op store start len))
      | Workload.Read_modify_write ->
        incr rmws;
        let key = key_of_record (Pdb_util.Dist.next dist) in
        let value = make_value rng value_bytes in
        push
          (Pdb_kvs.Multi_client.Other
             (fun () ->
               ignore (store.Dyn.d_get key);
               store.Dyn.d_put key value))
    done;
    measure_clients ?latency store
      ("run-" ^ spec.Workload.name)
      ~clients (List.rev !ops)
      ~counts:(operations, !reads, !updates, !inserts, !scans, !rmws)
