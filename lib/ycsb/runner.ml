(** YCSB workload runner over any packaged store ({!Pdb_kvs.Store_intf.dyn}).

    Keys follow the YCSB convention of hashing the logical record number so
    that loads arrive in effectively random key order.  The runner reports
    modeled throughput (operations over simulated elapsed time) and the IO
    performed during the phase — the quantities plotted in Figure 5.5. *)

module Dyn = Pdb_kvs.Store_intf
module Phase = Pdb_kvs.Phase

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
  run : Phase.result;  (** ops, elapsed, kops, IO, lane groups *)
  reads : int;
  updates : int;
  inserts : int;
  scans : int;
  rmws : int;
}

let make_value rng n = Pdb_util.Rng.alpha rng n

(* Run [n] drawn ops as one phase ({!Phase.drive});
   [counts ()] is read once every op is drawn. *)
let drive ?clients ?latency store phase ~n draw ~counts =
  let run = Phase.drive ?clients ?latency store ~n draw in
  let reads, updates, inserts, scans, rmws = counts () in
  { phase; run; reads; updates; inserts; scans; rmws }

(** [load ?clients ?latency store ~records ~value_bytes ~seed] is the
    YCSB load phase: insert [records] fresh records.  With [~clients:n]
    (default 1) the inserts interleave round-robin across [n] client
    lanes and commit in groups; the values (and hence the store's final
    state) are the same at any client count.  With [?latency], each op's
    lane latency is collected without changing store state. *)
let load ?clients ?latency (store : Dyn.dyn) ~records ~value_bytes ~seed =
  let rng = Pdb_util.Rng.create seed in
  let next = ref 0 in
  let draw () =
    let key = key_of_record !next in
    incr next;
    Phase.Put (key, make_value rng value_bytes)
  in
  drive ?clients ?latency store "load" ~n:records draw
    ~counts:(fun () -> (0, 0, records, 0, 0))

(** [run ?clients ?latency store spec ~records ~operations ~value_bytes
    ~seed] executes the transaction phase of [spec] against a store
    already loaded with [records] records.  With [~clients:n] (default 1)
    the ops interleave round-robin across [n] client lanes (writes
    group-commit); the drawn op sequence — and the store's final state —
    is the same at any client count.  With [?latency], per-operation modeled latencies
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
      Phase.Get (existing ())
    | Workload.Update ->
      incr updates;
      let key = existing () in
      Phase.Put (key, make_value rng value_bytes)
    | Workload.Insert ->
      incr inserts;
      let key = key_of_record !record_count in
      incr record_count;
      Pdb_util.Dist.set_item_count dist !record_count;
      Phase.Put (key, make_value rng value_bytes)
    | Workload.Scan ->
      incr scans;
      let start = existing () in
      Phase.Scan (start, 1 + Pdb_util.Rng.int rng spec.Workload.max_scan_len)
    | Workload.Read_modify_write ->
      incr rmws;
      let key = existing () in
      Phase.Rmw (key, make_value rng value_bytes)
  in
  drive ?clients ?latency store ("run-" ^ spec.Workload.name) ~n:operations
    draw ~counts:(fun () -> (!reads, !updates, !inserts, !scans, !rmws))
