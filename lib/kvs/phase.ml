(** One harness phase: a drawn operation stream, run serially or on
    client lanes.

    Every benchmark phase — the db_bench-style workloads, the YCSB load
    and transaction phases — is a [draw] function that returns the next
    {!op} with its key and value already fixed.  {!drive} runs [n] of
    them and reports one {!result}: operations, simulated elapsed time,
    throughput and the IO the phase did, plus the lane-group result when
    it ran on client lanes.  Because the stream is drawn the same way on
    either path, store state is byte-identical serially and at any client
    count. *)

module Clock = Pdb_simio.Clock

(** One drawn operation. *)
type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Scan of string * int  (** start key, records to step over *)
  | Rmw of string * string  (** get, then put the new value *)

type result = {
  ops : int;
  elapsed_ns : float;
  kops : float;  (** thousands of operations per simulated second *)
  bytes_written : int;
  bytes_read : int;
  lanes : Multi_client.result option;
      (** the lane-group result, when the phase ran on client lanes *)
}

(** [kops ~ops ~elapsed_ns] is throughput in thousands of operations per
    simulated second; 0 for a phase that took no time. *)
let kops ~ops ~elapsed_ns =
  if elapsed_ns <= 0.0 then 0.0
  else float_of_int ops /. (elapsed_ns /. 1e9) /. 1000.0

(** [apply store op] executes [op] on the store's serial entry points. *)
let apply (store : Store_intf.dyn) = function
  | Get key -> ignore (store.Store_intf.d_get key)
  | Put (key, value) -> store.Store_intf.d_put key value
  | Delete key -> store.Store_intf.d_delete key
  | Scan (start, len) ->
    let it = store.Store_intf.d_iterator () in
    it.Iter.seek start;
    let steps = ref 0 in
    while it.Iter.valid () && !steps < len do
      ignore (it.Iter.key ());
      ignore (it.Iter.value ());
      it.Iter.next ();
      incr steps
    done
  | Rmw (key, value) ->
    ignore (store.Store_intf.d_get key);
    store.Store_intf.d_put key value

(** [client_op store op] is [op] as a client-lane operation: puts and
    deletes become one-entry batches that group-commit. *)
let client_op store op =
  let batch add =
    let b = Write_batch.create () in
    add b;
    Multi_client.Write b
  in
  match op with
  | Get _ -> Multi_client.Read (fun () -> apply store op)
  | Put (key, value) -> batch (fun b -> Write_batch.put b key value)
  | Delete key -> batch (fun b -> Write_batch.delete b key)
  | Scan _ -> Multi_client.Seek (fun () -> apply store op)
  | Rmw _ -> Multi_client.Other (fun () -> apply store op)

let io_stats (store : Store_intf.dyn) =
  Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Store_intf.d_env)

let finish store io0 ~ops ~elapsed_ns lanes =
  let io = Pdb_simio.Io_stats.diff (io_stats store) io0 in
  {
    ops;
    elapsed_ns;
    kops = kops ~ops ~elapsed_ns;
    bytes_written = io.Pdb_simio.Io_stats.bytes_written;
    bytes_read = io.Pdb_simio.Io_stats.bytes_read;
    lanes;
  }

(** [measure store ops f] runs [f ()] as a phase of [ops] operations:
    elapsed is the clock delta (background completion = per-worker
    timeline horizon), IO comes from the env counters. *)
let measure (store : Store_intf.dyn) ops f =
  let io0 = io_stats store in
  let clock = Pdb_simio.Env.clock store.Store_intf.d_env in
  let c0 = Clock.snapshot clock in
  f ();
  let elapsed_ns = Clock.elapsed_ns (Clock.diff (Clock.snapshot clock) c0) in
  finish store io0 ~ops ~elapsed_ns None

(** [drive ?clients ?latency store ~n draw] runs [n] ops from [draw] as
    one phase.  Serially, each op is applied as it is drawn and the phase
    is {!measure}d.  With [~clients], the ops are drawn first and replayed
    round-robin on the client lanes ({!Multi_client.run}), writes
    group-committing; elapsed comes from the lane placement.  With
    [?latency], per-operation modeled latencies are recorded (clock deltas
    serially, lane placement on client lanes) without changing store
    state. *)
let drive ?clients ?latency (store : Store_intf.dyn) ~n draw =
  match clients with
  | None ->
    let store =
      match latency with
      | Some lat -> Latency.instrument lat store
      | None -> store
    in
    measure store n (fun () ->
        for _ = 1 to n do
          apply store (draw ())
        done)
  | Some clients ->
    let io0 = io_stats store in
    let ops = List.init n (fun _ -> client_op store (draw ())) in
    let r = Multi_client.run ?latency store ~clients ops in
    finish store io0 ~ops:n ~elapsed_ns:r.Multi_client.elapsed_ns (Some r)
