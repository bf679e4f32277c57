(** One harness phase: a drawn operation stream, run on client lanes.

    Every benchmark phase — the db_bench-style workloads, the YCSB load
    and transaction phases — is a [draw] function that returns the next
    {!op} with its key and value already fixed.  {!drive} runs [n] of
    them on [clients] round-robin client lanes ({!Multi_client}), one by
    default, and reports one {!result}: operations, simulated elapsed
    time, throughput, the IO the phase did and the lane-group result.
    Because the stream is drawn the same way at any client count, store
    state is byte-identical at any client count. *)

(** One drawn operation. *)
type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Write of Write_batch.t  (** one atomic batch, group-committed whole *)
  | Scan of string * int  (** start key, records to step over *)
  | Rmw of string * string  (** get, then put the new value *)

type result = {
  ops : int;
  elapsed_ns : float;
  kops : float;  (** thousands of operations per simulated second *)
  bytes_written : int;
  bytes_read : int;
  lanes : Multi_client.result;  (** the lane-group result *)
}

(** [kops ~ops ~elapsed_ns] is throughput in thousands of operations per
    simulated second; 0 for a phase that took no time. *)
let kops ~ops ~elapsed_ns =
  if elapsed_ns <= 0.0 then 0.0
  else float_of_int ops /. (elapsed_ns /. 1e9) /. 1000.0

(* [scan store start len] seeks to [start] and steps over up to [len]
   records, reading each key and value. *)
let scan (store : Store_intf.dyn) start len =
  let it = store.Store_intf.d_iterator () in
  it.Iter.seek start;
  let steps = ref 0 in
  while it.Iter.valid () && !steps < len do
    ignore (it.Iter.key ());
    ignore (it.Iter.value ());
    it.Iter.next ();
    incr steps
  done

(** [client_op store op] is [op] as a client-lane operation: puts and
    deletes become one-entry batches that group-commit. *)
let client_op (store : Store_intf.dyn) op =
  let batch add =
    let b = Write_batch.create () in
    add b;
    Multi_client.Write b
  in
  match op with
  | Get key -> Multi_client.Read (fun () -> ignore (store.Store_intf.d_get key))
  | Put (key, value) -> batch (fun b -> Write_batch.put b key value)
  | Delete key -> batch (fun b -> Write_batch.delete b key)
  | Write b -> Multi_client.Write b
  | Scan (start, len) -> Multi_client.Seek (fun () -> scan store start len)
  | Rmw (key, value) ->
    Multi_client.Other
      (fun () ->
        ignore (store.Store_intf.d_get key);
        store.Store_intf.d_put key value)

let io_stats (store : Store_intf.dyn) =
  Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats store.Store_intf.d_env)

(** [drive ?clients ?latency store ~n draw] runs [n] ops from [draw] as
    one phase on [clients] round-robin client lanes (default 1), writes
    group-committing ({!Multi_client.stream}).  Elapsed time comes from
    the lane placement, so on one lane it is the sum of the per-op
    latencies unless the background horizon binds.  With [?latency],
    each op records its lane latency under its kind without changing
    store state. *)
let drive ?(clients = 1) ?latency (store : Store_intf.dyn) ~n draw =
  let io0 = io_stats store in
  let lanes =
    Multi_client.stream ?latency store ~clients ~n (fun () ->
        client_op store (draw ()))
  in
  let io = Pdb_simio.Io_stats.diff (io_stats store) io0 in
  let elapsed_ns = lanes.Multi_client.elapsed_ns in
  {
    ops = n;
    elapsed_ns;
    kops = kops ~ops:n ~elapsed_ns;
    bytes_written = io.Pdb_simio.Io_stats.bytes_written;
    bytes_read = io.Pdb_simio.Io_stats.bytes_read;
    lanes;
  }
