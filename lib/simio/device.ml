(** Device cost model.

    The paper's asymptotic analysis (§3.7) reasons in the Disk Access Model;
    this module is the concrete instance of that model used to convert IO
    counts into simulated time.  Costs are in nanoseconds.  Appends are
    sequential (cheap per byte, small setup); random block reads pay a setup
    latency per operation.  The aging factor models file-system fragmentation
    (Figure 5.2a): an aged file system turns parts of sequential writes into
    random ones, which we express as inflated setup costs and reduced
    sequential bandwidth. *)

type t = {
  write_byte_ns : float; (* sequential write cost per byte *)
  read_byte_ns : float;
  write_setup_ns : float; (* per append operation *)
  random_read_setup_ns : float; (* per random read operation *)
  seq_read_setup_ns : float; (* per sequential (compaction) read *)
  sync_ns : float; (* per fsync *)
  mutable aging : float; (* >= 1.0; 1.0 = fresh file system *)
  parallel_probe_budget : int;
      (* concurrent random reads the device serves before probes queue
         behind each other (internal flash parallelism); 1 = serial.
         Drawn on by {!Probe} sessions. *)
}

(** Flash-SSD-like defaults: ~1 GB/s sequential writes, ~2 GB/s reads,
    ~80 us random-read latency, 4 concurrently-served probes. *)
let ssd () =
  {
    write_byte_ns = 1.0;
    read_byte_ns = 0.5;
    write_setup_ns = 2_000.0;
    random_read_setup_ns = 80_000.0;
    seq_read_setup_ns = 1_500.0;
    sync_ns = 50_000.0;
    aging = 1.0;
    parallel_probe_budget = 4;
  }

(** [set_aging t f] ages the device; [f = 1.0] is fresh, larger is older. *)
let set_aging t f =
  assert (f >= 1.0);
  t.aging <- f

type read_hint = Random_read | Sequential_read

let write_cost t ~bytes =
  (t.write_setup_ns +. (float_of_int bytes *. t.write_byte_ns)) *. t.aging

let read_cost t ~hint ~bytes =
  let setup =
    match hint with
    | Random_read -> t.random_read_setup_ns *. t.aging
    | Sequential_read -> t.seq_read_setup_ns *. t.aging
  in
  setup +. (float_of_int bytes *. t.read_byte_ns)

let sync_cost t = t.sync_ns *. t.aging
