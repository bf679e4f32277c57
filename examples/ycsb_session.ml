(* YCSB session: load a PebblesDB store and run the six core workloads,
   printing per-phase throughput — a miniature of Figure 5.5.

   Run with: dune exec examples/ycsb_session.exe *)

module Dyn = Pdb_kvs.Store_intf

let () =
  let store = Pdb_harness.Stores.open_engine Pdb_harness.Stores.Pebblesdb in
  let records = 10_000 and ops = 4_000 in
  let report (r : Pdb_ycsb.Runner.result) =
    Printf.printf "%-10s %8.1f KOps/s  (%.1f MB written)\n%!"
      r.Pdb_ycsb.Runner.phase r.Pdb_ycsb.Runner.run.Pdb_kvs.Phase.kops
      (float_of_int r.Pdb_ycsb.Runner.run.Pdb_kvs.Phase.bytes_written
       /. 1048576.0)
  in
  report (Pdb_ycsb.Runner.load store ~records ~value_bytes:1024 ~seed:1);
  List.iter
    (fun spec ->
      report
        (Pdb_ycsb.Runner.run store spec ~records ~operations:ops
           ~value_bytes:1024 ~seed:1))
    Pdb_ycsb.Workload.all;
  Printf.printf "\ntotal write amplification: %.2f\n"
    (let st = store.Dyn.d_stats () in
     let io = Pdb_simio.Env.stats store.Dyn.d_env in
     float_of_int io.Pdb_simio.Io_stats.bytes_written
     /. float_of_int st.Pdb_kvs.Engine_stats.user_bytes_written);
  store.Dyn.d_close ()
