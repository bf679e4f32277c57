(* ycsb — run YCSB workloads against any simulated store.

   Example:
     ycsb --store pebblesdb --workloads A,B,C --records 25000 --ops 10000 *)

open Cmdliner
module Dyn = Pdb_kvs.Store_intf
module L = Pdb_kvs.Latency
module P = Pdb_kvs.Phase
module Mc = Pdb_kvs.Multi_client

(* YCSB keys are "user%016Lx" of a uniform 64-bit hash, so fixed-width hex
   ordering equals unsigned numeric ordering: evenly spaced splits are the
   hex keys at fractions i/N of the unsigned 64-bit space. *)
let ycsb_splits shards =
  let step = Int64.unsigned_div Int64.minus_one (Int64.of_int shards) in
  List.init (shards - 1) (fun i ->
      Printf.sprintf "user%016Lx" (Int64.mul step (Int64.of_int (i + 1))))

let run (c : Cli.t) workloads records ops =
  let value_size = c.Cli.value_size in
  let store, env = Cli.open_store c ~splits:ycsb_splits ~tweak:Fun.id in
  (* clients=0 is the serial path: ops applied as drawn, phase time
     from the clock delta, the timing fig5.5 and fig5.6 record *)
  let clients = if c.Cli.clients <= 0 then None else Some c.Cli.clients in
  let report (r : Pdb_ycsb.Runner.result) =
    let p = r.Pdb_ycsb.Runner.run in
    Printf.printf
      "%-8s : %8.1f KOps/s  (ops=%d r=%d u=%d i=%d s=%d rmw=%d; %.1f MB \
       written)\n%!"
      r.Pdb_ycsb.Runner.phase p.P.kops p.P.ops r.Pdb_ycsb.Runner.reads
      r.Pdb_ycsb.Runner.updates r.Pdb_ycsb.Runner.inserts
      r.Pdb_ycsb.Runner.scans r.Pdb_ycsb.Runner.rmws
      (float_of_int p.P.bytes_written /. 1048576.0);
    match p.P.lanes with
    | Some l when l.Mc.clients > 1 ->
      Printf.printf
        "           clients=%d groups=%d avg-group=%.2f syncs-saved=%d\n%!"
        l.Mc.clients l.Mc.write_groups l.Mc.avg_group_size l.Mc.syncs_saved
    | _ -> ()
  in
  (* one latency collector per phase; reporting is purely
     observational — store state matches a run without it *)
  let lat = L.create () in
  report
    (Pdb_ycsb.Runner.load ?clients ~latency:lat store ~records
       ~value_bytes:value_size ~seed:42);
  L.print_summary ~indent:"           " lat;
  List.iter
    (fun spec ->
      let lat = L.create () in
      report
        (Pdb_ycsb.Runner.run ?clients ~latency:lat store spec ~records
           ~operations:ops ~value_bytes:value_size ~seed:42);
      L.print_summary ~indent:"           " lat)
    workloads;
  store.Dyn.d_close ();
  Cli.write_trace c env

(* an unknown name is a usage error, reported before the load phase *)
let workloads_arg =
  let module W = Pdb_ycsb.Workload in
  let names = List.map (fun (s : W.spec) -> s.W.name) W.all in
  let parse name =
    match W.by_name name with
    | Some spec -> Ok spec
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (expected one of %s)" name
             (String.concat ", " names)))
  in
  let print ppf (s : W.spec) = Format.pp_print_string ppf s.W.name in
  let defaults = List.filter_map W.by_name [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  Arg.(value
       & opt (list (conv (parse, print))) defaults
       & info [ "workloads" ] ~docv:"LIST"
           ~doc:("Comma-separated YCSB workloads, run in order \
                  (case-insensitive): " ^ String.concat ", " names))

let records_arg =
  Arg.(value & opt int 25_000 & info [ "records" ] ~doc:"Records to load.")

let ops_arg =
  Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"Operations per workload.")

let clients_doc =
  "Foreground client lanes (round-robin, WAL group commit); 0 = the \
   serial path, timed per phase as fig5.5 and fig5.6 record it."

let cmd =
  Cmd.v (Cmd.info "ycsb" ~doc:"YCSB benchmark over the simulated stores")
    Term.(const run
          $ Cli.term ~clients_default:0 ~clients_doc
          $ workloads_arg $ records_arg $ ops_arg)

let () = exit (Cmd.eval cmd)
