(* The command-line surface db_bench and ycsb share: the store, policy,
   throttle, sizing, client, shard, replication and trace flags, the
   option tweaks they imply, and the trace writer. *)

open Cmdliner
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Stores = Pdb_harness.Stores

type t = {
  engine : Stores.engine;
  policy : O.compaction_policy option;
  throttle : O.throttle option;
  value_size : int;
  clients : int;
  shards : int;
  elastic : bool;
  replicas : int;
  repl_strategy : O.repl_strategy option;
  trace : string option;
}

let named parse print =
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (print v))

let store_name e = fst (List.find (fun (_, e') -> e' = e) Stores.store_names)

let store_arg =
  Arg.(value
       & opt (named Stores.engine_of_string store_name) Stores.Pebblesdb
       & info [ "store" ] ~docv:"STORE"
           ~doc:(String.concat " | " (List.map fst Stores.store_names)))

let policy_arg =
  Arg.(value
       & opt (some (named O.compaction_policy_of_string O.compaction_policy_name)) None
       & info [ "compaction-policy" ] ~docv:"POLICY"
           ~doc:"leveled | tiered | lazy_leveled | flsm_guarded — pin the \
                 compaction policy, remapping the store to the engine that \
                 implements it when necessary.")

let throttle_arg =
  Arg.(value
       & opt (some (named O.throttle_of_string O.throttle_name)) None
       & info [ "throttle" ] ~docv:"MODE"
           ~doc:"off | cliff | token_bucket — write-throttle mode: the \
                 seed Slowdown/Stop cliff, the debt-keyed token bucket \
                 (profile default), or no write stalls at all.")

let value_size_arg =
  Arg.(value & opt int 1024 & info [ "value-size" ] ~doc:"Value bytes.")

(* a client count below 1 is a usage error *)
let clients_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error
        (`Msg (Printf.sprintf "invalid client count %S (expected 1 or more)" s))
  in
  Arg.(value
       & opt (conv (parse, Format.pp_print_int)) 1
       & info [ "clients" ] ~docv:"N"
           ~doc:"Run every operation stream on N round-robin client lanes \
                 (writes group-commit); 1 = one synchronous client.")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ]
           ~doc:"Range-partition the keyspace over N independent engine \
                 instances (each with its own WAL, memtable and compaction \
                 scheduler); 1 = plain single store.")

let elastic_arg =
  Arg.(value & flag
       & info [ "elastic" ]
           ~doc:"With --shards, let the store resplit itself under load: \
                 hot shards split at the sampled median request key, cold \
                 adjacent pairs merge, and ranges migrate as background \
                 jobs on the compaction lanes (migrate:* trace spans).")

let replicas_arg =
  Arg.(value & opt int 0
       & info [ "replicas" ]
           ~doc:"Replicate the store to N backups over simulated network \
                 links (primary-backup); 0 = unreplicated.  Combined with \
                 --shards, each shard replicates independently.")

let repl_strategy_arg =
  Arg.(value
       & opt (some (named O.repl_strategy_of_string O.repl_strategy_name)) None
       & info [ "repl-strategy" ] ~docv:"STRATEGY"
           ~doc:"log | file — ship WAL groups (the backup replays and \
                 compacts itself) or ship sstables and manifest edits as \
                 flush/compaction installs them (the backup burns no \
                 compaction CPU, the wire carries the write amplification).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of compaction / flush / \
                 WAL / stall activity to $(docv) (load in Perfetto or \
                 chrome://tracing).")

(** [term] parses the shared flags. *)
let term =
  Term.(
    const
      (fun engine policy throttle value_size clients shards elastic replicas
           repl_strategy trace ->
        {
          engine;
          policy;
          throttle;
          value_size;
          clients;
          shards;
          elastic;
          replicas;
          repl_strategy;
          trace;
        })
    $ store_arg $ policy_arg $ throttle_arg $ value_size_arg
    $ clients_arg
    $ shards_arg $ elastic_arg $ replicas_arg $ repl_strategy_arg $ trace_arg)

(** [open_store c ~splits ~tweak] opens the requested store in a fresh
    environment (traced when [--trace] is given).  [splits n] are the
    front end's shard split keys for [n] shards; [tweak] applies its own
    option flags on top of the shared ones. *)
let open_store c ~splits ~tweak =
  (* a policy request may remap the engine (flsm_guarded needs guards,
     the LSM layouts need the leveled/tiered engine) *)
  let engine =
    match c.policy with
    | None -> c.engine
    | Some p -> Stores.engine_for_policy c.engine p
  in
  let env = Env.create () in
  if c.trace <> None then Env.set_tracer env (Pdb_simio.Trace.create ());
  let tweak o =
    let o = tweak o in
    let o =
      {
        o with
        O.compaction_policy =
          Option.value c.policy ~default:o.O.compaction_policy;
        throttle = Option.value c.throttle ~default:o.O.throttle;
        repl_strategy = Option.value c.repl_strategy ~default:o.O.repl_strategy;
      }
    in
    (* --replicas routes the store through the replication layer (each
       shard replicates independently when combined with --shards) *)
    let o = if c.replicas > 0 then { o with O.replicas = c.replicas } else o in
    if c.shards <= 1 then o
    else
      (* --elastic lets the shard store resplit itself under load *)
      {
        o with
        O.shards = c.shards;
        shard_splits = splits c.shards;
        elastic = c.elastic || o.O.elastic;
      }
  in
  let store =
    Stores.open_engine ~tweak ~env
      ?shards:(if c.shards > 1 then Some c.shards else None)
      engine
  in
  (store, env)

(** [write_trace c env] writes the Chrome trace when [--trace] asked for
    one. *)
let write_trace c env =
  match (c.trace, Env.tracer env) with
  | Some path, Some tr ->
    let oc = open_out path in
    output_string oc (Pdb_simio.Trace.to_chrome_json tr);
    close_out oc;
    Printf.printf "trace: %d events (%d dropped) -> %s\n"
      (Pdb_simio.Trace.count tr)
      (Pdb_simio.Trace.dropped tr)
      path
  | _ -> ()
