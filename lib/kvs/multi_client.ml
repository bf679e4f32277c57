(** Multi-client foreground driver.

    Replays one workload — a fixed global sequence of operations — as N
    concurrent clients: operation [i] belongs to client [i mod N], the
    store executes every operation in the global order (so store state
    is byte-identical at any client count), and each operation's
    measured foreground cost is placed on its client's timeline by
    {!Pdb_simio.Fg_lanes}, where the clients' CPU work overlaps and
    their device time contends for the one shared device.

    Writes group-commit: a run of consecutive pending writes — one per
    client, so at most N — is handed to the engine as one commit group
    ({!Store_intf.dyn.d_write_group}); the leader's coalesced WAL append
    and single sync are placed once, and every member lane waits for the
    commit.  This is the saturated writers queue of LevelDB's group
    commit: under load, every client has a write queued by the time the
    leader syncs, so the window always fills.

    Sharded stores (lib/shard) fan each commit group out by key range:
    one lane group becomes up to one engine-level group {e per shard},
    each with its own coalesced append and sync on that shard's WAL.  So
    against a sharded store the engine's [write_groups] counter can
    exceed this driver's [lane_groups] (at most [shards x] it), while
    store state stays byte-identical at any client count — the global
    operation order is preserved within every shard.

    The reported elapsed time is
    [max(client-lane horizon, foreground device time + background
    horizon advance)]: a phase is bound by its slowest client, or by the
    shared device once the serialised foreground IO plus the compaction
    drain exceed every lane. *)

module Fg = Pdb_simio.Fg_lanes
module Clock = Pdb_simio.Clock

type op =
  | Write of Write_batch.t  (** groupable: put / delete / update batches *)
  | Read of (unit -> unit)  (** point lookup, on its client's lane *)
  | Seek of (unit -> unit)  (** iterator seek / scan, on its client's lane *)
  | Other of (unit -> unit)
      (** anything else executed as-is on its client's lane (e.g. RMW) *)

type result = {
  clients : int;
  ops : int;
  elapsed_ns : float;
  write_groups : int;  (** groups formed during this phase *)
  lane_groups : int;
      (** groups placed on the client lanes — equals [write_groups] when
          every write flows through {!Write} ops *)
  grouped_batches : int;  (** batches committed through those groups *)
  avg_group_size : float;
  syncs_saved : int;  (** WAL syncs amortised away during this phase *)
  client_wait_ns : float array;
      (** per-client blocked time: device contention + group waits *)
}

(* Run [f], returning the clock's foreground deltas: (cpu, device IO,
   stall).  Background work triggered inside [f] charges the background
   lane and the worker-timeline horizon, handled at phase level. *)
let measured clock f =
  let c0 = Clock.snapshot clock in
  f ();
  let d = Clock.diff (Clock.snapshot clock) c0 in
  (d.Clock.cpu_ns, d.Clock.foreground_ns, d.Clock.stall_ns)

(** [stream store ~clients ~n next] executes [n] ops pulled from [next]
    (in order) as [clients] round-robin client lanes.  Ops are pulled as
    the lanes reach them, never more than [clients] ahead of the op
    executing: a commit window takes at most [clients] writes, and the
    op that closes a window early is held for the next turn.  With
    [?latency], each operation's modeled lane latency (arrival to
    completion, stalls and group waits included) is recorded under its
    op kind — recording never changes placement or store state. *)
let stream ?latency (store : Store_intf.dyn) ~clients ~n next =
  let clients = max 1 clients in
  let clock = Pdb_simio.Env.clock store.Store_intf.d_env in
  let lanes = Fg.create ~clients in
  let bg0 = (Clock.snapshot clock).Clock.bg_horizon_ns in
  let stats0 = store.Store_intf.d_stats () in
  let groups0 = stats0.Engine_stats.write_groups in
  let batches0 = stats0.Engine_stats.write_group_batches in
  let saved0 = stats0.Engine_stats.group_syncs_saved in
  let note kind ns =
    match latency with Some lat -> Latency.record lat kind ns | None -> ()
  in
  let held = ref None in
  let pull () =
    match !held with
    | Some op ->
      held := None;
      op
    | None -> next ()
  in
  (* ops taken so far: op [i] belongs to client [i mod clients] *)
  let i = ref 0 in
  while !i < n do
    let client = !i mod clients in
    incr i;
    match pull () with
    | (Read f | Seek f | Other f) as op ->
      let kind =
        match op with
        | Read _ -> Latency.Read
        | Seek _ -> Latency.Seek
        | _ -> Latency.Other
      in
      let cpu_ns, io_ns, stall_ns = measured clock (fun () -> f ()) in
      note kind (Fg.place lanes ~client ~cpu_ns ~io_ns ~stall_ns)
    | Write b ->
      (* the commit window: every client with a write pending at the
         head of the global order joins the group, at most one batch
         per client *)
      let rec collect k members batches =
        if !i < n && k < clients then
          match next () with
          | Write b ->
            let c = !i mod clients in
            incr i;
            collect (k + 1) (c :: members) (b :: batches)
          | op ->
            held := Some op;
            (members, batches)
        else (members, batches)
      in
      let members, batches = collect 1 [ client ] [ b ] in
      let members = List.rev members and batches = List.rev batches in
      let cpu_ns, io_ns, stall_ns =
        measured clock (fun () -> store.Store_intf.d_write_group batches)
      in
      let lats = Fg.place_group lanes ~members ~cpu_ns ~io_ns ~stall_ns in
      List.iter (note Latency.Write) lats
  done;
  let bg_advance =
    Float.max 0.0 ((Clock.snapshot clock).Clock.bg_horizon_ns -. bg0)
  in
  let elapsed_ns =
    Float.max (Fg.horizon_ns lanes) (Fg.device_ns lanes +. bg_advance)
  in
  let stats = store.Store_intf.d_stats () in
  let write_groups = stats.Engine_stats.write_groups - groups0 in
  let grouped_batches = stats.Engine_stats.write_group_batches - batches0 in
  let client_wait_ns = Fg.wait_ns lanes in
  {
    clients;
    ops = n;
    elapsed_ns;
    write_groups;
    lane_groups = Fg.groups_placed lanes;
    grouped_batches;
    avg_group_size =
      (if write_groups = 0 then 0.0
       else float_of_int grouped_batches /. float_of_int write_groups);
    syncs_saved = stats.Engine_stats.group_syncs_saved - saved0;
    client_wait_ns;
  }

(** [run store ~clients ops] is {!stream} over the list [ops]. *)
let run ?latency store ~clients ops =
  let rest = ref ops in
  stream ?latency store ~clients ~n:(List.length ops) (fun () ->
      match !rest with
      | op :: tl ->
        rest := tl;
        op
      | [] -> invalid_arg "Multi_client.run")
