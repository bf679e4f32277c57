(** Primary–backup replication for any engine, over a simulated network.

    One primary serves all client traffic; [K = opts.replicas] backups
    follow it over per-backup {!Pdb_simio.Network} links, each backup in
    its own {!Pdb_simio.Env} (its own device, clock and file system).
    Two shipping strategies (Vardoulakis et al., and the classic
    primary–backup split):

    - {b Log shipping} ([Options.Log_shipping]): every committed write
      batch/group is forwarded at group-commit granularity.  The backup
      runs a full live engine and re-applies the group — its own WAL
      append, memtable insert, and eventually its own flushes and
      compactions, burning backup CPU that duplicates the primary's.
      The primary's commit waits for the slowest backup's durable
      append (the ack), so replication cost lands in write latency.

    - {b File shipping} ([Options.File_shipping]): the backup holds no
      live engine; instead the primary mirrors its file set byte-for-
      byte — WAL deltas at commit time (acked, so durability matches
      log shipping), and sstables + manifest edits as flush/compaction
      installs them (piggybacked on the scheduler's job-completion
      hook, unacked).  The backup spends no compaction CPU at all, but
      the wire carries every byte of write amplification.

    Failover: {!Make.promote} turns backup [i] into a servable engine —
    log shipping already has one; file shipping opens the mirrored
    files through the engine's normal recovery path (CURRENT →
    MANIFEST → WAL replay).  The ack contract is the usual asynchronous
    one: writes whose ack the primary waited for survive promotion;
    writes racing a crash may or may not.

    Crash points: every shipping step registers an {!Env.io_event} on
    the primary's environment *before* touching the wire or the mirror,
    so a fault plan's sweep lands crashes mid-group, mid-ship and
    mid-manifest-install (see Harness.Crash_torture.run_failover).

    Determinism: the wrapper reads primary files only via the uncharged
    {!Env.peek}, charges only the primary's clock (ack waits), and does
    all mirror work against backup environments — so the primary's file
    set is byte-identical to an unreplicated run. *)

module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats
module Iter = Pdb_kvs.Iter
module Wb = Pdb_kvs.Write_batch
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Network = Pdb_simio.Network

(** What replication needs from an engine: the shard-store surface plus
    a completion hook on its background scheduler (file shipping mirrors
    newly installed files as each flush/compaction job finishes; engines
    without background jobs pass a no-op). *)
module type ENGINE = sig
  include Pdb_shard.Shard_store.ENGINE

  val on_job_complete : t -> (unit -> unit) -> unit
end

(* Fixed per-message framing overhead (headers, lengths, checksums). *)
let frame_bytes = 64
let control_bytes = 16

module Make (E : ENGINE) = struct
  type backup = {
    b_env : Env.t;
    b_link : Network.link;
    b_store : E.t option; (* live replaying engine — log shipping only *)
    b_writers : (string, Env.writer) Hashtbl.t; (* file-shipping mirror *)
    b_shipped : (string, int) Hashtbl.t; (* shipped length per file *)
    b_other : (string, string) Hashtbl.t; (* shipped whole-file contents *)
  }

  type t = {
    opts : O.t;
    env : Env.t;
    dir : string;
    prefix : string; (* [dir ^ "/"]: only this store's files ship *)
    primary : E.t;
    strategy : O.repl_strategy;
    backups : backup array;
    net : Network.t;
    mutable log_bytes : int;
    mutable file_bytes : int;
    mutable ack_wait_ns : float;
    mutable shipping : bool; (* re-entrancy guard for ship passes *)
    mutable op_ack : float; (* latest WAL-ship finish inside current op *)
  }

  let now_ns t = Clock.elapsed_ns (Clock.snapshot (Env.clock t.env))

  (* Charge the primary's foreground lane for the interval between now
     and the slowest backup's ack — the synchronous-replication wait
     that shows up in write latency percentiles. *)
  let charge_ack t ~ack =
    let wait = ack -. now_ns t in
    if wait > 0.0 then begin
      Clock.advance (Env.clock t.env) wait;
      t.ack_wait_ns <- t.ack_wait_ns +. wait
    end

  (* Foreground time a thunk costs on a backup's own clock — the
     backup-side durable-append (or replay) latency the ack includes. *)
  let backup_fg_time b_env f =
    let clk = Env.clock b_env in
    let before = Clock.snapshot clk in
    f ();
    (Clock.diff (Clock.snapshot clk) before).Clock.foreground_ns

  (* ---------- log shipping ---------- *)

  (* Forward a committed group to every backup and wait for the slowest
     durable append + replay.  The payload is the WAL encoding of each
     member batch plus per-batch framing; the ack pays the return-trip
     propagation latency on top of delivery + backup foreground time. *)
  let ship_batches t batches =
    if Array.length t.backups > 0 then begin
      let payload =
        List.fold_left
          (fun acc b ->
            acc + control_bytes + String.length (Wb.encode b ~base_seq:0))
          0 batches
      in
      let ack = ref (now_ns t) in
      Array.iter
        (fun b ->
          Env.io_event t.env "repl:ship-wal-group";
          let deliver =
            Network.send t.net b.b_link ~bytes:payload ~label:"wal-group"
          in
          t.log_bytes <- t.log_bytes + payload;
          match b.b_store with
          | Some store ->
            let d = backup_fg_time b.b_env (fun () ->
                match batches with
                | [ one ] -> E.write store one
                | group -> E.write_group store group)
            in
            let t_ack =
              deliver +. d +. (Network.profile t.net).Network.latency_ns
            in
            if t_ack > !ack then ack := t_ack
          | None -> ())
        t.backups;
      charge_ack t ~ack:!ack
    end

  (* Forward a maintenance command (flush / compact-all) so backup file
     sets track the primary's; a tiny control message, no ack. *)
  let ship_control t label f =
    Array.iter
      (fun b ->
        match b.b_store with
        | Some store ->
          Env.io_event t.env ("repl:" ^ label);
          ignore (Network.send t.net b.b_link ~bytes:control_bytes ~label);
          t.log_bytes <- t.log_bytes + control_bytes;
          f store
        | None -> ())
      t.backups

  (* ---------- file shipping ---------- *)

  type file_class = Wal | Sst | Manifest | Other

  let classify t name =
    let p = String.length t.prefix in
    if String.length name <= p || String.sub name 0 p <> t.prefix then None
    else
      let base = Filename.basename name in
      if Filename.check_suffix base ".log" then Some Wal
      else if Filename.check_suffix base ".sst" then Some Sst
      else if
        String.length base >= 9 && String.sub base 0 9 = "MANIFEST-"
      then Some Manifest
      else Some Other

  let mirror_writer b name =
    match Hashtbl.find_opt b.b_writers name with
    | Some w -> w
    | None ->
      let w = Env.create_file b.b_env name in
      Hashtbl.replace b.b_writers name w;
      w

  (* Ship the unshipped suffix of an append-only file to one backup and
     durably append it to the mirror; a shrunk file (WAL rotation reuses
     no names here, but stay safe) reships from scratch.  Returns the
     time the backup finished persisting the delta, or None if the
     mirror was already current. *)
  let ship_append t b name ~category =
    let plen = Env.file_size t.env name in
    let sent =
      match Hashtbl.find_opt b.b_shipped name with Some n -> n | None -> -1
    in
    if sent = plen then None
    else begin
      let fresh = sent < 0 || plen < sent in
      let from = if fresh then 0 else sent in
      let delta = Env.peek t.env name ~pos:from ~len:(plen - from) in
      Env.io_event t.env ("repl:ship:" ^ name);
      let bytes = frame_bytes + String.length delta in
      let deliver =
        Network.send t.net b.b_link ~bytes ~label:(category ^ "-ship")
      in
      t.file_bytes <- t.file_bytes + bytes;
      let d = backup_fg_time b.b_env (fun () ->
          if fresh then Hashtbl.remove b.b_writers name (* reopen truncates *);
          let w = mirror_writer b name in
          Env.append w delta;
          Env.sync w)
      in
      Hashtbl.replace b.b_shipped name plen;
      Some (deliver +. d)
    end

  (* Non-append metadata (CURRENT and friends): reship the whole file
     whenever its contents change. *)
  let ship_other t b name =
    let len = Env.file_size t.env name in
    let content = Env.peek t.env name ~pos:0 ~len in
    match Hashtbl.find_opt b.b_other name with
    | Some old when String.equal old content -> ()
    | _ ->
      Env.io_event t.env ("repl:ship:" ^ name);
      let bytes = frame_bytes + String.length content in
      ignore (Network.send t.net b.b_link ~bytes ~label:"meta-ship");
      t.file_bytes <- t.file_bytes + bytes;
      ignore
        (backup_fg_time b.b_env (fun () ->
             Hashtbl.remove b.b_writers name;
             let w = mirror_writer b name in
             Env.append w content;
             Env.sync w;
             Hashtbl.remove b.b_writers name));
      Hashtbl.replace b.b_other name content

  (* Drop mirrored files the primary deleted (post-compaction GC).
     Runs after metadata shipping so CURRENT never points at a manifest
     the mirror no longer holds. *)
  let ship_deletions t b ~live =
    let dead =
      (Hashtbl.fold
         (fun name _ acc ->
           if Hashtbl.mem live name then acc else name :: acc)
         b.b_shipped [])
      @ Hashtbl.fold
          (fun name _ acc ->
            if Hashtbl.mem live name then acc else name :: acc)
          b.b_other []
    in
    List.iter
      (fun name ->
        Env.io_event t.env ("repl:delete:" ^ name);
        ignore (Network.send t.net b.b_link ~bytes:frame_bytes ~label:"delete");
        t.file_bytes <- t.file_bytes + frame_bytes;
        Hashtbl.remove b.b_shipped name;
        Hashtbl.remove b.b_other name;
        Hashtbl.remove b.b_writers name;
        if Env.exists b.b_env name then Env.delete b.b_env name)
      (List.sort compare dead)

  (* One mirroring pass: diff the primary's file set against what each
     backup holds and ship the difference.  WAL deltas go first — they
     are the ack path, and a crash mid-pass then leaves the mirror with
     a *newer* WAL than its manifest, which recovery handles as normal
     replay.  Then data, then manifests, then CURRENT, then deletions. *)
  let ship_pass t =
    if
      t.strategy = O.File_shipping
      && Array.length t.backups > 0
      && not t.shipping
    then begin
      t.shipping <- true;
      Fun.protect
        ~finally:(fun () -> t.shipping <- false)
        (fun () ->
          let mine =
            List.filter_map
              (fun n -> Option.map (fun c -> (n, c)) (classify t n))
              (List.sort compare (Env.list t.env))
          in
          let by cls = List.filter (fun (_, c) -> c = cls) mine in
          let live = Hashtbl.create 64 in
          List.iter (fun (n, _) -> Hashtbl.replace live n ()) mine;
          Array.iter
            (fun b ->
              List.iter
                (fun (n, _) ->
                  match ship_append t b n ~category:"wal" with
                  | Some fin -> if fin > t.op_ack then t.op_ack <- fin
                  | None -> ())
                (by Wal);
              List.iter
                (fun (n, _) -> ignore (ship_append t b n ~category:"sst"))
                (by Sst);
              List.iter
                (fun (n, _) -> ignore (ship_append t b n ~category:"manifest"))
                (by Manifest);
              List.iter (fun (n, _) -> ship_other t b n) (by Other);
              ship_deletions t b ~live)
            t.backups)
    end

  (* Run a client write under file shipping: mirror the WAL delta the
     commit appended and wait for the slowest backup's durable append —
     the same ack contract as log shipping, without replay cost. *)
  let with_ack t f =
    if t.strategy = O.File_shipping && Array.length t.backups > 0 then begin
      t.op_ack <- 0.0;
      let r = f () in
      ship_pass t;
      if t.op_ack > 0.0 then
        charge_ack t
          ~ack:(t.op_ack +. (Network.profile t.net).Network.latency_ns);
      r
    end
    else f ()

  (* ---------- opening ---------- *)

  let open_with (opts : O.t) ~env ~dir ~shared_block_cache =
    let primary = E.open_shard opts ~env ~dir ~shared_block_cache in
    let k = max 0 opts.O.replicas in
    let net =
      Network.create ~clock:(Env.clock env)
        ~tracer:(fun () -> Env.tracer env)
        ()
    in
    let backups =
      Array.init k (fun _ ->
          let b_env = Env.create () in
          let b_link = Network.add_link net in
          let b_store =
            match opts.O.repl_strategy with
            | O.Log_shipping ->
              Some (E.open_shard opts ~env:b_env ~dir ~shared_block_cache:None)
            | O.File_shipping -> None
          in
          {
            b_env;
            b_link;
            b_store;
            b_writers = Hashtbl.create 16;
            b_shipped = Hashtbl.create 16;
            b_other = Hashtbl.create 8;
          })
    in
    let t =
      {
        opts;
        env;
        dir;
        prefix = dir ^ "/";
        primary;
        strategy = opts.O.repl_strategy;
        backups;
        net;
        log_bytes = 0;
        file_bytes = 0;
        ack_wait_ns = 0.0;
        shipping = false;
        op_ack = 0.0;
      }
    in
    if k > 0 && t.strategy = O.File_shipping then begin
      (* mirror installs as background jobs complete, and whatever
         opening itself created (fresh WAL, manifest) right away *)
      E.on_job_complete primary (fun () -> ship_pass t);
      ship_pass t
    end;
    t

  let open_store opts ~env ~dir = open_with opts ~env ~dir ~shared_block_cache:None
  let open_shard = open_with

  (* ---------- the store surface ---------- *)

  let close t =
    E.close t.primary;
    Array.iter
      (fun b -> match b.b_store with Some s -> E.close s | None -> ())
      t.backups

  let options t = t.opts
  let env t = t.env
  let primary t = t.primary

  let put t k v =
    match t.strategy with
    | O.Log_shipping ->
      E.put t.primary k v;
      let b = Wb.create () in
      Wb.put b k v;
      ship_batches t [ b ]
    | O.File_shipping -> with_ack t (fun () -> E.put t.primary k v)

  let delete t k =
    match t.strategy with
    | O.Log_shipping ->
      E.delete t.primary k;
      let b = Wb.create () in
      Wb.delete b k;
      ship_batches t [ b ]
    | O.File_shipping -> with_ack t (fun () -> E.delete t.primary k)

  let write t batch =
    match t.strategy with
    | O.Log_shipping ->
      E.write t.primary batch;
      ship_batches t [ batch ]
    | O.File_shipping -> with_ack t (fun () -> E.write t.primary batch)

  let write_group t batches =
    match t.strategy with
    | O.Log_shipping ->
      E.write_group t.primary batches;
      ship_batches t batches
    | O.File_shipping -> with_ack t (fun () -> E.write_group t.primary batches)

  let flush t =
    E.flush t.primary;
    (match t.strategy with
     | O.Log_shipping -> ship_control t "flush" E.flush
     | O.File_shipping -> ship_pass t)

  let compact_all t =
    E.compact_all t.primary;
    (match t.strategy with
     | O.Log_shipping -> ship_control t "compact" E.compact_all
     | O.File_shipping -> ship_pass t)

  let get t k = E.get t.primary k
  let iterator t = E.iterator t.primary
  let scheduler t = E.scheduler t.primary
  let snapshot t = E.snapshot t.primary
  let release_snapshot t s = E.release_snapshot t.primary s
  let get_at t ~snapshot k = E.get_at t.primary ~snapshot k
  let iterator_at t ~snapshot = E.iterator_at t.primary ~snapshot

  let memory_bytes t =
    E.memory_bytes t.primary
    + Array.fold_left
        (fun acc b ->
          match b.b_store with Some s -> acc + E.memory_bytes s | None -> acc)
        0 t.backups

  let check_invariants t =
    E.check_invariants t.primary;
    Array.iter
      (fun b ->
        match b.b_store with Some s -> E.check_invariants s | None -> ())
      t.backups

  let stats t =
    let st = E.stats t.primary in
    st.Stats.repl_log_bytes_shipped <- t.log_bytes;
    st.Stats.repl_file_bytes_shipped <- t.file_bytes;
    st.Stats.repl_messages <- Network.messages t.net;
    st.Stats.repl_ack_wait_ns <- t.ack_wait_ns;
    st.Stats.repl_backup_busy_ns <-
      Array.fold_left
        (fun acc b ->
          match b.b_store with
          | Some s ->
            acc
            +. Array.fold_left ( +. ) 0.0 (E.stats s).Stats.worker_busy_ns
          | None -> acc)
        0.0 t.backups;
    st

  let describe t =
    Printf.sprintf "replicated(%s, K=%d) %s"
      (O.repl_strategy_name t.strategy)
      (Array.length t.backups)
      (E.describe t.primary)

  (* ---------- failover ---------- *)

  let backup_count t = Array.length t.backups
  let backup_env t i = t.backups.(i).b_env
  let strategy t = t.strategy
  let network t = t.net

  (** [promote t i] turns backup [i] into a servable engine after the
      primary is lost.  Log shipping: the live replaying engine is
      already current to the last acked group.  File shipping: open the
      mirrored bytes through the engine's normal recovery path (CURRENT
      → MANIFEST → WAL replay) on the backup's environment. *)
  let promote t i =
    let b = t.backups.(i) in
    match b.b_store with
    | Some s -> s
    | None -> E.open_shard t.opts ~env:b.b_env ~dir:t.dir ~shared_block_cache:None

  let promote_dyn t i = Dyn.dyn_of (module E : Dyn.S with type t = E.t) (promote t i)
end
