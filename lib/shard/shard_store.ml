(** A range-partitioned store: N independent engine instances behind one
    {!Pdb_kvs.Store_intf.S} face — with {e elastic} topology.

    Each shard is a complete engine — its own WAL, MANIFEST, memtable,
    block/table caches and compaction scheduler — living under
    [<dir>/shards/<id>/] in the one shared environment, so all shards
    contend for the same simulated device while their background worker
    lanes overlap.  Point operations route by range
    ({!Shard_router.shard_of_key}); write batches split into per-shard
    sub-batches that commit through each shard's own WAL group commit;
    cross-shard scans merge per-shard iterators positioned at a common
    sequence fence; stats aggregate with a per-shard breakdown and a
    balance metric.

    Elasticity (the router as live guards): the topology is mutable at
    run time.  {!Make.split} carves a hot shard in two at a chosen key,
    {!Make.merge} folds a cold shard into its left neighbour, and with
    [Options.elastic] a controller drives both from per-shard op
    counters — once per decision window it splits the hottest shard at
    the median of a reservoir sample of its recent request keys, or
    merges the coldest adjacent pair.  Decisions are op-count based
    (never clock based), so they are identical at any compaction worker
    count.

    A migration is a fenced handoff: capture the source shard's sequence
    (writes are serial here, so capturing the sequence {e is} draining
    the moving range), copy the range at that fence into the destination
    engine as [migrate:copy] jobs on the destination's compaction
    scheduler (charged to its backlog, placed on its worker lanes),
    install the new topology durably ({!Shard_topology.install} — atomic
    rename, all-or-nothing under crashes), then retire the moved data
    from the source ([migrate:clean] jobs).  Because stale copies can
    survive a crash between install and clean, every live read clips
    each shard to its routed range: gets route by key and per-shard
    iterators are range-clipped, so leftover bytes are unobservable.

    Consistency note (the sequence fence): shard sequence numbers advance
    independently, so "one moment in time" across shards is a vector of
    per-shard sequence numbers captured back-to-back with no writes in
    between — which the simulation's serial execution guarantees.  A
    fence now also pins the {e topology} it was captured under: reads at
    a fence route with the fence's router and reach the fence's engines
    (kept alive after a merge retires them) clipped to the fence's
    ranges, so snapshots pinned before a resplit keep reading the old
    world. *)

module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats
module Iter = Pdb_kvs.Iter
module Env = Pdb_simio.Env

(** What the shard store needs from an engine: the uniform store surface
    plus shard-aware opening (a shared block cache), fenced reads, and —
    for migrations — the engine's background scheduler, so moved ranges
    land as jobs on its compaction lanes.  Engines without snapshots
    (the page stores) satisfy the fenced reads trivially — their
    adapters ignore the fence and read current state — and engines
    without background work return [None] for the scheduler (migration
    batches then apply inline). *)
module type ENGINE = sig
  include Dyn.S

  (** [open_shard opts ~env ~dir ~shared_block_cache] opens one shard;
      [shared_block_cache] (when the profile shares one cache across
      shards) replaces the engine's private block cache. *)
  val open_shard :
    Pdb_kvs.Options.t ->
    env:Pdb_simio.Env.t ->
    dir:string ->
    shared_block_cache:Pdb_sstable.Block_cache.t option ->
    t

  val snapshot : t -> int
  val release_snapshot : t -> int -> unit
  val get_at : t -> snapshot:int -> string -> string option
  val iterator_at : t -> snapshot:int -> Iter.t

  (** The engine's background scheduler, when it has one — migration
      jobs are submitted there so they show on the worker timelines and
      count against the backpressure backlog. *)
  val scheduler : t -> Pdb_compaction.Scheduler.t option
end

(* Reservoir capacity for per-shard request-key samples: enough for a
   stable median under the window sizes used, small enough to be free. *)
let sample_cap = 64

(* Entries per migration write batch — one scheduler job each. *)
let migrate_batch_entries = 64

module Make (E : ENGINE) = struct
  type slot = {
    dir_id : int;  (** stable directory id; never reused *)
    engine : E.t;
    mutable w_ops : int;  (** ops routed this decision window *)
    mutable sample : string array;  (** reservoir of recent request keys *)
    mutable sample_n : int;  (** keys offered to the reservoir *)
  }

  (** A fence pins a moment across shards {e and} the topology it was
      captured under: reads at the fence route with [f_router] and read
      engine [f_slots.(i)] — by directory id, so they survive the slot
      array being rebuilt by later migrations. *)
  type fence = {
    f_router : Shard_router.t;
    f_slots : (int * int) array;  (** per shard: (dir id, pinned seq) *)
  }

  type t = {
    opts : O.t;
    env : Pdb_simio.Env.t;
    dir : string;
    mutable router : Shard_router.t;
    mutable slots : slot array;
    shared_cache : Pdb_sstable.Block_cache.t option;
    mutable fences : (int * fence) list;
        (** live snapshot fences: id -> pinned fence *)
    mutable next_fence : int;
    mutable transient_fence : fence option;
        (** pins backing unfenced iterators; held until the next write
            invalidates those iterators (see [capture_fence]) *)
    mutable retired : slot list;
        (** engines dropped from the topology but still pinned by a
            fence; closed and deleted when the last pin releases *)
    mutable next_dir : int;
    mutable topo_version : int;
    mutable clip : bool;
        (** clip reads to routed ranges — on once the topology has ever
            moved (stale post-migration bytes must be unobservable);
            static stores keep the unclipped fast path *)
    mutable w_total : int;  (** ops this decision window, all shards *)
    rng : Pdb_util.Rng.t;  (** reservoir-sampling randomness (own seed) *)
    mutable in_migration : bool;  (** re-entrancy guard *)
    mutable splits_done : int;
    mutable merges_done : int;
    mutable migrated_bytes : int;
  }

  let router t = t.router
  let shard_stores t = Array.map (fun s -> s.engine) t.slots
  let shard_count t = Array.length t.slots
  let shared_block_cache t = t.shared_cache
  let shard_dir dir id = Printf.sprintf "%s/shards/%d" dir id
  let splits t = Shard_router.splits t.router
  let topology_version t = t.topo_version

  let new_slot t dir_id =
    {
      dir_id;
      engine =
        E.open_shard t.opts ~env:t.env ~dir:(shard_dir t.dir dir_id)
          ~shared_block_cache:t.shared_cache;
      w_ops = 0;
      sample = Array.make sample_cap "";
      sample_n = 0;
    }

  let install_topology t =
    Shard_topology.install t.env ~dir:t.dir
      {
        Shard_topology.version = t.topo_version;
        next_dir = t.next_dir;
        dirs = Array.map (fun s -> s.dir_id) t.slots;
        splits = Shard_router.splits t.router;
      }

  (* Delete every file under [shards/<id>/] — migration garbage
     collection (retired donors, orphans from a crashed migration). *)
  let delete_shard_files env ~dir ~dir_id =
    let prefix = shard_dir dir dir_id ^ "/" in
    let plen = String.length prefix in
    List.iter
      (fun name ->
        if String.length name > plen && String.sub name 0 plen = prefix then
          Env.delete env name)
      (List.sort compare (Env.list env))

  let open_store (opts : O.t) ~env ~dir =
    (* a crashed install can leave TOPOLOGY.tmp behind; never read it *)
    let tmp = Shard_topology.file ~dir ^ ".tmp" in
    if Env.exists env tmp then Env.delete env tmp;
    let topo = Shard_topology.load env ~dir in
    let router, dirs, next_dir, version =
      match topo with
      | Some tp ->
        (* the installed topology is authoritative over Options *)
        ( Shard_router.create ~splits:tp.Shard_topology.splits,
          tp.Shard_topology.dirs,
          tp.Shard_topology.next_dir,
          tp.Shard_topology.version )
      | None ->
        let n = max 1 opts.O.shards in
        let router =
          if List.length opts.O.shard_splits = n - 1 then
            Shard_router.create ~splits:opts.O.shard_splits
          else Shard_router.uniform ~shards:n ()
        in
        (router, Array.init n (fun i -> i), n, 0)
    in
    (* orphan cleanup: shard directories the topology does not name are
       leftovers of a crashed migration (a destination copied into but
       never installed, or a donor never swept) — delete them before
       opening, so recovery state is exactly the installed topology *)
    (match topo with
     | Some _ ->
       let live = Array.to_list dirs in
       let prefix = dir ^ "/shards/" in
       let plen = String.length prefix in
       let orphan = Hashtbl.create 4 in
       List.iter
         (fun name ->
           if String.length name > plen && String.sub name 0 plen = prefix
           then
             match String.index_from_opt name plen '/' with
             | Some slash ->
               (match
                  int_of_string_opt (String.sub name plen (slash - plen))
                with
                | Some id when not (List.mem id live) ->
                  Hashtbl.replace orphan id ()
                | _ -> ())
             | None -> ())
         (Env.list env);
       Hashtbl.iter
         (fun id () -> delete_shard_files env ~dir ~dir_id:id)
         orphan
     | None -> ());
    let shared_cache =
      if opts.O.shard_share_block_cache then
        Some (Pdb_sstable.Block_cache.create ~capacity:opts.O.block_cache_bytes)
      else None
    in
    let t =
      {
        opts;
        env;
        dir;
        router;
        slots = [||];
        shared_cache;
        fences = [];
        next_fence = 1;
        transient_fence = None;
        retired = [];
        next_dir;
        topo_version = version;
        clip = topo <> None;
        w_total = 0;
        rng = Pdb_util.Rng.create 0x5e1a57;
        in_migration = false;
        splits_done = 0;
        merges_done = 0;
        migrated_bytes = 0;
      }
    in
    t.slots <- Array.map (fun id -> new_slot t id) dirs;
    (* elastic stores persist their topology from the start, so every
       later install — and recovery after any crash — sees one durable
       lineage of split vectors *)
    if opts.O.elastic && topo = None then install_topology t;
    t

  (* ---------- fences and retired slots ---------- *)

  let engine_for_dir t dir_id =
    match Array.find_opt (fun s -> s.dir_id = dir_id) t.slots with
    | Some s -> s.engine
    | None -> (
      match List.find_opt (fun s -> s.dir_id = dir_id) t.retired with
      | Some s -> s.engine
      | None -> failwith "Shard_store: fence references an unknown shard")

  let fence_pins_dir f dir_id =
    Array.exists (fun (d, _) -> d = dir_id) f.f_slots

  let slot_pinned t dir_id =
    List.exists (fun (_, f) -> fence_pins_dir f dir_id) t.fences
    || (match t.transient_fence with
        | Some f -> fence_pins_dir f dir_id
        | None -> false)

  (* Close and GC retired engines no fence can reach any more.  Deleting
     the files is the space-reclamation half of a merge; a crash mid-
     delete leaves an orphan directory that open-time cleanup removes. *)
  let sweep_retired t =
    let keep, drop =
      List.partition (fun s -> slot_pinned t s.dir_id) t.retired
    in
    t.retired <- keep;
    List.iter
      (fun s ->
        E.close s.engine;
        delete_shard_files t.env ~dir:t.dir ~dir_id:s.dir_id)
      drop

  let release_fence t (f : fence) =
    Array.iter
      (fun (dir_id, seq) -> E.release_snapshot (engine_for_dir t dir_id) seq)
      f.f_slots

  (* Release the pins behind unfenced iterators.  Called by every
     mutating operation: writes invalidate open iterators (the store's
     documented contract), so their fence no longer needs protecting —
     and the write also advances shard sequences, making a cached fence
     stale. *)
  let invalidate_transient t =
    match t.transient_fence with
    | Some f ->
      t.transient_fence <- None;
      release_fence t f;
      sweep_retired t
    | None -> ()

  let close t =
    invalidate_transient t;
    Array.iter (fun s -> E.close s.engine) t.slots;
    List.iter (fun s -> E.close s.engine) t.retired;
    t.retired <- []

  let options t = t.opts
  let env t = t.env
  let shard_of_key t key = Shard_router.shard_of_key t.router key

  (* ---------- load accounting (the elasticity signal) ---------- *)

  (* Reservoir-sample the request key: the controller's split key is the
     median of the hot shard's recent request keys, so the split lands
     where the *load* bisects, not where the bytes do. *)
  let offer_sample t (s : slot) key =
    if s.sample_n < sample_cap then s.sample.(s.sample_n) <- key
    else begin
      let j = Pdb_util.Rng.int t.rng (s.sample_n + 1) in
      if j < sample_cap then s.sample.(j) <- key
    end;
    s.sample_n <- s.sample_n + 1

  let note_op t i key =
    let s = t.slots.(i) in
    s.w_ops <- s.w_ops + 1;
    t.w_total <- t.w_total + 1;
    offer_sample t s key

  let route t key =
    let i = shard_of_key t key in
    note_op t i key;
    t.slots.(i).engine

  (* ---------- migration ---------- *)

  let tracer t = Env.tracer t.env
  let now_ns t =
    Pdb_simio.Clock.elapsed_ns
      (Pdb_simio.Clock.snapshot (Env.clock t.env))

  let trace_instant t name =
    match tracer t with
    | Some tr ->
      Pdb_simio.Trace.instant tr ~name ~cat:"migration" ~lane:"router"
        ~ts_ns:(now_ns t) ()
    | None -> ()

  (* Apply one migration write batch to [engine]: through its scheduler
     when it has one — a [migrate:copy]/[migrate:clean] job with a
     footprint spanning the moved range, so the work lands on the
     engine's worker lanes, counts against its backlog (backpressure
     debt) and shows up as [migrate:*] trace spans — or inline for the
     page stores. *)
  let submit_batches t ~engine ~trigger ~lo ~hi batches =
    match E.scheduler engine with
    | Some sched ->
      List.iteri
        (fun i batch ->
          let bytes = Pdb_kvs.Write_batch.payload_bytes batch in
          ignore
            (Pdb_compaction.Scheduler.submit sched
               {
                 Pdb_compaction.Job.key =
                   Printf.sprintf "%s:%d:%d"
                     (Pdb_compaction.Job.trigger_name trigger)
                     t.topo_version i;
                 trigger;
                 estimated_bytes = bytes;
                 footprint =
                   {
                     Pdb_simio.Sched.level_lo = 0;
                     level_hi = t.opts.O.max_levels;
                     key_lo = (match lo with None -> "" | Some l -> l);
                     key_hi = hi;
                   };
                 run = (fun () -> E.write engine batch);
               }))
        batches;
      Pdb_compaction.Scheduler.drain sched
    | None -> List.iter (fun b -> E.write engine b) batches

  (* Copy [lo, hi) of [src] at pinned sequence [seq] into [dst], in
     batches.  Returns the moved keys (for the clean step) and payload
     bytes moved. *)
  let copy_range t ~src ~seq ~dst ~lo ~hi =
    let it = E.iterator_at src ~snapshot:seq in
    (match lo with
     | None -> it.Iter.seek_to_first ()
     | Some l -> it.Iter.seek l);
    let in_range k =
      match hi with None -> true | Some h -> String.compare k h < 0
    in
    let batches = ref [] in
    let batch = ref (Pdb_kvs.Write_batch.create ()) in
    let keys = ref [] in
    let bytes = ref 0 in
    let flush_batch () =
      if Pdb_kvs.Write_batch.count !batch > 0 then begin
        Pdb_kvs.Write_batch.mark_bulk !batch;
        batches := !batch :: !batches;
        batch := Pdb_kvs.Write_batch.create ()
      end
    in
    while it.Iter.valid () && in_range (it.Iter.key ()) do
      let k = it.Iter.key () and v = it.Iter.value () in
      Pdb_kvs.Write_batch.put !batch k v;
      keys := k :: !keys;
      bytes := !bytes + String.length k + String.length v;
      if Pdb_kvs.Write_batch.count !batch >= migrate_batch_entries then
        flush_batch ();
      it.Iter.next ()
    done;
    flush_batch ();
    Env.io_event t.env "migrate:copy";
    submit_batches t ~engine:dst ~trigger:Pdb_compaction.Job.Migration_copy
      ~lo ~hi (List.rev !batches);
    (List.rev !keys, !bytes)

  (* Retire the moved range from the source after the router install:
     tombstone the moved keys ([migrate:clean] jobs), then flush and
     compact the source so the dead bytes are physically reclaimed —
     which is what makes the resident-bytes balance improve. *)
  let clean_range t ~src ~lo ~hi keys =
    if keys <> [] then begin
      Env.io_event t.env "migrate:clean";
      let batches = ref [] in
      let batch = ref (Pdb_kvs.Write_batch.create ()) in
      let flush_batch () =
        if Pdb_kvs.Write_batch.count !batch > 0 then begin
          Pdb_kvs.Write_batch.mark_bulk !batch;
          batches := !batch :: !batches;
          batch := Pdb_kvs.Write_batch.create ()
        end
      in
      List.iter
        (fun k ->
          Pdb_kvs.Write_batch.delete !batch k;
          if Pdb_kvs.Write_batch.count !batch >= migrate_batch_entries then
            flush_batch ())
        keys;
      flush_batch ();
      submit_batches t ~engine:src
        ~trigger:Pdb_compaction.Job.Migration_clean ~lo ~hi
        (List.rev !batches);
      E.flush src;
      E.compact_all src
    end

  let array_insert arr i x =
    let n = Array.length arr in
    Array.init (n + 1) (fun j ->
        if j < i then arr.(j) else if j = i then x else arr.(j - 1))

  let array_remove arr i =
    let n = Array.length arr in
    Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

  let list_insert l i x =
    List.concat [ List.filteri (fun j _ -> j < i) l; [ x ];
                  List.filteri (fun j _ -> j >= i) l ]

  let list_remove l i = List.filteri (fun j _ -> j <> i) l

  (** [split t ~shard ~key] carves shard [shard] in two at [key] (which
      must lie strictly inside its range): fence, copy [key, hi) into a
      fresh engine, install the new topology durably, then retire the
      moved range from the source.  Returns false (and does nothing)
      when [key] cannot split the shard. *)
  let split t ~shard ~key =
    let n = Array.length t.slots in
    if t.in_migration || shard < 0 || shard >= n then false
    else begin
      let lo, hi = Shard_router.range_of_shard t.router shard in
      let above_lo =
        match lo with None -> key <> "" | Some l -> String.compare l key < 0
      in
      let below_hi =
        match hi with None -> true | Some h -> String.compare key h < 0
      in
      if not (above_lo && below_hi) then false
      else begin
        t.in_migration <- true;
        Fun.protect
          ~finally:(fun () -> t.in_migration <- false)
          (fun () ->
            invalidate_transient t;
            let src = t.slots.(shard) in
            (* the fence: serial execution means no writes are in
               flight, so the captured sequence *is* the drained state
               of the moving range *)
            Env.io_event t.env "migrate:fence";
            trace_instant t "migrate:split";
            let seq = E.snapshot src.engine in
            let dst_id = t.next_dir in
            t.next_dir <- t.next_dir + 1;
            (* a crashed copy that never installed a topology can leave
               files under a reusable dir id; never open a shard over
               leftovers *)
            delete_shard_files t.env ~dir:t.dir ~dir_id:dst_id;
            let dst = new_slot t dst_id in
            let keys, bytes =
              copy_range t ~src:src.engine ~seq ~dst:dst.engine
                ~lo:(Some key) ~hi
            in
            E.release_snapshot src.engine seq;
            (* durable install: old topology until the rename lands,
               new topology after — never a mix *)
            Env.io_event t.env "migrate:install";
            t.router <-
              Shard_router.create
                ~splits:(list_insert (Shard_router.splits t.router) shard key);
            t.slots <- array_insert t.slots (shard + 1) dst;
            t.topo_version <- t.topo_version + 1;
            t.clip <- true;
            install_topology t;
            clean_range t ~src:src.engine ~lo:(Some key) ~hi keys;
            t.splits_done <- t.splits_done + 1;
            t.migrated_bytes <- t.migrated_bytes + bytes;
            true)
      end
    end

  (** [merge t ~at] folds shard [at + 1] (the donor) into shard [at]
      (the survivor): fence, copy the donor's contents into the survivor,
      install the topology without the donor, then retire the donor's
      engine — immediately when nothing pins it, else when the last
      fence releases. *)
  let merge t ~at =
    let n = Array.length t.slots in
    if t.in_migration || at < 0 || at >= n - 1 then false
    else begin
      t.in_migration <- true;
      Fun.protect
        ~finally:(fun () -> t.in_migration <- false)
        (fun () ->
          invalidate_transient t;
          let survivor = t.slots.(at) and donor = t.slots.(at + 1) in
          Env.io_event t.env "migrate:fence";
          trace_instant t "migrate:merge";
          let seq = E.snapshot donor.engine in
          let d_lo, d_hi = Shard_router.range_of_shard t.router (at + 1) in
          (* a crash between a past install and its clean can have left
             the survivor stale bytes inside the donor's range (clipped,
             so invisible — until the survivor legitimately owns the
             range again).  Tombstone them *below* the incoming copies,
             or a key deleted in the donor could resurrect. *)
          (let sseq = E.snapshot survivor.engine in
           let sit = E.iterator_at survivor.engine ~snapshot:sseq in
           (match d_lo with
            | None -> sit.Iter.seek_to_first ()
            | Some l -> sit.Iter.seek l);
           let stale = ref [] in
           let in_range k =
             match d_hi with
             | None -> true
             | Some h -> String.compare k h < 0
           in
           while sit.Iter.valid () && in_range (sit.Iter.key ()) do
             stale := sit.Iter.key () :: !stale;
             sit.Iter.next ()
           done;
           E.release_snapshot survivor.engine sseq;
           if !stale <> [] then begin
             let batch = Pdb_kvs.Write_batch.create () in
             Pdb_kvs.Write_batch.mark_bulk batch;
             List.iter
               (fun k -> Pdb_kvs.Write_batch.delete batch k)
               (List.rev !stale);
             submit_batches t ~engine:survivor.engine
               ~trigger:Pdb_compaction.Job.Migration_clean ~lo:d_lo ~hi:d_hi
               [ batch ]
           end);
          let keys, bytes =
            copy_range t ~src:donor.engine ~seq ~dst:survivor.engine
              ~lo:d_lo ~hi:d_hi
          in
          ignore keys;
          E.release_snapshot donor.engine seq;
          Env.io_event t.env "migrate:install";
          t.router <-
            Shard_router.create
              ~splits:(list_remove (Shard_router.splits t.router) at);
          t.slots <- array_remove t.slots (at + 1);
          t.topo_version <- t.topo_version + 1;
          t.clip <- true;
          install_topology t;
          (* the donor leaves the topology whole: no tombstones — its
             directory is deleted once no fence pins it *)
          if slot_pinned t donor.dir_id then
            t.retired <- donor :: t.retired
          else begin
            E.close donor.engine;
            delete_shard_files t.env ~dir:t.dir ~dir_id:donor.dir_id
          end;
          t.merges_done <- t.merges_done + 1;
          t.migrated_bytes <- t.migrated_bytes + bytes;
          true)
    end

  (* ---------- the elasticity controller ---------- *)

  (* The split key: the median of the hot shard's reservoir sample.
     Taking the median of *request* keys bisects the load; falling back
     to the next distinct sample when the median collides with the
     shard's lower bound keeps the split vector strictly increasing. *)
  let pick_split_key (s : slot) ~lo ~hi =
    let n = min s.sample_n sample_cap in
    if n < 2 then None
    else begin
      let keys = Array.sub s.sample 0 n in
      Array.sort String.compare keys;
      let distinct =
        Array.of_list
          (List.sort_uniq String.compare (Array.to_list keys))
      in
      if Array.length distinct < 2 then None
      else begin
        let candidate = keys.(n / 2) in
        let ok k =
          (match lo with
           | None -> k <> ""
           | Some l -> String.compare l k < 0)
          && match hi with
             | None -> true
             | Some h -> String.compare k h < 0
        in
        if ok candidate then Some candidate
        else
          (* scan the distinct samples above the failed median *)
          Array.fold_left
            (fun acc k ->
              match acc with
              | Some _ -> acc
              | None ->
                if String.compare k candidate > 0 && ok k then Some k
                else None)
            None distinct
      end
    end

  (* One decision per window: split the hottest shard when its share of
     the window exceeds the split ratio (and the shard budget allows),
     else merge the coldest adjacent pair when their combined share
     falls below the merge ratio.  Window counters are op counts — the
     simulated clock never enters a decision, so 1-worker and 4-worker
     runs make identical choices. *)
  let maybe_rebalance t =
    if
      t.opts.O.elastic
      && (not t.in_migration)
      && t.opts.O.elastic_window_ops > 0
      && t.w_total >= t.opts.O.elastic_window_ops
    then begin
      let n = Array.length t.slots in
      let mean = float_of_int t.w_total /. float_of_int n in
      let hot = ref 0 in
      Array.iteri
        (fun i s -> if s.w_ops > t.slots.(!hot).w_ops then hot := i)
        t.slots;
      let hot_share = float_of_int t.slots.(!hot).w_ops /. mean in
      let acted = ref false in
      if
        n < t.opts.O.elastic_max_shards
        && hot_share >= t.opts.O.elastic_split_ratio
      then begin
        let lo, hi = Shard_router.range_of_shard t.router !hot in
        match pick_split_key t.slots.(!hot) ~lo ~hi with
        | Some key -> acted := split t ~shard:!hot ~key
        | None -> ()
      end;
      if (not !acted) && n > 1 then begin
        let cold = ref 0 in
        let pair i = t.slots.(i).w_ops + t.slots.(i + 1).w_ops in
        for i = 1 to n - 2 do
          if pair i < pair !cold then cold := i
        done;
        if
          float_of_int (pair !cold)
          <= t.opts.O.elastic_merge_ratio *. mean
        then ignore (merge t ~at:!cold)
      end;
      (* new window *)
      t.w_total <- 0;
      Array.iter
        (fun s ->
          s.w_ops <- 0;
          s.sample_n <- 0)
        t.slots
    end

  (* ---------- writes ---------- *)

  let put t k v =
    invalidate_transient t;
    E.put (route t k) k v;
    maybe_rebalance t

  let delete t k =
    invalidate_transient t;
    E.delete (route t k) k;
    maybe_rebalance t

  (* Split one batch into per-shard sub-batches, preserving the in-batch
     operation order within each shard.  Cross-shard atomicity matches
     what a shard-per-process deployment gives: each shard's slice
     commits atomically through that shard's WAL. *)
  let split_batch t batch =
    let n = Array.length t.slots in
    let subs = Array.make n None in
    let sub i =
      match subs.(i) with
      | Some b -> b
      | None ->
        let b = Pdb_kvs.Write_batch.create () in
        subs.(i) <- Some b;
        b
    in
    Pdb_kvs.Write_batch.iter batch (fun op ->
        match op with
        | Pdb_kvs.Write_batch.Put (k, v) ->
          let i = shard_of_key t k in
          note_op t i k;
          Pdb_kvs.Write_batch.put (sub i) k v
        | Pdb_kvs.Write_batch.Delete k ->
          let i = shard_of_key t k in
          note_op t i k;
          Pdb_kvs.Write_batch.delete (sub i) k);
    subs

  let write t batch =
    invalidate_transient t;
    let subs = split_batch t batch in
    Array.iteri
      (fun i sub ->
        match sub with
        | None -> ()
        | Some b -> E.write t.slots.(i).engine b)
      subs;
    maybe_rebalance t

  (* Group commit fans out per shard: every member batch contributes its
     shard's slice, and each shard runs one group commit over the slices
     it received — one coalesced WAL append and one sync per *shard*, the
     multi-instance shape of LevelDB's writers queue. *)
  let write_group t batches =
    invalidate_transient t;
    let n = Array.length t.slots in
    let per_shard = Array.make n [] in
    List.iter
      (fun batch ->
        let subs = split_batch t batch in
        Array.iteri
          (fun i sub ->
            match sub with
            | None -> ()
            | Some b -> per_shard.(i) <- b :: per_shard.(i))
          subs)
      batches;
    Array.iteri
      (fun i subs ->
        match List.rev subs with
        | [] -> ()
        | subs -> E.write_group t.slots.(i).engine subs)
      per_shard;
    maybe_rebalance t

  let flush t =
    invalidate_transient t;
    Array.iter (fun s -> E.flush s.engine) t.slots

  let compact_all t =
    invalidate_transient t;
    Array.iter (fun s -> E.compact_all s.engine) t.slots

  (* ---------- reads ---------- *)

  let get t k = E.get (route t k) k

  (* Clip an iterator to a shard's half-open routed range, so bytes a
     migration left outside the range (a crash between install and
     clean, or a not-yet-swept donor) are unobservable. *)
  let clip_iter ~lo ~hi (it : Iter.t) =
    match (lo, hi) with
    | None, None -> it
    | _ ->
      let in_hi () =
        match hi with
        | None -> true
        | Some h -> String.compare (it.Iter.key ()) h < 0
      in
      {
        Iter.seek_to_first =
          (fun () ->
            match lo with
            | None -> it.Iter.seek_to_first ()
            | Some l -> it.Iter.seek l);
        seek =
          (fun k ->
            let k =
              match lo with
              | Some l when String.compare k l < 0 -> l
              | _ -> k
            in
            it.Iter.seek k);
        next = it.Iter.next;
        valid = (fun () -> it.Iter.valid () && in_hi ());
        key = it.Iter.key;
        value = it.Iter.value;
      }

  (* A back-to-back capture of every shard's current sequence — the
     common fence all per-shard iterators read at.  The pins are HELD,
     not released: releasing immediately would let a compaction landing
     while the merged iterator is alive (e.g. a seek-triggered one) drop
     versions the fence should see and GC sstable files the iterator
     still reads.  Engines have no iterator close, so the pins live
     until the next write — which invalidates open iterators anyway.
     Quiescent reads reuse the cached fence: with no intervening write
     the shard sequences are unchanged, so iterator-heavy phases pin one
     fence, not one per scan. *)
  let capture_fence t =
    match t.transient_fence with
    | Some f -> f
    | None ->
      let f =
        {
          f_router = t.router;
          f_slots =
            Array.map (fun s -> (s.dir_id, E.snapshot s.engine)) t.slots;
        }
      in
      t.transient_fence <- Some f;
      f

  let merged_of_fence t (f : fence) =
    (* ranges are disjoint and shard order is key order, but the merge
       keeps no cross-child assumptions — it simply always yields the
       smallest current key *)
    Pdb_kvs.Merging_iter.create ~compare:String.compare
      (Array.to_list
         (Array.mapi
            (fun i (dir_id, seq) ->
              let it =
                E.iterator_at (engine_for_dir t dir_id) ~snapshot:seq
              in
              if t.clip then
                let lo, hi = Shard_router.range_of_shard f.f_router i in
                clip_iter ~lo ~hi it
              else it)
            f.f_slots))

  let iterator t = merged_of_fence t (capture_fence t)

  (* ---------- snapshots (pinned fences) ---------- *)

  let snapshot t =
    let f =
      {
        f_router = t.router;
        f_slots =
          Array.map (fun s -> (s.dir_id, E.snapshot s.engine)) t.slots;
      }
    in
    let id = t.next_fence in
    t.next_fence <- id + 1;
    t.fences <- (id, f) :: t.fences;
    id

  let fence_of t id =
    match List.assoc_opt id t.fences with
    | Some f -> f
    | None -> invalid_arg "Shard_store: unknown snapshot fence"

  let release_snapshot t id =
    let f = fence_of t id in
    release_fence t f;
    t.fences <- List.filter (fun (id', _) -> id' <> id) t.fences;
    sweep_retired t

  let get_at t ~snapshot k =
    let f = fence_of t snapshot in
    let i = Shard_router.shard_of_key f.f_router k in
    let dir_id, seq = f.f_slots.(i) in
    E.get_at (engine_for_dir t dir_id) ~snapshot:seq k

  let iterator_at t ~snapshot = merged_of_fence t (fence_of t snapshot)

  (* ---------- introspection ---------- *)

  (* Live on-disk bytes of one shard: the file sizes under its
     directory.  This — not the cumulative routed payload — is what a
     migration changes, so it is the basis of [shard_balance]. *)
  let resident_bytes t (s : slot) =
    let prefix = shard_dir t.dir s.dir_id ^ "/" in
    let plen = String.length prefix in
    List.fold_left
      (fun acc name ->
        if String.length name > plen && String.sub name 0 plen = prefix then
          acc + Env.file_size t.env name
        else acc)
      0 (Env.list t.env)

  let stats t =
    let agg =
      Stats.aggregate
        ~shared_cache:(t.shared_cache <> None)
        (Array.to_list (Array.map (fun s -> E.stats s.engine) t.slots))
    in
    (* with one shared cache every shard already mirrors the same global
       counters; with private caches per shard the sums stand *)
    (match t.shared_cache with
     | Some cache ->
       agg.Stats.block_cache_hits <- Pdb_sstable.Block_cache.hits cache;
       agg.Stats.block_cache_misses <- Pdb_sstable.Block_cache.misses cache
     | None -> ());
    let resident = Array.map (fun s -> resident_bytes t s) t.slots in
    agg.Stats.shard_resident_bytes <- resident;
    (* the stale-balance fix: cumulative user bytes report the
       historical write distribution — a migration cannot change them —
       so balance is recomputed from what is resident right now *)
    agg.Stats.shard_balance <- Stats.balance_of resident;
    agg.Stats.elastic_splits <- t.splits_done;
    agg.Stats.elastic_merges <- t.merges_done;
    agg.Stats.elastic_migrated_bytes <- t.migrated_bytes;
    agg

  let memory_bytes t =
    let sum =
      Array.fold_left (fun acc s -> acc + E.memory_bytes s.engine) 0 t.slots
    in
    match t.shared_cache with
    | None -> sum
    | Some cache ->
      (* every shard counted the one shared cache; keep one copy *)
      sum
      - ((Array.length t.slots - 1) * Pdb_sstable.Block_cache.used cache)

  let describe t =
    let st = stats t in
    Printf.sprintf "sharded %s — %s, balance=%.2f, topo v%d (%d splits, %d \
                    merges)\n%s"
      t.opts.O.name
      (Shard_router.describe t.router)
      st.Stats.shard_balance t.topo_version t.splits_done t.merges_done
      (String.concat "\n"
         (Array.to_list
            (Array.mapi
               (fun i s ->
                 Printf.sprintf "-- shard %d (dir %d) --\n%s" i s.dir_id
                   (E.describe s.engine))
               t.slots)))

  let check_invariants t =
    Shard_router.check_invariants t.router;
    if Array.length t.slots <> Shard_router.shards t.router then
      failwith "Shard_store: shard count does not match router";
    let ids = Array.to_list (Array.map (fun s -> s.dir_id) t.slots) in
    let sorted = List.sort_uniq compare ids in
    if List.length sorted <> List.length ids then
      failwith "Shard_store: duplicate shard directory ids";
    List.iter
      (fun s ->
        if List.mem s.dir_id ids then
          failwith "Shard_store: retired slot still in the live topology")
      t.retired;
    Array.iter (fun s -> E.check_invariants s.engine) t.slots
end
