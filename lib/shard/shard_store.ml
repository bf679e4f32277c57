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

    A migration is a fenced handoff, and split and merge move their
    range through one path ([move_range]): ready the destination, walk
    the range at the source's current sequence (writes are serial here,
    so capturing the sequence {e is} draining the moving range), copy it
    into the destination as one round of 64-entry bulk [migrate:copy]
    jobs on the destination's compaction scheduler (placed on its worker
    lanes at their exclusive time, so a flush a batch runs is placed
    once), and only then install the new topology — router, slots,
    version and read clipping, made durable by {!Shard_topology.install}
    (atomic rename, all-or-nothing under crashes) — and retire the moved
    data from the source ([migrate:clean] jobs, or the donor whole).
    Writes take one path too: [put], [delete] and [write] are the
    one-batch case of [write_group].  Because stale copies can
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
module Wb = Pdb_kvs.Write_batch
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
      [shared_block_cache] (the shard store's one cache; [None] for a
      replica's backups) replaces the engine's private block cache. *)
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
      jobs run there so they show on the worker timelines and in the
      per-trigger tally, and file-shipping replication observes its
      finished jobs. *)
  val scheduler : t -> Pdb_compaction.Scheduler.t option
end

(* Reservoir capacity for per-shard request-key samples: enough for a
   stable median under the window sizes used, small enough to be free. *)
let sample_cap = 64

(* Entries per migration write batch — one scheduler job each. *)
let migrate_batch_entries = 64

(* [below hi k]: [k] lies under the exclusive upper bound [hi]. *)
let below hi k = match hi with None -> true | Some h -> String.compare k h < 0

(* [strictly_inside ~lo ~hi k]: [k] can split [lo, hi) — above its lower
   bound (the first range's is [""]) and below its upper. *)
let strictly_inside ~lo ~hi k =
  (match lo with None -> k <> "" | Some l -> String.compare l k < 0)
  && below hi k

(* Every file whose name starts with [prefix], in [Env.list] order. *)
let files_under env prefix =
  List.filter (fun name -> String.starts_with ~prefix name) (Env.list env)

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
    shared_cache : Pdb_sstable.Block_cache.t;
        (** one block cache for every shard: memory stays at
            [block_cache_bytes] total *)
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
    counters : Stats.counters;
        (** splits, merges and migrated bytes, and the counters of every
            donor a merge retired and closed *)
    mutable donor_busy : float array;
    mutable donor_flush_busy : float;
        (** lane busy time of every donor a merge closed, per lane and on
            its reserved flush lanes: those workers ran, so the store's
            lane totals keep them *)
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
          ~shared_block_cache:(Some t.shared_cache);
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

  let shard_files env ~dir ~dir_id =
    files_under env (shard_dir dir dir_id ^ "/")

  (* Delete every file under [shards/<id>/] — migration garbage
     collection (retired donors, orphans from a crashed migration). *)
  let delete_shard_files env ~dir ~dir_id =
    List.iter (Env.delete env)
      (List.sort compare (shard_files env ~dir ~dir_id))

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
       let prefix = dir ^ "/shards/" in
       let plen = String.length prefix in
       let orphan = Hashtbl.create 4 in
       List.iter
         (fun name ->
           match String.index_from_opt name plen '/' with
           | Some slash -> (
             match int_of_string_opt (String.sub name plen (slash - plen)) with
             | Some id when not (Array.mem id dirs) ->
               Hashtbl.replace orphan id ()
             | _ -> ())
           | None -> ())
         (files_under env prefix);
       Hashtbl.iter
         (fun id () -> delete_shard_files env ~dir ~dir_id:id)
         orphan
     | None -> ());
    let shared_cache =
      Pdb_sstable.Block_cache.create ~capacity:opts.O.block_cache_bytes
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
        counters = Stats.counters ();
        donor_busy = [||];
        donor_flush_busy = 0.0;
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

  (* Close and delete a donor that left the topology.  What it counted,
     and its lanes' busy time, stay in the store's totals; a pinned donor
     counts on (a fenced read still reaches it) until it gets here. *)
  let drop_donor t s =
    let st = E.stats s.engine in
    Stats.retire ~into:t.counters st.Stats.counters;
    t.donor_busy <- Array.append t.donor_busy st.Stats.worker_busy_ns;
    t.donor_flush_busy <- t.donor_flush_busy +. st.Stats.flush_busy_ns;
    E.close s.engine;
    (* the donor's blocks can never hit again, and would hold the shared
       cache's capacity: evict them before their files go *)
    List.iter
      (fun file -> Pdb_sstable.Block_cache.evict_file t.shared_cache ~file)
      (shard_files t.env ~dir:t.dir ~dir_id:s.dir_id);
    delete_shard_files t.env ~dir:t.dir ~dir_id:s.dir_id

  (* Close and GC retired engines no fence can reach any more.  Deleting
     the files is the space-reclamation half of a merge; a crash mid-
     delete leaves an orphan directory that open-time cleanup removes. *)
  let sweep_retired t =
    let keep, drop =
      List.partition (fun s -> slot_pinned t s.dir_id) t.retired
    in
    t.retired <- keep;
    List.iter (drop_donor t) drop

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

  let trace_instant t name =
    match Env.tracer t.env with
    | Some tr ->
      Pdb_simio.Trace.instant tr ~name ~cat:"migration" ~lane:"router"
        ~ts_ns:(Pdb_simio.Clock.now_ns (Env.clock t.env)) ()
    | None -> ()

  (* Apply [items] to [engine] as bulk write batches of
     [migrate_batch_entries] entries, [add] writing one item into a
     batch: through the engine's scheduler when it has one — one round
     of [migrate:copy]/[migrate:clean] jobs, a job per batch with a
     footprint spanning the moved range, so the work lands on the
     engine's worker lanes and shows up as [migrate:*] trace spans — or
     inline for the page stores. *)
  let submit_batches t ~engine ~trigger ~lo ~hi add items =
    let batches = ref [] in
    List.iteri
      (fun i x ->
        if i mod migrate_batch_entries = 0 then begin
          let b = Wb.create () in
          Wb.mark_bulk b;
          batches := b :: !batches
        end;
        add (List.hd !batches) x)
      items;
    let batches = List.rev !batches in
    match E.scheduler engine with
    | Some sched ->
      Pdb_compaction.Scheduler.run_round sched
        (List.mapi
           (fun i batch ->
             {
               Pdb_compaction.Job.key =
                 Printf.sprintf "%s:%d:%d"
                   (Pdb_compaction.Job.trigger_name trigger)
                   t.topo_version i;
               trigger;
               estimated_bytes = Wb.payload_bytes batch;
               footprint =
                 {
                   (Pdb_simio.Sched.full_range ~level_lo:0
                      ~level_hi:t.opts.O.max_levels)
                   with
                   Pdb_simio.Sched.key_lo =
                     (match lo with None -> "" | Some l -> l);
                   key_hi = hi;
                 };
               run = (fun () -> E.write engine batch);
             })
           batches)
    | None -> List.iter (E.write engine) batches

  (* [f it] at every entry of [engine] in [lo, hi), in key order, read
     at a sequence pinned for the walk. *)
  let walk_range engine ~lo ~hi f =
    let seq = E.snapshot engine in
    let it = E.iterator_at engine ~snapshot:seq in
    (match lo with
     | None -> it.Iter.seek_to_first ()
     | Some l -> it.Iter.seek l);
    let acc = ref [] in
    while it.Iter.valid () && below hi (it.Iter.key ()) do
      acc := f it :: !acc;
      it.Iter.next ()
    done;
    E.release_snapshot engine seq;
    List.rev !acc

  let list_insert l i x =
    List.filteri (fun j _ -> j < i) l
    @ (x :: List.filteri (fun j _ -> j >= i) l)

  let list_remove l i = List.filteri (fun j _ -> j <> i) l

  (* The one path a key range moves by, for both split and merge.
     [into ()] readies the destination engine and names the split
     vector and slots that follow; copy [lo, hi) of [src] at its current
     sequence — the fence: writes are serial here, so the captured
     sequence {e is} the drained state of the moving range — into it as
     one round of [migrate:copy] jobs; install the new topology durably
     (the old one until the rename lands, the new one after — never a
     mix); then [retire keys] clears what the source no longer owns.
     Returns false, doing nothing, while another move is running. *)
  let move_range t ~name ~counter ~src ~lo ~hi ~into ~retire =
    (not t.in_migration)
    && begin
      t.in_migration <- true;
      Fun.protect
        ~finally:(fun () -> t.in_migration <- false)
        (fun () ->
          invalidate_transient t;
          Env.io_event t.env "migrate:fence";
          trace_instant t name;
          let dst, splits, slots = into () in
          let entries =
            walk_range src ~lo ~hi (fun it ->
                (it.Iter.key (), it.Iter.value ()))
          in
          Env.io_event t.env "migrate:copy";
          submit_batches t ~engine:dst
            ~trigger:Pdb_compaction.Job.Migration_copy ~lo ~hi
            (fun b (k, v) -> Wb.put b k v)
            entries;
          Env.io_event t.env "migrate:install";
          t.router <- Shard_router.create ~splits;
          t.slots <- slots;
          t.topo_version <- t.topo_version + 1;
          t.clip <- true;
          install_topology t;
          retire (List.map fst entries);
          Stats.incr t.counters counter;
          Stats.add t.counters Stats.elastic_migrated_bytes
            (List.fold_left
               (fun acc (k, v) -> acc + String.length k + String.length v)
               0 entries);
          true)
    end

  (** [split t ~shard ~key] carves shard [shard] in two at [key] (which
      must lie strictly inside its range): move [key, hi) into a fresh
      engine, then retire the moved range from the source — tombstone
      the moved keys ([migrate:clean] jobs), then flush and compact the
      source so the dead bytes are physically reclaimed, which is what
      makes the resident-bytes balance improve.  Returns false (and does
      nothing) when [key] cannot split the shard. *)
  let split t ~shard ~key =
    shard >= 0
    && shard < Array.length t.slots
    &&
    let lo, hi = Shard_router.range_of_shard t.router shard in
    let src = t.slots.(shard).engine in
    strictly_inside ~lo ~hi key
    && move_range t ~name:"migrate:split" ~counter:Stats.elastic_splits ~src
         ~lo:(Some key) ~hi
         ~into:(fun () ->
           let dst_id = t.next_dir in
           t.next_dir <- t.next_dir + 1;
           (* a crashed copy that never installed a topology can leave
              files under a reusable dir id; never open a shard over
              leftovers *)
           delete_shard_files t.env ~dir:t.dir ~dir_id:dst_id;
           let dst = new_slot t dst_id in
           ( dst.engine,
             list_insert (Shard_router.splits t.router) shard key,
             Array.of_list
               (list_insert (Array.to_list t.slots) (shard + 1) dst) ))
         ~retire:(fun keys ->
           if keys <> [] then begin
             Env.io_event t.env "migrate:clean";
             submit_batches t ~engine:src
               ~trigger:Pdb_compaction.Job.Migration_clean ~lo:(Some key)
               ~hi Wb.delete keys;
             E.flush src;
             E.compact_all src
           end)

  (** [merge t ~at] folds shard [at + 1] (the donor) into shard [at]
      (the survivor): move the donor's range into the survivor, then
      retire the donor's engine — whole, with no tombstones: immediately
      when nothing pins it, else when the last fence releases. *)
  let merge t ~at =
    at >= 0
    && at < Array.length t.slots - 1
    &&
    let survivor = t.slots.(at).engine and donor = t.slots.(at + 1) in
    let lo, hi = Shard_router.range_of_shard t.router (at + 1) in
    move_range t ~name:"migrate:merge" ~counter:Stats.elastic_merges
      ~src:donor.engine ~lo ~hi
      ~into:(fun () ->
        (* a crash between a past install and its clean can have left
           the survivor stale bytes inside the donor's range (clipped,
           so invisible — until the survivor legitimately owns the range
           again).  Tombstone them *below* the incoming copies, or a key
           deleted in the donor could resurrect. *)
        submit_batches t ~engine:survivor
          ~trigger:Pdb_compaction.Job.Migration_clean ~lo ~hi Wb.delete
          (walk_range survivor ~lo ~hi (fun it -> it.Iter.key ()));
        ( survivor,
          list_remove (Shard_router.splits t.router) at,
          Array.of_list (list_remove (Array.to_list t.slots) (at + 1)) ))
      ~retire:(fun _ ->
        if slot_pinned t donor.dir_id then t.retired <- donor :: t.retired
        else drop_donor t donor)

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
        let ok = strictly_inside ~lo ~hi in
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

  (* The one write path.  Each batch splits into per-shard sub-batches,
     preserving the in-batch operation order within each shard;
     cross-shard atomicity matches what a shard-per-process deployment
     gives: each shard's slice commits atomically through that shard's
     WAL.  Group commit fans out per shard: each shard runs one group
     commit over the slices it received — one coalesced WAL append and
     one sync per *shard*, the multi-instance shape of LevelDB's writers
     queue.  [put], [delete] and [write] are its one-batch case, as in
     every engine. *)
  let write_group t batches =
    invalidate_transient t;
    let n = Array.length t.slots in
    let per_shard = Array.make n [] in
    List.iter
      (fun batch ->
        let subs = Array.make n None in
        Wb.iter batch (fun op ->
            let k = match op with Wb.Put (k, _) | Wb.Delete k -> k in
            let i = shard_of_key t k in
            note_op t i k;
            let sub =
              match subs.(i) with
              | Some b -> b
              | None ->
                let b = Wb.create () in
                subs.(i) <- Some b;
                per_shard.(i) <- b :: per_shard.(i);
                b
            in
            match op with
            | Wb.Put (k, v) -> Wb.put sub k v
            | Wb.Delete k -> Wb.delete sub k))
      batches;
    Array.iteri
      (fun i subs ->
        match List.rev subs with
        | [] -> ()
        | subs -> E.write_group t.slots.(i).engine subs)
      per_shard;
    maybe_rebalance t

  let write t batch = write_group t [ batch ]

  let put t k v =
    let b = Wb.create () in
    Wb.put b k v;
    write t b

  let delete t k =
    let b = Wb.create () in
    Wb.delete b k;
    write t b

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
        valid = (fun () -> it.Iter.valid () && below hi (it.Iter.key ()));
        key = it.Iter.key;
        value = it.Iter.value;
        value_slice = it.Iter.value_slice;
      }

  (* A back-to-back capture of every shard's current sequence under the
     current router: the fence of both [snapshot] and [capture_fence]. *)
  let fence_now t =
    {
      f_router = t.router;
      f_slots = Array.map (fun s -> (s.dir_id, E.snapshot s.engine)) t.slots;
    }

  (* The common fence all unfenced per-shard iterators read at.  The
     pins are HELD, not released: releasing immediately would let a
     compaction landing while the merged iterator is alive (e.g. a
     seek-triggered one) drop versions the fence should see and GC
     sstable files the iterator still reads.  Engines have no iterator
     close, so the pins live until the next write — which invalidates
     open iterators anyway.  Quiescent reads reuse the cached fence:
     with no intervening write the shard sequences are unchanged, so
     iterator-heavy phases pin one fence, not one per scan. *)
  let capture_fence t =
    match t.transient_fence with
    | Some f -> f
    | None ->
      let f = fence_now t in
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
    let f = fence_now t in
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
    List.fold_left
      (fun acc name -> acc + Env.file_size t.env name)
      0
      (shard_files t.env ~dir:t.dir ~dir_id:s.dir_id)

  let stats t =
    let cache = t.shared_cache in
    (* donors a fence still pins fold in as if retired now *)
    let pinned = List.map (fun s -> E.stats s.engine) t.retired in
    let own = Stats.counters () in
    List.iter (fun c -> Stats.retire ~into:own c)
      (t.counters :: List.map (fun v -> v.Stats.counters) pinned);
    Stats.aggregate own
      ~donors:
        ( Array.concat
            (t.donor_busy :: List.map (fun v -> v.Stats.worker_busy_ns) pinned),
          List.fold_left
            (fun acc v -> acc +. v.Stats.flush_busy_ns)
            t.donor_flush_busy pinned )
      ~cache:(Pdb_sstable.Block_cache.hits cache,
              Pdb_sstable.Block_cache.misses cache)
      ~resident:(Array.map (fun s -> resident_bytes t s) t.slots)
      (Array.to_list (Array.map (fun s -> E.stats s.engine) t.slots))

  let memory_bytes t =
    let sum =
      Array.fold_left (fun acc s -> acc + E.memory_bytes s.engine) 0 t.slots
    in
    (* every shard counted the one shared cache; keep one copy *)
    sum
    - ((Array.length t.slots - 1) * Pdb_sstable.Block_cache.used t.shared_cache)

  let describe t =
    let st = stats t in
    Printf.sprintf "sharded %s — %s, balance=%.2f, topo v%d (%d splits, %d \
                    merges)\n%s"
      t.opts.O.name
      (Shard_router.describe t.router)
      st.Stats.shard_balance t.topo_version st.Stats.elastic_splits
      st.Stats.elastic_merges
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
