(** PebblesDB: a key-value store built over Fragmented Log-Structured Merge
    trees (chapters 3 and 4 of the paper).

    The engine keeps the LevelDB-family shape — memtable + WAL in front of
    a hierarchy of sstable levels recovered through a MANIFEST — but
    replaces the per-level disjointness invariant with guards:

    - level 0 collects fresh memtable flushes (no guards);
    - every deeper level is partitioned by guards ({!Guard}); sstables
      inside a guard may overlap, so compaction *appends* partitioned
      fragments to the next level's guards instead of rewriting the next
      level (§3.4 — the mechanism that removes write amplification);
    - the last level merges within guards, and the second-to-last level
      rewrites in place when merging into a full last-level guard would
      cost more than [last_level_merge_io_factor] times the fragment
      (§3.4's 25x heuristic);
    - reads consult one guard per level, filtered by per-sstable bloom
      filters (§4.1); seeks merge the guard's tables, with parallel seeks
      on the last level and seek-triggered compaction (§4.2). *)

module S = Pdb_engine.Shell
open S.Types
module Ik = Pdb_kvs.Internal_key
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Device = Pdb_simio.Device
module Table = Pdb_sstable.Table
module Manifest = Pdb_manifest.Manifest
module Stats = Pdb_kvs.Engine_stats
module Job = Pdb_compaction.Job
module Scheduler = Pdb_compaction.Scheduler
module Policy = Pdb_compaction.Policy
module Sched = Pdb_simio.Sched

type levels = {
  mutable l0 : Table.meta list; (* newest first *)
  levels : Guard.level array; (* slots 1 .. max_levels-1 *)
  committed : (string, unit) Hashtbl.t array; (* guard keys per level *)
  uncommitted : (string, unit) Hashtbl.t array;
}

type t = levels S.t

let level_bytes (t : t) level = Guard.bytes t.lv.levels.(level)

(* ---------- guard selection (§3.2) ---------- *)

(* Record [key] as an uncommitted guard for every level where it qualifies
   but is not yet committed.  Deterministic (hash-based), so re-inserting
   the same key is idempotent. *)
let note_guard_candidate (t : t) key =
  match Guard_selector.guard_level t.opts key with
  | None -> ()
  | Some l ->
    for level = l to S.last_level t do
      if
        (not (Hashtbl.mem t.lv.committed.(level) key))
        && not (Hashtbl.mem t.lv.uncommitted.(level) key)
      then Hashtbl.replace t.lv.uncommitted.(level) key ()
    done

(* ---------- compaction (§3.4) ---------- *)

(* Sorted boundary keys of [level]: committed guards plus pending
   (uncommitted) ones.  Compaction output is always cut at these
   boundaries, so a pending guard never faces a straddling sstable for
   long: the next merge through its range dissolves the straddler, after
   which the guard commits for free. *)
let partition_boundaries t level =
  let lvl = t.lv.levels.(level) in
  let committed =
    Array.to_list lvl.Guard.guards
    |> List.filter_map (fun (g : Guard.guard) ->
           if g.Guard.gkey = "" then None else Some g.Guard.gkey)
  in
  let pending = Hashtbl.fold (fun k () acc -> k :: acc) t.lv.uncommitted.(level) [] in
  Array.of_list (List.sort_uniq String.compare (committed @ pending))

(* index of the boundary interval containing [key]: number of boundaries
   <= key (0 = before the first boundary, i.e. the sentinel range) *)
let boundary_index boundaries key =
  let lo = ref 0 and hi = ref (Array.length boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare boundaries.(mid) key <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Commit the uncommitted guards of [level] that no resident sstable
   straddles (the others stay pending and retry at the next compaction —
   guard insertion is asynchronous, §3.3).  Returns the committed keys. *)
let prepare_guard_commit t level =
  let pending =
    Hashtbl.fold (fun k () acc -> k :: acc) t.lv.uncommitted.(level) []
    |> List.sort String.compare
  in
  if pending = [] then []
  else begin
    let lvl = t.lv.levels.(level) in
    let tables = Guard.all_tables lvl in
    let committable =
      List.filter
        (fun k -> not (List.exists (fun m -> Guard.straddles k m) tables))
        pending
    in
    if committable <> [] then begin
      Guard.commit_guards lvl committable;
      List.iter
        (fun k ->
          Hashtbl.replace t.lv.committed.(level) k ();
          Hashtbl.remove t.lv.uncommitted.(level) k)
        committable;
      t.stats.Stats.guards_committed <-
        t.stats.Stats.guards_committed + List.length committable
    end;
    committable
  end

(* Commit whatever pending guards of [level] are now straddle-free and
   persist them. *)
let commit_pending_with_edit t level =
  if Hashtbl.length t.lv.uncommitted.(level) > 0 then begin
    let new_keys = prepare_guard_commit t level in
    if new_keys <> [] then begin
      let e = Manifest.empty_edit () in
      e.Manifest.added_guards <- List.map (fun k -> (level, k)) new_keys;
      Manifest.append t.manifest e
    end
  end

(* Merge [inputs] and partition the result along the guards of
   [target_level], appending fragments to their guards.

   The 25x heuristic (§3.4): when compacting the second-highest level into
   the last, a fragment aimed at a *full* last-level guard whose resident
   data dwarfs the fragment is instead rewritten within the source level —
   "FLSM will rewrite an sstable into the same level if the alternative is
   to merge into a large sstable in the highest level".  Redirected output
   is cut at *source*-level guard granularity with the large (last-level)
   size cutoff, so the rewrite coalesces the guard instead of fragmenting
   it further.  Returns the (attach_level, meta) list for the manifest
   edit. *)
let run_partition_merge t ~inputs ~source_level ~target_level =
  let target = t.lv.levels.(target_level) in
  let bottom = target_level = S.last_level t in
  let big_cutoff = 16 * t.opts.O.sstable_target_bytes in
  (* per-target-guard redirect decision, fixed for the whole compaction *)
  let redirect =
    if bottom && source_level = target_level - 1 && source_level >= 1 then
      Array.map
        (fun (g : Guard.guard) ->
          List.length g.Guard.tables >= t.opts.O.max_sstables_per_guard
          && float_of_int (S.bytes_of g.Guard.tables)
             >= t.opts.O.last_level_merge_io_factor
                *. float_of_int t.opts.O.sstable_target_bytes)
        target.Guard.guards
    else [||]
  in
  (* output is cut at committed AND pending boundaries, so pending guards
     become committable at their next opportunity *)
  let target_bounds = partition_boundaries t target_level in
  let source_bounds =
    if source_level >= 1 then partition_boundaries t source_level else [||]
  in
  S.merge_tables t inputs
    ~tombstone_ok:(fun uk ->
      (* A tombstone may die here only if the target guard holds no older
         sstables — unlike an LSM bottom-level compaction, a partition
         *append* leaves the guard's resident tables unmerged, so dropping
         the tombstone would resurrect older versions. *)
      bottom
      && target.Guard.guards.(Guard.guard_index target uk).Guard.tables = [])
    ~partition:(fun uk ->
      let tgi = Guard.guard_index target uk in
      if Array.length redirect > tgi && redirect.(tgi) then
        (* rewrite within the source level at source granularity *)
        (source_level, boundary_index source_bounds uk)
      else (target_level, boundary_index target_bounds uk))
    ~cutoff:(fun (attach_level, _) ->
      (* a fragment is everything that falls into the guard — FLSM does
         not re-cut fragments to a target size (PebblesDB's sstables grow
         much larger than LevelDB's, Table 5.1) *)
      if attach_level = target_level then max_int else big_cutoff)
  |> List.map (fun ((attach_level, _), meta) -> (attach_level, meta))

(* Compact [source_level] into [source_level + 1].  [only_guards] restricts
   the source guards (seek-triggered compaction); default picks guards over
   the sstable trigger, falling back to all non-empty guards. *)
let compact_level t ?only_guards source_level =
  let target_level = source_level + 1 in
  assert (target_level <= S.last_level t);
  (* 1. source tables *)
  let source_tables =
    if source_level = 0 then t.lv.l0
    else begin
      let lvl = t.lv.levels.(source_level) in
      let chosen =
        match only_guards with
        | Some gs -> gs
        | None ->
          let over =
            Array.to_list lvl.Guard.guards
            |> List.filter (fun g ->
                   List.length g.Guard.tables >= t.opts.O.guard_sstable_trigger)
          in
          if over <> [] then over
          else
            Array.to_list lvl.Guard.guards
            |> List.filter (fun g -> g.Guard.tables <> [])
      in
      List.concat_map (fun g -> g.Guard.tables) chosen
    end
  in
  if source_tables <> [] then begin
    (* 2. commit the straddle-free pending guards of the target level
       (guard insertion is asynchronous, §3.3; straddled guards stay
       pending until a merge through their range dissolves the straddler,
       which the boundary-aware output cutting guarantees) *)
    let new_keys = prepare_guard_commit t target_level in
    let inputs = source_tables in
    (* 3. detach inputs *)
    if source_level = 0 then
      t.lv.l0 <-
        List.filter
          (fun (m : Table.meta) ->
            not
              (List.exists
                 (fun (i : Table.meta) -> i.Table.number = m.Table.number)
                 source_tables))
          t.lv.l0
    else
      Guard.detach t.lv.levels.(source_level)
        (List.map (fun (m : Table.meta) -> m.Table.number) source_tables);
    (* 4. merge + partition + attach *)
    let outputs = run_partition_merge t ~inputs ~source_level ~target_level in
    List.iter
      (fun (attach_level, (meta : Table.meta)) ->
        if attach_level = 0 then t.lv.l0 <- meta :: t.lv.l0
        else Guard.attach t.lv.levels.(attach_level) meta)
      outputs;
    (* 5. persist *)
    let e = Manifest.empty_edit () in
    e.Manifest.next_file_number <- Some t.next_file;
    e.Manifest.added_guards <-
      List.map (fun k -> (target_level, k)) new_keys;
    e.Manifest.deleted_files <-
      List.map
        (fun (m : Table.meta) -> (source_level, m.Table.number))
        source_tables;
    e.Manifest.added_files <- outputs;
    Manifest.append t.manifest e;
    S.retire t inputs;
    S.note_compaction t ~inputs ~outputs:(List.map snd outputs)
  end

(* Merge sstables within one last-level guard — the only place FLSM
   rewrites data at the bottom of the tree (§3.4).  To keep the rewrite
   amortized (tiering), the merge normally coalesces only the newest run of
   *small* fragments, leaving established large runs untouched; merging a
   newest-prefix is recency-safe but must keep tombstones (older versions
   may survive in the unmerged tail).  Only when the guard has degenerated
   into few large runs does it fall back to a full rewrite, which is also
   when tombstones can finally be dropped. *)
let compact_last_level_guard ?(force_full = false) t (g : Guard.guard) =
  if List.length g.Guard.tables >= 2 then begin
    let all = g.Guard.tables in
    let small_threshold =
      max (2 * t.opts.O.sstable_target_bytes) (S.bytes_of all / 4)
    in
    let rec newest_small_prefix = function
      | (m : Table.meta) :: rest when m.Table.file_size < small_threshold ->
        m :: newest_small_prefix rest
      | _ -> []
    in
    let prefix = newest_small_prefix all in
    let inputs, drop_tombstones =
      if
        (not force_full)
        && List.length prefix >= 2
        && List.length prefix < List.length all
      then (prefix, false)
      else (all, true)
    in
    let level_idx = S.last_level t in
    let lvl = t.lv.levels.(level_idx) in
    (* detach only the inputs; any remaining (older, larger) runs stay *)
    let input_numbers =
      List.map (fun (m : Table.meta) -> m.Table.number) inputs
    in
    Guard.detach lvl input_numbers;
    (* guard-merged tables grow large — the source of PebblesDB's bigger
       sstables (Table 5.1).  The cutoff also guarantees the merged run
       lands below the per-guard cap, so the merge cannot re-trigger
       itself. *)
    let cutoff =
      max
        (16 * t.opts.O.sstable_target_bytes)
        ((S.bytes_of inputs / max 1 (t.opts.O.max_sstables_per_guard - 1)) + 1)
    in
    (* cut at pending-guard boundaries too *)
    let bounds = partition_boundaries t level_idx in
    let outputs =
      S.merge_tables t inputs
        ~tombstone_ok:(fun _ -> drop_tombstones)
        ~partition:(boundary_index bounds)
        ~cutoff:(fun _ -> cutoff)
      |> List.map snd
    in
    List.iter (fun (meta : Table.meta) -> Guard.attach lvl meta) outputs;
    let e = Manifest.empty_edit () in
    e.Manifest.next_file_number <- Some t.next_file;
    e.Manifest.deleted_files <-
      List.map (fun (m : Table.meta) -> (level_idx, m.Table.number)) inputs;
    e.Manifest.added_files <- List.map (fun m -> (level_idx, m)) outputs;
    Manifest.append t.manifest e;
    S.retire t inputs;
    S.note_compaction t ~inputs ~outputs
  end

(* Guard-scoped footprint: jobs over disjoint guards get disjoint key
   ranges, which is what lets the scheduler overlap them on separate
   worker timelines (§4.3). *)
let guard_footprint t level gkey ~level_hi =
  let lvl = t.lv.levels.(level) in
  let key_lo, key_hi = Guard.guard_range lvl (Guard.guard_index lvl gkey) in
  { Sched.level_lo = level; level_hi; key_lo; key_hi }

let guard_bytes (g : Guard.guard) = S.bytes_of g.Guard.tables

(* Jobs capture guard *keys*, not guard records: a preceding job in the
   queue may have spliced the guard array (commit_guards recreates
   records), so the closure re-resolves at execution time. *)
let find_guard t level gkey =
  Array.to_list t.lv.levels.(level).Guard.guards
  |> List.find_opt (fun (g : Guard.guard) -> g.Guard.gkey = gkey)

(* ---------- policy consultation ---------- *)

(* The FLSM triggers phrased as policy scores: L0 back-pressure and level
   size are the shared [level_state] scores, guard caps are
   [guard_score].  One [Policy.should_trigger] threshold replaces the
   inline comparisons. *)
let l0_due t =
  Policy.should_trigger
    (t.policy.Policy.score
       {
         Policy.level = 0;
         last_level = S.last_level t;
         files = List.length t.lv.l0;
         bytes = S.bytes_of t.lv.l0;
         max_bytes = O.level_max_bytes t.opts 1;
         file_trigger = t.opts.O.l0_compaction_trigger;
       })

let level_due t level =
  Policy.should_trigger
    (t.policy.Policy.score
       {
         Policy.level;
         last_level = S.last_level t;
         files = Guard.table_count t.lv.levels.(level);
         bytes = level_bytes t level;
         max_bytes = O.level_max_bytes t.opts level;
         file_trigger = t.opts.O.l0_compaction_trigger;
       })

let guard_due ?cap t (g : Guard.guard) =
  let cap =
    match cap with Some c -> c | None -> t.opts.O.max_sstables_per_guard
  in
  Policy.should_trigger
    (t.policy.Policy.guard_score
       { Policy.g_tables = List.length g.Guard.tables; g_cap = cap })

let maybe_compact t =
  (* Commit pending guards of still-empty levels up front: with no resident
     sstables there is nothing to split, so the commit is pure metadata.
     This is the cheap common case — guards are selected long before data
     reaches deep levels. *)
  let eager = ref [] in
  for level = 1 to S.last_level t do
    if
      Guard.table_count t.lv.levels.(level) = 0
      && Hashtbl.length t.lv.uncommitted.(level) > 0
    then begin
      let new_keys = prepare_guard_commit t level in
      eager := List.map (fun k -> (level, k)) new_keys @ !eager
    end
  done;
  if !eager <> [] then begin
    let e = Manifest.empty_edit () in
    e.Manifest.added_guards <- !eager;
    Manifest.append t.manifest e
  end;
  (* Round-based picking: reify every trigger firing on the current state
     as a job, enqueue the batch, drain it, re-examine.  A job
     re-validates its trigger when it runs (an earlier job in the batch
     may have restructured the tree), and a job that runs without
     shrinking its measure is blocked for the rest of this invocation —
     the same no-progress guards the old inline loop used. *)
  let blocked = Hashtbl.create 8 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let submitted = ref false in
    (* [enqueue key trigger ~estimated_bytes ~footprint ~measure run]:
       progress = [measure] strictly decreased across the job's run *)
    let enqueue key trigger ~estimated_bytes ~footprint ~measure run =
      if not (Hashtbl.mem blocked key) then begin
        let job =
          {
            Job.key;
            trigger;
            estimated_bytes;
            footprint;
            run =
              (fun () ->
                let before = measure () in
                run ();
                if measure () >= before then Hashtbl.replace blocked key ());
          }
        in
        if Scheduler.submit t.sched job then submitted := true
      end
    in
    (* L0 back-pressure *)
    if l0_due t then
      enqueue "l0" Job.L0_files
        ~estimated_bytes:(S.bytes_of t.lv.l0)
        ~footprint:(Sched.full_range ~level_lo:0 ~level_hi:1)
        ~measure:(fun () -> List.length t.lv.l0)
        (fun () -> if l0_due t then compact_level t 0);
    (* level size triggers — measured in bytes: 25x-redirected rewrites
       can leave the size unchanged, which must count as no progress *)
    for level = 1 to S.last_level t - 1 do
      if level_due t level then
        enqueue
          (Printf.sprintf "size:%d" level)
          Job.Level_size
          ~estimated_bytes:(level_bytes t level)
          ~footprint:(Sched.full_range ~level_lo:level ~level_hi:(level + 1))
          ~measure:(fun () -> level_bytes t level)
          (fun () -> if level_due t level then compact_level t level)
    done;
    (* per-guard caps: one job per full guard — FLSM's unit of compaction
       concurrency *)
    for level = 1 to S.last_level t - 1 do
      Array.iter
        (fun (g : Guard.guard) ->
          if guard_due t g then begin
            let gkey = g.Guard.gkey in
            let tables_of () =
              match find_guard t level gkey with
              | Some g -> List.length g.Guard.tables
              | None -> 0
            in
            enqueue
              (Printf.sprintf "cap:%d:%s" level gkey)
              Job.Guard_cap ~estimated_bytes:(guard_bytes g)
              ~footprint:(guard_footprint t level gkey ~level_hi:(level + 1))
              ~measure:tables_of
              (fun () ->
                match find_guard t level gkey with
                | Some g when guard_due t g ->
                  compact_level t ~only_guards:[ g ] level
                | Some _ | None -> ())
          end)
        t.lv.levels.(level).Guard.guards
    done;
    (* last-level guard merges; committing pending guards first refines
       the structure (boundary-cut fragments redistribute into their own
       guards) and often removes the need to merge at all *)
    commit_pending_with_edit t (S.last_level t);
    let ll = S.last_level t in
    let last_cap = max 2 t.opts.O.max_sstables_per_guard in
    Array.iter
      (fun (g : Guard.guard) ->
        if guard_due ~cap:last_cap t g then begin
          let gkey = g.Guard.gkey in
          let tables_of () =
            match find_guard t ll gkey with
            | Some g -> List.length g.Guard.tables
            | None -> 0
          in
          enqueue
            (Printf.sprintf "last:%s" gkey)
            Job.Guard_merge ~estimated_bytes:(guard_bytes g)
            ~footprint:(guard_footprint t ll gkey ~level_hi:ll)
            ~measure:tables_of
            (fun () ->
              match find_guard t ll gkey with
              | Some g when guard_due ~cap:last_cap t g ->
                let before = List.length g.Guard.tables in
                compact_last_level_guard t g;
                if tables_of () >= before then
                  (* the tiered merge could not shrink the guard (an old
                     run straddles a pending boundary): rewrite the whole
                     guard, which dissolves every straddler *)
                  (match find_guard t ll gkey with
                   | Some g -> compact_last_level_guard ~force_full:true t g
                   | None -> ())
              | Some _ | None -> ())
        end)
      t.lv.levels.(ll).Guard.guards;
    if !submitted then begin
      Scheduler.drain t.sched;
      continue_ := true
    end
  done

let run_seek_compaction t =
  (* most fragmented guard across levels 1 .. last-1 *)
  let best = ref None in
  for level = 1 to S.last_level t - 1 do
    Array.iter
      (fun g ->
        let n = List.length g.Guard.tables in
        if n >= 2 then
          match !best with
          | Some (_, _, bn) when bn >= n -> ()
          | _ -> best := Some (level, g, n))
      t.lv.levels.(level).Guard.guards
  done;
  (match !best with
   | Some (level, g, _) -> compact_level t ~only_guards:[ g ] level
   | None -> ());
  (* fragmented last-level guards merge in place *)
  commit_pending_with_edit t (S.last_level t);
  let lvl = t.lv.levels.(S.last_level t) in
  let worst = ref None in
  Array.iter
    (fun g ->
      let n = List.length g.Guard.tables in
      if n >= 2 then
        match !worst with
        | Some (_, bn) when bn >= n -> ()
        | _ -> worst := Some (g, n))
    lvl.Guard.guards;
  (match !worst with
   | Some (g, _) -> compact_last_level_guard t g
   | None -> ());
  (* aggressive level rule: level i within 25% of level i+1 *)
  let continue = ref true in
  for level = 1 to S.last_level t - 1 do
    if !continue then begin
      let here = level_bytes t level and below = level_bytes t (level + 1) in
      if
        here > 0 && below > 0
        && float_of_int here >= t.opts.O.aggressive_level_ratio *. float_of_int below
      then begin
        compact_level t level;
        continue := false
      end
    end
  done

(* Seek-triggered maintenance (§4.2): compact the most fragmented guard and
   apply the aggressive level rule.  A rare whole-tree event, reified as a
   single job and drained synchronously. *)
let seek_job t =
  Some
    {
      Job.key = "seek";
      trigger = Job.Seek;
      estimated_bytes = 0;
      footprint = Sched.full_range ~level_lo:1 ~level_hi:(S.last_level t);
      run = (fun () -> run_seek_compaction t);
    }

(* ---------- the level structure the shell drives ---------- *)

(* FLSM flush sizes the bloom filter like a compaction output's and
   charges each entry's merge CPU before adding it. *)
let build_l0 t mem =
  let b = S.new_builder t ~sized_for:t.opts.O.sstable_target_bytes in
  List.iter
    (fun (ikey, value) ->
      Clock.advance t.clock t.opts.O.cpu_per_merge_entry_ns;
      Table.Builder.add b ikey value)
    (Pdb_kvs.Memtable.contents mem);
  Table.Builder.finish b

let apply_edit lv (e : Manifest.edit) =
  (* order matters: deletions, guard removals, guard additions, file adds *)
  List.iter
    (fun (level, number) ->
      if level = 0 then
        lv.l0 <-
          List.filter (fun (m : Table.meta) -> m.Table.number <> number) lv.l0
      else Guard.detach lv.levels.(level) [ number ])
    e.Manifest.deleted_files;
  List.iter
    (fun (level, key) ->
      Guard.delete_guard lv.levels.(level) key;
      Hashtbl.remove lv.committed.(level) key)
    e.Manifest.deleted_guards;
  List.iter
    (fun (level, key) ->
      Guard.commit_guards lv.levels.(level) [ key ];
      Hashtbl.replace lv.committed.(level) key ())
    e.Manifest.added_guards;
  List.iter
    (fun (level, meta) ->
      if level = 0 then lv.l0 <- meta :: lv.l0
      else Guard.attach lv.levels.(level) meta)
    e.Manifest.added_files

let recovered _opts lv =
  (* L0 newest-first (descending file number) *)
  lv.l0 <-
    List.sort
      (fun (a : Table.meta) (b : Table.meta) ->
        Int.compare b.Table.number a.Table.number)
      lv.l0;
  (* Re-derive pending guard selections: a guard committed at level i is by
     construction selected at every deeper level; deeper levels that have
     not committed it yet must carry it as uncommitted again. *)
  let last = Array.length lv.levels - 1 in
  for level = 1 to last - 1 do
    Hashtbl.iter
      (fun k () ->
        for deeper = level + 1 to last do
          if not (Hashtbl.mem lv.committed.(deeper) k) then
            Hashtbl.replace lv.uncommitted.(deeper) k ()
        done)
      lv.committed.(level)
  done

(* The snapshot names every committed guard, then every table — L0 and
   each guard oldest-first, so recovery prepends back to newest-first. *)
let snapshot_levels lv (e : Manifest.edit) =
  let deeper = List.init (Array.length lv.levels - 1) (fun i -> i + 1) in
  e.Manifest.added_guards <-
    List.concat_map
      (fun level ->
        Array.to_list lv.levels.(level).Guard.guards
        |> List.filter_map (fun g ->
               if g.Guard.gkey = "" then None else Some (level, g.Guard.gkey)))
      deeper;
  e.Manifest.added_files <-
    List.map (fun m -> (0, m)) (List.rev lv.l0)
    @ List.concat_map
        (fun level ->
          Array.to_list lv.levels.(level).Guard.guards
          |> List.concat_map (fun g ->
                 List.rev_map (fun m -> (level, m)) g.Guard.tables))
        deeper

(* one guard per deeper level (§3.4 Get); its tables newest first *)
let candidates t level key =
  let lvl = t.lv.levels.(level) in
  S.charge_cpu t t.opts.O.cpu_per_block_search_ns (* guard binary search *);
  lvl.Guard.guards.(Guard.guard_index lvl key).Guard.tables

let level_iters t ~filter ~on_table ~file_iter:_ =
  List.init (S.last_level t) (fun i ->
      Flsm_level_iter.create ~filter ~probe:t.probe ~level:t.lv.levels.(i + 1)
        ~cache:t.table_cache ~block_cache:t.block_cache
        ~hint:Device.Random_read ~on_table ())

let shape =
  {
    apply_edit;
    recovered;
    snapshot = snapshot_levels;
    l0 = (fun lv -> lv.l0);
    add_l0 = (fun lv m -> lv.l0 <- m :: lv.l0);
    build_l0;
    note_put = note_guard_candidate;
    maybe_compact;
    candidates;
    level_iters;
    seek_job;
  }

(* ---------- open / close ---------- *)

let open_store ?block_cache (opts : O.t) ~env ~dir =
  (match opts.O.compaction_policy with
   | O.Flsm_guarded -> ()
   | (O.Leveled | O.Tiered | O.Lazy_leveled) as p ->
     invalid_arg
       (Printf.sprintf
          "Pebbles_store.open_store: policy %s has no guard structure (use \
           the LSM engine)"
          (O.compaction_policy_name p)));
  let per_level () =
    Array.init opts.O.max_levels (fun _ -> Hashtbl.create 64)
  in
  let lv =
    {
      l0 = [];
      levels = Array.init opts.O.max_levels (fun _ -> Guard.create_level ());
      committed = per_level ();
      uncommitted = per_level ();
    }
  in
  S.open_store ~shape ~lv ?block_cache opts ~env ~dir

let close = S.close
let options = S.options
let env = S.env
let compaction_scheduler = S.compaction_scheduler
let backpressure = S.backpressure
let stats = S.stats
let write_group = S.write_group
let write = S.write
let put = S.put
let delete = S.delete
let flush = S.flush
let snapshot = S.snapshot
let release_snapshot = S.release_snapshot
let get = S.get
let iterator = S.iterator

(* ---------- maintenance ---------- *)

(* Drive pending work to quiescence.  Note this deliberately does NOT force
   everything into one level: PebblesDB "does not compact as aggressively
   as other key-value stores as it seeks to minimize write IO" (§5.2), so
   its fully-compacted state still has multiple sstables per guard. *)
let compact_all t =
  S.flush t;
  if t.lv.l0 <> [] then
    Scheduler.run_now t.sched
      {
        Job.key = "manual:l0";
        trigger = Job.Manual;
        estimated_bytes =
          S.bytes_of t.lv.l0;
        footprint = Sched.full_range ~level_lo:0 ~level_hi:1;
        run = (fun () -> compact_level t 0);
      };
  maybe_compact t;
  S.gc_obsolete t

(* PebblesDB keeps every sstable's bloom filter (and effectively its index)
   resident in memory — the memory overhead Table 5.4 quantifies and §7
   proposes to optimise.  The LSM baselines construct filters lazily on
   first access, so their footprint is the table cache's residents. *)
let memory_bytes t =
  let guard_meta =
    let sum = ref 0 in
    for level = 1 to S.last_level t do
      sum := !sum + Guard.metadata_bytes t.lv.levels.(level)
    done;
    !sum
  in
  let filters_and_indexes =
    (* prefer the actual decoded footprint (open reader or summary) over
       the bits-per-key estimate: the estimate drifts from reality when
       tables are smaller than sstable_target_bytes or carry prefix
       probes, and stats should not disagree with the cache's own
       accounting *)
    let per_file (m : Table.meta) =
      match Pdb_sstable.Table_cache.known_resident_bytes t.table_cache m with
      | Some b -> b
      | None ->
        (m.Table.entries * t.opts.O.bloom_bits_per_key / 8)
        + (((m.Table.file_size / t.opts.O.block_bytes) + 1) * 24)
    in
    let sum = ref 0 in
    List.iter (fun m -> sum := !sum + per_file m) t.lv.l0;
    for level = 1 to S.last_level t do
      List.iter
        (fun m -> sum := !sum + per_file m)
        (Guard.all_tables t.lv.levels.(level))
    done;
    !sum
  in
  S.base_memory_bytes t + filters_and_indexes + guard_meta

let refresh_empty_guard_stat t =
  let n = ref 0 in
  for level = 1 to S.last_level t do
    n := !n + Guard.empty_guard_count t.lv.levels.(level)
  done;
  t.stats.Stats.guards_empty <- !n

let describe t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "pebblesdb store (%s)\n" t.opts.O.name);
  Buffer.add_string buf
    (Printf.sprintf "  level 0 (no guards): %d sstables\n" (List.length t.lv.l0));
  List.iter
    (fun (m : Table.meta) ->
      Buffer.add_string buf
        (Printf.sprintf "    #%d [%s .. %s] %dB\n" m.Table.number
           (Ik.user_key m.Table.smallest)
           (Ik.user_key m.Table.largest)
           m.Table.file_size))
    t.lv.l0;
  for level = 1 to S.last_level t do
    let lvl = t.lv.levels.(level) in
    if Guard.table_count lvl > 0 || Guard.guard_count lvl > 0 then begin
      Buffer.add_string buf
        (Printf.sprintf "  level %d (%d guards, %d sstables, %dB):\n" level
           (Guard.guard_count lvl) (Guard.table_count lvl) (Guard.bytes lvl));
      Array.iter
        (fun (g : Guard.guard) ->
          if g.Guard.tables <> [] then begin
            Buffer.add_string buf
              (Printf.sprintf "    guard %s:\n"
                 (if g.Guard.gkey = "" then "<sentinel>" else g.Guard.gkey));
            List.iter
              (fun (m : Table.meta) ->
                Buffer.add_string buf
                  (Printf.sprintf "      #%d [%s .. %s] %dB\n" m.Table.number
                     (Ik.user_key m.Table.smallest)
                     (Ik.user_key m.Table.largest)
                     m.Table.file_size))
              g.Guard.tables
          end)
        lvl.Guard.guards
    end
  done;
  Buffer.contents buf

let check_invariants t =
  (* L0 newest-first *)
  let rec check_l0 = function
    | (a : Table.meta) :: (b : Table.meta) :: rest ->
      if a.Table.number <= b.Table.number then
        failwith "flsm invariant: L0 not newest-first";
      check_l0 (b :: rest)
    | [ _ ] | [] -> ()
  in
  check_l0 t.lv.l0;
  for level = 1 to S.last_level t do
    let lvl = t.lv.levels.(level) in
    let g = lvl.Guard.guards in
    if Array.length g = 0 || g.(0).Guard.gkey <> "" then
      failwith "flsm invariant: missing sentinel guard";
    (* strictly ascending guard keys *)
    for i = 1 to Array.length g - 2 do
      if String.compare g.(i).Guard.gkey g.(i + 1).Guard.gkey >= 0 then
        failwith "flsm invariant: guard keys not ascending"
    done;
    (* skip-list property: a guard committed here is at least *selected*
       (committed or uncommitted) at every deeper level — deeper levels
       commit lazily, at their own next compaction (§3.3) *)
    if level < S.last_level t then
      Array.iter
        (fun (gu : Guard.guard) ->
          if
            gu.Guard.gkey <> ""
            && (not (Hashtbl.mem t.lv.committed.(level + 1) gu.Guard.gkey))
            && not (Hashtbl.mem t.lv.uncommitted.(level + 1) gu.Guard.gkey)
          then failwith "flsm invariant: guard not selected in deeper level")
        g;
    (* every table fits inside its guard; files exist *)
    Array.iteri
      (fun i (gu : Guard.guard) ->
        List.iter
          (fun (m : Table.meta) ->
            if not (Guard.table_fits lvl i m) then
              failwith
                (Printf.sprintf
                   "flsm invariant: table #%d straddles guard at level %d"
                   m.Table.number level);
            if
              not (Env.exists t.env (Table.file_name ~dir:t.dir m.Table.number))
            then failwith "flsm invariant: missing sstable file")
          gu.Guard.tables)
      g;
    (* committed set matches structure *)
    Array.iter
      (fun (gu : Guard.guard) ->
        if gu.Guard.gkey <> "" && not (Hashtbl.mem t.lv.committed.(level) gu.Guard.gkey)
        then failwith "flsm invariant: structure guard missing from committed set")
      g;
    (* no guard both committed and uncommitted *)
    Hashtbl.iter
      (fun k () ->
        if Hashtbl.mem t.lv.committed.(level) k then
          failwith "flsm invariant: guard both committed and uncommitted")
      t.lv.uncommitted.(level)
  done

(* ---------- guard deletion (§3.3, §7) ---------- *)

(** [delete_empty_guards t] removes every guard that is empty at *every*
    level where it is committed, folding its (empty) range into the
    predecessor guard and persisting the deletions — the metadata cleanup
    the paper describes as asynchronous guard deletion (§3.3) and lists as
    future work for its own implementation (§4.4, §7).  Returns the number
    of guard keys removed.

    Deleting a guard at level [i] requires deleting it at every level
    < [i] (the skip-list property); removing only globally-empty guards
    satisfies this trivially. *)
let delete_empty_guards t =
  (* a guard key is removable iff every level where it is committed holds
     no sstables under it *)
  let removable = Hashtbl.create 16 in
  for level = 1 to S.last_level t do
    Array.iter
      (fun (g : Guard.guard) ->
        if g.Guard.gkey <> "" then
          match Hashtbl.find_opt removable g.Guard.gkey with
          | Some false -> ()
          | _ -> Hashtbl.replace removable g.Guard.gkey (g.Guard.tables = []))
      t.lv.levels.(level).Guard.guards
  done;
  let doomed =
    Hashtbl.fold (fun k ok acc -> if ok then k :: acc else acc) removable []
  in
  if doomed <> [] then begin
    let edit_entries = ref [] in
    List.iter
      (fun key ->
        for level = 1 to S.last_level t do
          if Hashtbl.mem t.lv.committed.(level) key then begin
            Guard.delete_guard t.lv.levels.(level) key;
            Hashtbl.remove t.lv.committed.(level) key;
            edit_entries := (level, key) :: !edit_entries
          end;
          (* forget any pending selection so the guard is not immediately
             re-committed *)
          Hashtbl.remove t.lv.uncommitted.(level) key
        done)
      doomed;
    let e = Manifest.empty_edit () in
    e.Manifest.deleted_guards <- List.rev !edit_entries;
    Manifest.append t.manifest e
  end;
  List.length doomed

(* exposed for tests and experiments *)
let l0_table_count t = List.length t.lv.l0

let guard_counts t =
  Array.init t.opts.O.max_levels (fun level ->
      if level = 0 then 0 else Guard.guard_count t.lv.levels.(level))

let empty_guard_count t =
  refresh_empty_guard_stat t;
  t.stats.Stats.guards_empty

let sstable_metas t =
  t.lv.l0
  @ List.concat
      (List.init (S.last_level t) (fun i -> Guard.all_tables t.lv.levels.(i + 1)))

let level_sizes t =
  Array.init t.opts.O.max_levels (fun level ->
      if level = 0 then S.bytes_of t.lv.l0 else level_bytes t level)

let max_tables_in_any_guard t =
  let worst = ref 0 in
  for level = 1 to S.last_level t do
    Array.iter
      (fun (g : Guard.guard) ->
        worst := max !worst (List.length g.Guard.tables))
      t.lv.levels.(level).Guard.guards
  done;
  !worst
