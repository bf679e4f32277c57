(** Baseline log-structured merge-tree store (LevelDB-style leveled
    compaction, §2.2).

    This is the stand-in for the paper's LevelDB / RocksDB / HyperLevelDB
    baselines; the three are instances of this engine under different
    {!Pdb_kvs.Options} profiles.  Under the default [leveled] policy the
    engine maintains the classical LSM invariant — every level >= 1 holds
    sstables with disjoint key ranges — and therefore pays the classical
    price: compacting a level rewrites the overlapping sstables of the
    next level, which is the root cause of LSM write amplification that
    FLSM removes.

    Compaction decisions are delegated to a first-class
    {!Pdb_compaction.Policy} value: the same engine also runs [tiered]
    (each level >= 1 holds several overlapping sorted runs, kept
    newest-first like L0 and merged wholesale on trigger) and
    [lazy_leveled] (tiered everywhere except the last level).  Because
    every tiered policy uses whole-level victims, a run resident in a
    tiered level is strictly newer than any run below it that shares
    keys, so newest-first probing stays correct (the L0 argument,
    generalised).  The [flsm_guarded] policy needs guard state and lives
    in the FLSM engine.

    The memtable, WAL, recovery, group commit and read plumbing are the
    shared {!Pdb_engine.Shell}; this module supplies the level
    structure. *)

module S = Pdb_engine.Shell
open S.Types
module Ik = Pdb_kvs.Internal_key
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Table = Pdb_sstable.Table
module Manifest = Pdb_manifest.Manifest
module Job = Pdb_compaction.Job
module Scheduler = Pdb_compaction.Scheduler
module Policy = Pdb_compaction.Policy
module Sched = Pdb_simio.Sched

type levels = {
  levels : Table.meta list array;
      (* level 0: newest first (descending file number); levels >= 1:
         leveled layout = ascending by smallest key, disjoint ranges;
         tiered layout = newest first, runs may overlap *)
  compact_pointer : string array; (* round-robin pick cursor per level *)
}

type t = levels S.t

(* ---------- policy-dependent level layout ---------- *)

let last_level opts = opts.O.max_levels - 1

(* [tiered_layout ~policy ~opts level]: does [level] (>= 1) hold
   overlapping runs (tiering) rather than one sorted run (leveling)? *)
let tiered_layout ~policy ~opts level =
  level >= 1
  && Policy.(
       policy.layout ~level ~last_level:(last_level opts) = Tiered_runs)

let tiered_level (t : t) level =
  tiered_layout ~policy:t.policy ~opts:t.opts level

let sort_newest_first files =
  List.sort
    (fun (a : Table.meta) (b : Table.meta) ->
      Int.compare b.Table.number a.Table.number)
    files

let sort_by_smallest files =
  List.sort
    (fun (a : Table.meta) (b : Table.meta) ->
      Ik.compare a.Table.smallest b.Table.smallest)
    files

(* canonical resident order of a level under the active policy *)
let sort_for_level ~policy ~opts level files =
  if level = 0 || tiered_layout ~policy ~opts level then
    sort_newest_first files
  else sort_by_smallest files

(* [splice files ~drop ~outputs] is [files] without the tables numbered
   in [drop], with [outputs] merged in by smallest key, an output first on
   a tie.  When [files] and [outputs] are each sorted by smallest key, that
   is [sort_by_smallest (outputs @ kept)]; with no [outputs] it keeps the
   order of [files], whatever it is.  The tail past the last change is
   shared, not copied. *)
let rec splice files ~drop ~outputs =
  match (drop, outputs, files) with
  | [], [], _ -> files
  | _, _, [] -> outputs
  | _, (o : Table.meta) :: os, (m : Table.meta) :: _
    when Ik.compare o.Table.smallest m.Table.smallest <= 0 ->
    o :: splice files ~drop ~outputs:os
  | _, _, m :: rest ->
    if List.mem m.Table.number drop then
      splice rest
        ~drop:(List.filter (fun n -> n <> m.Table.number) drop)
        ~outputs
    else m :: splice rest ~drop ~outputs

let numbers = List.map (fun (m : Table.meta) -> m.Table.number)

(** [install_levels levels ~tiered ~level ~inputs_lo ~inputs_hi ~outputs]
    moves a compaction's result into [levels]: [inputs_lo] leave
    [level], [inputs_hi] leave [level + 1] and [outputs] join it.  A
    leveled target keeps its order by splicing the outputs in where the
    tables they replace were; a [tiered] target is re-sorted newest
    first. *)
let install_levels levels ~tiered ~level ~inputs_lo ~inputs_hi ~outputs =
  let target = level + 1 in
  let drop = numbers inputs_hi in
  levels.(level) <- splice levels.(level) ~drop:(numbers inputs_lo) ~outputs:[];
  levels.(target) <-
    (if tiered then
       sort_newest_first (outputs @ splice levels.(target) ~drop ~outputs:[])
     else splice levels.(target) ~drop ~outputs)

(* ---------- compaction ---------- *)

let level_bytes (t : t) level = S.bytes_of t.lv.levels.(level)

let level_state (t : t) level =
  {
    Policy.level;
    last_level = last_level t.opts;
    files = List.length t.lv.levels.(level);
    bytes = level_bytes t level;
    max_bytes = O.level_max_bytes t.opts (max 1 level);
    file_trigger = O.l0_compaction_trigger;
  }

let compaction_score (t : t) level = t.policy.Policy.score (level_state t level)

(* The files of [level] whose user keys meet user keys [smallest ..
   largest], compared in place. *)
let overlapping_files (t : t) level ~smallest ~largest =
  List.filter
    (fun (m : Table.meta) ->
      Ik.compare_user_key m.Table.largest smallest >= 0
      && Ik.compare_user_key m.Table.smallest largest <= 0)
    t.lv.levels.(level)

(* Whether [m]'s user keys meet those of [other]'s range, compared in
   place. *)
let meets (m : Table.meta) (other : Table.meta) =
  Ik.compare_user_keys m.Table.largest other.Table.smallest >= 0
  && Ik.compare_user_keys m.Table.smallest other.Table.largest <= 0

let pick_l0_closure (t : t) =
  (* the oldest L0 file plus every L0 file overlapping it (LevelDB's
     rule).  On sequential fills the L0 files are disjoint, so this
     selects a single file and enables the trivial-move fast path. *)
  match List.rev t.lv.levels.(0) with
  | [] -> []
  | oldest :: _ ->
    (* the range's bounds, as the internal keys whose user keys they are *)
    let lo = ref oldest.Table.smallest and hi = ref oldest.Table.largest in
    (* grow the range transitively over overlapping files *)
    let changed = ref true in
    let selected = ref [ oldest ] in
    while !changed do
      changed := false;
      List.iter
        (fun (m : Table.meta) ->
          if
            not
              (List.exists
                 (fun (s : Table.meta) -> s.Table.number = m.Table.number)
                 !selected)
            && Ik.compare_user_keys m.Table.largest !lo >= 0
            && Ik.compare_user_keys m.Table.smallest !hi <= 0
          then begin
            selected := m :: !selected;
            if Ik.compare_user_keys m.Table.smallest !lo < 0 then
              lo := m.Table.smallest;
            if Ik.compare_user_keys m.Table.largest !hi > 0 then
              hi := m.Table.largest;
            changed := true
          end)
        t.lv.levels.(0)
    done;
    !selected

let pick_round_robin (t : t) level =
  (* round-robin: first [compaction_pick_files] files after the pointer *)
  let files = t.lv.levels.(level) in
  let pointer = t.lv.compact_pointer.(level) in
  let after =
    List.filter
      (fun (m : Table.meta) -> Ik.compare_user_key m.Table.largest pointer > 0)
      files
  in
  let pool = if after = [] then files else after in
  (* a first pick that overlaps nothing below is a trivial move; widening
     it to [compaction_pick_files] would throw the fast path away *)
  match pool with
  | first :: _
    when not (List.exists (meets first) t.lv.levels.(level + 1)) ->
    [ first ]
  | _ -> List.filteri (fun i _ -> i < t.opts.O.compaction_pick_files) pool

let pick_inputs (t : t) level =
  match t.policy.Policy.victims (level_state t level) with
  | Policy.All_files ->
    (* tiering: the whole level merges wholesale into one new run *)
    t.lv.levels.(level)
  | Policy.Guard_pick ->
    (* guard state lives in the FLSM engine; rejected at open *)
    assert false
  | Policy.Oldest_overlap_closure -> pick_l0_closure t
  | Policy.Round_robin -> pick_round_robin t level

(* The smallest and largest user keys of [inputs] ([""] for none),
   compared in place and copied out once. *)
let input_user_range inputs =
  let extreme key better =
    List.fold_left
      (fun acc (m : Table.meta) ->
        let k = key m in
        if acc = "" || better (Ik.compare_user_keys k acc) then k else acc)
      "" inputs
  in
  let user_key k = if k = "" then "" else Ik.user_key k in
  ( user_key (extreme (fun m -> m.Table.smallest) (fun c -> c < 0)),
    user_key (extreme (fun m -> m.Table.largest) (fun c -> c > 0)) )

(* Merge [inputs_lo] (level) and [inputs_hi] (level+1) into new tables for
   level+1.  Runs inside the background lane.

   [drop_tombstones] is sound only when the merge reaches the last level
   AND consumes every target file overlapping the inputs' range: a
   tiered append that leaves sibling runs in place must keep tombstones,
   or deleted keys in those runs would resurrect.

   [single_output] builds one table regardless of size: a run stacked
   onto a tiered level must stay one file, because tiered levels count
   files as runs (the run-count trigger) and order them by recency. *)
let run_merge (t : t) ~inputs_lo ~inputs_hi ~drop_tombstones ~single_output =
  let cutoff =
    if single_output then max_int else t.opts.O.sstable_target_bytes
  in
  S.merge_tables t (inputs_lo @ inputs_hi)
    ~tombstone_ok:(fun _ -> drop_tombstones)
    ~partition:ignore
    ~cutoff:(fun () -> cutoff)
  |> List.map snd

let install_compaction (t : t) ~level ~inputs_lo ~inputs_hi ~outputs =
  let target = level + 1 in
  install_levels t.lv.levels ~tiered:(tiered_level t target) ~level ~inputs_lo
    ~inputs_hi ~outputs;
  (* manifest edit *)
  let e = Manifest.empty_edit () in
  e.Manifest.next_file_number <- Some t.next_file;
  e.Manifest.deleted_files <-
    List.map (fun n -> (level, n)) (numbers inputs_lo)
    @ List.map (fun n -> (target, n)) (numbers inputs_hi);
  e.Manifest.added_files <- List.map (fun m -> (target, m)) outputs;
  Manifest.append t.manifest e;
  S.retire t (inputs_lo @ inputs_hi);
  S.note_compaction t ~inputs:(inputs_lo @ inputs_hi) ~outputs

let compact_level (t : t) level =
  let inputs_lo = pick_inputs t level in
  if inputs_lo <> [] then begin
    let smallest, largest = input_user_range inputs_lo in
    let target = level + 1 in
    (* output placement: a merging policy rewrites the overlapping target
       files; a stacking policy (tiering) appends beside them *)
    let merges_target =
      t.policy.Policy.output_merges_target ~target
        ~last_level:(last_level t.opts)
    in
    let inputs_hi =
      if merges_target then overlapping_files t target ~smallest ~largest
      else []
    in
    (* record the round-robin cursor *)
    if level > 0 then t.lv.compact_pointer.(level) <- largest;
    match (inputs_lo, inputs_hi) with
    | [ single ], [] ->
      (* trivial move: sequential workloads produce disjoint sstables that
         LSM moves between levels by metadata alone — the case where LSM
         beats FLSM (§5.2 "Sequential Writes").  Safe under tiering too:
         whole-level victims make the single run the entire source level,
         so it is newer than every run already resident in the target. *)
      install_levels t.lv.levels ~tiered:(tiered_level t target) ~level
        ~inputs_lo ~inputs_hi ~outputs:[ single ];
      let e = Manifest.empty_edit () in
      e.Manifest.deleted_files <- [ (level, single.Table.number) ];
      e.Manifest.added_files <- [ (target, single) ];
      Manifest.append t.manifest e
    | _ ->
      (* the caller (a scheduler job) is already on the
         background lane *)
      let drop_tombstones = merges_target && target >= last_level t.opts in
      let outputs =
        run_merge t ~inputs_lo ~inputs_hi ~drop_tombstones
          ~single_output:(not merges_target)
      in
      install_compaction t ~level ~inputs_lo ~inputs_hi ~outputs
  end

(* Footprint of a level -> level+1 compaction: the union key range of the
   level's files.  The actual inputs are picked when the job runs; the
   whole-level range is a sound over-approximation — and an honest one:
   leveled compactions span wide ranges, which is exactly why they
   serialise on the worker timelines where FLSM's guard jobs overlap.  A
   leveled merge rewrites the target files it overlaps, so it reads and
   writes both levels. *)
let level_footprint (t : t) level =
  let fp = Sched.full_range ~level_lo:level ~level_hi:(level + 1) in
  match t.lv.levels.(level) with
  | [] -> fp
  | files ->
    let smallest, largest = input_user_range files in
    {
      fp with
      Sched.key_lo = smallest;
      key_hi = Some (largest ^ "\x00") (* inclusive -> exclusive bound *);
    }

let level_due (t : t) level = Policy.should_trigger (compaction_score t level)

(* LevelDB also compacts in response to repeated seeks (a file's
   allowed_seeks budget); modeled here as draining a non-empty level 0
   after a run of consecutive seeks, which is where seek cost
   concentrates. *)
let seek_due (t : t) level = t.lv.levels.(level) <> []

(* [level]'s compaction into the next, measured by the level's bytes.
   The job re-checks [due] when it runs: an earlier job in the round may
   have already relieved the level. *)
let level_job (t : t) ~trigger ~due level =
  ( {
      Job.key = Printf.sprintf "%s:%d" (Job.trigger_name trigger) level;
      trigger;
      estimated_bytes = level_bytes t level;
      footprint = level_footprint t level;
      run = (fun () -> if due t level then compact_level t level);
    },
    fun () -> level_bytes t level )

(* The due level compactions, top-down; a seek pass's pick is the
   level-0 drain alone. *)
let pick ~seek (t : t) =
  if seek then
    if seek_due t 0 then [ level_job t ~trigger:Job.Seek ~due:seek_due 0 ]
    else []
  else
    List.filter_map
      (fun level ->
        if level_due t level then
          let trigger = if level = 0 then Job.L0_files else Job.Level_size in
          Some (level_job t ~trigger ~due:level_due level)
        else None)
      (List.init (t.opts.O.max_levels - 1) Fun.id)

(* ---------- the level structure the shell drives ---------- *)

let apply_edit lv (e : Manifest.edit) =
  List.iter
    (fun (level, number) ->
      lv.levels.(level) <-
        List.filter
          (fun (m : Table.meta) -> m.Table.number <> number)
          lv.levels.(level))
    e.Manifest.deleted_files;
  List.iter
    (fun (level, meta) -> lv.levels.(level) <- meta :: lv.levels.(level))
    e.Manifest.added_files

let normalize_levels opts lv =
  let policy = Policy.of_options opts in
  Array.iteri
    (fun i files -> lv.levels.(i) <- sort_for_level ~policy ~opts i files)
    lv.levels

let snapshot_files lv (e : Manifest.edit) =
  e.Manifest.added_files <-
    List.concat
      (List.mapi
         (fun level files -> List.map (fun m -> (level, m)) (List.rev files))
         (Array.to_list lv.levels))

(* leveled layout has at most one candidate file per level: the first whose
   largest internal key is >= the lookup key.  Compaction cuts tables by
   size, so while a snapshot is live one user key's versions can straddle
   two adjacent tables; the lookup key picks the one holding the visible
   version (the rule Level_iter seeks by).  Tiered layout probes every
   overlapping run, newest first. *)
let rec first_reaching lookup = function
  | [] -> []
  | (m : Table.meta) :: rest ->
    if Ik.compare m.Table.largest lookup >= 0 then [ m ]
    else first_reaching lookup rest

let candidates (t : t) level ~key:_ ~lookup =
  let files = t.lv.levels.(level) in
  if tiered_level t level then files else first_reaching lookup files

(* tiered runs overlap: one partition, merged by sequence number; a
   leveled run is one partition per table.  An iterator reads the levels
   as they were when it was created, like the L0 pile. *)
let views (t : t) =
  List.filter_map
    (fun level ->
      match t.lv.levels.(level) with
      | [] -> None
      | files ->
        let view =
          if tiered_level t level then Pdb_sstable.Level_iter.pile files
          else Pdb_sstable.Level_iter.run (Array.of_list files)
        in
        Some (fun () -> view))
    (List.init (t.opts.O.max_levels - 1) (fun i -> i + 1))

let shape =
  {
    apply_edit;
    recovered = normalize_levels;
    snapshot = snapshot_files;
    flush_edit = (fun _ _ -> ());
    l0 = (fun lv -> lv.levels.(0));
    add_l0 = (fun lv m -> lv.levels.(0) <- m :: lv.levels.(0));
    note_put = (fun _ _ -> ());
    pick;
    candidates;
    views;
  }

(* ---------- open / close ---------- *)

let open_store ?block_cache (opts : O.t) ~env ~dir : t =
  (match opts.O.compaction_policy with
   | O.Flsm_guarded ->
     invalid_arg
       "Lsm_store.open_store: the flsm_guarded policy needs guard state \
        (use the pebblesdb engine)"
   | O.Leveled | O.Tiered | O.Lazy_leveled -> ());
  let lv =
    {
      levels = Array.make opts.O.max_levels [];
      compact_pointer = Array.make opts.O.max_levels "";
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

(** [snapshot t] pins the current state for consistent reads; see
    {!Pebblesdb.Pebbles_store.snapshot} for the shared semantics. *)
let snapshot = S.snapshot

let release_snapshot = S.release_snapshot
let get = S.get
let iterator = S.iterator

(* ---------- maintenance ---------- *)

let compact_all (t : t) =
  S.flush t;
  (* push every populated level into the next, top-down, as LevelDB's
     manual CompactRange does *)
  for level = 0 to t.opts.O.max_levels - 2 do
    while t.lv.levels.(level) <> [] do
      let inputs_lo = t.lv.levels.(level) in
      let smallest, largest = input_user_range inputs_lo in
      let inputs_hi = overlapping_files t (level + 1) ~smallest ~largest in
      Scheduler.run t.sched
        {
          Job.key = Printf.sprintf "manual:%d" level;
          trigger = Job.Manual;
          estimated_bytes = S.bytes_of (inputs_lo @ inputs_hi);
          footprint = level_footprint t level;
          run =
            (fun () ->
              (* a manual merge consumes every overlapping target file, so
                 tombstones may drop at the bottom under any policy; a
                 tiered target gets one run, which must be one table *)
              let outputs =
                run_merge t ~inputs_lo ~inputs_hi
                  ~drop_tombstones:(level + 1 >= last_level t.opts)
                  ~single_output:(tiered_level t (level + 1))
              in
              install_compaction t ~level ~inputs_lo ~inputs_hi ~outputs);
        }
    done
  done;
  S.gc_obsolete t

let memory_bytes (t : t) =
  S.base_memory_bytes t
  + Pdb_sstable.Table_cache.resident_bytes t.table_cache

let describe (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "lsm store (%s, policy=%s)\n" t.opts.O.name
       t.policy.Policy.name);
  Array.iteri
    (fun level files ->
      if files <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "  level %d (%d files, %d bytes):\n" level
             (List.length files) (level_bytes t level));
        List.iter
          (fun (m : Table.meta) ->
            Buffer.add_string buf
              (Printf.sprintf "    #%d [%s .. %s] %dB\n" m.Table.number
                 (Ik.user_key m.Table.smallest)
                 (Ik.user_key m.Table.largest)
                 m.Table.file_size))
          files
      end)
    t.lv.levels;
  Buffer.contents buf

let check_invariants (t : t) =
  (* a pairwise order every adjacent pair of a level must satisfy *)
  let check_pairs ok msg files =
    let rec go = function
      | a :: (b :: _ as rest) ->
        if not (ok a b) then failwith msg;
        go rest
      | [ _ ] | [] -> ()
    in
    go files
  in
  let newer (a : Table.meta) (b : Table.meta) = a.Table.number > b.Table.number in
  check_pairs newer "lsm invariant: L0 not newest-first" t.lv.levels.(0);
  (* levels >= 1: leveled layout = sorted and disjoint; tiered layout =
     newest-first (recency order, the property reads rely on) *)
  for level = 1 to t.opts.O.max_levels - 1 do
    if tiered_level t level then
      check_pairs newer
        (Printf.sprintf "lsm invariant: tiered level %d not newest-first" level)
        t.lv.levels.(level)
    else
      check_pairs
        (fun (a : Table.meta) (b : Table.meta) ->
          Ik.compare a.Table.largest b.Table.smallest < 0)
        (Printf.sprintf "lsm invariant: level %d files overlap" level)
        t.lv.levels.(level)
  done;
  (* every listed file exists *)
  Array.iter
    (List.iter (fun (m : Table.meta) ->
         if not (Env.exists t.env (Table.file_name ~dir:t.dir m.Table.number))
         then failwith "lsm invariant: missing sstable file"))
    t.lv.levels

(* number of files per level, for tests and experiments *)
let level_file_counts (t : t) = Array.map List.length t.lv.levels
let sstable_metas (t : t) = Array.to_list t.lv.levels |> List.concat

(* resident tables of one level, in search order (tests) *)
let level_tables (t : t) level = t.lv.levels.(level)
let policy (t : t) = t.policy
