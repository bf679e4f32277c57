(* Unit tests for first-class compaction policies (lib/compaction/policy.ml):
   the shared trigger threshold, per-policy scores and layouts, tiered run
   accumulation in the LSM engine, the lazy-leveled last-level invariant,
   and worker-count byte-invariance under every policy. *)

module Fingerprint = Pdb_simio.Fingerprint
module Policy = Pdb_compaction.Policy
module O = Pdb_kvs.Options
module L = Pdb_lsm.Lsm_store
module Env = Pdb_simio.Env
module Device = Pdb_simio.Device
module Stores = Pdb_harness.Stores
module Dyn = Pdb_kvs.Store_intf
module Ik = Pdb_kvs.Internal_key
module Table = Pdb_sstable.Table

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

let all_policies =
  List.map Policy.of_policy O.all_compaction_policies

(* ---------- trigger threshold (the deduplicated 0.999) ---------- *)

let test_threshold () =
  Alcotest.(check bool) "at the threshold: no trigger" false
    (Policy.should_trigger Policy.score_threshold);
  Alcotest.(check bool) "occupancy 1.0 triggers" true
    (Policy.should_trigger 1.0);
  Alcotest.(check bool) "empty level never triggers" false
    (Policy.should_trigger 0.0)

let state ?(level = 1) ?(last_level = 6) ?(files = 0) ?(bytes = 0)
    ?(max_bytes = 1000) ?(file_trigger = 4) () =
  { Policy.level; last_level; files; bytes; max_bytes; file_trigger }

let test_scores () =
  (* leveled: bytes over budget at levels >= 1 *)
  let p = Policy.leveled in
  Alcotest.(check bool) "leveled under budget" false
    (Policy.should_trigger (p.Policy.score (state ~bytes:999 ())));
  Alcotest.(check bool) "leveled over budget" true
    (Policy.should_trigger (p.Policy.score (state ~bytes:1001 ())));
  (* every policy: L0 triggers on flush count *)
  List.iter
    (fun (p : Policy.t) ->
      Alcotest.(check bool) (p.Policy.name ^ ": l0 below trigger") false
        (Policy.should_trigger (p.Policy.score (state ~level:0 ~files:3 ())));
      Alcotest.(check bool) (p.Policy.name ^ ": l0 at trigger") true
        (Policy.should_trigger (p.Policy.score (state ~level:0 ~files:4 ()))))
    all_policies;
  (* tiered: run count only — a byte-heavy level with few runs is left
     alone (size triggers would cascade small runs and inflate write-amp) *)
  let t = Policy.tiered in
  Alcotest.(check bool) "tiered ignores bytes" false
    (Policy.should_trigger (t.Policy.score (state ~files:2 ~bytes:10_000 ())));
  Alcotest.(check bool) "tiered run count triggers" true
    (Policy.should_trigger (t.Policy.score (state ~files:4 ())));
  Alcotest.(check bool) "tiered last level never triggers" false
    (Policy.should_trigger (t.Policy.score (state ~level:6 ~files:40 ())));
  (* flsm: a guard is due at its cap of tables *)
  let f = Policy.flsm_guarded in
  Alcotest.(check bool) "guard under cap" false
    (f.Policy.guard_due ~tables:3 ~cap:4);
  Alcotest.(check bool) "guard at cap" true
    (f.Policy.guard_due ~tables:4 ~cap:4);
  (* the integer rule is the float score's [should_trigger], everywhere *)
  for cap = 0 to 1200 do
    List.iter
      (fun tables ->
        let score =
          float_of_int tables /. float_of_int (max 1 cap)
        in
        Alcotest.(check bool)
          (Printf.sprintf "guard %d of cap %d" tables cap)
          (Policy.should_trigger score)
          (f.Policy.guard_due ~tables ~cap))
      [ 0; 1; cap - 1; cap; cap + 1; 999 * cap / 1000; (999 * cap / 1000) + 1 ]
  done;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Policy.name ^ " has no guards to trigger")
        false (p.Policy.guard_due ~tables:100 ~cap:1))
    [ Policy.leveled; Policy.tiered; Policy.lazy_leveled ]

let test_layouts () =
  let layout (p : Policy.t) level = p.Policy.layout ~level ~last_level:3 in
  Alcotest.(check bool) "leveled: one run per level everywhere" true
    (layout Policy.leveled 1 = Policy.Leveled_run
     && layout Policy.leveled 3 = Policy.Leveled_run);
  Alcotest.(check bool) "tiered: overlapping runs everywhere" true
    (layout Policy.tiered 1 = Policy.Tiered_runs
     && layout Policy.tiered 3 = Policy.Tiered_runs);
  Alcotest.(check bool) "lazy: tiered uppers, leveled last level" true
    (layout Policy.lazy_leveled 2 = Policy.Tiered_runs
     && layout Policy.lazy_leveled 3 = Policy.Leveled_run);
  Alcotest.(check bool) "lazy merges only into the last level" true
    ((not
        (Policy.lazy_leveled.Policy.output_merges_target ~target:2
           ~last_level:3))
     && Policy.lazy_leveled.Policy.output_merges_target ~target:3
          ~last_level:3);
  Alcotest.(check bool) "tiered never merges with the target" false
    (Policy.tiered.Policy.output_merges_target ~target:3 ~last_level:3);
  Alcotest.(check bool) "leveled always merges with the target" true
    (Policy.leveled.Policy.output_merges_target ~target:1 ~last_level:3)

(* ---------- engine-level layout checks ---------- *)

let tiny ?(threads = 1) ?(max_levels = 7) policy =
  {
    (O.hyperleveldb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
    compaction_threads = threads;
    compaction_policy = policy;
    max_levels;
  }

let fill db n =
  for i = 0 to n - 1 do
    L.put db (key (i * 7919 mod n)) (value i)
  done;
  L.flush db

let user_overlap (a : Table.meta) (b : Table.meta) =
  String.compare (Ik.user_key a.Table.smallest)
    (Ik.user_key b.Table.largest)
  <= 0
  && String.compare (Ik.user_key b.Table.smallest)
       (Ik.user_key a.Table.largest)
     <= 0

(* Under the tiered policy, some level >= 1 must accumulate several
   overlapping runs — the layout leveling forbids. *)
let test_tiered_runs_accumulate () =
  let env = Env.create () in
  let db = L.open_store (tiny O.Tiered) ~env ~dir:"db" in
  fill db 1500;
  L.check_invariants db;
  let tiered_levels = ref 0 in
  let overlapping = ref 0 in
  for level = 1 to 6 do
    match L.level_tables db level with
    | (_ :: _ :: _) as files ->
      incr tiered_levels;
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b -> if i < j && user_overlap a b then incr overlapping)
            files)
        files
    | _ -> ()
  done;
  Alcotest.(check bool) "some level >= 1 holds multiple runs" true
    (!tiered_levels > 0);
  Alcotest.(check bool) "runs in a tiered level overlap" true
    (!overlapping > 0);
  L.close db

(* Under lazy leveling the last level must stay a single sorted run
   (disjoint files) even while upper levels stack overlapping runs. *)
let test_lazy_leveled_last_level () =
  let env = Env.create () in
  let db = L.open_store (tiny ~max_levels:3 O.Lazy_leveled) ~env ~dir:"db" in
  fill db 3000;
  L.check_invariants db;
  let last = L.level_tables db 2 in
  Alcotest.(check bool)
    (Printf.sprintf "last level populated (%d files)" (List.length last))
    true
    (List.length last >= 2);
  let sorted =
    List.sort (fun a b -> Ik.compare a.Table.smallest b.Table.smallest) last
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool) "last-level files disjoint" false
              (user_overlap a b))
        sorted)
    sorted;
  L.close db

(* ---------- worker-count byte-invariance per policy ---------- *)

(* Final on-storage state must be a pure function of the workload under
   every policy: the worker count shapes modeled time only. *)
let policy_workload ~policy ~threads ~n =
  let env = Env.create () in
  let engine = Stores.engine_for_policy Stores.Hyperleveldb policy in
  let tweak (o : O.t) =
    {
      o with
      O.memtable_bytes = 2 * 1024;
      level_bytes_base = 8 * 1024;
      sstable_target_bytes = 4 * 1024;
      block_bytes = 512;
      compaction_threads = threads;
      compaction_policy = policy;
    }
  in
  let db = Stores.open_engine ~tweak ~env engine in
  for i = 0 to n - 1 do
    db.Dyn.d_put (key (i * 7919 mod n)) (value i);
    if i mod 13 = 0 then db.Dyn.d_delete (key (i * 31 mod n))
  done;
  db.Dyn.d_flush ();
  db.Dyn.d_check_invariants ();
  db.Dyn.d_compact_all ();
  db.Dyn.d_check_invariants ();
  db.Dyn.d_close ();
  env

let test_worker_invariance policy () =
  let a = Fingerprint.text (policy_workload ~policy ~threads:1 ~n:1500) in
  let b = Fingerprint.text (policy_workload ~policy ~threads:4 ~n:1500) in
  Alcotest.(check string) "1 vs 4 workers: byte-identical files" a b

let () =
  Alcotest.run "policy"
    [
      ( "trigger",
        [
          Alcotest.test_case "threshold boundary" `Quick test_threshold;
          Alcotest.test_case "per-policy scores" `Quick test_scores;
          Alcotest.test_case "layout and placement" `Quick test_layouts;
        ] );
      ( "layout in the engine",
        [
          Alcotest.test_case "tiered runs accumulate" `Quick
            test_tiered_runs_accumulate;
          Alcotest.test_case "lazy-leveled last level stays sorted" `Quick
            test_lazy_leveled_last_level;
        ] );
      ( "determinism",
        List.map
          (fun policy ->
            Alcotest.test_case
              (O.compaction_policy_name policy ^ " worker-count invariance")
              `Quick (test_worker_invariance policy))
          O.all_compaction_policies );
    ]
