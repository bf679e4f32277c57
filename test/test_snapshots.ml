(* Tests for snapshot reads/iterators and guard deletion — the extension
   features (snapshots are standard LevelDB-family functionality; guard
   deletion is the paper's §3.3/§7). *)

module P = Pebblesdb.Pebbles_store
module L = Pdb_lsm.Lsm_store
module O = Pdb_kvs.Options
module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter

let check = Alcotest.check

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let tiny_opts () =
  {
    (O.pebblesdb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
    top_level_bits = 7;
    bit_decrement = 1;
    max_levels = 5;
  }

let lsm_tiny () =
  {
    (O.hyperleveldb ()) with
    O.memtable_bytes = 2 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
  }

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d" i

(* ---------- pebbles snapshots ---------- *)

let test_snapshot_get_sees_old_value () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  P.put db "k" "old";
  let snap = P.snapshot db in
  P.put db "k" "new";
  check Alcotest.(option string) "current" (Some "new") (P.get db "k");
  check Alcotest.(option string) "snapshot" (Some "old")
    (P.get ~snapshot:snap db "k");
  P.release_snapshot db snap;
  P.close db

let test_snapshot_hides_later_inserts_and_deletes () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  P.put db "a" "1";
  P.put db "b" "2";
  let snap = P.snapshot db in
  P.put db "c" "3" (* after snapshot *);
  P.delete db "a" (* after snapshot *);
  check Alcotest.(option string) "c invisible" None (P.get ~snapshot:snap db "c");
  check Alcotest.(option string) "a still visible" (Some "1")
    (P.get ~snapshot:snap db "a");
  check Alcotest.(option string) "a deleted now" None (P.get db "a");
  P.release_snapshot db snap;
  P.close db

let test_snapshot_survives_compaction () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 299 do
    P.put db (key i) (value i)
  done;
  let snap = P.snapshot db in
  (* overwrite everything and force heavy compaction *)
  for round = 1 to 3 do
    for i = 0 to 299 do
      P.put db (key i) (value (round * 1000 + i))
    done
  done;
  P.compact_all db;
  P.check_invariants db;
  (* snapshot still sees the original values; current sees the last round *)
  for i = 0 to 299 do
    check Alcotest.(option string) ("snap " ^ key i) (Some (value i))
      (P.get ~snapshot:snap db (key i));
    check Alcotest.(option string) ("cur " ^ key i) (Some (value (3000 + i)))
      (P.get db (key i))
  done;
  P.release_snapshot db snap;
  P.close db

let test_snapshot_iterator_consistent_view () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 99 do
    P.put db (key i) (value i)
  done;
  let snap = P.snapshot db in
  for i = 100 to 199 do
    P.put db (key i) (value i)
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then P.delete db (key i)
  done;
  let snap_view = Iter.to_list (P.iterator ~snapshot:snap db) in
  check Alcotest.int "snapshot sees exactly first 100" 100
    (List.length snap_view);
  check
    Alcotest.(list (pair string string))
    "snapshot contents" (List.init 100 (fun i -> (key i, value i)))
    snap_view;
  let now_view = Iter.to_list (P.iterator db) in
  check Alcotest.int "current view" 150 (List.length now_view);
  P.release_snapshot db snap;
  P.close db

let test_release_unpins_space () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 499 do
    P.put db (key i) (value i)
  done;
  let snap = P.snapshot db in
  for i = 0 to 499 do
    P.put db (key i) "overwritten"
  done;
  P.compact_all db;
  let pinned = Env.total_file_bytes env in
  P.release_snapshot db snap;
  (* another write triggers gc of pinned files; compaction reclaims the old
     versions *)
  for i = 0 to 499 do
    P.put db (key i) "final"
  done;
  P.compact_all db;
  P.put db "tick" "tock" (* gc point *);
  let after = Env.total_file_bytes env in
  Alcotest.(check bool)
    (Printf.sprintf "space reclaimed (%d -> %d)" pinned after)
    true (after < pinned);
  P.close db

let prop_snapshot_is_frozen_model =
  qtest "snapshot = model frozen at acquire time"
    QCheck.(pair small_int (list (pair (int_bound 100) (int_bound 500))))
    (fun (seed, later_ops) ->
      let env = Env.create () in
      let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
      let rng = Pdb_util.Rng.create seed in
      let model = Hashtbl.create 64 in
      for i = 0 to 199 do
        let k = key (Pdb_util.Rng.int rng 100) in
        P.put db k (value i);
        Hashtbl.replace model k (value i)
      done;
      let snap = P.snapshot db in
      List.iter
        (fun (k, v) -> P.put db (key k) (value (10_000 + v)))
        later_ops;
      P.flush db;
      let ok =
        Hashtbl.fold
          (fun k v acc -> acc && P.get ~snapshot:snap db k = Some v)
          model true
      in
      P.release_snapshot db snap;
      ok)

(* ---------- lsm snapshots (same semantics) ---------- *)

let test_lsm_snapshot_roundtrip () =
  let env = Env.create () in
  let db = L.open_store (lsm_tiny ()) ~env ~dir:"db" in
  for i = 0 to 199 do
    L.put db (key i) (value i)
  done;
  let snap = L.snapshot db in
  for i = 0 to 199 do
    L.put db (key i) "new"
  done;
  L.compact_all db;
  for i = 0 to 199 do
    check Alcotest.(option string) ("lsm snap " ^ key i) (Some (value i))
      (L.get ~snapshot:snap db (key i))
  done;
  let snap_view = Iter.to_list (L.iterator ~snapshot:snap db) in
  check Alcotest.int "lsm snapshot iterator" 200 (List.length snap_view);
  L.release_snapshot db snap;
  L.close db

(* ---------- guard deletion ---------- *)

let test_delete_empty_guards () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  (* populate, then delete everything: guards go empty *)
  for i = 0 to 999 do
    P.put db (key i) (value i)
  done;
  for i = 0 to 999 do
    P.delete db (key i)
  done;
  P.compact_all db;
  let empty_before = P.empty_guard_count db in
  Alcotest.(check bool) "guards accumulated" true (empty_before > 0);
  let removed = P.delete_empty_guards db in
  Alcotest.(check bool) "some guards deleted" true (removed > 0);
  P.check_invariants db;
  Alcotest.(check bool) "fewer empty guards" true
    (P.empty_guard_count db < empty_before);
  (* store still fully functional *)
  for i = 0 to 99 do
    P.put db (key (5000 + i)) (value i)
  done;
  for i = 0 to 99 do
    check Alcotest.(option string) "still works" (Some (value i))
      (P.get db (key (5000 + i)))
  done;
  P.check_invariants db;
  P.close db

let test_guard_deletion_persists_across_reopen () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 999 do
    P.put db (key i) (value i)
  done;
  for i = 0 to 999 do
    P.delete db (key i)
  done;
  P.compact_all db;
  ignore (P.delete_empty_guards db);
  let counts = P.guard_counts db in
  P.close db;
  let db2 = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  P.check_invariants db2;
  check Alcotest.(array int) "guard counts preserved" counts
    (P.guard_counts db2);
  P.close db2

let test_delete_empty_guards_spares_occupied () =
  let env = Env.create () in
  let db = P.open_store (tiny_opts ()) ~env ~dir:"db" in
  for i = 0 to 1999 do
    P.put db (key i) (value i)
  done;
  P.compact_all db;
  ignore (P.delete_empty_guards db);
  P.check_invariants db;
  (* all data still present *)
  for i = 0 to 1999 do
    check Alcotest.(option string) ("occupied survive " ^ key i)
      (Some (value i)) (P.get db (key i))
  done;
  P.close db

(* ---------- versions across table boundaries ---------- *)

module type ENGINE = sig
  type t

  val open_store :
    ?block_cache:Pdb_sstable.Block_cache.t -> O.t -> env:Env.t -> dir:string -> t

  val put : t -> string -> string -> unit
  val get : ?snapshot:int -> t -> string -> string option
  val iterator : ?snapshot:int -> t -> Iter.t
  val snapshot : t -> int
  val compact_all : t -> unit
  val close : t -> unit
end

(* Tables far smaller than a value pair: while a snapshot is live, the
   compaction merge cuts tables by size, so one user key's two versions
   can land in adjacent tables of a run. *)
let straddle_opts (o : O.t) =
  {
    o with
    O.memtable_bytes = 16 * 1024;
    sstable_target_bytes = 2 * 1024;
    level_bytes_base = 16 * 1024;
    block_bytes = 512;
  }

let straddle_subjects =
  let lsm policy =
    ( (module L : ENGINE),
      straddle_opts { (O.hyperleveldb ()) with O.compaction_policy = policy } )
  in
  [
    ("leveled", lsm O.Leveled);
    ("lazy_leveled", lsm O.Lazy_leveled);
    ("tiered", lsm O.Tiered);
    ("pebblesdb", ((module P : ENGINE), straddle_opts (O.pebblesdb ())));
  ]

(* Overwrite every key under a snapshot, then compact everything: a get at
   the snapshot must find the old version and a plain get the new one,
   wherever the merge cut the tables. *)
let test_versions_straddle_tables name () =
  let (module E : ENGINE), opts = List.assoc name straddle_subjects in
  let db = E.open_store opts ~env:(Env.create ()) ~dir:"db" in
  let v tag i = Printf.sprintf "%s%02d-%s" tag i (String.make 3000 'x') in
  for i = 0 to 39 do
    E.put db (key i) (v "old" i)
  done;
  let snap = E.snapshot db in
  for i = 0 to 39 do
    E.put db (key i) (v "new" i)
  done;
  E.compact_all db;
  let wrong f = List.length (List.filter f (List.init 40 Fun.id)) in
  check Alcotest.int "snapshot gets wrong" 0
    (wrong (fun i -> E.get ~snapshot:snap db (key i) <> Some (v "old" i)));
  check Alcotest.int "latest gets wrong" 0
    (wrong (fun i -> E.get db (key i) <> Some (v "new" i)));
  let it = E.iterator ~snapshot:snap db in
  it.Iter.seek_to_first ();
  let seen = ref [] in
  while it.Iter.valid () do
    seen := it.Iter.value () :: !seen;
    it.Iter.next ()
  done;
  check Alcotest.(list string) "snapshot iterator"
    (List.init 40 (v "old")) (List.rev !seen);
  E.close db

let () =
  Alcotest.run "snapshots-guard-deletion"
    [
      ( "pebbles-snapshots",
        [
          Alcotest.test_case "get old value" `Quick
            test_snapshot_get_sees_old_value;
          Alcotest.test_case "hides later ops" `Quick
            test_snapshot_hides_later_inserts_and_deletes;
          Alcotest.test_case "survives compaction" `Quick
            test_snapshot_survives_compaction;
          Alcotest.test_case "iterator view" `Quick
            test_snapshot_iterator_consistent_view;
          Alcotest.test_case "release unpins" `Quick test_release_unpins_space;
          prop_snapshot_is_frozen_model;
        ] );
      ( "lsm-snapshots",
        [ Alcotest.test_case "roundtrip" `Quick test_lsm_snapshot_roundtrip ] );
      ( "straddling-runs",
        List.map
          (fun (name, _) ->
            Alcotest.test_case name `Quick (test_versions_straddle_tables name))
          straddle_subjects );
      ( "guard-deletion",
        [
          Alcotest.test_case "delete empty guards" `Quick
            test_delete_empty_guards;
          Alcotest.test_case "persists across reopen" `Quick
            test_guard_deletion_persists_across_reopen;
          Alcotest.test_case "spares occupied" `Quick
            test_delete_empty_guards_spares_occupied;
        ] );
    ]
