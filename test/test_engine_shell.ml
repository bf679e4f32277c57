(* Contracts the two LSM-family engines share through their common shell:
   an iterator stays valid until the next write, even while other readers'
   seeks fire seek compactions, and every submitted seek compaction is
   counted. *)

module P = Pebblesdb.Pebbles_store
module L = Pdb_lsm.Lsm_store
module O = Pdb_kvs.Options
module Iter = Pdb_kvs.Iter
module Env = Pdb_simio.Env
module Scheduler = Pdb_compaction.Scheduler

module type ENGINE = sig
  type t

  val open_store :
    ?block_cache:Pdb_sstable.Block_cache.t -> O.t -> env:Env.t -> dir:string -> t

  val put : t -> string -> string -> unit
  val iterator : ?snapshot:int -> ?upper_bound:string -> t -> Iter.t
  val stats : t -> Pdb_kvs.Engine_stats.t
  val compaction_scheduler : t -> Scheduler.t
  val close : t -> unit
end

let tiny (o : O.t) =
  {
    o with
    O.memtable_bytes = 8 * 1024;
    sstable_target_bytes = 8 * 1024;
    block_bytes = 512;
    block_cache_bytes = 4 * 1024;
    top_level_bits = 7;
    bit_decrement = 1;
    max_levels = 5;
  }

let engines =
  [
    ("pebblesdb", ((module P : ENGINE), tiny (O.pebblesdb ())));
    ("leveled", ((module L : ENGINE), tiny (O.hyperleveldb ())));
  ]

let key rng = Printf.sprintf "key%05d" (Random.State.int rng 3000)

let fill (type a) (module E : ENGINE with type t = a) db rng ~from ~n =
  for i = from to from + n - 1 do
    E.put db (key rng) (Printf.sprintf "value-%06d" i)
  done

(* the rest of an iterator's walk from its current position *)
let walk (it : Iter.t) =
  let acc = ref [] in
  while it.Iter.valid () do
    acc := (it.Iter.key (), it.Iter.value ()) :: !acc;
    it.Iter.next ()
  done;
  List.rev !acc

let seek_runs sched =
  match List.assoc_opt "seek" (Scheduler.stats sched).Scheduler.by_trigger with
  | Some (runs, _) -> runs
  | None -> 0

(* Iterator A is positioned, iterator B's seeks fire seek compactions,
   creating iterator C must not collect the files A still reads, and A's
   walk must equal a fresh iterator's: no write happened in between. *)
let test_iterator_survives_other_seeks name () =
  let (module E : ENGINE), opts = List.assoc name engines in
  let db = E.open_store opts ~env:(Env.create ()) ~dir:"db" in
  let rng = Random.State.make [| 9 |] in
  fill (module E) db rng ~from:0 ~n:9400;
  let a = E.iterator db in
  a.Iter.seek_to_first ();
  let b = E.iterator db in
  let runs_before = seek_runs (E.compaction_scheduler db) in
  for _ = 1 to (4 * opts.O.seek_compaction_threshold) + 1 do
    b.Iter.seek (key rng)
  done;
  Alcotest.(check bool)
    "B's seeks fired seek compactions" true
    (seek_runs (E.compaction_scheduler db) > runs_before);
  let _c = E.iterator db in
  let got = walk a in
  let fresh = E.iterator db in
  fresh.Iter.seek_to_first ();
  let want = walk fresh in
  Alcotest.(check int) "A walks every live key" (List.length want)
    (List.length got);
  Alcotest.(check (list (pair string string))) "A's walk = fresh walk" want got;
  E.close db

(* Seek-heavy rounds, each after fresh writes so level 0 is populated
   again: the engine counter must equal the scheduler's seek-trigger
   runs. *)
let test_seek_compactions_counted name () =
  let (module E : ENGINE), opts = List.assoc name engines in
  let db = E.open_store opts ~env:(Env.create ()) ~dir:"db" in
  let rng = Random.State.make [| 5 |] in
  for round = 0 to 4 do
    fill (module E) db rng ~from:(round * 2000) ~n:2000;
    let it = E.iterator db in
    for _ = 1 to (3 * opts.O.seek_compaction_threshold) + 1 do
      it.Iter.seek (key rng)
    done
  done;
  let counted = (E.stats db).Pdb_kvs.Engine_stats.seek_compactions in
  Alcotest.(check bool) "seek compactions counted" true (counted > 0);
  Alcotest.(check int)
    "counter = seek-trigger runs"
    (seek_runs (E.compaction_scheduler db))
    counted;
  E.close db

let () =
  Alcotest.run "engine_shell"
    [
      ( "iterator contract",
        List.map
          (fun (name, _) ->
            Alcotest.test_case (name ^ " iterator survives other seeks")
              `Quick
              (test_iterator_survives_other_seeks name))
          engines );
      ( "seek compactions",
        List.map
          (fun (name, _) ->
            Alcotest.test_case (name ^ " counted") `Quick
              (test_seek_compactions_counted name))
          engines );
    ]
