(* Contracts the two LSM-family engines share through their common shell:
   an iterator stays valid until the next write, even while other readers'
   seeks fire seek compactions, a seek pass runs only the compactions it
   finds, and every seek pays for the tables it positions. *)

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
  val get : ?snapshot:int -> t -> string -> string option
  val flush : t -> unit
  val compact_all : t -> unit
  val iterator : ?snapshot:int -> t -> Iter.t
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
  match
    List.assoc_opt "seek"
      (Scheduler.counters sched).Pdb_kvs.Engine_stats.by_trigger
  with
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
  for _ = 1 to (4 * O.seek_compaction_threshold) + 1 do
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
   again, fire seek compactions. *)
let test_seek_compactions_counted name () =
  let (module E : ENGINE), opts = List.assoc name engines in
  let db = E.open_store opts ~env:(Env.create ()) ~dir:"db" in
  let rng = Random.State.make [| 5 |] in
  for round = 0 to 4 do
    fill (module E) db rng ~from:(round * 2000) ~n:2000;
    let it = E.iterator db in
    for _ = 1 to (3 * O.seek_compaction_threshold) + 1 do
      it.Iter.seek (key rng)
    done
  done;
  let counted = (E.stats db).Pdb_kvs.Engine_stats.seek_compactions in
  Alcotest.(check bool) "seek compactions counted" true (counted > 0);
  E.close db

(* A seek pass that finds nothing to compact runs no job: on a PebblesDB
   store where no guard holds two tables, a full run of seeks leaves the
   scheduler's job count where it was. *)
let test_idle_seek_pass () =
  let db =
    P.open_store (tiny (O.pebblesdb ())) ~env:(Env.create ()) ~dir:"db"
  in
  let rng = Random.State.make [| 5 |] in
  fill (module P) db rng ~from:0 ~n:300;
  P.compact_all db;
  Alcotest.(check bool) "no guard holds two tables" true
    (P.max_tables_in_any_guard db < 2 && P.l0_table_count db = 0);
  let jobs () = (P.stats db).Pdb_kvs.Engine_stats.compaction_jobs in
  let before = jobs () in
  let it = P.iterator db in
  for _ = 1 to O.seek_compaction_threshold do
    it.Iter.seek (key rng)
  done;
  Alcotest.(check int) "no compaction job" before (jobs ());
  P.close db

(* A table a flush or a compaction writes enters the table cache as it
   is written: the first get on it counts no table-cache miss and reads
   from the device only data blocks (each device read is a block-cache
   miss), never its footer, index or filter. *)
let test_new_tables_cached name () =
  let (module E : ENGINE), opts = List.assoc name engines in
  let env = Env.create () in
  let db = E.open_store opts ~env ~dir:"db" in
  let k i = Printf.sprintf "key%05d" i in
  let get_on_new_table what i want =
    let module S = Pdb_kvs.Engine_stats in
    let before = E.stats db and ops = (Env.stats env).Pdb_simio.Io_stats.read_ops in
    Alcotest.(check (option string)) (what ^ ": value") (Some want) (E.get db (k i));
    let after = E.stats db in
    Alcotest.(check int)
      (what ^ ": no table-cache miss")
      before.S.table_cache_misses after.S.table_cache_misses;
    Alcotest.(check int)
      (what ^ ": device reads are data blocks")
      (after.S.block_cache_misses - before.S.block_cache_misses)
      ((Env.stats env).Pdb_simio.Io_stats.read_ops - ops)
  in
  for i = 0 to 99 do
    E.put db (k i) (Printf.sprintf "flushed-%d" i)
  done;
  E.flush db;
  get_on_new_table "after a flush" 42 "flushed-42";
  for i = 0 to 599 do
    E.put db (k i) (Printf.sprintf "compacted-%d" i)
  done;
  E.compact_all db;
  get_on_new_table "after a compaction" 42 "compacted-42";
  get_on_new_table "after a compaction, another table" 577 "compacted-577";
  E.close db

(* Every table's bloom filter is sized to the keys it holds, whatever
   the table's size: over tables of up to 20,000 small entries, written
   by a flush and then by a full compaction, each table answers at most
   2% of probes for absent keys with a false positive.  A table of fewer
   than [Bloom.min_keys] keys gets a filter sized for that many. *)
let test_bloom_sized_to_keys name () =
  let (module E : ENGINE), opts = List.assoc name engines in
  let opts =
    {
      opts with
      O.memtable_bytes = 4 lsl 20;
      sstable_target_bytes = 64 * 1024;
      block_bytes = 4096;
    }
  in
  let module T = Pdb_sstable.Table in
  let probes = 10_000 in
  let checked = ref [] in
  let check_tables env what =
    List.iter
      (fun file ->
        let number =
          int_of_string (Filename.chop_suffix (Filename.basename file) ".sst")
        in
        let meta = T.recover_meta env ~dir:"db" ~number in
        let r = T.open_reader env ~dir:"db" meta in
        let fp = ref 0 in
        for i = 1 to probes do
          if T.may_contain r (Printf.sprintf "absent%07d" i) then incr fp
        done;
        checked := meta.T.entries :: !checked;
        let rate = float_of_int !fp /. float_of_int probes in
        if rate > 0.02 then
          Alcotest.failf "%s: table %d of %d entries: %.2f%% false positives"
            what number meta.T.entries (100.0 *. rate))
      (List.filter (fun f -> Filename.check_suffix f ".sst") (Env.list env))
  in
  List.iter
    (fun n ->
      let env = Env.create () in
      let db = E.open_store opts ~env ~dir:"db" in
      for i = 0 to n - 1 do
        E.put db (Printf.sprintf "k%07d" (i * 7)) (Printf.sprintf "v%d" i)
      done;
      E.flush db;
      check_tables env (Printf.sprintf "%d keys, flushed" n);
      E.compact_all db;
      check_tables env (Printf.sprintf "%d keys, compacted" n);
      E.close db)
    [ 16; 200; 2_000; 20_000 ];
  Alcotest.(check bool) "tables of 16 and of 1,000 entries or more checked"
    true
    (List.mem 16 !checked && List.exists (fun e -> e >= 1_000) !checked)

module type PILES = sig
  include ENGINE

  val flush : t -> unit
  val l0_files : t -> int
  val deeper_files : t -> int  (** tables below level 0 *)
end

module P_piles = struct
  include P

  let l0_files = P.l0_table_count
  let deeper_files t = List.length (P.sstable_metas t) - l0_files t
end

module L_piles = struct
  include L

  let l0_files t = (L.level_file_counts t).(0)

  let deeper_files t =
    Array.fold_left ( + ) 0 (L.level_file_counts t) - l0_files t
end

let piles_subjects =
  [
    ("pebblesdb", ((module P_piles : PILES), tiny (O.pebblesdb ())));
    ("leveled", ((module L_piles : PILES), tiny (O.hyperleveldb ())));
    ( "tiered",
      ( (module L_piles : PILES),
        tiny { (O.hyperleveldb ()) with O.compaction_policy = O.Tiered } ) );
  ]

(* Re-seeking one live iterator opens and charges every table it
   positions, the L0 pile and tiered runs included: each seek examines as
   many sstables as the same seek through a fresh iterator. *)
let test_reseek_charges name () =
  let (module E : PILES), opts = List.assoc name piles_subjects in
  let opts = { opts with O.seek_based_compaction = false } in
  let db = E.open_store opts ~env:(Env.create ()) ~dir:"db" in
  let rng = Random.State.make [| 3 |] in
  for i = 0 to 5999 do
    E.put db (key rng) (Printf.sprintf "value-%06d" i)
  done;
  E.put db "key00000" "last";
  E.flush db;
  let l0 = E.l0_files db in
  Alcotest.(check bool) "level 0 holds tables" true (l0 > 0);
  Alcotest.(check bool) "deeper levels hold tables" true (E.deeper_files db > 0);
  let examined f =
    let before = (E.stats db).Pdb_kvs.Engine_stats.sstables_examined in
    f ();
    (E.stats db).Pdb_kvs.Engine_stats.sstables_examined - before
  in
  let fresh = examined (fun () -> (E.iterator db).Iter.seek "") in
  Alcotest.(check bool) "a seek examines every L0 table" true (fresh >= l0);
  let it = E.iterator db in
  for i = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "seek %d on the live iterator" i)
      fresh
      (examined (fun () -> it.Iter.seek ""))
  done;
  E.close db

(* [value_slice] hands over exactly the bytes [value ()] returns, once,
   at every position of both engines' iterators and of a two-shard
   store's, over values from empty to over 4 KB that went through
   flushes and compactions. *)
let prop_value_slice =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"value_slice = value"
       QCheck.(
         list_of_size (QCheck.Gen.int_range 1 150)
           (pair (int_bound 500) (oneofl [ 0; 1; 100; 4095; 4096; 5000 ])))
       (fun ops ->
         let value k n i = String.init n (fun j -> Char.chr ((k + i + j) land 0xff)) in
         let ops =
           List.mapi
             (fun i (k, n) -> (Printf.sprintf "key%04d" k, value k n i))
             ops
         in
         let module M = Map.Make (String) in
         let want =
           M.cardinal (List.fold_left (fun m (k, v) -> M.add k v m) M.empty ops)
         in
         let walk what (it : Iter.t) =
           it.Iter.seek_to_first ();
           let n = ref 0 in
           while it.Iter.valid () do
             let calls = ref 0 and got = ref "" in
             it.Iter.value_slice (fun src pos len ->
                 incr calls;
                 got := String.sub src pos len);
             if !calls <> 1 || not (String.equal !got (it.Iter.value ())) then
               QCheck.Test.fail_reportf "%s: the slice at %S differs" what
                 (it.Iter.key ());
             incr n;
             it.Iter.next ()
           done;
           if !n <> want then
             QCheck.Test.fail_reportf "%s: %d entries, not %d" what !n want
         in
         List.iter
           (fun (name, ((module E : ENGINE), opts)) ->
             let db = E.open_store opts ~env:(Env.create ()) ~dir:"db" in
             List.iter (fun (k, v) -> E.put db k v) ops;
             walk name (E.iterator db);
             E.close db)
           engines;
         let module Stores = Pdb_harness.Stores in
         let sharded =
           Stores.open_sharded
             ~tweak:(fun o ->
               { (tiny o) with O.shards = 2; shard_splits = [ "key0250" ] })
             Stores.Pebblesdb
         in
         let store = sharded.Stores.s_dyn in
         List.iter (fun (k, v) -> store.Pdb_kvs.Store_intf.d_put k v) ops;
         walk "two shards" (store.Pdb_kvs.Store_intf.d_iterator ());
         store.Pdb_kvs.Store_intf.d_close ();
         true))

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
          engines
        @ [
            Alcotest.test_case "pebblesdb idle seek pass" `Quick
              test_idle_seek_pass;
          ] );
      ( "seek cost",
        List.map
          (fun (name, _) ->
            Alcotest.test_case (name ^ " re-seek charges every table") `Quick
              (test_reseek_charges name))
          piles_subjects );
      ( "new tables",
        List.map
          (fun (name, _) ->
            Alcotest.test_case (name ^ " first get opens nothing") `Quick
              (test_new_tables_cached name))
          engines );
      ( "bloom sizing",
        List.map
          (fun (name, _) ->
            Alcotest.test_case (name ^ " at most 2% false positives") `Quick
              (test_bloom_sized_to_keys name))
          engines );
      ("value slices", [ prop_value_slice ]);
    ]
