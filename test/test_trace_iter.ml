(* Tests for the FLSM level iterator: one iterator over a guarded level,
   merging the overlapping tables inside each guard. *)

module Env = Pdb_simio.Env
module Iter = Pdb_kvs.Iter
module Ik = Pdb_kvs.Internal_key
module G = Pebblesdb.Guard

let check = Alcotest.check

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let ikey k = Ik.encode ~user_key:k ~seq:1 ~kind:Ik.Value

let build_table env ~number entries =
  let b =
    Pdb_sstable.Table.Builder.create env ~dir:"db" ~number ~block_bytes:512
      ~bloom:true
  in
  List.iter (fun (k, v) -> Pdb_sstable.Table.Builder.add b (ikey k) v) entries;
  fst (Option.get (Pdb_sstable.Table.Builder.finish b))

let make_level env specs =
  (* specs: (guard_keys, tables per guard as key lists) *)
  let level = G.create_level () in
  G.commit_guards level (List.filter_map fst specs);
  let number = ref 1 in
  List.iter
    (fun (_, tables) ->
      List.iter
        (fun keys ->
          let entries = List.map (fun k -> (k, "v-" ^ k)) keys in
          let meta = build_table env ~number:!number entries in
          incr number;
          G.attach level meta)
        tables)
    specs;
  level

let iter_of env level =
  let tc = Pdb_sstable.Table_cache.create env ~dir:"db" ~entries:100 in
  let bc = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 20) in
  Pdb_sstable.Level_iter.create ~cache:tc ~block_cache:bc
    ~hint:Pdb_simio.Device.Random_read
    ~on_table:(fun () -> ())
    (Pebblesdb.Pebbles_store.guard_view level)

let test_level_iter_merges_within_guard () =
  let env = Env.create () in
  (* one guard "g" with two overlapping tables *)
  let level =
    make_level env
      [ (None, [ [ "a"; "c" ] ]); (Some "g", [ [ "g"; "m" ]; [ "h"; "k" ] ]) ]
  in
  let it = iter_of env level in
  let keys = List.map (fun (k, _) -> Ik.user_key k) (Iter.to_list it) in
  check Alcotest.(list string) "merged order"
    [ "a"; "c"; "g"; "h"; "k"; "m" ]
    keys

let test_level_iter_skips_empty_guards () =
  let env = Env.create () in
  let level =
    make_level env
      [ (None, [ [ "a" ] ]); (Some "g", []); (Some "p", [ [ "q"; "r" ] ]) ]
  in
  let it = iter_of env level in
  it.Iter.seek (Ik.max_for_lookup "b");
  check Alcotest.string "skips empty guard g" "q"
    (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "next" "r" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  Alcotest.(check bool) "exhausted" false (it.Iter.valid ())

let test_level_iter_seek_lands_in_guard () =
  let env = Env.create () in
  let level =
    make_level env
      [
        (None, [ [ "a"; "b" ] ]);
        (Some "g", [ [ "g"; "z1" ] |> List.map (fun k -> k) ]);
      ]
  in
  (* table in guard g spans g..z1; the guard owns [g, inf) *)
  let it = iter_of env level in
  it.Iter.seek (Ik.max_for_lookup "h");
  check Alcotest.string "inside guard" "z1" (Ik.user_key (it.Iter.key ()))

let test_level_iter_empty_level () =
  let env = Env.create () in
  let level = G.create_level () in
  let it = iter_of env level in
  it.Iter.seek_to_first ();
  Alcotest.(check bool) "empty" false (it.Iter.valid ());
  it.Iter.seek (Ik.max_for_lookup "x");
  Alcotest.(check bool) "seek empty" false (it.Iter.valid ())

let prop_level_iter_equals_sorted_union =
  qtest "level iterator = sorted union of its tables" ~count:15
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30)
              (string_of_size (QCheck.Gen.return 4)))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      match keys with
      | [] -> true
      | _ ->
        let env = Env.create () in
        (* split keys across a guard at the median *)
        let arr = Array.of_list keys in
        let mid = arr.(Array.length arr / 2) in
        let left = List.filter (fun k -> k < mid) keys in
        let right = List.filter (fun k -> k >= mid) keys in
        let specs =
          [ (None, if left = [] then [] else [ left ]);
            (Some mid, if right = [] then [] else [ right ]) ]
        in
        let level = make_level env specs in
        let it = iter_of env level in
        let got = List.map (fun (k, _) -> Ik.user_key k) (Iter.to_list it) in
        got = keys)

let () =
  Alcotest.run "flsm-level-iter"
    [
      ( "flsm-level-iter",
        [
          Alcotest.test_case "merges within guard" `Quick
            test_level_iter_merges_within_guard;
          Alcotest.test_case "skips empty guards" `Quick
            test_level_iter_skips_empty_guards;
          Alcotest.test_case "seek in guard" `Quick
            test_level_iter_seek_lands_in_guard;
          Alcotest.test_case "empty level" `Quick test_level_iter_empty_level;
          prop_level_iter_equals_sorted_union;
        ] );
    ]
