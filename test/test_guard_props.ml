(* Property tests for the guard structure, the guard selector, and the
   simulated environment's positioned writes — deeper coverage of the
   FLSM-specific invariants. *)

module G = Pebblesdb.Guard
module Sel = Pebblesdb.Guard_selector
module Ik = Pdb_kvs.Internal_key
module Env = Pdb_simio.Env
module O = Pdb_kvs.Options

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let meta ~number ~smallest ~largest : Pdb_sstable.Table.meta =
  {
    Pdb_sstable.Table.number;
    file_size = 100;
    entries = 10;
    smallest = Ik.encode ~user_key:smallest ~seq:1 ~kind:Ik.Value;
    largest = Ik.encode ~user_key:largest ~seq:1 ~kind:Ik.Value;
  }

(* random guard keys: short strings *)
let guard_keys_gen =
  QCheck.(list_of_size (QCheck.Gen.int_range 0 20)
            (string_of_size (QCheck.Gen.return 3)))

let prop_commit_keeps_guards_sorted_unique =
  qtest "commit_guards keeps guards sorted and unique" guard_keys_gen
    (fun keys ->
      let lvl = G.create_level () in
      (* commit in two batches to exercise merging with existing guards *)
      let n = List.length keys in
      let first = List.filteri (fun i _ -> i < n / 2) keys in
      let second = List.filteri (fun i _ -> i >= n / 2) keys in
      G.commit_guards lvl first;
      G.commit_guards lvl second;
      let g = lvl.G.guards in
      Array.length g >= 1
      && g.(0).G.gkey = ""
      &&
      let ok = ref true in
      for i = 1 to Array.length g - 2 do
        if String.compare g.(i).G.gkey g.(i + 1).G.gkey >= 0 then ok := false
      done;
      !ok)

let prop_guard_index_is_owning_interval =
  qtest "guard_index returns the owning interval"
    QCheck.(pair guard_keys_gen (string_of_size (QCheck.Gen.return 3)))
    (fun (keys, probe) ->
      let lvl = G.create_level () in
      G.commit_guards lvl keys;
      let i = G.guard_index lvl probe in
      let lo, hi = G.guard_range lvl i in
      String.compare lo probe <= 0
      && (match hi with None -> true | Some h -> String.compare probe h < 0))

let prop_attach_detach_roundtrip =
  qtest "attach then detach leaves the level empty"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20)
              (pair (string_of_size (QCheck.Gen.return 2))
                 (string_of_size (QCheck.Gen.return 2))))
    (fun ranges ->
      let lvl = G.create_level () in
      (* no guards: everything attaches to the sentinel, any range fits *)
      let metas =
        List.mapi
          (fun i (a, b) ->
            let lo = min a b and hi = max a b in
            meta ~number:i ~smallest:lo ~largest:hi)
          ranges
      in
      List.iter (G.attach lvl) metas;
      let before = G.table_count lvl in
      G.detach lvl (List.map (fun (m : Pdb_sstable.Table.meta) -> m.Pdb_sstable.Table.number) metas);
      before = List.length metas && G.table_count lvl = 0)

(* ---------- guard commits against the rebuild they replaced ---------- *)

(* The rebuild [commit_guards] used to run, kept as the oracle: dedupe
   against the whole array, re-sort every key, and reattach every table of
   the level, oldest first, to the guard owning its smallest key. *)
let rebuild_commit (level : G.level) keys =
  let keys =
    List.sort_uniq String.compare
      (List.filter
         (fun k ->
           k <> ""
           && not
                (Array.exists
                   (fun g -> String.equal g.G.gkey k)
                   level.G.guards))
         keys)
  in
  if keys <> [] then begin
    let all_tables =
      Array.to_list level.G.guards |> List.concat_map (fun g -> g.G.tables)
    in
    let merged_keys =
      List.sort_uniq String.compare
        (keys
         @ (Array.to_list level.G.guards
            |> List.filter_map (fun g ->
                   if g.G.gkey = "" then None else Some g.G.gkey)))
    in
    let guards =
      Array.of_list
        (G.sentinel ()
        :: List.map (fun k -> { G.gkey = k; tables = [] }) merged_keys)
    in
    List.iter
      (fun (m : Pdb_sstable.Table.meta) ->
        let i =
          G.guard_index { G.guards } (Ik.user_key m.Pdb_sstable.Table.smallest)
        in
        guards.(i) <- { (guards.(i)) with G.tables = m :: guards.(i).G.tables };
        if not (G.table_fits { G.guards } i m) then
          failwith "Guard.commit_guards: straddling table")
      (List.rev all_tables);
    level.G.guards <- guards
  end

(* a level's guard keys with each guard's table numbers, newest first *)
let layout (level : G.level) =
  Array.to_list level.G.guards
  |> List.map (fun g ->
         ( g.G.gkey,
           List.map
             (fun (m : Pdb_sstable.Table.meta) -> m.Pdb_sstable.Table.number)
             g.G.tables ))

let outcome commit level keys =
  match commit level keys with
  | () -> Ok (layout level)
  | exception Failure msg -> Error msg

(* Short keys over a small alphabet, so fresh keys collide with committed
   ones, repeat, and fall inside the tables' ranges. *)
let short_key =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (int_range 0 2))

(* A level: committed guard keys, then tables drawn as key ranges (each
   attached when it fits its guard, so several share a guard), and fresh
   keys that mix "", repeats, committed keys and keys inside tables. *)
let commit_case_gen =
  QCheck.Gen.(
    triple
      (list_size (int_range 0 6) short_key)
      (list_size (int_range 0 16) (pair short_key short_key))
      (list_size (int_range 0 8)
         (frequency [ (6, map (fun k -> `Key k) short_key); (1, return `Empty);
                      (2, map (fun i -> `Committed i) nat) ])))

let print_commit_case =
  QCheck.Print.(
    triple (list string) (list (pair string string))
      (list (function
         | `Key k -> k | `Empty -> "<empty>"
         | `Committed i -> "committed#" ^ string_of_int i)))

let build_level guard_keys ranges =
  let level = G.create_level () in
  rebuild_commit level guard_keys;
  List.iteri
    (fun number (a, b) ->
      let m = meta ~number ~smallest:(min a b) ~largest:(max a b) in
      if G.table_fits level (G.guard_index level (min a b)) m then
        G.attach level m)
    ranges;
  level

let prop_commit_matches_rebuild =
  qtest ~count:1000 "commit_guards = rebuild oracle"
    (QCheck.make ~print:print_commit_case commit_case_gen)
    (fun (guard_keys, ranges, picks) ->
      let level = build_level guard_keys ranges in
      let committed = level.G.guards in
      let keys =
        List.map
          (function
            | `Key k -> k
            | `Empty -> ""
            | `Committed i -> committed.(i mod Array.length committed).G.gkey)
          picks
      in
      (* both commit from the same guard array, which neither mutates *)
      let ours = outcome G.commit_guards { G.guards = committed } keys in
      let oracle = outcome rebuild_commit { G.guards = committed } keys in
      ours = oracle)

(* A table across a fresh key fails the commit and leaves the level as it
   was; a guard of several tables splits with each side newest first. *)
let test_commit_split_and_straddle () =
  let level = G.create_level () in
  G.commit_guards level [ "m" ];
  List.iter (G.attach level)
    [ meta ~number:1 ~smallest:"a" ~largest:"b";
      meta ~number:2 ~smallest:"e" ~largest:"f";
      meta ~number:3 ~smallest:"c" ~largest:"d";
      meta ~number:4 ~smallest:"g" ~largest:"h" ];
  G.commit_guards level [ "e"; "m"; ""; "e" ];
  check
    Alcotest.(list (pair string (list int)))
    "split keeps newest first"
    [ ("", [ 3; 1 ]); ("e", [ 4; 2 ]); ("m", []) ]
    (layout level);
  let before = layout level in
  Alcotest.check_raises "straddler raises"
    (Failure "Guard.commit_guards: straddling table") (fun () ->
      G.commit_guards level [ "k"; "f" ]);
  check
    Alcotest.(list (pair string (list int)))
    "level unchanged after the failed commit" before (layout level)

let test_guard_range_boundaries () =
  let lvl = G.create_level () in
  G.commit_guards lvl [ "g"; "p" ];
  check Alcotest.(pair string (option string)) "sentinel range" ("", Some "g")
    (G.guard_range lvl 0);
  check Alcotest.(pair string (option string)) "middle range" ("g", Some "p")
    (G.guard_range lvl 1);
  check Alcotest.(pair string (option string)) "last range" ("p", None)
    (G.guard_range lvl 2)

let prop_selector_respects_bit_budget =
  (* a key is a guard at level l iff its trailing ones meet guard_bits l *)
  qtest "selector matches the bit rule"
    QCheck.(string_of_size (QCheck.Gen.return 8))
    (fun key ->
      let opts = O.pebblesdb () in
      let trailing =
        Pdb_util.Murmur3.trailing_ones (Pdb_util.Murmur3.hash32 key)
      in
      match Sel.guard_level opts key with
      | None ->
        (* must fail the loosest (deepest) requirement *)
        trailing < O.guard_bits opts ~level:(opts.O.max_levels - 1)
      | Some l ->
        trailing >= O.guard_bits opts ~level:l
        && (l = 1 || trailing < O.guard_bits opts ~level:(l - 1)))

(* ---------- env positioned writes ---------- *)

let test_write_at_basic () =
  let env = Env.create () in
  Env.write_at env "pages" ~pos:0 "AAAA";
  Env.write_at env "pages" ~pos:8 "BBBB";
  check Alcotest.int "size extends" 12 (Env.file_size env "pages");
  check Alcotest.string "gap zero-filled" "\000\000\000\000"
    (Env.read env "pages" ~pos:4 ~len:4 ~hint:Pdb_simio.Device.Random_read);
  Env.write_at env "pages" ~pos:2 "XX";
  check Alcotest.string "overwrite in place" "AAXX"
    (Env.read env "pages" ~pos:0 ~len:4 ~hint:Pdb_simio.Device.Random_read)

let test_write_at_durable_over_crash () =
  let env = Env.create () in
  Env.write_at env "pages" ~pos:0 "DATA";
  Env.crash env;
  check Alcotest.string "page writes survive crash" "DATA"
    (Env.read env "pages" ~pos:0 ~len:4 ~hint:Pdb_simio.Device.Random_read)

let prop_write_at_matches_model =
  qtest "write_at = byte-array model" ~count:50
    QCheck.(list (pair (int_bound 200) (string_of_size (QCheck.Gen.return 5))))
    (fun writes ->
      let env = Env.create () in
      let model = Bytes.make 512 '\000' in
      let maxlen = ref 0 in
      List.iter
        (fun (pos, s) ->
          Env.write_at env "f" ~pos s;
          Bytes.blit_string s 0 model pos (String.length s);
          maxlen := max !maxlen (pos + String.length s))
        writes;
      writes = []
      || Env.read_all env "f" ~hint:Pdb_simio.Device.Sequential_read
         = Bytes.sub_string model 0 !maxlen)

let () =
  Alcotest.run "guard-props"
    [
      ( "guard-structure",
        [
          prop_commit_keeps_guards_sorted_unique;
          prop_guard_index_is_owning_interval;
          prop_attach_detach_roundtrip;
          Alcotest.test_case "range boundaries" `Quick
            test_guard_range_boundaries;
          prop_commit_matches_rebuild;
          Alcotest.test_case "commit splits and rejects straddlers" `Quick
            test_commit_split_and_straddle;
        ] );
      ( "selector", [ prop_selector_respects_bit_budget ] );
      ( "env-write-at",
        [
          Alcotest.test_case "basic" `Quick test_write_at_basic;
          Alcotest.test_case "durable over crash" `Quick
            test_write_at_durable_over_crash;
          prop_write_at_matches_model;
        ] );
    ]
