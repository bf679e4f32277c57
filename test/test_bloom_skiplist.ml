(* Tests for the bloom filter and skip list substrates. *)

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Bloom ---------- *)

module Bloom = Pdb_bloom.Bloom

let test_bloom_no_false_negatives () =
  let b = Bloom.create 1000 in
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key%d" i)
  done;
  for i = 0 to 999 do
    Alcotest.(check bool) "member" true (Bloom.mem b (Printf.sprintf "key%d" i))
  done

let test_bloom_false_positive_rate () =
  let b = Bloom.create 10_000 in
  for i = 0 to 9_999 do
    Bloom.add b (Printf.sprintf "key%d" i)
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "other%d" i) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  Alcotest.(check bool)
    (Printf.sprintf "fp rate %.4f < 0.03" rate)
    true (rate < 0.03)

let test_bloom_size_follows_bits_per_key () =
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "bytes for %d keys" n)
        (n * Bloom.bits_per_key / 8)
        (Bloom.size_bytes (Bloom.create n)))
    [ 8; 100; 1000; 10_000 ]

let test_bloom_encode_roundtrip () =
  let b = Bloom.create 100 in
  List.iter (Bloom.add b) [ "a"; "b"; "c" ];
  let b' = Bloom.decode (Bloom.encode b) in
  List.iter
    (fun k -> Alcotest.(check bool) ("member " ^ k) true (Bloom.mem b' k))
    [ "a"; "b"; "c" ];
  check Alcotest.int "nkeys" 3 (Bloom.nkeys b')

let test_bloom_empty () =
  let b = Bloom.create 10 in
  Alcotest.(check bool) "empty filter rejects" false (Bloom.mem b "anything")

let prop_bloom_membership =
  qtest "no false negatives (random keys)"
    QCheck.(list string)
    (fun keys ->
      let b = Bloom.create (max 1 (List.length keys)) in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

(* Keys noted, then built into a filter sized to their count (and at
   least [min_keys]), give the filter [create] of that count and [add] of
   each would: the same bytes.  Past 64 keys the note buffer has grown. *)
let prop_bloom_of_pending =
  qtest "of_pending = create + add"
    QCheck.(list_of_size (Gen.int_range 0 300) string)
    (fun keys ->
      let p = Bloom.pending () in
      List.iter (Bloom.note p) keys;
      let b = Bloom.create (max Bloom.min_keys (List.length keys)) in
      List.iter (Bloom.add b) keys;
      String.equal (Bloom.encode (Bloom.of_pending p)) (Bloom.encode b))

(* ---------- Skiplist ---------- *)

module Skiplist = Pdb_skiplist.Skiplist

let make_list () = Skiplist.create ~compare:String.compare "" ""

let test_skiplist_insert_find () =
  let sl = make_list () in
  Skiplist.insert sl "b" "2";
  Skiplist.insert sl "a" "1";
  Skiplist.insert sl "c" "3";
  check Alcotest.(option string) "find a" (Some "1") (Skiplist.find sl "a");
  check Alcotest.(option string) "find c" (Some "3") (Skiplist.find sl "c");
  check Alcotest.(option string) "missing" None (Skiplist.find sl "zz");
  check Alcotest.int "length" 3 (Skiplist.length sl)

let test_skiplist_order () =
  let sl = make_list () in
  let keys = [ "delta"; "alpha"; "echo"; "charlie"; "bravo" ] in
  List.iter (fun k -> Skiplist.insert sl k k) keys;
  let got = List.map fst (Skiplist.to_list sl) in
  check
    Alcotest.(list string)
    "sorted"
    [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ]
    got

let test_skiplist_seek () =
  let sl = make_list () in
  let seek k =
    Option.map
      (fun e -> (Skiplist.entry_key e, Skiplist.entry_value e))
      (Skiplist.seek sl k)
  in
  List.iter (fun k -> Skiplist.insert sl k k) [ "b"; "d"; "f" ];
  check
    Alcotest.(option (pair string string))
    "seek between" (Some ("d", "d")) (seek "c");
  check
    Alcotest.(option (pair string string))
    "seek exact" (Some ("d", "d")) (seek "d");
  check
    Alcotest.(option (pair string string))
    "seek past end" None (seek "g");
  check
    Alcotest.(option (pair string string))
    "seek before start" (Some ("b", "b")) (seek "a")

let test_skiplist_min_max () =
  let sl = make_list () in
  check Alcotest.(option (pair string string)) "min empty" None
    (Skiplist.min_entry sl);
  check Alcotest.(option (pair string string)) "max empty" None
    (Skiplist.max_entry sl);
  List.iter (fun k -> Skiplist.insert sl k k) [ "m"; "a"; "z" ];
  check
    Alcotest.(option (pair string string))
    "min" (Some ("a", "a")) (Skiplist.min_entry sl);
  check
    Alcotest.(option (pair string string))
    "max" (Some ("z", "z")) (Skiplist.max_entry sl)

let test_skiplist_duplicates_kept () =
  let sl = make_list () in
  Skiplist.insert sl "k" "1";
  Skiplist.insert sl "k" "2";
  check Alcotest.int "both kept" 2 (Skiplist.length sl)

let test_skiplist_cursor () =
  let sl = make_list () in
  List.iter (fun k -> Skiplist.insert sl k k) [ "a"; "b"; "c" ];
  let c = Skiplist.Cursor.make sl in
  Skiplist.Cursor.seek_to_first c;
  Alcotest.(check bool) "valid" true (Skiplist.Cursor.valid c);
  check Alcotest.string "first" "a" (Skiplist.Cursor.key c);
  check Alcotest.string "its value" "a" (Skiplist.Cursor.value c);
  Skiplist.Cursor.next c;
  check Alcotest.string "second" "b" (Skiplist.Cursor.key c);
  Skiplist.Cursor.seek c "bz";
  check Alcotest.string "seek lands on c" "c" (Skiplist.Cursor.key c);
  Skiplist.Cursor.next c;
  Alcotest.(check bool) "exhausted" false (Skiplist.Cursor.valid c)

let prop_skiplist_model =
  (* The skip list must agree with a sorted-map model on membership and
     order under random unique-key insertions. *)
  qtest "matches sorted-map model"
    QCheck.(list (pair (string_of_size (QCheck.Gen.return 6)) small_int))
    (fun pairs ->
      let module M = Map.Make (String) in
      let model =
        List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs
      in
      let sl =
        Skiplist.create ~compare:String.compare "" 0
      in
      M.iter (fun k v -> Skiplist.insert sl k v) model;
      M.for_all (fun k v -> Skiplist.find sl k = Some v) model
      && List.map fst (Skiplist.to_list sl) = List.map fst (M.bindings model))

let () =
  Alcotest.run "bloom-skiplist"
    [
      ( "bloom",
        [
          Alcotest.test_case "no false negatives" `Quick
            test_bloom_no_false_negatives;
          Alcotest.test_case "fp rate" `Quick test_bloom_false_positive_rate;
          Alcotest.test_case "size follows bits_per_key" `Quick
            test_bloom_size_follows_bits_per_key;
          Alcotest.test_case "encode roundtrip" `Quick
            test_bloom_encode_roundtrip;
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          prop_bloom_membership;
          prop_bloom_of_pending;
        ] );
      ( "skiplist",
        [
          Alcotest.test_case "insert/find" `Quick test_skiplist_insert_find;
          Alcotest.test_case "order" `Quick test_skiplist_order;
          Alcotest.test_case "seek" `Quick test_skiplist_seek;
          Alcotest.test_case "min/max" `Quick test_skiplist_min_max;
          Alcotest.test_case "duplicates" `Quick test_skiplist_duplicates_kept;
          Alcotest.test_case "cursor" `Quick test_skiplist_cursor;
          prop_skiplist_model;
        ] );
    ]
