(* Tests for internal keys, write batches, memtable, db iterator and the
   merging iterator. *)

open Pdb_kvs

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Internal_key ---------- *)

let test_ikey_roundtrip () =
  let ik = Internal_key.encode ~user_key:"hello" ~seq:42 ~kind:Internal_key.Value in
  check Alcotest.string "user key" "hello" (Internal_key.user_key ik);
  check Alcotest.int "seq" 42 (Internal_key.seq ik);
  Alcotest.(check bool) "kind" true (Internal_key.kind ik = Internal_key.Value);
  let ik2 =
    Internal_key.encode ~user_key:"" ~seq:0 ~kind:Internal_key.Deletion
  in
  check Alcotest.string "empty user key" "" (Internal_key.user_key ik2);
  Alcotest.(check bool) "deletion kind" true
    (Internal_key.kind ik2 = Internal_key.Deletion)

let test_ikey_order_user_key () =
  let a = Internal_key.encode ~user_key:"a" ~seq:1 ~kind:Internal_key.Value in
  let b = Internal_key.encode ~user_key:"b" ~seq:9 ~kind:Internal_key.Value in
  Alcotest.(check bool) "a < b" true (Internal_key.compare a b < 0)

let test_ikey_order_seq_desc () =
  let old_v = Internal_key.encode ~user_key:"k" ~seq:1 ~kind:Internal_key.Value in
  let new_v = Internal_key.encode ~user_key:"k" ~seq:9 ~kind:Internal_key.Value in
  Alcotest.(check bool) "newer sorts first" true
    (Internal_key.compare new_v old_v < 0)

let test_ikey_lookup_key () =
  let lookup = Internal_key.max_for_lookup "k" in
  let stored = Internal_key.encode ~user_key:"k" ~seq:1000 ~kind:Internal_key.Value in
  Alcotest.(check bool) "lookup sorts before any stored version" true
    (Internal_key.compare lookup stored <= 0)

(* Pairs of internal keys drawn to reach every tie-break: user keys of
   length 0-6 over a small alphabet with both byte extremes, the second
   often equal to the first, a prefix of it or an extension of it; seqs
   small, anywhere up to [max_seq], or exactly [max_seq]; both kinds. *)
let ikey_pair =
  let open QCheck.Gen in
  let user =
    string_size ~gen:(oneofl [ 'a'; 'b'; '\000'; '\255' ]) (int_range 0 6)
  in
  let seq =
    oneof
      [ small_nat; int_range 0 Internal_key.max_seq;
        return Internal_key.max_seq ]
  in
  let kind = oneofl Internal_key.[ Deletion; Value ] in
  let gen =
    user >>= fun k1 ->
    let k2 =
      oneof
        [ user; return k1;
          map (fun n -> String.sub k1 0 (min n (String.length k1)))
            (int_range 0 6);
          map (fun s -> k1 ^ s) user ]
    in
    pair (triple (return k1) seq kind) (triple k2 seq kind)
  in
  let print (k, s, d) =
    Printf.sprintf "(%S, %d, %s)" k s
      (match d with
       | Internal_key.Deletion -> "del"
       | Internal_key.Value -> "val")
  in
  QCheck.make ~print:(QCheck.Print.pair print print) gen

let prop_ikey_total_order =
  qtest ~count:1000 "compare consistent with decode" ikey_pair
    (fun ((k1, s1, d1), (k2, s2, d2)) ->
      let a = Internal_key.encode ~user_key:k1 ~seq:s1 ~kind:d1 in
      let b = Internal_key.encode ~user_key:k2 ~seq:s2 ~kind:d2 in
      (* reference order: user key ascending, seq descending, kind
         descending *)
      let expected =
        let c = String.compare k1 k2 in
        if c <> 0 then c
        else
          let c = Int.compare s2 s1 in
          if c <> 0 then c
          else
            Int.compare (Internal_key.kind_to_int d2)
              (Internal_key.kind_to_int d1)
      in
      let sign x = Int.compare x 0 in
      let round_trip ikey k s d =
        Internal_key.user_key ikey = k
        && Internal_key.seq ikey = s
        && Internal_key.kind ikey = d
      in
      sign (Internal_key.compare a b) = sign expected
      && sign (Internal_key.compare b a) = - sign expected
      && round_trip a k1 s1 d1
      && round_trip b k2 s2 d2
      && Internal_key.user_key_equal a k2 = String.equal k1 k2)

(* ---------- Write_batch ---------- *)

let test_batch_encode_decode () =
  let b = Write_batch.create () in
  Write_batch.put b "k1" "v1";
  Write_batch.delete b "k2";
  Write_batch.put b "k3" "v3";
  let encoded = Write_batch.encode b ~base_seq:100 in
  let decoded, base = Write_batch.decode encoded in
  check Alcotest.int "base seq" 100 base;
  check Alcotest.int "count" 3 (Write_batch.count decoded);
  let ops = Write_batch.ops decoded in
  Alcotest.(check bool) "ops equal" true
    (ops = [ Write_batch.Put ("k1", "v1"); Write_batch.Delete "k2";
             Write_batch.Put ("k3", "v3") ])

let test_batch_payload () =
  let b = Write_batch.create () in
  Write_batch.put b "abc" "defg";
  Write_batch.delete b "xy";
  check Alcotest.int "payload bytes" 9 (Write_batch.payload_bytes b)

let test_batch_empty () =
  let b = Write_batch.create () in
  let decoded, _ = Write_batch.decode (Write_batch.encode b ~base_seq:0) in
  check Alcotest.int "empty roundtrip" 0 (Write_batch.count decoded)

(* [encode] against a [Buffer]-built reference of the same format, its
   length against [encoded_size], and [decode] back: empty keys and values, and values long enough for two-
   and three-byte varint lengths. *)
let reference_encode ops ~base_seq =
  let buf = Buffer.create 64 in
  Pdb_util.Varint.put_fixed64 buf (Int64.of_int base_seq);
  Pdb_util.Varint.put_fixed32 buf (List.length ops);
  List.iter
    (function
      | Write_batch.Put (k, v) ->
        Buffer.add_char buf '\001';
        Pdb_util.Varint.put_length_prefixed buf k;
        Pdb_util.Varint.put_length_prefixed buf v
      | Write_batch.Delete k ->
        Buffer.add_char buf '\000';
        Pdb_util.Varint.put_length_prefixed buf k)
    ops;
  Buffer.contents buf

let batch_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_bound 24) in
  let value =
    frequency
      [ (4, string_size ~gen:char (int_bound 200));
        (1, string_size ~gen:char (int_range 16_000 20_000)) ]
  in
  let op =
    frequency
      [ (3, map2 (fun k v -> Write_batch.Put (k, v)) key value);
        (1, map (fun k -> Write_batch.Delete k) key) ]
  in
  pair (list_size (int_bound 12) op) (int_bound (1 lsl 40))

let prop_batch_encode =
  qtest ~count:300 "encode = Buffer reference, decode roundtrips"
    (QCheck.make
       ~print:(fun (ops, seq) ->
         Printf.sprintf "base_seq %d, %d ops: %s" seq (List.length ops)
           (String.concat "; "
              (List.map
                 (function
                   | Write_batch.Put (k, v) ->
                     Printf.sprintf "Put (%S, %d bytes)" k (String.length v)
                   | Write_batch.Delete k -> Printf.sprintf "Delete %S" k)
                 ops)))
       batch_gen)
    (fun (ops, base_seq) ->
      let b = Write_batch.create () in
      List.iter
        (function
          | Write_batch.Put (k, v) -> Write_batch.put b k v
          | Write_batch.Delete k -> Write_batch.delete b k)
        ops;
      let encoded = Write_batch.encode b ~base_seq in
      let decoded, seq = Write_batch.decode encoded in
      encoded = reference_encode ops ~base_seq
      && Write_batch.encoded_size b = String.length encoded
      && seq = base_seq
      && Write_batch.ops decoded = ops)

(* ---------- Memtable ---------- *)

let test_memtable_get_latest () =
  let m = Memtable.create () in
  Memtable.add m ~seq:1 ~kind:Internal_key.Value ~user_key:"k" ~value:"old";
  Memtable.add m ~seq:2 ~kind:Internal_key.Value ~user_key:"k" ~value:"new";
  Alcotest.(check bool) "latest wins" true
    (Memtable.get m (Internal_key.max_for_lookup "k") = Some (Some "new"))

let test_memtable_tombstone () =
  let m = Memtable.create () in
  Memtable.add m ~seq:1 ~kind:Internal_key.Value ~user_key:"k" ~value:"v";
  Memtable.add m ~seq:2 ~kind:Internal_key.Deletion ~user_key:"k" ~value:"";
  Alcotest.(check bool) "tombstone visible" true
    (Memtable.get m (Internal_key.max_for_lookup "k") = Some None)

let test_memtable_absent () =
  let m = Memtable.create () in
  Alcotest.(check bool) "absent" true
    (Memtable.get m (Internal_key.max_for_lookup "nope") = None)

let test_memtable_bytes_grow () =
  let m = Memtable.create () in
  let before = Memtable.approximate_bytes m in
  Memtable.add m ~seq:1 ~kind:Internal_key.Value ~user_key:"abc"
    ~value:(String.make 100 'v');
  Alcotest.(check bool) "bytes grow" true
    (Memtable.approximate_bytes m > before + 100)

let test_memtable_iterator_order () =
  let m = Memtable.create () in
  Memtable.add m ~seq:3 ~kind:Internal_key.Value ~user_key:"b" ~value:"2";
  Memtable.add m ~seq:1 ~kind:Internal_key.Value ~user_key:"a" ~value:"1";
  Memtable.add m ~seq:2 ~kind:Internal_key.Value ~user_key:"c" ~value:"3";
  let it = Memtable.iterator m in
  let keys =
    List.map (fun (ik, _) -> Internal_key.user_key ik) (Iter.to_list it)
  in
  check Alcotest.(list string) "user key order" [ "a"; "b"; "c" ] keys

(* ---------- Merging iterator ---------- *)

let mk_iter entries = Iter.of_sorted_array (Array.of_list entries)

let test_merge_two_sorted () =
  let a = mk_iter [ ("a", "1"); ("c", "3") ] in
  let b = mk_iter [ ("b", "2"); ("d", "4") ] in
  let m = Merging_iter.create ~compare:String.compare [ a; b ] in
  check
    Alcotest.(list (pair string string))
    "merged"
    [ ("a", "1"); ("b", "2"); ("c", "3"); ("d", "4") ]
    (Iter.to_list m)

let test_merge_tie_prefers_first_child () =
  (* children are ordered newest-first; on ties the first must win *)
  let newer = mk_iter [ ("k", "new") ] in
  let older = mk_iter [ ("k", "old") ] in
  let m = Merging_iter.create ~compare:String.compare [ newer; older ] in
  m.Iter.seek_to_first ();
  check Alcotest.string "tie" "new" (m.Iter.value ())

let test_merge_seek () =
  let a = mk_iter [ ("a", "1"); ("e", "5") ] in
  let b = mk_iter [ ("c", "3") ] in
  let m = Merging_iter.create ~compare:String.compare [ a; b ] in
  m.Iter.seek "b";
  check Alcotest.string "seek lands" "c" (m.Iter.key ());
  m.Iter.next ();
  check Alcotest.string "next" "e" (m.Iter.key ());
  m.Iter.next ();
  Alcotest.(check bool) "exhausted" false (m.Iter.valid ())

let test_merge_empty_children () =
  let m = Merging_iter.create ~compare:String.compare [ Iter.empty; Iter.empty ] in
  m.Iter.seek_to_first ();
  Alcotest.(check bool) "empty merge invalid" false (m.Iter.valid ())

let prop_merge_is_sorted_union =
  qtest "merge = sorted union of children" ~count:100
    QCheck.(pair (list (string_of_size (QCheck.Gen.return 3)))
              (list (string_of_size (QCheck.Gen.return 3))))
    (fun (l1, l2) ->
      let dedup l = List.sort_uniq String.compare l in
      let l1 = dedup l1 and l2 = dedup l2 in
      let mk l = mk_iter (List.map (fun k -> (k, k)) l) in
      let m = Merging_iter.create ~compare:String.compare [ mk l1; mk l2 ] in
      let got = List.map fst (Iter.to_list m) in
      let expected = List.sort String.compare (l1 @ l2) in
      got = expected)

(* ---------- Db_iter ---------- *)

let ik k seq kind = Internal_key.encode ~user_key:k ~seq ~kind

(* db-iter tests need internal-key ordering for binary search *)
let mk_iter entries =
  Iter.of_sorted_array ~compare:Internal_key.compare (Array.of_list entries)

let test_dbiter_filters_versions_and_tombstones () =
  (* internal order: (a,2,V) (a,1,V) (b,3,D) (b,2,V) (c,1,V) *)
  let entries =
    [
      (ik "a" 2 Internal_key.Value, "a-new");
      (ik "a" 1 Internal_key.Value, "a-old");
      (ik "b" 3 Internal_key.Deletion, "");
      (ik "b" 2 Internal_key.Value, "b-dead");
      (ik "c" 1 Internal_key.Value, "c-live");
    ]
  in
  let internal = mk_iter entries in
  let db = Db_iter.wrap internal in
  check
    Alcotest.(list (pair string string))
    "only live freshest"
    [ ("a", "a-new"); ("c", "c-live") ]
    (Iter.to_list db)

let test_dbiter_seek_skips_deleted () =
  let entries =
    [
      (ik "a" 5 Internal_key.Deletion, "");
      (ik "a" 1 Internal_key.Value, "dead");
      (ik "b" 2 Internal_key.Value, "live");
    ]
  in
  let db = Db_iter.wrap (mk_iter entries) in
  db.Iter.seek "a";
  check Alcotest.string "seek skips tombstoned a" "b" (db.Iter.key ())

let test_dbiter_seek_exact () =
  let entries = [ (ik "m" 1 Internal_key.Value, "v") ] in
  let db = Db_iter.wrap (mk_iter entries) in
  db.Iter.seek "m";
  Alcotest.(check bool) "valid" true (db.Iter.valid ());
  check Alcotest.string "exact" "m" (db.Iter.key ())

let () =
  Alcotest.run "kvs"
    [
      ( "internal-key",
        [
          Alcotest.test_case "roundtrip" `Quick test_ikey_roundtrip;
          Alcotest.test_case "user order" `Quick test_ikey_order_user_key;
          Alcotest.test_case "seq desc" `Quick test_ikey_order_seq_desc;
          Alcotest.test_case "lookup key" `Quick test_ikey_lookup_key;
          prop_ikey_total_order;
        ] );
      ( "write-batch",
        [
          Alcotest.test_case "encode/decode" `Quick test_batch_encode_decode;
          Alcotest.test_case "payload" `Quick test_batch_payload;
          Alcotest.test_case "empty" `Quick test_batch_empty;
          prop_batch_encode;
        ] );
      ( "memtable",
        [
          Alcotest.test_case "latest wins" `Quick test_memtable_get_latest;
          Alcotest.test_case "tombstone" `Quick test_memtable_tombstone;
          Alcotest.test_case "absent" `Quick test_memtable_absent;
          Alcotest.test_case "bytes grow" `Quick test_memtable_bytes_grow;
          Alcotest.test_case "iterator order" `Quick
            test_memtable_iterator_order;
        ] );
      ( "merging-iter",
        [
          Alcotest.test_case "two sorted" `Quick test_merge_two_sorted;
          Alcotest.test_case "tie newest" `Quick
            test_merge_tie_prefers_first_child;
          Alcotest.test_case "seek" `Quick test_merge_seek;
          Alcotest.test_case "empty" `Quick test_merge_empty_children;
          prop_merge_is_sorted_union;
        ] );
      ( "db-iter",
        [
          Alcotest.test_case "filters" `Quick
            test_dbiter_filters_versions_and_tombstones;
          Alcotest.test_case "seek skips deleted" `Quick
            test_dbiter_seek_skips_deleted;
          Alcotest.test_case "seek exact" `Quick test_dbiter_seek_exact;
        ] );
    ]
