(* Tests for blocks, tables, caches and level iterators. *)

open Pdb_sstable
module Ik = Pdb_kvs.Internal_key
module Iter = Pdb_kvs.Iter

let check = Alcotest.check

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Block ---------- *)

let build_block entries =
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  Block.decode (Block.Builder.finish b)

let test_block_roundtrip () =
  let entries =
    List.init 50 (fun i -> (Printf.sprintf "key%04d" i, Printf.sprintf "v%d" i))
  in
  let blk = build_block entries in
  check
    Alcotest.(list (pair string string))
    "all entries" entries
    (Block.entries ~compare:String.compare blk)

let test_block_prefix_compression_effective () =
  (* long shared prefixes should compress well *)
  let entries =
    List.init 100 (fun i ->
        (Printf.sprintf "commonprefix/long/shared/%04d" i, "v"))
  in
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  let raw = Block.Builder.finish b in
  let uncompressed =
    List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v)
      0 entries
  in
  Alcotest.(check bool) "smaller than raw concat" true
    (String.length raw < uncompressed)

let test_block_seek () =
  let entries = List.init 60 (fun i -> (Printf.sprintf "k%04d" (i * 2), "v")) in
  let blk = build_block entries in
  let it = Block.iterator ~compare:String.compare blk in
  it.Iter.seek "k0007";
  check Alcotest.string "seek between keys" "k0008" (it.Iter.key ());
  it.Iter.seek "k0000";
  check Alcotest.string "seek first" "k0000" (it.Iter.key ());
  it.Iter.seek "k0118";
  check Alcotest.string "seek last" "k0118" (it.Iter.key ());
  it.Iter.seek "k9999";
  Alcotest.(check bool) "seek past end invalid" false (it.Iter.valid ())

let test_block_seek_across_restarts () =
  (* more entries than one restart interval, targeted seeks everywhere *)
  let entries = List.init 100 (fun i -> (Printf.sprintf "k%04d" i, string_of_int i)) in
  let blk = build_block entries in
  let it = Block.iterator ~compare:String.compare blk in
  List.iter
    (fun i ->
      it.Iter.seek (Printf.sprintf "k%04d" i);
      check Alcotest.string "exact seek" (Printf.sprintf "k%04d" i)
        (it.Iter.key ()))
    [ 0; 1; 15; 16; 17; 31; 32; 33; 50; 98; 99 ]

let test_block_single_entry () =
  let blk = build_block [ ("only", "v") ] in
  let it = Block.iterator ~compare:String.compare blk in
  it.Iter.seek_to_first ();
  check Alcotest.string "single" "only" (it.Iter.key ());
  it.Iter.next ();
  Alcotest.(check bool) "exhausted" false (it.Iter.valid ())

let prop_block_roundtrip =
  qtest "block roundtrip (random sorted keys)"
    QCheck.(list (pair (string_of_size (QCheck.Gen.return 8)) small_int))
    (fun pairs ->
      let module M = Map.Make (String) in
      let m =
        List.fold_left (fun m (k, v) -> M.add k (string_of_int v) m) M.empty
          pairs
      in
      let entries = M.bindings m in
      match entries with
      | [] -> true
      | _ ->
        let blk = build_block entries in
        Block.entries ~compare:String.compare blk = entries)

(* Values are copied out of the block only on demand: at every position,
   reached by [next] or by [seek], [value ()] must still be exactly what
   the builder was given. *)
let prop_block_values =
  qtest "block value at every position"
    QCheck.(
      list
        (pair (string_of_size (QCheck.Gen.int_range 0 12))
           (string_of_size (QCheck.Gen.int_range 0 1500))))
    (fun pairs ->
      let module M = Map.Make (String) in
      let entries =
        M.bindings
          (List.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs)
      in
      entries = []
      ||
      let it = Block.iterator ~compare:String.compare (build_block entries) in
      it.Iter.seek_to_first ();
      let walked =
        List.for_all
          (fun (k, v) ->
            let ok =
              it.Iter.valid () && it.Iter.key () = k && it.Iter.value () = v
              && it.Iter.value () = v
            in
            it.Iter.next ();
            ok)
          entries
        && not (it.Iter.valid ())
      in
      walked
      && List.for_all
           (fun (k, v) ->
             it.Iter.seek k;
             it.Iter.valid () && it.Iter.value () = v)
           entries)

(* A damaged block either decodes or fails with [Invalid_argument] —
   from [decode], [seek], [next] or [value] — and never with any other
   exception: every truncation, and every flip of one bit or of a whole
   byte, of a block that spans several restart intervals. *)
let test_block_decoder_robust () =
  let entries =
    List.init 40 (fun i ->
        (Printf.sprintf "key/%03d" (i * 3), String.make (i mod 7 * 5) 'v'))
  in
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  let raw = Block.Builder.finish b in
  let targets = [ ""; "key/000"; "key/050"; "key/061"; "key/117"; "zzz" ] in
  let exercise what damaged =
    let tolerate f = try f () with Invalid_argument _ -> () in
    try
      tolerate (fun () ->
          let it =
            Block.iterator ~compare:String.compare (Block.decode damaged)
          in
          tolerate (fun () ->
              it.Iter.seek_to_first ();
              let steps = ref 0 in
              while it.Iter.valid () && !steps <= List.length entries do
                ignore (it.Iter.key ());
                ignore (it.Iter.value ());
                it.Iter.next ();
                incr steps
              done);
          List.iter
            (fun target ->
              tolerate (fun () ->
                  it.Iter.seek target;
                  if it.Iter.valid () then ignore (it.Iter.value ())))
            targets)
    with e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  for len = 0 to String.length raw - 1 do
    exercise
      (Printf.sprintf "truncated to %d bytes" len)
      (String.sub raw 0 len)
  done;
  String.iteri
    (fun i c ->
      List.iter
        (fun mask ->
          let damaged = Bytes.of_string raw in
          Bytes.set damaged i (Char.chr (Char.code c lxor mask));
          exercise
            (Printf.sprintf "byte %d xor 0x%02x" i mask)
            (Bytes.to_string damaged))
        [ 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0xff ])
    raw

(* ---------- Table ---------- *)

let ikey k seq = Ik.encode ~user_key:k ~seq ~kind:Ik.Value

let build_table ?(bloom = true) env ~dir ~number entries =
  let b =
    Table.Builder.create env ~dir ~number ~block_bytes:512 ~bloom
      ~expected_keys:(List.length entries)
  in
  List.iter (fun (ik, v) -> Table.Builder.add b ik v) entries;
  match Table.Builder.finish b with
  | Some meta -> meta
  | None -> Alcotest.fail "table should not be empty"

let sorted_entries n =
  List.init n (fun i -> (ikey (Printf.sprintf "key%05d" i) (i + 1),
                         Printf.sprintf "value-%05d" i))

let test_table_build_and_get () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:1 (sorted_entries 200) in
  check Alcotest.int "entries" 200 meta.Table.entries;
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  (* point lookups *)
  List.iter
    (fun i ->
      let target = Ik.max_for_lookup (Printf.sprintf "key%05d" i) in
      match Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target with
      | Some (ik, v) ->
        check Alcotest.string "found key" (Printf.sprintf "key%05d" i)
          (Ik.user_key ik);
        check Alcotest.string "found value" (Printf.sprintf "value-%05d" i) v
      | None -> Alcotest.fail "expected hit")
    [ 0; 1; 57; 100; 199 ]

let test_table_get_absent_lands_on_successor () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:1 (sorted_entries 50) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let target = Ik.max_for_lookup "key00010zzz" in
  (match Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target with
   | Some (ik, _) ->
     check Alcotest.string "successor" "key00011" (Ik.user_key ik)
   | None -> Alcotest.fail "expected successor");
  let past = Ik.max_for_lookup "zzzz" in
  Alcotest.(check bool) "past end" true
    (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read past = None)

let test_table_iterator_full_scan () =
  let env = Pdb_simio.Env.create () in
  let entries = sorted_entries 300 in
  let meta = build_table env ~dir:"db" ~number:2 entries in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it = Table.iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read in
  check
    Alcotest.(list (pair string string))
    "scan equals input" entries (Iter.to_list it)

let test_table_iterator_seek () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:3 (sorted_entries 300) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it = Table.iterator reader ~cache ~hint:Pdb_simio.Device.Random_read in
  it.Iter.seek (Ik.max_for_lookup "key00150");
  check Alcotest.string "seek mid" "key00150" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "next" "key00151" (Ik.user_key (it.Iter.key ()))

let test_table_bloom_filters_absent () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:4 (sorted_entries 100) in
  let reader = Table.open_reader env ~dir:"db" meta in
  Alcotest.(check bool) "present key passes" true
    (Table.may_contain reader "key00050");
  let misses = ref 0 in
  for i = 0 to 99 do
    if not (Table.may_contain reader (Printf.sprintf "other%05d" i)) then
      incr misses
  done;
  Alcotest.(check bool) "bloom rejects most absents" true (!misses > 90)

let test_table_no_bloom () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table ~bloom:false env ~dir:"db" ~number:5 (sorted_entries 10) in
  let reader = Table.open_reader env ~dir:"db" meta in
  Alcotest.(check bool) "no filter" false (Table.has_filter reader);
  Alcotest.(check bool) "may_contain defaults true" true
    (Table.may_contain reader "whatever")

let test_table_empty_builder () =
  let env = Pdb_simio.Env.create () in
  let b =
    Table.Builder.create env ~dir:"db" ~number:6 ~block_bytes:512 ~bloom:true
      ~expected_keys:0
  in
  Alcotest.(check bool) "empty finish yields None" true
    (Table.Builder.finish b = None);
  Alcotest.(check bool) "file deleted" false
    (Pdb_simio.Env.exists env (Table.file_name ~dir:"db" 6))

let test_block_cache_hit_avoids_io () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:7 (sorted_entries 100) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let target = Ik.max_for_lookup "key00050" in
  ignore (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target);
  let reads_before = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  ignore (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read target);
  let reads_after = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  check Alcotest.int "second get reads nothing" reads_before reads_after

let test_table_cache_eviction_reopens () =
  let env = Pdb_simio.Env.create () in
  let m1 = build_table env ~dir:"db" ~number:10 (sorted_entries 20) in
  let m2 = build_table env ~dir:"db" ~number:11 (sorted_entries 20) in
  let tc = Table_cache.create env ~dir:"db" ~entries:1 in
  ignore (Table_cache.find tc m1);
  ignore (Table_cache.find tc m2);
  (* m1 evicted; finding it again must re-read footer+index (device IO) *)
  let reads_before = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  ignore (Table_cache.find tc m1);
  let reads_after = (Pdb_simio.Env.stats env).Pdb_simio.Io_stats.read_ops in
  Alcotest.(check bool) "reopen costs reads" true (reads_after > reads_before);
  check Alcotest.int "cache holds 1" 1 (Table_cache.open_tables tc)

(* Regression: in a byte-bounded cache, a summary-guided reopen defers
   its filter block; when a probe later materialises it, the reader's
   resident footprint changes but its insert-time LRU weight used to stay
   stale — the accounted byte budget silently diverged from what the
   cache actually held. *)
let test_table_cache_reweigh_on_filter_load () =
  let env = Pdb_simio.Env.create () in
  let m1 = build_table env ~dir:"db" ~number:12 (sorted_entries 200) in
  let m2 = build_table env ~dir:"db" ~number:13 (sorted_entries 200) in
  (* size the byte budget to hold exactly one of these tables *)
  let one = Table.resident_bytes (Table.open_reader env ~dir:"db" m1) in
  let tc =
    Table_cache.create ~bytes:(one + (one / 2)) ~summary_stride:4 env
      ~dir:"db" ~entries:1000
  in
  let check_accounting msg =
    let actual =
      Pdb_util.Lru.fold tc.Table_cache.cache
        (fun acc _ r -> acc + Table.resident_bytes r)
        0
    in
    check Alcotest.int msg actual (Table_cache.accounted_bytes tc)
  in
  ignore (Table_cache.find tc m1);
  check_accounting "accounted = actual after eager open";
  ignore (Table_cache.find tc m2);
  (* m1 evicted; reopening it is summary-guided, filter deferred *)
  let r1 = Table_cache.find tc m1 in
  Alcotest.(check bool) "reopened filter is lazy" false
    (Table.filter_resident r1);
  check_accounting "accounted = actual while filter lazy";
  Alcotest.(check bool) "probe loads the filter" true
    (Table.may_contain r1 "key00050");
  Alcotest.(check bool) "filter now resident" true (Table.filter_resident r1);
  check_accounting "accounted = actual after filter materialises"

(* ---------- Level_iter ---------- *)

let test_level_iter_concat_and_seek () =
  let env = Pdb_simio.Env.create () in
  (* two disjoint tables: keys 0..99 and 100..199 *)
  let e1 = List.init 100 (fun i -> (ikey (Printf.sprintf "k%05d" i) 1, "a")) in
  let e2 =
    List.init 100 (fun i -> (ikey (Printf.sprintf "k%05d" (100 + i)) 1, "b"))
  in
  let m1 = build_table env ~dir:"db" ~number:20 e1 in
  let m2 = build_table env ~dir:"db" ~number:21 e2 in
  let tc = Table_cache.create env ~dir:"db" ~entries:10 in
  let bc = Block_cache.create ~capacity:(1 lsl 20) in
  let examined = ref 0 in
  let it =
    Level_iter.create ~cache:tc ~block_cache:bc
      ~hint:Pdb_simio.Device.Random_read
      ~on_table:(fun () -> incr examined)
      (Fun.const (Level_iter.run [| m1; m2 |]))
  in
  (* seek into second table touches only one table *)
  examined := 0;
  it.Iter.seek (Ik.max_for_lookup "k00150");
  check Alcotest.string "seek second file" "k00150"
    (Ik.user_key (it.Iter.key ()));
  check Alcotest.int "one table examined" 1 !examined;
  (* crossing the file boundary transparently *)
  it.Iter.seek (Ik.max_for_lookup "k00099");
  check Alcotest.string "at boundary" "k00099" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "crossed" "k00100" (Ik.user_key (it.Iter.key ()));
  (* full scan sees everything *)
  it.Iter.seek_to_first ();
  let n = ref 0 in
  while it.Iter.valid () do
    incr n;
    it.Iter.next ()
  done;
  check Alcotest.int "scan count" 200 !n

let test_level_iter_empty () =
  let env = Pdb_simio.Env.create () in
  let tc = Table_cache.create env ~dir:"db" ~entries:10 in
  let bc = Block_cache.create ~capacity:(1 lsl 20) in
  let it =
    Level_iter.create ~cache:tc ~block_cache:bc
      ~hint:Pdb_simio.Device.Random_read
      ~on_table:(fun () -> ())
      (Fun.const (Level_iter.run [||]))
  in
  it.Iter.seek_to_first ();
  Alcotest.(check bool) "empty invalid" false (it.Iter.valid ());
  it.Iter.seek "anything";
  Alcotest.(check bool) "seek invalid" false (it.Iter.valid ())

let prop_table_roundtrip =
  qtest "table roundtrip (random sorted unique keys)" ~count:30
    QCheck.(list (string_of_size (QCheck.Gen.return 6)))
    (fun keys ->
      let keys = List.sort_uniq String.compare keys in
      match keys with
      | [] -> true
      | _ ->
        let env = Pdb_simio.Env.create () in
        let entries = List.mapi (fun i k -> (ikey k (i + 1), k)) keys in
        let meta = build_table env ~dir:"db" ~number:30 entries in
        let reader = Table.open_reader env ~dir:"db" meta in
        let cache = Block_cache.create ~capacity:(1 lsl 20) in
        let it =
          Table.iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read
        in
        Iter.to_list it = entries)

let () =
  Alcotest.run "sstable"
    [
      ( "block",
        [
          Alcotest.test_case "roundtrip" `Quick test_block_roundtrip;
          Alcotest.test_case "prefix compression" `Quick
            test_block_prefix_compression_effective;
          Alcotest.test_case "seek" `Quick test_block_seek;
          Alcotest.test_case "seek across restarts" `Quick
            test_block_seek_across_restarts;
          Alcotest.test_case "single entry" `Quick test_block_single_entry;
          prop_block_roundtrip;
          prop_block_values;
          Alcotest.test_case "damaged block raises Invalid_argument" `Quick
            test_block_decoder_robust;
        ] );
      ( "table",
        [
          Alcotest.test_case "build and get" `Quick test_table_build_and_get;
          Alcotest.test_case "absent -> successor" `Quick
            test_table_get_absent_lands_on_successor;
          Alcotest.test_case "full scan" `Quick test_table_iterator_full_scan;
          Alcotest.test_case "iterator seek" `Quick test_table_iterator_seek;
          Alcotest.test_case "bloom rejects absent" `Quick
            test_table_bloom_filters_absent;
          Alcotest.test_case "no bloom" `Quick test_table_no_bloom;
          Alcotest.test_case "empty builder" `Quick test_table_empty_builder;
          prop_table_roundtrip;
        ] );
      ( "caches",
        [
          Alcotest.test_case "block cache hit" `Quick
            test_block_cache_hit_avoids_io;
          Alcotest.test_case "table cache eviction" `Quick
            test_table_cache_eviction_reopens;
          Alcotest.test_case "byte cache re-weighs on filter load" `Quick
            test_table_cache_reweigh_on_filter_load;
        ] );
      ( "level-iter",
        [
          Alcotest.test_case "concat and seek" `Quick
            test_level_iter_concat_and_seek;
          Alcotest.test_case "empty" `Quick test_level_iter_empty;
        ] );
    ]
