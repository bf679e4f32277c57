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

(* What a walk over a possibly damaged block observes, as text: every
   entry [seek_to_first] and [next] reach (the value read both through
   [value ()] and through [value_slice]), each target's [seek] result, and
   every [Invalid_argument] message, from [decode] on.  Any other
   exception fails the test. *)
let block_walk ~steps ~targets what decode =
  let out = Buffer.create 1024 in
  let tolerate f =
    try f () with Invalid_argument msg -> Printf.bprintf out "!%s\n" msg
  in
  (try
     tolerate (fun () ->
         let it = Block.iterator ~compare:String.compare (decode ()) in
         let entry () =
           let sliced = ref "" in
           it.Iter.value_slice (fun src pos len ->
               sliced := String.sub src pos len);
           Printf.bprintf out "%S=%S/%S\n" (it.Iter.key ()) (it.Iter.value ())
             !sliced
         in
         tolerate (fun () ->
             it.Iter.seek_to_first ();
             let n = ref 0 in
             while it.Iter.valid () && !n <= steps do
               entry ();
               it.Iter.next ();
               incr n
             done);
         List.iter
           (fun target ->
             tolerate (fun () ->
                 Printf.bprintf out "seek %S\n" target;
                 it.Iter.seek target;
                 if it.Iter.valid () then entry ()))
           targets)
   with e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
  Buffer.contents out

(* A damaged block either decodes or fails with [Invalid_argument] —
   from [decode], [seek], [next] or [value] — and never with any other
   exception: every truncation, and every flip of one bit or of a whole
   byte, of a block that spans several restart intervals.  The same
   bytes viewed inside a larger string, between seeded random
   neighbours, must behave exactly as the standalone copy: a view never
   reads past its range. *)
let test_block_decoder_robust () =
  let entries =
    List.init 40 (fun i ->
        (Printf.sprintf "key/%03d" (i * 3), String.make (i mod 7 * 5) 'v'))
  in
  let b = Block.Builder.create () in
  List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
  let raw = Block.Builder.finish b in
  let targets = [ ""; "key/000"; "key/050"; "key/061"; "key/117"; "zzz" ] in
  let rng = Random.State.make [| 17 |] in
  let random_bytes =
    String.init 8192 (fun _ -> Char.chr (Random.State.int rng 256))
  in
  (* up to [n] random bytes; the right neighbour is long enough to hold
     any damaged restart point that lands up to 4 KB past the block *)
  let noise n =
    let n = 1 + Random.State.int rng n in
    String.sub random_bytes (Random.State.int rng (8192 - n)) n
  in
  let exercise what damaged =
    let walk = block_walk ~steps:(List.length entries) ~targets in
    let alone = walk what (fun () -> Block.decode damaged) in
    let left = noise 64 in
    let pos = String.length left in
    let len = String.length damaged in
    let chunk = left ^ damaged ^ noise 4096 in
    let viewed =
      walk (what ^ " (view)") (fun () -> Block.decode_view chunk ~pos ~len)
    in
    if not (String.equal alone viewed) then
      Alcotest.failf "%s: the view at %d of %d bytes differs:\n%s\nvs\n%s"
        what pos (String.length chunk) alone viewed
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
  in
  List.iter (fun (ik, v) -> Table.Builder.add b ik v) entries;
  match Table.Builder.finish b with
  | Some (meta, _) -> meta
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
      | Some (Ik.Value, v) ->
        check Alcotest.string "found value" (Printf.sprintf "value-%05d" i) v
      | Some (Ik.Deletion, _) | None -> Alcotest.fail "expected hit")
    [ 0; 1; 57; 100; 199 ]

let test_table_iterator_full_scan () =
  let env = Pdb_simio.Env.create () in
  let entries = sorted_entries 300 in
  let meta = build_table env ~dir:"db" ~number:2 entries in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it =
    Table.to_iter
      (Table.iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read)
  in
  check
    Alcotest.(list (pair string string))
    "scan equals input" entries (Iter.to_list it)

let test_table_iterator_seek () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:3 (sorted_entries 300) in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it =
    Table.to_iter
      (Table.iterator reader ~cache ~hint:Pdb_simio.Device.Random_read)
  in
  it.Iter.seek (Ik.max_for_lookup "key00150");
  check Alcotest.string "seek mid" "key00150" (Ik.user_key (it.Iter.key ()));
  it.Iter.next ();
  check Alcotest.string "next" "key00151" (Ik.user_key (it.Iter.key ()))

(* The data blocks of a finished table, each decoded on its own, in file
   order: the index block's handles, read straight from the file. *)
let table_blocks env ~dir (meta : Table.meta) =
  let name = Table.file_name ~dir meta.Table.number in
  let read pos len =
    Pdb_simio.Env.read env name ~pos ~len ~hint:Pdb_simio.Device.Random_read
  in
  let footer = read (meta.Table.file_size - Table.footer_size) Table.footer_size in
  let fixed = Pdb_util.Varint.get_fixed32 footer in
  let index = Block.decode (read (fixed 8) (fixed 12)) in
  List.map
    (fun (_, handle) ->
      let offset, p = Pdb_util.Varint.get_uvarint handle 0 in
      let size, _ = Pdb_util.Varint.get_uvarint handle p in
      Block.decode (read offset size))
    (Block.entries ~compare:Ik.compare index)

(* A table's appends are staged: its data blocks, filter, index and
   footer cost one device write per [io_coalesce_bytes] of the file,
   rounded up, and one sync, and every byte is written once. *)
let test_table_coalesced_writes () =
  let env = Pdb_simio.Env.create () in
  let unit = Pdb_kvs.Options.io_coalesce_bytes in
  let stats () = Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats env) in
  let before = stats () in
  let entries =
    List.init 2000 (fun i ->
        (ikey (Printf.sprintf "key%05d" i) (i + 1), String.make 100 'v'))
  in
  let meta = build_table env ~dir:"db" ~number:1 entries in
  let d = Pdb_simio.Io_stats.diff (stats ()) before in
  let blocks = List.length (table_blocks env ~dir:"db" meta) in
  check Alcotest.bool "several units, far more blocks" true
    (meta.Table.file_size > 3 * unit && blocks > 100);
  check Alcotest.int "bytes written" meta.Table.file_size
    d.Pdb_simio.Io_stats.bytes_written;
  check Alcotest.int "device writes"
    ((meta.Table.file_size + unit - 1) / unit)
    d.Pdb_simio.Io_stats.write_ops;
  check Alcotest.int "syncs" 1 d.Pdb_simio.Io_stats.syncs

(* A get answers only for the key it asks about: an absent key is [None]
   whether its successor sits in the same block, opens the next block, or
   there is none at all. *)
let test_table_get_absent () =
  let env = Pdb_simio.Env.create () in
  let entries = sorted_entries 200 in
  let meta = build_table env ~dir:"db" ~number:1 entries in
  let user_keys block =
    List.map
      (fun (ik, _) -> Ik.user_key ik)
      (Block.entries ~compare:Ik.compare block)
  in
  let blocks = List.map user_keys (table_blocks env ~dir:"db" meta) in
  Alcotest.(check bool) "several blocks" true (List.length blocks >= 3);
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let get uk =
    Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read
      (Ik.max_for_lookup uk)
  in
  let absent what uk =
    Alcotest.(check bool) (what ^ ": " ^ uk) true (get uk = None)
  in
  let present uk =
    let i = int_of_string (String.sub uk 3 5) in
    Alcotest.(check bool) ("present: " ^ uk) true
      (get uk = Some (Ik.Value, Printf.sprintf "value-%05d" i))
  in
  let first = List.nth blocks 0 and second = List.nth blocks 1 in
  let last_of b = List.nth b (List.length b - 1) in
  absent "before the first key" "key";
  absent "successor in the same block" (List.nth first 1 ^ "x");
  absent "successor opens the next block" (last_of first ^ "x");
  absent "successor at the next block's second key" (List.hd second ^ "x");
  absent "past the last key" "zzzz";
  absent "just past the last key" (last_of (last_of blocks) ^ "x");
  List.iter present [ List.hd first; last_of first; List.hd second ]

(* Versions of one user key: the freshest visible at the lookup's sequence
   number answers, a tombstone answers [Deletion], and a lookup older than
   every version finds nothing. *)
let test_table_get_versions () =
  let env = Pdb_simio.Env.create () in
  let e uk seq kind v = (Ik.encode ~user_key:uk ~seq ~kind, v) in
  let entries =
    [ e "a" 3 Ik.Value "a3"; e "b" 9 Ik.Value "b9"; e "b" 7 Ik.Deletion "";
      e "b" 5 Ik.Value "b5"; e "c" 2 Ik.Value "c2" ]
  in
  let meta = build_table env ~dir:"db" ~number:4 entries in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let get lookup =
    Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read lookup
  in
  let expect what want lookup =
    Alcotest.(check bool) what true (get lookup = want)
  in
  expect "latest" (Some (Ik.Value, "b9")) (Ik.max_for_lookup "b");
  expect "tombstone" (Some (Ik.Deletion, ""))
    (Ik.lookup_at ~user_key:"b" ~seq:8);
  expect "tombstone at its own seq" (Some (Ik.Deletion, ""))
    (Ik.lookup_at ~user_key:"b" ~seq:7);
  expect "snapshot skips newer versions" (Some (Ik.Value, "b5"))
    (Ik.lookup_at ~user_key:"b" ~seq:6);
  expect "older than every version" None (Ik.lookup_at ~user_key:"b" ~seq:4);
  expect "older than the last entry" None (Ik.lookup_at ~user_key:"c" ~seq:1)

(* A reader's key buffer starts small: a long key reached after a short
   one in the same restart run grows it, and the grown buffer keeps the
   prefix the two keys share. *)
let test_table_get_long_key () =
  let env = Pdb_simio.Env.create () in
  let long = "a" ^ String.make 40 'b' in
  let entries =
    [ (ikey "a" 1, "short"); (ikey long 1, "long"); (ikey "b" 1, "last") ]
  in
  let meta = build_table env ~dir:"db" ~number:5 entries in
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  Alcotest.(check bool) "long key after a short one" true
    (Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read
       (Ik.max_for_lookup long)
    = Some (Ik.Value, "long"))

(* Table.get against a model: the first entry at or after the lookup key,
   when it holds the lookup's user key.  Tiny blocks put versions of one
   user key across block and restart boundaries, and every user key
   starts with the same [pad] bytes, so stored keys share long
   prefixes. *)
let prop_table_get_model =
  qtest ~count:200 "table get = model"
    QCheck.(
      triple (int_range 1 48)
        (list
           (quad (string_of_size (Gen.int_range 0 3)) (int_bound 20) bool
              (string_of_size (Gen.int_range 0 40))))
        (list (pair (string_of_size (Gen.int_range 0 3)) (int_bound 22))))
    (fun (pad, raw, lookups) ->
      let module M = Map.Make (String) in
      let user uk = String.make pad 'k' ^ uk in
      let sorted =
        List.fold_left
          (fun m (uk, seq, live, v) ->
            let kind = if live then Ik.Value else Ik.Deletion in
            M.add (Ik.encode ~user_key:(user uk) ~seq ~kind) v m)
          M.empty raw
        |> M.bindings
        |> List.sort (fun (a, _) (b, _) -> Ik.compare a b)
      in
      sorted = []
      ||
      let env = Pdb_simio.Env.create () in
      let b =
        Table.Builder.create env ~dir:"db" ~number:1 ~block_bytes:64
          ~bloom:false
      in
      List.iter (fun (ik, v) -> Table.Builder.add b ik v) sorted;
      let meta = fst (Option.get (Table.Builder.finish b)) in
      let reader = Table.open_reader env ~dir:"db" meta in
      let cache = Block_cache.create ~capacity:(1 lsl 20) in
      let model lookup =
        match
          List.find_opt (fun (ik, _) -> Ik.compare ik lookup >= 0) sorted
        with
        | Some (ik, v) when Ik.user_key ik = Ik.user_key lookup ->
          Some (Ik.kind ik, v)
        | Some _ | None -> None
      in
      (* random lookups, and one at every stored version *)
      List.map (fun (uk, seq) -> Ik.lookup_at ~user_key:(user uk) ~seq) lookups
      @ List.map
          (fun (ik, _) ->
            Ik.lookup_at ~user_key:(Ik.user_key ik) ~seq:(Ik.seq ik))
          sorted
      |> List.for_all (fun lookup ->
             Table.get reader ~cache ~hint:Pdb_simio.Device.Random_read lookup
             = model lookup))

(* One cursor walks every block: a scan across many blocks yields exactly
   the blocks' own entries, also after a seek past the last block left
   the cursor on no block at all. *)
let test_table_iterator_crosses_blocks () =
  let env = Pdb_simio.Env.create () in
  let entries =
    List.init 64 (fun i ->
        (ikey (Printf.sprintf "key%05d" i) (i + 1), String.make (i * 37 mod 700) 'v'))
  in
  let meta = build_table env ~dir:"db" ~number:9 entries in
  let blocks = table_blocks env ~dir:"db" meta in
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks >= 16" (List.length blocks))
    true
    (List.length blocks >= 16);
  let concatenated =
    List.concat_map (Block.entries ~compare:Ik.compare) blocks
  in
  check Alcotest.(list (pair string string)) "blocks hold the input" entries
    concatenated;
  let reader = Table.open_reader env ~dir:"db" meta in
  let cache = Block_cache.create ~capacity:(1 lsl 20) in
  let it =
    Table.to_iter
      (Table.iterator reader ~cache ~hint:Pdb_simio.Device.Random_read)
  in
  check Alcotest.(list (pair string string)) "scan = concatenated blocks"
    concatenated (Iter.to_list it);
  it.Iter.seek (Ik.max_for_lookup "zzz");
  Alcotest.(check bool) "past the last block" false (it.Iter.valid ());
  Alcotest.check_raises "key past the end"
    (Invalid_argument "Table.iterator: iterator is not valid") (fun () ->
      ignore (it.Iter.key ()));
  check Alcotest.(list (pair string string)) "rescan after the seek"
    concatenated (Iter.to_list it);
  it.Iter.seek (fst (List.nth entries 40));
  check Alcotest.string "seek into a middle block" (fst (List.nth entries 40))
    (it.Iter.key ())

(* [value_slice] hands over exactly the bytes [value ()] returns, once per
   call, at every position of every iterator over sstables and memtables:
   a block, a table of many blocks, a memtable, a merge of the two, a
   level of two tables, and a database iterator over the merge.  Values
   range from empty to over 4 KB, so some blocks hold one entry and some
   straddle a file chunk. *)
let slices_match (it : Iter.t) =
  it.Iter.seek_to_first ();
  let ok = ref true and n = ref 0 in
  while !ok && it.Iter.valid () do
    let calls = ref 0 and got = ref "" in
    it.Iter.value_slice (fun src pos len ->
        incr calls;
        got := String.sub src pos len);
    ok := !calls = 1 && String.equal !got (it.Iter.value ());
    incr n;
    it.Iter.next ()
  done;
  (!ok, !n)

let prop_value_slice =
  qtest ~count:40 "value_slice = value on every iterator"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 80)
        (pair (int_bound 500)
           (oneofl [ 0; 1; 17; 300; 1000; 4095; 4096; 4097; 6000 ])))
    (fun pairs ->
      let module M = Map.Make (String) in
      let entries =
        M.bindings
          (List.fold_left
             (fun m (k, n) ->
               M.add (Printf.sprintf "key%04d" k)
                 (String.init n (fun i -> Char.chr ((k + i) land 0xff)))
                 m)
             M.empty pairs)
        |> List.mapi (fun i (k, v) -> (ikey k (i + 1), v))
      in
      let half = List.length entries / 2 in
      let low = List.filteri (fun i _ -> i < half) entries
      and high = List.filteri (fun i _ -> i >= half) entries in
      let env = Pdb_simio.Env.create () in
      let cache = Block_cache.create ~capacity:(1 lsl 16) in
      let hint = Pdb_simio.Device.Random_read in
      let table number es =
        Table.to_iter
          (Table.iterator
             (Table.open_reader env ~dir:"db"
                (build_table env ~dir:"db" ~number es))
             ~cache ~hint)
      in
      let block () =
        let b = Block.Builder.create () in
        List.iter (fun (k, v) -> Block.Builder.add b k v) entries;
        let raw = Block.Builder.finish b in
        let chunk = "noise" ^ raw ^ "more noise" in
        Block.iterator ~compare:Ik.compare
          (Block.decode_view chunk ~pos:5 ~len:(String.length raw))
      in
      let memtable es =
        let m = Pdb_kvs.Memtable.create () in
        List.iter
          (fun (k, v) ->
            Pdb_kvs.Memtable.add m ~seq:(Ik.seq k) ~kind:Ik.Value
              ~user_key:(Ik.user_key k) ~value:v)
          es;
        Pdb_kvs.Memtable.iterator m
      in
      let merged () =
        Pdb_kvs.Merging_iter.create ~compare:Ik.compare
          [ memtable low; table 2 high ]
      in
      let level () =
        let runs =
          List.filter (fun es -> es <> []) [ low; high ]
          |> List.mapi (fun i es -> build_table env ~dir:"db" ~number:(3 + i) es)
          |> Array.of_list
        in
        Level_iter.create
          ~cache:(Table_cache.create env ~dir:"db" ~entries:10)
          ~block_cache:cache ~hint ~on_table:ignore
          (Fun.const (Level_iter.run runs))
      in
      let n = List.length entries in
      List.for_all
        (fun (what, it) ->
          let ok, seen = slices_match it in
          if not ok then QCheck.Test.fail_reportf "%s: a slice differs" what;
          if seen <> n then
            QCheck.Test.fail_reportf "%s: %d entries, not %d" what seen n;
          true)
        [
          ("block", block ());
          ("table", table 1 entries);
          ("memtable", memtable entries);
          ("merging", merged ());
          ("level", level ());
          ("db_iter", Pdb_kvs.Db_iter.wrap (merged ()));
        ])

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
  in
  Alcotest.(check bool) "empty finish yields None" true
    (Table.Builder.finish b |> Option.is_none);
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

(* Opening a table from its file reads the footer, then the filter and
   index, which lie next to each other, in one read: two reads of every
   byte past the data blocks.  Recovering its metadata reads the first
   data block too. *)
let test_table_open_reads () =
  let env = Pdb_simio.Env.create () in
  let meta = build_table env ~dir:"db" ~number:8 (sorted_entries 300) in
  let name = Table.file_name ~dir:"db" 8 in
  let size = meta.Table.file_size in
  let footer = Pdb_simio.Env.peek env name ~pos:(size - Table.footer_size)
      ~len:Table.footer_size in
  let data_end = Pdb_util.Varint.get_fixed32 footer 0 in
  let first_block =
    Block.size_bytes (List.hd (table_blocks env ~dir:"db" meta))
  in
  let reads f =
    let stats () = Pdb_simio.Io_stats.snapshot (Pdb_simio.Env.stats env) in
    let before = stats () in
    f ();
    let d = Pdb_simio.Io_stats.diff (stats ()) before in
    (d.Pdb_simio.Io_stats.read_ops, d.Pdb_simio.Io_stats.bytes_read)
  in
  check Alcotest.(pair int int) "open_reader" (2, size - data_end)
    (reads (fun () -> ignore (Table.open_reader env ~dir:"db" meta)));
  check Alcotest.(pair int int) "recover_meta"
    (3, size - data_end + first_block)
    (reads (fun () -> ignore (Table.recover_meta env ~dir:"db" ~number:8)))

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
          Table.to_iter
            (Table.iterator reader ~cache
               ~hint:Pdb_simio.Device.Sequential_read)
        in
        Iter.to_list it = entries)

(* ---------- A store's builder scratch ---------- *)

(* A table's entries from [(versions, vlen)] per user key: keys
   ["<prefix>NNNN"] in order, each with one to three versions (newest
   first), so the filter notes each user key once. *)
let scratch_entries prefix spec =
  List.concat
    (List.mapi
       (fun i (versions, vlen) ->
         List.init (versions + 1) (fun v ->
             ( ikey (Printf.sprintf "%s%04d" prefix i) (100 - v),
               String.make vlen (Char.chr (97 + ((i + v) mod 26))) )))
       spec)

let create ?scratch env ~number =
  Table.Builder.create ?scratch env ~dir:"db" ~number ~block_bytes:128
    ~bloom:true

let fill b entries = List.iter (fun (k, v) -> Table.Builder.add b k v) entries

(* Finish [b] and read back the file it wrote, if any. *)
let finished_bytes env b ~number =
  ignore (Table.Builder.finish b);
  let name = Table.file_name ~dir:"db" number in
  if Pdb_simio.Env.exists env name then
    Some (Pdb_simio.Env.read_all env name ~hint:Pdb_simio.Device.Sequential_read)
  else None

let built_alone entries ~number =
  let env = Pdb_simio.Env.create () in
  let b = create env ~number in
  fill b entries;
  finished_bytes env b ~number

(* Two builders open at once on one store's scratch, fed interleaved
   (the second builds in buffers of its own), then a third on the
   scratch both gave back: every file, empty ones included, is the file
   its table makes built alone. *)
let prop_builders_share_no_scratch =
  let spec =
    QCheck.(
      list_of_size Gen.(int_range 0 40) (pair (int_bound 2) (int_bound 90)))
  in
  qtest ~count:60 "builders open at once = each table built alone"
    QCheck.(quad spec spec (list bool) spec)
    (fun (spec_a, spec_b, turns, spec_c) ->
      let env = Pdb_simio.Env.create () in
      let scratch = Table.Builder.scratch () in
      let a = scratch_entries "a" spec_a
      and b = scratch_entries "b" spec_b
      and c = scratch_entries "c" spec_c in
      let ba = create ~scratch env ~number:1 in
      let bb = create ~scratch env ~number:2 in
      let add builder e = fill builder [ e ] in
      let rec feed turns a b =
        match (turns, a, b) with
        | _, [], rest -> fill bb rest
        | _, rest, [] -> fill ba rest
        | true :: turns, e :: a, b | ([] as turns), e :: a, b ->
          add ba e;
          feed turns a b
        | false :: turns, a, e :: b ->
          add bb e;
          feed turns a b
      in
      feed turns a b;
      let got_a = finished_bytes env ba ~number:1 in
      let got_b = finished_bytes env bb ~number:2 in
      let bc = create ~scratch env ~number:3 in
      fill bc c;
      let got_c = finished_bytes env bc ~number:3 in
      got_a = built_alone a ~number:1
      && got_b = built_alone b ~number:2
      && got_c = built_alone c ~number:3)

let major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A store lends its scratch to each table it builds, so its second
   table allocates no block buffer: in a file system with no deleted
   chunk to reuse, building 64 x 1 KB entries allocates in direct
   major-heap words (where a 4 KB buffer goes) what the file's chunks
   hold and under 2% more, where a builder with no scratch allocates its
   buffers too, 8 KB or more beyond the file. *)
let test_second_table_allocates_no_buffer () =
  let env = Pdb_simio.Env.create () in
  let entries =
    List.init 64 (fun i ->
        (ikey (Printf.sprintf "key%05d" i) 1, String.make 1024 'v'))
  in
  let scratch = Table.Builder.scratch () in
  (* the bytes allocated in direct major-heap words building table
     [number], and its file's bytes *)
  let build ?scratch number =
    let before = major_words () in
    let b =
      Table.Builder.create ?scratch env ~dir:"db" ~number ~block_bytes:4096
        ~bloom:true
    in
    fill b entries;
    let meta, _ = Option.get (Table.Builder.finish b) in
    let words = major_words () -. before in
    (words *. float_of_int (Sys.word_size / 8), float_of_int meta.Table.file_size)
  in
  ignore (build ~scratch 1);
  let bytes, file = build ~scratch 2 in
  if bytes > 1.02 *. file then
    Alcotest.failf "second table allocated %.0f bytes for a %.0f-byte file"
      bytes file;
  let bytes, file = build 3 in
  if bytes < file +. 8192.0 then
    Alcotest.failf "a builder with no scratch allocated %.0f bytes for a \
                    %.0f-byte file" bytes file

(* ---------- Level_iter against a model ---------- *)

(* A random level: [parts] partitions, many of them empty, each holding up
   to three tables newest first.  Partition [p] owns the user keys
   ["pPP-..."], so partitions are disjoint and key-ordered; tables of one
   partition overlap, each holding one version of its keys at the table's
   own sequence number (newer tables, higher numbers), so one user key
   can have a version in several tables. *)
type level_spec = {
  parts : (string * string) list list array;  (** per table, its entries *)
  ops : [ `Seek of string | `First | `Next of int ] list;
}

let user_of p o = Printf.sprintf "p%02d-%02d" p o

let level_gen =
  let open QCheck.Gen in
  let* nparts = int_range 1 10 in
  let seq = ref 0 in
  let table p =
    let* offsets = list_size (int_range 1 25) (int_range 0 39) in
    let* vlen = int_range 4 60 in
    incr seq;
    let s = !seq in
    return
      (List.map
         (fun o ->
           (ikey (user_of p o) s, Printf.sprintf "v%d-%s" s (String.make vlen 'x')))
         (List.sort_uniq compare offsets))
  in
  let part p =
    let* empty = bool in
    if empty then return []
    else
      let* n = int_range 1 3 in
      (* built oldest first, listed newest first *)
      let* tables = flatten_l (List.init n (fun _ -> table p)) in
      return (List.rev tables)
  in
  let* parts = flatten_l (List.init nparts part) in
  let op =
    frequency
      [
        ( 3,
          let* p = int_range 0 nparts in
          let* o = int_range 0 41 in
          let* s = int_range 0 (!seq + 1) in
          return (`Seek (Ik.lookup_at ~user_key:(user_of p o) ~seq:s)) );
        (1, return `First);
        (4, map (fun n -> `Next n) (int_range 1 12));
      ]
  in
  let* ops = list_size (int_range 1 25) op in
  return { parts = Array.of_list parts; ops }

let print_level spec =
  Printf.sprintf "tables per partition: [%s]; %d ops"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun ts ->
               String.concat ","
                 (List.map (fun t -> string_of_int (List.length t)) ts))
             spec.parts)))
    (List.length spec.ops)

(* Partitions of tables as a level view: a seek starts at the partition
   its user key's prefix names. *)
let partition_layout =
  {
    Level_iter.tables = Fun.id;
    locate =
      (fun parts target ->
        let uk = Ik.user_key target in
        if String.length uk >= 3 && uk.[0] = 'p' then
          min (Array.length parts) (int_of_string (String.sub uk 1 2))
        else 0);
  }

(* The model: each table a sorted array of (key, value, block number),
   and the level iterator as plain positions into those arrays. *)
type model_table = { entries : (string * string * int) array; number : int }

type model = {
  mparts : model_table list array;
  mutable cur : int;
  mutable cursors : (model_table * int ref) list;
  mutable opened : int;  (** tables positioned *)
  mutable blocks : int;  (** blocks entered *)
  tables_seen : (int, unit) Hashtbl.t;
  blocks_seen : (int * int, unit) Hashtbl.t;
}

let model_enter m t i =
  if i < Array.length t.entries then begin
    let _, _, b = t.entries.(i) in
    m.blocks <- m.blocks + 1;
    Hashtbl.replace m.blocks_seen (t.number, b) ()
  end

let model_best m =
  List.fold_left
    (fun best ((t, i) as c) ->
      if !i >= Array.length t.entries then best
      else
        match best with
        | Some (bt, bi) ->
          let k, _, _ = t.entries.(!i) and bk, _, _ = bt.entries.(!bi) in
          if Ik.compare k bk < 0 then Some c else best
        | None -> Some c)
    None m.cursors

let rec model_start m i target =
  if i >= Array.length m.mparts then begin
    m.cur <- i;
    m.cursors <- []
  end
  else begin
    m.cur <- i;
    m.cursors <-
      List.filter_map
        (fun t ->
          let n = Array.length t.entries in
          let largest, _, _ = t.entries.(n - 1) in
          match target with
          | Some k when Ik.compare largest k < 0 -> None (* filtered *)
          | _ ->
            m.opened <- m.opened + 1;
            Hashtbl.replace m.tables_seen t.number ();
            let pos = ref 0 in
            (match target with
             | Some k ->
               while !pos < n && (let e, _, _ = t.entries.(!pos) in
                                   Ik.compare e k < 0) do
                 incr pos
               done
             | None -> ());
            model_enter m t !pos;
            Some (t, pos))
        m.mparts.(i);
    if model_best m = None then model_start m (i + 1) None
  end

let model_next m =
  match model_best m with
  | None -> ()
  | Some (t, i) ->
    let _, _, b = t.entries.(!i) in
    incr i;
    (if !i < Array.length t.entries then
       let _, _, b' = t.entries.(!i) in
       if b' <> b then model_enter m t !i);
    if model_best m = None then model_start m (m.cur + 1) None

let model_current m =
  match model_best m with
  | Some (t, i) ->
    let k, v, _ = t.entries.(!i) in
    Some (k, v)
  | None -> None

(* Build the spec's tables; [metas] and [model] partitions in the same
   shape. *)
let build_level env spec =
  let number = ref 100 in
  let built =
    Array.map
      (List.map (fun entries ->
           incr number;
           let meta = build_table env ~dir:"db" ~number:!number entries in
           let blocks = table_blocks env ~dir:"db" meta in
           let entries =
             List.concat
               (List.mapi
                  (fun b block ->
                    List.map
                      (fun (k, v) -> (k, v, b))
                      (Block.entries ~compare:Ik.compare block))
                  blocks)
           in
           (meta, { entries = Array.of_list entries; number = !number })))
      spec.parts
  in
  (Array.map (List.map fst) built, Array.map (List.map snd) built)

(* Run [spec] on a level iterator (seek filtering and probe context
   on, as in an engine) and on the model, comparing the entry after
   every move, then the cache traffic: one table-cache lookup and
   [on_table] per positioned table, one block-cache lookup per block
   entered, a miss the first time each is seen. *)
let prop_level_iter_model =
  qtest ~count:200 "level iterator = model, entries and cache traffic"
    (QCheck.make ~print:print_level level_gen)
    (fun spec ->
      let env = Pdb_simio.Env.create () in
      let metas, mparts = build_level env spec in
      let tc = Table_cache.create env ~dir:"db" ~entries:1000 in
      let bc = Block_cache.create ~capacity:(1 lsl 24) in
      let on_table = ref 0 in
      let probe =
        Pdb_simio.Probe.create_ctx ~clock:(Pdb_simio.Env.clock env)
          ~budget:4 ~tracer:(fun () -> None) ()
      in
      let it =
        Level_iter.create ~on_check:(fun ~skipped:_ -> ()) ~probe ~cache:tc
          ~block_cache:bc
          ~hint:Pdb_simio.Device.Random_read
          ~on_table:(fun () -> incr on_table)
          (fun () -> Level_iter.View (partition_layout, metas))
      in
      let m =
        { mparts; cur = 0; cursors = []; opened = 0; blocks = 0;
          tables_seen = Hashtbl.create 16; blocks_seen = Hashtbl.create 64 }
      in
      let same what =
        let got = if it.Iter.valid () then Some (it.Iter.key (), it.Iter.value ()) else None in
        if got <> model_current m then
          QCheck.Test.fail_reportf "%s: iterator at %s, model at %s" what
            (match got with Some (k, _) -> Ik.user_key k | None -> "end")
            (match model_current m with
             | Some (k, _) -> Ik.user_key k
             | None -> "end")
      in
      List.iter
        (function
          | `Seek k ->
            it.Iter.seek k;
            model_start m (partition_layout.locate metas k) (Some k);
            same ("seek " ^ Ik.user_key k)
          | `First ->
            it.Iter.seek_to_first ();
            model_start m 0 None;
            same "seek_to_first"
          | `Next n ->
            for _ = 1 to n do
              if it.Iter.valid () then begin
                it.Iter.next ();
                model_next m;
                same "next"
              end
            done)
        spec.ops;
      let counts what got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: %d, model %d" what got want
      in
      counts "on_table calls" !on_table m.opened;
      let tc_count k = Pdb_kvs.Engine_stats.get (Table_cache.counters tc) k in
      let tc_hits = tc_count Pdb_kvs.Engine_stats.table_cache_hits
      and tc_misses = tc_count Pdb_kvs.Engine_stats.table_cache_misses in
      counts "table-cache lookups" (tc_hits + tc_misses) m.opened;
      counts "table-cache misses" tc_misses
        (Hashtbl.length m.tables_seen);
      counts "block-cache lookups"
        (Block_cache.hits bc + Block_cache.misses bc)
        m.blocks;
      counts "block-cache misses" (Block_cache.misses bc)
        (Hashtbl.length m.blocks_seen);
      true)

(* One table iterator re-pointed between two tables yields, after each
   re-point and seek, what a fresh iterator over that table yields. *)
let prop_table_iter_repoint =
  let gen =
    let open QCheck.Gen in
    let table =
      list_size (int_range 1 60) (int_range 0 99)
      >|= List.sort_uniq compare
    in
    let target = int_range 0 105 >|= fun o -> Ik.max_for_lookup (user_of 0 o) in
    quad table table (list_size (int_range 1 8) (pair target (int_range 0 20)))
      bool
  in
  let print (a, b, steps, _) =
    Printf.sprintf "%d and %d entries, %d re-points" (List.length a)
      (List.length b) (List.length steps)
  in
  qtest ~count:200 "re-pointed table iterator = fresh iterators"
    (QCheck.make ~print gen)
    (fun (a, b, steps, first) ->
      let env = Pdb_simio.Env.create () in
      let cache = Block_cache.create ~capacity:(1 lsl 20) in
      let hint = Pdb_simio.Device.Random_read in
      let reader number offsets =
        Table.open_reader env ~dir:"db"
          (build_table env ~dir:"db" ~number
             (List.map
                (fun o ->
                  (ikey (user_of 0 o) number, Printf.sprintf "%d:%d%s" number o (String.make 40 'v')))
                offsets))
      in
      let readers = [| reader 1 a; reader 2 b |] in
      (* up to [n] entries from where [it] rests *)
      let take it n =
        let acc = ref [] in
        let k = ref 0 in
        while !k < n && Table.valid it do
          acc := (Table.key it, Table.value it) :: !acc;
          Table.next it;
          incr k
        done;
        List.rev !acc
      in
      let it = Table.iterator readers.(0) ~cache ~hint in
      List.iteri
        (fun i (target, n) ->
          let r = readers.(i mod 2) in
          Table.repoint it r;
          let fresh = Table.iterator r ~cache ~hint in
          if first && i = 0 then begin
            Table.seek_to_first it;
            Table.seek_to_first fresh
          end
          else begin
            Table.seek it target;
            Table.seek fresh target
          end;
          if take it n <> take fresh n then
            QCheck.Test.fail_reportf "re-point %d differs from a fresh iterator"
              i)
        steps;
      true)

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
          Alcotest.test_case "absent -> None" `Quick test_table_get_absent;
          Alcotest.test_case "versions and tombstones" `Quick
            test_table_get_versions;
          Alcotest.test_case "long key after a short one" `Quick
            test_table_get_long_key;
          prop_table_get_model;
          Alcotest.test_case "full scan" `Quick test_table_iterator_full_scan;
          Alcotest.test_case "iterator seek" `Quick test_table_iterator_seek;
          Alcotest.test_case "iterator crosses 16+ blocks" `Quick
            test_table_iterator_crosses_blocks;
          prop_value_slice;
          Alcotest.test_case "bloom rejects absent" `Quick
            test_table_bloom_filters_absent;
          Alcotest.test_case "no bloom" `Quick test_table_no_bloom;
          Alcotest.test_case "empty builder" `Quick test_table_empty_builder;
          Alcotest.test_case "coalesced writes" `Quick
            test_table_coalesced_writes;
          prop_table_roundtrip;
          prop_builders_share_no_scratch;
          Alcotest.test_case "second table allocates no buffer" `Quick
            test_second_table_allocates_no_buffer;
        ] );
      ( "caches",
        [
          Alcotest.test_case "block cache hit" `Quick
            test_block_cache_hit_avoids_io;
          Alcotest.test_case "table cache eviction" `Quick
            test_table_cache_eviction_reopens;
          Alcotest.test_case "open reads" `Quick test_table_open_reads;
        ] );
      ( "level-iter",
        [
          Alcotest.test_case "concat and seek" `Quick
            test_level_iter_concat_and_seek;
          Alcotest.test_case "empty" `Quick test_level_iter_empty;
          prop_level_iter_model;
          prop_table_iter_repoint;
        ] );
    ]
