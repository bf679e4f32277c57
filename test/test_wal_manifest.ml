(* Tests for the write-ahead log and MANIFEST. *)

module Wal = Pdb_wal.Wal
module Manifest = Pdb_manifest.Manifest
module Env = Pdb_simio.Env

let check = Alcotest.check

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let test_wal_roundtrip () =
  let env = Env.create () in
  let w = Wal.Writer.create env "log" in
  let records = [ "first"; "second record"; ""; "third" ] in
  List.iter (Wal.Writer.add_record w) records;
  Wal.Writer.close w;
  let got, report = Wal.Reader.read_all env "log" in
  check Alcotest.(list string) "records" records got;
  check Alcotest.int "records_read" (List.length records)
    report.Wal.Reader.records_read;
  check Alcotest.int "no bytes dropped" 0 report.Wal.Reader.bytes_dropped;
  check Alcotest.string "clean stop" "clean"
    (Wal.Reader.stop_reason_name report.Wal.Reader.stop)

let test_wal_large_record_fragments () =
  let env = Env.create () in
  let w = Wal.Writer.create env "log" in
  (* larger than two blocks: forces FIRST/MIDDLE/LAST *)
  let big = String.init 80_000 (fun i -> Char.chr (i mod 256)) in
  Wal.Writer.add_record w "before";
  Wal.Writer.add_record w big;
  Wal.Writer.add_record w "after";
  Wal.Writer.close w;
  check Alcotest.(list string) "fragmented roundtrip" [ "before"; big; "after" ]
    (fst (Wal.Reader.read_all env "log"))

let test_wal_block_boundary () =
  (* records sized to land a header exactly at the block boundary *)
  let env = Env.create () in
  let w = Wal.Writer.create env "log" in
  let records =
    List.init 40 (fun i -> String.make (1000 + i) (Char.chr (65 + (i mod 26))))
  in
  List.iter (Wal.Writer.add_record w) records;
  Wal.Writer.close w;
  check Alcotest.(list string) "boundary roundtrip" records
    (fst (Wal.Reader.read_all env "log"))

let test_wal_truncated_tail_dropped () =
  let env = Env.create () in
  let w = Wal.Writer.create env "log" in
  Wal.Writer.add_record w "durable-1";
  Wal.Writer.add_record w "durable-2";
  Wal.Writer.sync w;
  Wal.Writer.add_record w "volatile";
  Env.crash env;
  check Alcotest.(list string) "synced records survive"
    [ "durable-1"; "durable-2" ]
    (fst (Wal.Reader.read_all env "log"))

let test_wal_corrupt_crc_stops () =
  let env = Env.create () in
  let w = Wal.Writer.create env "log" in
  Wal.Writer.add_record w "good";
  Wal.Writer.add_record w "evil";
  Wal.Writer.close w;
  (* flip a byte inside the second record's payload *)
  let data = Env.read_all env "log" ~hint:Pdb_simio.Device.Sequential_read in
  let bytes = Bytes.of_string data in
  let target = String.length data - 1 in
  Bytes.set bytes target
    (Char.chr (Char.code (Bytes.get bytes target) lxor 0xff));
  let w2 = Env.create_file env "log" in
  Env.append w2 (Bytes.to_string bytes);
  let got, report = Wal.Reader.read_all env "log" in
  check Alcotest.(list string) "reader stops at corruption" [ "good" ] got;
  check Alcotest.string "stop reason" "bad-crc"
    (Wal.Reader.stop_reason_name report.Wal.Reader.stop);
  check Alcotest.bool "bytes accounted" true
    (report.Wal.Reader.bytes_dropped > 0)

(* A record fragmented across the 32 KB block boundary, torn mid-fragment
   by a crash: the FIRST fragment survives in block 0, the continuation in
   block 1 is cut short.  The reader must drop the whole record cleanly and
   say so in the report. *)
let test_wal_torn_mid_fragment () =
  let env = Env.create () in
  let w = Wal.Writer.create env "log" in
  Wal.Writer.add_record w "before";
  (* spans blocks 0..2: FIRST fills block 0, MIDDLE fills block 1 *)
  let big = String.init 80_000 (fun i -> Char.chr (i mod 256)) in
  Wal.Writer.add_record w big;
  Wal.Writer.close w;
  let data = Env.read_all env "log" ~hint:Pdb_simio.Device.Sequential_read in
  (* tear inside block 1's MIDDLE fragment *)
  let torn = String.sub data 0 40_000 in
  let w2 = Env.create_file env "log" in
  Env.append w2 torn;
  Env.close w2;
  let got, report = Wal.Reader.read_all env "log" in
  check Alcotest.(list string) "only the complete record" [ "before" ] got;
  check Alcotest.string "stop reason" "torn-fragment"
    (Wal.Reader.stop_reason_name report.Wal.Reader.stop);
  check Alcotest.bool "orphaned FIRST fragment counted" true
    (report.Wal.Reader.orphan_fragments >= 1);
  (* every byte of the torn record is accounted for: 40_000 minus the
     complete first record and its header and the two fragment headers *)
  check Alcotest.bool "dropped bytes cover the torn record" true
    (report.Wal.Reader.bytes_dropped > 30_000)

(* Raw MIDDLE/LAST fragments with no preceding FIRST: the signature of a
   log whose head was lost.  They must be dropped and counted, not
   silently skipped, and reading must continue past them. *)
let test_wal_orphan_fragments () =
  let env = Env.create () in
  let emit_raw w rtype fragment =
    let body = String.make 1 (Char.chr rtype) ^ fragment in
    let crc = Pdb_util.Crc32c.masked (Pdb_util.Crc32c.string body) in
    let buf = Buffer.create 64 in
    Pdb_util.Varint.put_fixed32 buf crc;
    Buffer.add_char buf (Char.chr (String.length fragment land 0xff));
    Buffer.add_char buf (Char.chr ((String.length fragment lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr rtype);
    Buffer.add_string buf fragment;
    Env.append w (Buffer.contents buf)
  in
  let w = Env.create_file env "log" in
  emit_raw w 3 "orphan-middle";
  emit_raw w 4 "orphan-last";
  emit_raw w 1 "good";
  Env.close w;
  let got, report = Wal.Reader.read_all env "log" in
  check Alcotest.(list string) "orphans dropped, good kept" [ "good" ] got;
  check Alcotest.int "orphan count" 2 report.Wal.Reader.orphan_fragments;
  check Alcotest.int "orphan bytes"
    ((7 + String.length "orphan-middle") + (7 + String.length "orphan-last"))
    report.Wal.Reader.bytes_dropped;
  check Alcotest.string "clean otherwise" "clean"
    (Wal.Reader.stop_reason_name report.Wal.Reader.stop)

let prop_wal_roundtrip =
  qtest "wal roundtrip (random records)"
    QCheck.(list (string_of_size QCheck.Gen.(0 -- 500)))
    (fun records ->
      let env = Env.create () in
      let w = Wal.Writer.create env "log" in
      List.iter (Wal.Writer.add_record w) records;
      Wal.Writer.close w;
      fst (Wal.Reader.read_all env "log") = records)

(* A reference framer for the log format, written the plain way: each
   fragment is cut out with [String.sub], and its checksum is taken over a
   freshly built type-byte-plus-fragment string.  The writer must produce
   exactly these bytes. *)
module Ref_framer = struct
  type t = { out : Buffer.t; mutable block_offset : int }

  let create () = { out = Buffer.create 4096; block_offset = 0 }

  let emit t rtype fragment =
    let body = String.make 1 (Char.chr (Wal.type_to_int rtype)) ^ fragment in
    let crc = Pdb_util.Crc32c.masked (Pdb_util.Crc32c.string body) in
    Pdb_util.Varint.put_fixed32 t.out crc;
    Buffer.add_char t.out (Char.chr (String.length fragment land 0xff));
    Buffer.add_char t.out (Char.chr ((String.length fragment lsr 8) land 0xff));
    Buffer.add_char t.out (Char.chr (Wal.type_to_int rtype));
    Buffer.add_string t.out fragment;
    t.block_offset <- t.block_offset + Wal.header_size + String.length fragment

  let add_record t payload =
    let len = String.length payload in
    let rec go pos first =
      let leftover = Wal.block_size - t.block_offset in
      if leftover < Wal.header_size then begin
        Buffer.add_string t.out (String.make leftover '\000');
        t.block_offset <- 0;
        go pos first
      end
      else begin
        let n = min (leftover - Wal.header_size) (len - pos) in
        let last = pos + n = len in
        let rtype : Wal.record_type =
          match (first, last) with
          | true, true -> Full
          | true, false -> First
          | false, true -> Last
          | false, false -> Middle
        in
        emit t rtype (String.sub payload pos n);
        if t.block_offset >= Wal.block_size then t.block_offset <- 0;
        if not last then go (pos + n) false
      end
    in
    go 0 true
end

(* A record's size: a fixed length, or whatever leaves exactly [k] bytes
   of the current block once it is framed ([k < 7] forces zero padding
   before the next record, [k = 7] an empty fragment's worth of room). *)
type record_size = Fixed of int | Leave of int

let record_size_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun n -> Fixed n) (int_bound 2_000));
        (1, map (fun n -> Fixed n) (int_range 30_000 80_000));
        (2, map (fun k -> Leave k) (int_bound 8)) ])

let print_record_size = function
  | Fixed n -> Printf.sprintf "Fixed %d" n
  | Leave k -> Printf.sprintf "Leave %d" k

(* Groups of records, each group one [add_records] call over one buffer
   (one record through [add_record]), against the reference framer. *)
let prop_wal_matches_reference_framer =
  qtest ~count:100 "add_records bytes = reference framer"
    (QCheck.make
       ~print:QCheck.Print.(list (list print_record_size))
       QCheck.Gen.(
         list_size (int_range 1 12) (list_size (int_range 1 4) record_size_gen)))
    (fun groups ->
      let env = Env.create () in
      let w = Wal.Writer.create env "log" in
      let r = Ref_framer.create () in
      let serial = ref 0 in
      let all = ref [] in
      List.iter
        (fun group ->
          let payloads =
            List.map
              (fun size ->
                let n =
                  match size with
                  | Fixed n -> n
                  | Leave k ->
                    let off = r.Ref_framer.block_offset in
                    let off =
                      if Wal.block_size - off < Wal.header_size then 0 else off
                    in
                    max 0 (Wal.block_size - off - Wal.header_size - k)
                in
                incr serial;
                let payload =
                  String.init n (fun i -> Char.chr (((i * 31) + !serial) land 0xff))
                in
                Ref_framer.add_record r payload;
                payload)
              group
          in
          (match payloads with
           | [ p ] -> Wal.Writer.add_record w p
           | ps ->
             (* back to back from offset 0 in one buffer with spare bytes
                past the last, as a write-batch scratch holds them *)
             let src =
               Bytes.of_string (String.concat "" ps ^ String.make 16 '\xff')
             in
             let ends = Array.of_list (List.map String.length ps) in
             for i = 1 to Array.length ends - 1 do
               ends.(i) <- ends.(i - 1) + ends.(i)
             done;
             Wal.Writer.add_records w src ~ends (List.length ps));
          all := List.rev_append payloads !all)
        groups;
      let bytes = Env.read_all env "log" ~hint:Pdb_simio.Device.Sequential_read in
      bytes = Buffer.contents r.Ref_framer.out
      && fst (Wal.Reader.read_all env "log") = List.rev !all)

(* ---------- Manifest ---------- *)

let meta number : Pdb_sstable.Table.meta =
  {
    Pdb_sstable.Table.number;
    file_size = 1000 + number;
    entries = 10 * number;
    smallest = Printf.sprintf "small%d" number;
    largest = Printf.sprintf "large%d" number;
  }

let test_edit_roundtrip () =
  let e = Manifest.empty_edit () in
  e.Manifest.log_number <- Some 7;
  e.Manifest.next_file_number <- Some 42;
  e.Manifest.last_sequence <- Some 99999;
  e.Manifest.added_files <- [ (0, meta 1); (2, meta 5) ];
  e.Manifest.deleted_files <- [ (1, 3) ];
  e.Manifest.added_guards <- [ (1, "guard-a"); (3, "guard-b") ];
  e.Manifest.deleted_guards <- [ (2, "guard-c") ];
  let e' = Manifest.decode_edit (Manifest.encode_edit e) in
  Alcotest.(check (option int)) "log" (Some 7) e'.Manifest.log_number;
  Alcotest.(check (option int)) "next file" (Some 42)
    e'.Manifest.next_file_number;
  Alcotest.(check (option int)) "last seq" (Some 99999)
    e'.Manifest.last_sequence;
  Alcotest.(check int) "added files" 2 (List.length e'.Manifest.added_files);
  (let lvl, m = List.nth e'.Manifest.added_files 1 in
   Alcotest.(check int) "level" 2 lvl;
   Alcotest.(check int) "number" 5 m.Pdb_sstable.Table.number;
   Alcotest.(check string) "smallest" "small5" m.Pdb_sstable.Table.smallest);
  Alcotest.(check (list (pair int int))) "deleted" [ (1, 3) ]
    e'.Manifest.deleted_files;
  Alcotest.(check (list (pair int string))) "guards"
    [ (1, "guard-a"); (3, "guard-b") ]
    e'.Manifest.added_guards;
  Alcotest.(check (list (pair int string))) "deleted guards"
    [ (2, "guard-c") ]
    e'.Manifest.deleted_guards

let test_manifest_create_recover () =
  let env = Env.create () in
  let e1 = Manifest.empty_edit () in
  e1.Manifest.next_file_number <- Some 2;
  let m = Manifest.create env ~dir:"db" ~number:1 ~edits:[ e1 ] in
  let e2 = Manifest.empty_edit () in
  e2.Manifest.added_files <- [ (0, meta 9) ];
  Manifest.append m e2;
  match Manifest.recover env ~dir:"db" with
  | None -> Alcotest.fail "expected manifest"
  | Some (name, edits) ->
    Alcotest.(check bool) "name points at manifest" true
      (String.length name > 0);
    Alcotest.(check int) "two edits" 2 (List.length edits);
    let last = List.nth edits 1 in
    Alcotest.(check int) "recovered file add" 9
      (snd (List.hd last.Manifest.added_files)).Pdb_sstable.Table.number

let test_manifest_survives_crash () =
  let env = Env.create () in
  let m = Manifest.create env ~dir:"db" ~number:1 ~edits:[] in
  let e = Manifest.empty_edit () in
  e.Manifest.last_sequence <- Some 5;
  Manifest.append m e;
  (* appended edits are synced; crash must preserve them *)
  Env.crash env;
  match Manifest.recover env ~dir:"db" with
  | None -> Alcotest.fail "manifest lost"
  | Some (_, edits) ->
    Alcotest.(check int) "edit survives crash" 1 (List.length edits)

let test_manifest_missing () =
  let env = Env.create () in
  Alcotest.(check bool) "no CURRENT -> None" true
    (Manifest.recover env ~dir:"db" = None)

(* ---------- Repair ---------- *)

let test_sst_number_rejects_non_decimal () =
  let n = Pdb_manifest.Repair.sst_number ~dir:"db" in
  Alcotest.(check (option int)) "decimal" (Some 31) (n "db/000031.sst");
  (* int_of_string would happily parse these as 31 and 10 *)
  Alcotest.(check (option int)) "hex rejected" None (n "db/0x1f.sst");
  Alcotest.(check (option int)) "underscore rejected" None (n "db/1_0.sst");
  Alcotest.(check (option int)) "sign rejected" None (n "db/+1.sst");
  Alcotest.(check (option int)) "wrong suffix" None (n "db/000031.log");
  Alcotest.(check (option int)) "wrong dir" None (n "other/000031.sst")

(* Crash, corrupt CURRENT beyond recovery, drop a decoy non-decimal .sst
   next to the real tables, repair, and reopen: everything flushed before
   the crash must come back, and the decoy must not be "repaired" in. *)
let test_repair_crash_corrupt_current () =
  let module L = Pdb_lsm.Lsm_store in
  let env = Env.create () in
  let opts =
    { (Pdb_kvs.Options.hyperleveldb ()) with
      Pdb_kvs.Options.memtable_bytes = 2 * 1024 }
  in
  let db = L.open_store opts ~env ~dir:"db" in
  for i = 0 to 199 do
    L.put db (Printf.sprintf "key%04d" i) (Printf.sprintf "val%04d" i)
  done;
  L.flush db;
  Env.crash env;
  (* CURRENT now points at garbage *)
  let cur = Env.create_file env "db/CURRENT" in
  Env.append cur "MANIFEST-999999";
  Env.sync cur;
  Env.close cur;
  let decoy = Env.create_file env "db/0x1f.sst" in
  Env.append decoy "not an sstable";
  Env.sync decoy;
  Env.close decoy;
  Alcotest.(check bool) "recovery refuses garbage CURRENT" true
    (Manifest.recover env ~dir:"db" = None);
  let report = Pdb_manifest.Repair.repair env ~dir:"db" in
  Alcotest.(check bool) "real tables recovered" true
    (report.Pdb_manifest.Repair.tables_recovered > 0);
  let db2 = L.open_store opts ~env ~dir:"db" in
  L.check_invariants db2;
  for i = 0 to 199 do
    check
      Alcotest.(option string)
      (Printf.sprintf "repaired key%04d" i)
      (Some (Printf.sprintf "val%04d" i))
      (L.get db2 (Printf.sprintf "key%04d" i))
  done;
  L.close db2

(* The MANIFEST is written under a temporary name and renamed into
   place; every later append and sync must name the installed file, so a
   fault-plan label points at a file that exists.  Crash at each IO event
   of a PebblesDB put trace in turn, after the store is open, until one
   lands on a MANIFEST sync: the first flush's record. *)
let test_manifest_labels_installed_name () =
  let module P = Pebblesdb.Pebbles_store in
  let opts =
    {
      (Pdb_kvs.Options.pebblesdb ()) with
      Pdb_kvs.Options.memtable_bytes = 2048;
    }
  in
  let label_at n =
    let env = Env.create () in
    let db = P.open_store opts ~env ~dir:"db" in
    let plan = Env.Fault_plan.create ~seed:n ~crash_after:n () in
    Env.set_fault_plan env plan;
    (try
       for i = 0 to 199 do
         P.put db (Printf.sprintf "key%04d" i) (String.make 64 'v')
       done
     with Env.Injected_crash _ -> ());
    Option.value ~default:"" (Env.Fault_plan.fired_at plan)
  in
  let rec first_manifest_sync n =
    let at = label_at n in
    if at = "" || String.starts_with ~prefix:"sync:db/MANIFEST-" at then at
    else first_manifest_sync (n + 1)
  in
  check Alcotest.string "a flush's MANIFEST sync names the installed file"
    "sync:db/MANIFEST-000002" (first_manifest_sync 1)

let () =
  Alcotest.run "wal-manifest"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "large record" `Quick
            test_wal_large_record_fragments;
          Alcotest.test_case "block boundary" `Quick test_wal_block_boundary;
          Alcotest.test_case "truncated tail" `Quick
            test_wal_truncated_tail_dropped;
          Alcotest.test_case "corrupt crc" `Quick test_wal_corrupt_crc_stops;
          Alcotest.test_case "torn mid-fragment" `Quick
            test_wal_torn_mid_fragment;
          Alcotest.test_case "orphan fragments" `Quick
            test_wal_orphan_fragments;
          prop_wal_roundtrip;
          prop_wal_matches_reference_framer;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "edit roundtrip" `Quick test_edit_roundtrip;
          Alcotest.test_case "create/recover" `Quick
            test_manifest_create_recover;
          Alcotest.test_case "crash durability" `Quick
            test_manifest_survives_crash;
          Alcotest.test_case "missing" `Quick test_manifest_missing;
          Alcotest.test_case "writer labels the installed name" `Quick
            test_manifest_labels_installed_name;
        ] );
      ( "repair",
        [
          Alcotest.test_case "sst_number digits only" `Quick
            test_sst_number_rejects_non_decimal;
          Alcotest.test_case "crash + corrupt CURRENT" `Quick
            test_repair_crash_corrupt_current;
        ] );
    ]
