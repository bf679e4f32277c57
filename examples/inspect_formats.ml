(* Format inspector: a guided dump of the on-storage formats — WAL records,
   MANIFEST version edits (including guard metadata), and sstable layout —
   the equivalent of LevelDB's `leveldbutil dump` against a live store.

   Run with: dune exec examples/inspect_formats.exe *)

module P = Pebblesdb.Pebbles_store
module Env = Pdb_simio.Env
module Ik = Pdb_kvs.Internal_key

let () =
  let env = Env.create () in
  let opts =
    { (Pdb_kvs.Options.pebblesdb ()) with
      Pdb_kvs.Options.memtable_bytes = 4 * 1024 }
  in
  let db = P.open_store opts ~env ~dir:"db" in
  for i = 0 to 799 do
    P.put db (Printf.sprintf "key%05d" i) (Printf.sprintf "value-%05d" i)
  done;
  P.flush db;

  (* ---- file census ---- *)
  print_endline "== files in the store ==";
  let files = List.sort compare (Env.list env) in
  List.iter
    (fun name -> Printf.printf "  %-24s %8d bytes\n" name (Env.file_size env name))
    files;

  (* ---- MANIFEST: version edits ---- *)
  print_endline "\n== MANIFEST version edits (newest manifest) ==";
  (match Pdb_manifest.Manifest.recover env ~dir:"db" with
   | None -> print_endline "  (no manifest)"
   | Some (name, edits) ->
     Printf.printf "  %s: %d edits\n" name (List.length edits);
     List.iteri
       (fun i (e : Pdb_manifest.Manifest.edit) ->
         Printf.printf "  edit %d:" i;
         (match e.Pdb_manifest.Manifest.log_number with
          | Some n -> Printf.printf " log=%d" n
          | None -> ());
         (match e.Pdb_manifest.Manifest.last_sequence with
          | Some n -> Printf.printf " last_seq=%d" n
          | None -> ());
         Printf.printf " +files=%d -files=%d +guards=%d -guards=%d\n"
           (List.length e.Pdb_manifest.Manifest.added_files)
           (List.length e.Pdb_manifest.Manifest.deleted_files)
           (List.length e.Pdb_manifest.Manifest.added_guards)
           (List.length e.Pdb_manifest.Manifest.deleted_guards);
         List.iteri
           (fun j (level, key) ->
             if j < 3 then Printf.printf "      guard@L%d %S\n" level key)
           e.Pdb_manifest.Manifest.added_guards)
       edits);

  (* ---- one sstable, block by block ---- *)
  print_endline "\n== first sstable, decoded ==";
  (match
     List.find_opt (fun f -> Filename.check_suffix f ".sst") files
   with
   | None -> print_endline "  (no sstable yet)"
   | Some name ->
     let metas = P.sstable_metas db in
     let meta =
       List.find
         (fun (m : Pdb_sstable.Table.meta) ->
           Pdb_sstable.Table.file_name ~dir:"db" m.Pdb_sstable.Table.number
           = name)
         metas
     in
     Printf.printf "  %s: %d entries, range [%s .. %s]\n" name
       meta.Pdb_sstable.Table.entries
       (Ik.user_key meta.Pdb_sstable.Table.smallest)
       (Ik.user_key meta.Pdb_sstable.Table.largest);
     let reader = Pdb_sstable.Table.open_reader env ~dir:"db" meta in
     Printf.printf "  resident index+filter: %d bytes; bloom filter: %s\n"
       (Pdb_sstable.Table.resident_bytes reader)
       (if Pdb_sstable.Table.has_filter reader then "present" else "absent");
     let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 20) in
     let it =
       Pdb_sstable.Table.iterator reader ~cache
         ~hint:Pdb_simio.Device.Sequential_read
     in
     Pdb_sstable.Table.seek_to_first it;
     Printf.printf "  first entries:\n";
     for _ = 1 to 5 do
       if Pdb_sstable.Table.valid it then begin
         let ik = Pdb_sstable.Table.key it in
         Printf.printf "    %s @seq%d -> %S\n" (Ik.user_key ik) (Ik.seq ik)
           (Pdb_sstable.Table.value it);
         Pdb_sstable.Table.next it
       end
     done);

  (* ---- WAL record framing ---- *)
  print_endline "\n== WAL record framing ==";
  let w = Pdb_wal.Wal.Writer.create env "demo.log" in
  Pdb_wal.Wal.Writer.add_record w "a small record";
  Pdb_wal.Wal.Writer.add_record w (String.make 40_000 'x');
  Pdb_wal.Wal.Writer.close w;
  let records, _report = Pdb_wal.Wal.Reader.read_all env "demo.log" in
  Printf.printf
    "  wrote 2 records (one spanning two 32KB blocks); reader recovered %d \
     records of sizes %s\n"
    (List.length records)
    (String.concat ", "
       (List.map (fun r -> string_of_int (String.length r)) records));

  (* ---- the store's own view ---- *)
  print_endline "\n== store layout (guards) ==";
  print_string (P.describe db);
  P.close db
