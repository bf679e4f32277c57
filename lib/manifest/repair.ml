(** Store repair: rebuild a usable MANIFEST from surviving sstable files —
    the equivalent of LevelDB's `RepairDB`, for the case where CURRENT or
    the MANIFEST is lost or corrupt.

    Every [NNNNNN.sst] in the directory is scanned: its metadata is
    reconstructed from footer + index, and its maximum sequence number from
    a full scan.  All recovered tables are installed at level 0 (newest
    first by file number), which is always correct — level 0 permits
    overlap, and sequence numbers keep version order — at the cost of
    letting normal compaction re-sort the data afterwards.  Guard metadata
    is discarded; the FLSM store regrows guards from future inserts.

    Stale WAL files are left in place (recovery will replay the one the new
    MANIFEST names, which is none, so they are ignored and eventually
    removed by the store). *)

module Env = Pdb_simio.Env
module Table = Pdb_sstable.Table

type report = {
  tables_recovered : int;
  entries_recovered : int;
  max_sequence : int;
}

let sst_number ~dir name =
  let prefix = dir ^ "/" in
  let plen = String.length prefix in
  if
    String.length name > plen + 4
    && String.sub name 0 plen = prefix
    && Filename.check_suffix name ".sst"
  then begin
    let stem = String.sub name plen (String.length name - plen - 4) in
    (* decimal digits only: [int_of_string_opt] would also accept "0x1f"
       or "1_0", silently "repairing" a stray file as the wrong number *)
    if String.for_all (fun c -> c >= '0' && c <= '9') stem then
      int_of_string_opt stem
    else None
  end
  else None

(* Full scan of a table for its maximum sequence number — repair is allowed
   to be expensive.  [cache] is a shared scratch block cache: each table's
   blocks are evicted after its scan (a repair pass never revisits a
   table, so keeping them would only evict the next table's blocks). *)
let max_seq_of env ~dir ~cache (meta : Table.meta) =
  let reader =
    Table.open_reader ~hint:Pdb_simio.Device.Sequential_read env ~dir meta
  in
  let it = Table.iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read in
  Table.seek_to_first it;
  let m = ref 0 in
  while Table.valid it do
    m := max !m (Pdb_kvs.Internal_key.seq (Table.key it));
    Table.next it
  done;
  Pdb_sstable.Block_cache.evict_file cache
    ~file:(Table.file_name ~dir meta.Table.number);
  !m

(** [repair env ~dir] rebuilds the MANIFEST; any engine can then open the
    store normally.  Raises [Failure] if an sstable is unreadable (a
    corrupt table should be removed by the operator first). *)
let repair env ~dir =
  let numbers =
    List.filter_map (sst_number ~dir) (Env.list env)
    |> List.sort compare
  in
  let metas =
    List.map (fun number -> Table.recover_meta env ~dir ~number) numbers
  in
  let cache = Pdb_sstable.Block_cache.create ~capacity:(1 lsl 16) in
  let max_sequence =
    List.fold_left (fun acc m -> max acc (max_seq_of env ~dir ~cache m)) 0 metas
  in
  let next_file =
    1 + List.fold_left (fun acc n -> max acc n) 0 numbers
  in
  let e = Manifest.empty_edit () in
  e.Manifest.next_file_number <- Some (next_file + 1);
  e.Manifest.last_sequence <- Some max_sequence;
  (* oldest-first: recovery prepends, leaving level 0 newest-first *)
  e.Manifest.added_files <- List.map (fun m -> (0, m)) metas;
  let (_ : Manifest.t) =
    Manifest.create env ~dir ~number:next_file ~edits:[ e ]
  in
  {
    tables_recovered = List.length metas;
    entries_recovered =
      List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entries) 0 metas;
    max_sequence;
  }
