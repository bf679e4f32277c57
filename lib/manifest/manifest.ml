(** MANIFEST: the durable log of version edits.

    Both engines recover their on-storage shape by replaying version edits:
    files added/removed per level, counters, and — for PebblesDB — the
    guard metadata that the paper adds to the MANIFEST (§4.3.1: "PebblesDB
    simply adds more metadata (guard information) to be persisted in the
    MANIFEST file").  A CURRENT file names the live MANIFEST, and switching
    MANIFESTs is an atomic rename-based install, as in LevelDB. *)

type edit = {
  mutable log_number : int option;
  mutable next_file_number : int option;
  mutable last_sequence : int option;
  mutable added_files : (int * Pdb_sstable.Table.meta) list; (* level, meta *)
  mutable deleted_files : (int * int) list; (* level, file number *)
  mutable added_guards : (int * string) list; (* level, guard key *)
  mutable deleted_guards : (int * string) list;
}

let empty_edit () =
  {
    log_number = None;
    next_file_number = None;
    last_sequence = None;
    added_files = [];
    deleted_files = [];
    added_guards = [];
    deleted_guards = [];
  }

(* Tags for the edit's tag-length-value encoding. *)
let tag_log_number = 1
let tag_next_file = 2
let tag_last_seq = 3
let tag_added_file = 4
let tag_deleted_file = 5
let tag_added_guard = 6
let tag_deleted_guard = 7

let encode_edit e =
  let buf = Buffer.create 128 in
  let add_field tag = function
    | Some v ->
      Pdb_util.Varint.put_uvarint buf tag;
      Pdb_util.Varint.put_uvarint buf v
    | None -> ()
  in
  add_field tag_log_number e.log_number;
  add_field tag_next_file e.next_file_number;
  add_field tag_last_seq e.last_sequence;
  List.iter
    (fun (level, (m : Pdb_sstable.Table.meta)) ->
      Pdb_util.Varint.put_uvarint buf tag_added_file;
      Pdb_util.Varint.put_uvarint buf level;
      Pdb_util.Varint.put_uvarint buf m.number;
      Pdb_util.Varint.put_uvarint buf m.file_size;
      Pdb_util.Varint.put_uvarint buf m.entries;
      Pdb_util.Varint.put_length_prefixed buf m.smallest;
      Pdb_util.Varint.put_length_prefixed buf m.largest)
    e.added_files;
  List.iter
    (fun (level, number) ->
      Pdb_util.Varint.put_uvarint buf tag_deleted_file;
      Pdb_util.Varint.put_uvarint buf level;
      Pdb_util.Varint.put_uvarint buf number)
    e.deleted_files;
  List.iter
    (fun (level, key) ->
      Pdb_util.Varint.put_uvarint buf tag_added_guard;
      Pdb_util.Varint.put_uvarint buf level;
      Pdb_util.Varint.put_length_prefixed buf key)
    e.added_guards;
  List.iter
    (fun (level, key) ->
      Pdb_util.Varint.put_uvarint buf tag_deleted_guard;
      Pdb_util.Varint.put_uvarint buf level;
      Pdb_util.Varint.put_length_prefixed buf key)
    e.deleted_guards;
  Buffer.contents buf

let decode_edit s =
  let e = empty_edit () in
  let pos = ref 0 in
  let len = String.length s in
  while !pos < len do
    let tag, p = Pdb_util.Varint.get_uvarint s !pos in
    pos := p;
    if tag = tag_log_number then begin
      let v, p = Pdb_util.Varint.get_uvarint s !pos in
      pos := p;
      e.log_number <- Some v
    end
    else if tag = tag_next_file then begin
      let v, p = Pdb_util.Varint.get_uvarint s !pos in
      pos := p;
      e.next_file_number <- Some v
    end
    else if tag = tag_last_seq then begin
      let v, p = Pdb_util.Varint.get_uvarint s !pos in
      pos := p;
      e.last_sequence <- Some v
    end
    else if tag = tag_added_file then begin
      let level, p = Pdb_util.Varint.get_uvarint s !pos in
      let number, p = Pdb_util.Varint.get_uvarint s p in
      let file_size, p = Pdb_util.Varint.get_uvarint s p in
      let entries, p = Pdb_util.Varint.get_uvarint s p in
      let smallest, p = Pdb_util.Varint.get_length_prefixed s p in
      let largest, p = Pdb_util.Varint.get_length_prefixed s p in
      pos := p;
      e.added_files <-
        (level, { Pdb_sstable.Table.number; file_size; entries;
                  smallest; largest })
        :: e.added_files
    end
    else if tag = tag_deleted_file then begin
      let level, p = Pdb_util.Varint.get_uvarint s !pos in
      let number, p = Pdb_util.Varint.get_uvarint s p in
      pos := p;
      e.deleted_files <- (level, number) :: e.deleted_files
    end
    else if tag = tag_added_guard then begin
      let level, p = Pdb_util.Varint.get_uvarint s !pos in
      let key, p = Pdb_util.Varint.get_length_prefixed s p in
      pos := p;
      e.added_guards <- (level, key) :: e.added_guards
    end
    else if tag = tag_deleted_guard then begin
      let level, p = Pdb_util.Varint.get_uvarint s !pos in
      let key, p = Pdb_util.Varint.get_length_prefixed s p in
      pos := p;
      e.deleted_guards <- (level, key) :: e.deleted_guards
    end
    else invalid_arg (Printf.sprintf "Manifest.decode_edit: bad tag %d" tag);
    ()
  done;
  e.added_files <- List.rev e.added_files;
  e.deleted_files <- List.rev e.deleted_files;
  e.added_guards <- List.rev e.added_guards;
  e.deleted_guards <- List.rev e.deleted_guards;
  e

(** An open MANIFEST accepting appended edits. *)
type t = { env : Pdb_simio.Env.t; name : string; log : Pdb_wal.Wal.Writer.t }

let current_name ~dir = dir ^ "/CURRENT"
let manifest_name ~dir n = Printf.sprintf "%s/MANIFEST-%06d" dir n

(** [create env ~dir ~number ~edits] writes a fresh MANIFEST containing
    [edits] (a recovery snapshot) and atomically installs it via CURRENT.
    CURRENT itself is written to a temporary and renamed into place, as
    LevelDB does: truncating CURRENT in place would open a crash window in
    which the store forgets which MANIFEST is live. *)
let create env ~dir ~number ~edits =
  let name = manifest_name ~dir number in
  let tmp = name ^ ".tmp" in
  let log = Pdb_wal.Wal.Writer.create env tmp in
  List.iter (fun e -> Pdb_wal.Wal.Writer.add_record log (encode_edit e)) edits;
  Pdb_wal.Wal.Writer.sync log;
  Pdb_simio.Env.rename env ~src:tmp ~dst:name;
  let cur_tmp = current_name ~dir ^ ".tmp" in
  let cur = Pdb_simio.Env.create_file env cur_tmp in
  Pdb_simio.Env.append cur (Filename.basename name);
  Pdb_simio.Env.sync cur;
  Pdb_simio.Env.close cur;
  Pdb_simio.Env.rename env ~src:cur_tmp ~dst:(current_name ~dir);
  { env; name; log }

(** [append t edit] logs one edit durably. *)
let append t edit =
  Pdb_wal.Wal.Writer.add_record t.log (encode_edit edit);
  Pdb_wal.Wal.Writer.sync t.log

let size t = Pdb_wal.Wal.Writer.size t.log

let file_name t = t.name

(** [recover env ~dir] replays the live MANIFEST's edits, if any. *)
let recover env ~dir =
  let cur = current_name ~dir in
  if not (Pdb_simio.Env.exists env cur) then None
  else begin
    let base =
      Pdb_simio.Env.read_all env cur ~hint:Pdb_simio.Device.Sequential_read
    in
    let name = dir ^ "/" ^ base in
    if not (Pdb_simio.Env.exists env name) then None
    else begin
      (* manifest edits are synced as they are appended, so a dropped tail
         can only be the in-flight edit of the crashed process *)
      let records, _report = Pdb_wal.Wal.Reader.read_all env name in
      Some (name, List.map decode_edit records)
    end
  end

(** [cleanup_stale env ~dir ~live_log_number ~live_manifest] deletes files
    a crashed incarnation may have left behind: [*.tmp] files, WAL files
    ([NNNNNN.log]) numbered below the live log, and MANIFEST files other
    than the live one.  Callers must invoke it only after the live
    MANIFEST is installed and the live WAL holds every record recovery
    still needs — at that point none of the deleted files can be named by
    any future recovery.  CURRENT and sstables are never touched. *)
let cleanup_stale env ~dir ~live_log_number ~live_manifest =
  let prefix = dir ^ "/" in
  let plen = String.length prefix in
  let is_digits s =
    s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s
  in
  List.iter
    (fun name ->
      if String.length name > plen && String.sub name 0 plen = prefix then begin
        let base = String.sub name plen (String.length name - plen) in
        if Filename.check_suffix base ".tmp" then Pdb_simio.Env.delete env name
        else if Filename.check_suffix base ".log" then begin
          let stem = Filename.chop_suffix base ".log" in
          if is_digits stem && int_of_string stem < live_log_number then
            Pdb_simio.Env.delete env name
        end
        else if
          String.length base > 9
          && String.sub base 0 9 = "MANIFEST-"
          && name <> live_manifest
        then Pdb_simio.Env.delete env name
      end)
    (List.sort compare (Pdb_simio.Env.list env))

(** [reopen env ~name] continues appending to a recovered MANIFEST.  The
    file is rewritten from its readable records, not its raw bytes: after
    a torn-write crash the tail may hold garbage, and appending past it
    would put every future edit beyond the reader's reach. *)
let reopen env ~name =
  let records, _report = Pdb_wal.Wal.Reader.read_all env name in
  let log = Pdb_wal.Wal.Writer.create env name in
  List.iter (Pdb_wal.Wal.Writer.add_record log) records;
  Pdb_wal.Wal.Writer.sync log;
  { env; name; log }
