(** Record-oriented write-ahead log (LevelDB log format).

    The log is a sequence of 32 KB blocks; records are framed with
    [crc32c(4) | length(2) | type(1)] headers and fragmented across block
    boundaries with FIRST/MIDDLE/LAST record types.  Both the WAL proper
    (memtable recovery) and the MANIFEST (version-edit recovery) use this
    format.  The reader stops cleanly at a truncated or corrupt tail — the
    expected state after a crash. *)

let block_size = 32 * 1024
let header_size = 7

type record_type = Full | First | Middle | Last

let type_to_int = function Full -> 1 | First -> 2 | Middle -> 3 | Last -> 4

let type_of_int = function
  | 1 -> Some Full
  | 2 -> Some First
  | 3 -> Some Middle
  | 4 -> Some Last
  | _ -> None

module Writer = struct
  type t = {
    writer : Pdb_simio.Env.writer;
    mutable block_offset : int;
    staging : Buffer.t;
        (* the framed bytes of one append, cleared as each append starts;
           a store hands it on to its next log (see [create]) *)
  }

  let create ?(staging = Buffer.create 4096) env name =
    { writer = Pdb_simio.Env.create_file env name; block_offset = 0; staging }

  let of_writer writer ~existing_bytes =
    { writer; block_offset = existing_bytes mod block_size;
      staging = Buffer.create 4096 }

  (* The CRC-32C of each record type's byte, which every checksum starts
     from: a record's CRC covers its type byte and then its fragment. *)
  let type_crc =
    Array.init 5 (fun i -> Pdb_util.Crc32c.string (String.make 1 (Char.chr i)))

  (* Frame the [len] bytes of [src] at [pos] as one [rtype] fragment. *)
  let emit t rtype src pos len =
    let buf = t.staging in
    let tbyte = type_to_int rtype in
    let crc = Pdb_util.Crc32c.update_bytes type_crc.(tbyte) src pos len in
    Pdb_util.Varint.put_fixed32 buf (Pdb_util.Crc32c.masked crc);
    Buffer.add_char buf (Char.chr (len land 0xff));
    Buffer.add_char buf (Char.chr ((len lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr tbyte);
    Buffer.add_subbytes buf src pos len;
    t.block_offset <- t.block_offset + header_size + len

  (* Frame the logical record [src.[start .. stop - 1]] into the staging
     buffer, fragmenting across block boundaries as needed. *)
  let emit_record t src start stop =
    let pos = ref start in
    let first = ref true in
    let continue = ref true in
    while !continue do
      let leftover = block_size - t.block_offset in
      if leftover < header_size then begin
        (* pad the block tail with zeroes *)
        for _ = 1 to leftover do
          Buffer.add_char t.staging '\000'
        done;
        t.block_offset <- 0
      end
      else begin
        let avail = block_size - t.block_offset - header_size in
        let fragment_len = min avail (stop - !pos) in
        let is_last = !pos + fragment_len = stop in
        let rtype =
          match (!first, is_last) with
          | true, true -> Full
          | true, false -> First
          | false, true -> Last
          | false, false -> Middle
        in
        emit t rtype src !pos fragment_len;
        if t.block_offset >= block_size then t.block_offset <- 0;
        pos := !pos + fragment_len;
        first := false;
        if is_last then continue := false
      end
    done

  (** [add_records t src ~ends n] appends [src]'s first [n] records, back
      to back from offset 0 with record [i] ending at [ends.(i)], in
      order as one device write — the group-commit leader's coalesced WAL
      append.  The file bytes are exactly those of adding each record
      alone; only the device-op accounting (one write instead of N)
      differs. *)
  let add_records t src ~ends n =
    Buffer.clear t.staging;
    for i = 0 to n - 1 do
      emit_record t src (if i = 0 then 0 else ends.(i - 1)) ends.(i)
    done;
    (* no record stages nothing, and an empty append is no IO *)
    Pdb_simio.Env.append_buffer t.writer t.staging

  (** [add_record t payload] appends one logical record, fragmenting across
      block boundaries as needed.  The framer only reads [payload]. *)
  let add_record t payload =
    add_records t (Bytes.unsafe_of_string payload)
      ~ends:[| String.length payload |] 1

  let sync t = Pdb_simio.Env.sync t.writer
  let close t = Pdb_simio.Env.close t.writer
  let size t = Pdb_simio.Env.writer_size t.writer
end

module Reader = struct
  (** Why a read stopped short of the physical end of the log. *)
  type stop_reason =
    | Clean  (** every byte accounted for *)
    | Torn_header  (** the file ends inside a record header *)
    | Torn_fragment  (** a framed length points past the end of the file *)
    | Bad_crc  (** a stored checksum does not match its body *)
    | Bad_type  (** an unknown record-type byte *)

  let stop_reason_name = function
    | Clean -> "clean"
    | Torn_header -> "torn-header"
    | Torn_fragment -> "torn-fragment"
    | Bad_crc -> "bad-crc"
    | Bad_type -> "bad-type"

  (** What recovery got out of a log — stores surface this in their engine
      stats instead of pretending every log was clean. *)
  type report = {
    records_read : int;  (** complete records returned *)
    bytes_dropped : int;
        (** log bytes not represented in the returned records: orphaned
            fragments, the corrupt/torn tail *)
    orphan_fragments : int;
        (** FIRST/MIDDLE/LAST fragments dropped because their record was
            never completed — the signature of a torn fragmented write *)
    stop : stop_reason;  (** why reading stopped, [Clean] at a clean end *)
  }

  (** [read_all env name] returns the complete records recoverable from
      the log, in order, together with a {!report} accounting for every
      byte that was dropped: the corrupt or truncated tail expected after
      a crash, and any orphaned mid-log fragments. *)
  let read_all env name =
    let data =
      Pdb_simio.Env.read_all env name ~hint:Pdb_simio.Device.Sequential_read
    in
    let len = String.length data in
    let records = ref [] in
    let nrecords = ref 0 in
    let partial = Buffer.create 256 in
    let in_fragmented = ref false in
    let pos = ref 0 in
    let dropped = ref 0 in
    let orphans = ref 0 in
    let stop = ref Clean in
    let stopped = ref false in
    (* an accumulated FIRST(+MIDDLE)* prefix whose record never completed *)
    let drop_partial () =
      if !in_fragmented then begin
        dropped := !dropped + Buffer.length partial;
        incr orphans;
        Buffer.clear partial;
        in_fragmented := false
      end
    in
    while (not !stopped) && !pos + header_size <= len do
      let block_left = block_size - (!pos mod block_size) in
      if block_left < header_size then pos := min len (!pos + block_left)
      else begin
        let stored_crc = Pdb_util.Varint.get_fixed32 data !pos in
        let flen =
          Char.code data.[!pos + 4] lor (Char.code data.[!pos + 5] lsl 8)
        in
        let tbyte = Char.code data.[!pos + 6] in
        if tbyte = 0 && flen = 0 && stored_crc = 0 then
          (* zero padding: skip to next block *)
          pos := min len (!pos + block_left)
        else if !pos + header_size + flen > len then begin
          stop := Torn_fragment;
          stopped := true
        end
        else
          match type_of_int tbyte with
          | None ->
            stop := Bad_type;
            stopped := true
          | Some rtype ->
            let body =
              String.sub data (!pos + 6) (1 + flen)
              (* type byte + fragment, as covered by the CRC *)
            in
            let crc = Pdb_util.Crc32c.masked (Pdb_util.Crc32c.string body) in
            if crc <> stored_crc then begin
              stop := Bad_crc;
              stopped := true
            end
            else begin
              let fragment = String.sub data (!pos + header_size) flen in
              (match rtype with
               | Full ->
                 drop_partial ();
                 records := fragment :: !records;
                 incr nrecords
               | First ->
                 drop_partial ();
                 Buffer.add_string partial fragment;
                 in_fragmented := true
               | Middle ->
                 if !in_fragmented then Buffer.add_string partial fragment
                 else begin
                   dropped := !dropped + header_size + flen;
                   incr orphans
                 end
               | Last ->
                 if !in_fragmented then begin
                   Buffer.add_string partial fragment;
                   records := Buffer.contents partial :: !records;
                   incr nrecords;
                   Buffer.clear partial;
                   in_fragmented := false
                 end
                 else begin
                   dropped := !dropped + header_size + flen;
                   incr orphans
                 end);
              pos := !pos + header_size + flen
            end
      end
    done;
    if !stopped then dropped := !dropped + (len - !pos)
    else if !pos < len then begin
      (* fewer than header_size trailing bytes: torn padding (all zeroes,
         nothing lost) or a torn header *)
      let tail = String.sub data !pos (len - !pos) in
      if not (String.for_all (fun c -> c = '\000') tail) then begin
        dropped := !dropped + (len - !pos);
        stop := Torn_header
      end
    end;
    (if !in_fragmented then begin
       drop_partial ();
       if !stop = Clean then stop := Torn_fragment
     end);
    ( List.rev !records,
      {
        records_read = !nrecords;
        bytes_dropped = !dropped;
        orphan_fragments = !orphans;
        stop = !stop;
      } )
end
