(** WiredTiger-like storage engine: checkpoints + journaling (§5.4).

    MongoDB's default engine is not an LSM: it applies writes to an
    in-memory B+-tree, journals them to a sequential log, and periodically
    checkpoints dirty pages to disk.  This shim reproduces exactly that IO
    pattern over {!Bptree} in buffered mode: sequential journal appends per
    write, page rewrites at each checkpoint (triggered when the journal
    reaches the configured log size — the paper configures a 16 MB log). *)

module Env = Pdb_simio.Env
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats

type t = {
  opts : O.t;
  env : Env.t;
  dir : string;
  tree : Bptree.t;
  mutable journal : Pdb_wal.Wal.Writer.t;
  mutable journal_number : int;
  mutable closed : bool;
}

let journal_name dir n = Printf.sprintf "%s/journal-%06d.log" dir n

(* Journals surviving from a crashed incarnation, oldest first, with the
   highest number seen (fresh journals must be numbered above every
   survivor — recreating a survivor's name would truncate it before its
   records were replayed). *)
let surviving_journals env ~dir =
  let prefix = dir ^ "/journal-" in
  let plen = String.length prefix in
  let names =
    List.filter
      (fun name ->
        String.length name > plen
        && String.sub name 0 plen = prefix
        && Filename.check_suffix name ".log")
      (List.sort compare (Env.list env))
  in
  let max_n =
    List.fold_left
      (fun acc name ->
        let stem =
          Filename.chop_suffix
            (String.sub name plen (String.length name - plen))
            ".log"
        in
        match int_of_string_opt stem with Some n -> max acc n | None -> acc)
      (-1) names
  in
  (names, max_n)

let open_store (opts : O.t) ~env ~dir =
  let tree = Bptree.open_store ~mode:Bptree.Buffered opts ~env ~dir in
  let journals, max_n = surviving_journals env ~dir in
  let c = Bptree.counters tree in
  (* replay surviving journals oldest-first (crash recovery) *)
  List.iter
    (fun name ->
      let records, (report : Pdb_wal.Wal.Reader.report) =
        Pdb_wal.Wal.Reader.read_all env name
      in
      Stats.add c Stats.wal_records_recovered
        report.Pdb_wal.Wal.Reader.records_read;
      Stats.add c Stats.wal_bytes_dropped
        report.Pdb_wal.Wal.Reader.bytes_dropped;
      List.iter
        (fun record ->
          match Pdb_kvs.Write_batch.decode record with
          | exception Invalid_argument _ -> ()
          | batch, _ -> Bptree.write tree batch)
        records)
    journals;
  (* checkpoint the replayed data before retiring the journals: deleting
     first would lose acked writes to a crash during recovery *)
  Bptree.flush tree;
  List.iter (fun name -> Env.delete env name) journals;
  let journal_number = max_n + 1 in
  {
    opts;
    env;
    dir;
    tree;
    journal = Pdb_wal.Wal.Writer.create env (journal_name dir journal_number);
    journal_number;
    closed = false;
  }

let checkpoint t =
  Bptree.flush t.tree;
  Env.delete t.env (journal_name t.dir t.journal_number);
  t.journal_number <- t.journal_number + 1;
  t.journal <-
    Pdb_wal.Wal.Writer.create t.env (journal_name t.dir t.journal_number)

let maybe_checkpoint t =
  if Pdb_wal.Wal.Writer.size t.journal >= t.opts.O.memtable_bytes then
    checkpoint t

(* Group commit over the journal: records are appended per batch (the
   journal bytes never depend on the group size), batches apply in
   order with checkpoints at the same boundaries as solo writes, and —
   honouring the durability profile — one sync at the end acks the
   whole group.  A record retired by a mid-group checkpoint is durable
   in the checkpointed pages before its journal is deleted. *)
let write_group t batches =
  assert (not t.closed);
  match batches with
  | [] -> ()
  | batches ->
    (* batches still riding on the end-of-group sync; a mid-group
       checkpoint makes everything so far durable in the tree pages and
       rotates the journal, so it resets the count — crediting [n - 1]
       unconditionally would overcount elided syncs *)
    let covered = ref 0 in
    List.iter
      (fun batch ->
        Pdb_wal.Wal.Writer.add_record t.journal
          (Pdb_kvs.Write_batch.encode batch ~base_seq:0);
        Bptree.write t.tree batch;
        incr covered;
        let before = t.journal_number in
        maybe_checkpoint t;
        if t.journal_number <> before then covered := 0)
      batches;
    (* without the sync, an acked write is lost whenever a crash beats
       the next checkpoint *)
    if t.opts.O.wal_sync_writes then Pdb_wal.Wal.Writer.sync t.journal;
    let c = Bptree.counters t.tree in
    Stats.incr c Stats.write_groups;
    Stats.add c Stats.write_group_batches (List.length batches);
    if t.opts.O.wal_sync_writes then
      Stats.add c Stats.group_syncs_saved (max 0 (!covered - 1))

let write t batch = write_group t [ batch ]

let put t k v =
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.put b k v;
  write t b

let delete t k =
  let b = Pdb_kvs.Write_batch.create () in
  Pdb_kvs.Write_batch.delete b k;
  write t b

let get t k = Bptree.get t.tree k
let iterator t = Bptree.iterator t.tree
let flush t = checkpoint t
let compact_all t = checkpoint t

let close t =
  checkpoint t;
  Env.delete t.env (journal_name t.dir t.journal_number);
  Bptree.close t.tree;
  t.closed <- true

let stats t = Bptree.stats t.tree
let options t = t.opts
let env t = t.env
let memory_bytes t = Bptree.memory_bytes t.tree

let describe t =
  Printf.sprintf "wiredtiger-sim (journal %dB): %s"
    (Pdb_wal.Wal.Writer.size t.journal)
    (Bptree.describe t.tree)

let check_invariants t = Bptree.check_invariants t.tree
