(** Table cache: a bounded set of open table readers.

    The paper attributes PebblesDB's read advantage (§5.2 "Random Writes
    and Reads", §5.3 Workload C) to its fewer, larger sstables: the stores
    "cache a limited number of sstable index blocks (default: 1000)", so a
    store with many small files suffers index-block cache misses.  This
    cache models exactly that: opening an evicted table re-reads its
    footer, index and filter from storage.  A table the store writes
    enters the cache as it is written ({!admit}), so only tables evicted
    since, or written before the store opened, are ever opened from
    storage (DESIGN "New tables and the table cache").

    The cache is bounded by a count of open tables, as LevelDB's
    [max_open_files] is.  With [?summary_stride > 0] it also keeps an
    {!Index_summary} per table ever opened, resident above the LRU; a
    reopen of an evicted table is then summary-guided
    ({!Table.open_via_summary}): no footer read, one index slice, filter
    deferred. *)

module Stats = Pdb_kvs.Engine_stats

type t = {
  env : Pdb_simio.Env.t;
  dir : string;
  cache : (int, Table.reader) Pdb_util.Lru.t;
      (* by file number; every entry weighs 1 *)
  summary_stride : int; (* <= 0 disables summaries *)
  summaries : (int, Index_summary.t) Hashtbl.t;
  counters : Stats.counters;
      (** table-cache hits and misses, summary hits and misses *)
}

(** [create ?summary_stride env ~dir ~entries] holds at most [entries]
    open tables. *)
let create ?(summary_stride = 0) env ~dir ~entries =
  {
    env;
    dir;
    cache = Pdb_util.Lru.create ~capacity:entries;
    summary_stride;
    summaries = Hashtbl.create 64;
    counters = Stats.counters ();
  }

(* Keep [reader]'s summary, as every table's first open does. *)
let keep_summary t reader =
  Hashtbl.replace t.summaries (Table.number reader)
    (Table.summarize ~stride:t.summary_stride reader)

(** [find t meta] returns the open reader for [meta], opening (and charging
    IO for) it if not cached.  With summaries enabled, a reopen of a
    previously-summarized table is summary-guided and cheaper. *)
let find t (meta : Table.meta) =
  match Pdb_util.Lru.find t.cache meta.Table.number with
  | Some reader ->
    Stats.incr t.counters Stats.table_cache_hits;
    reader
  | None ->
    Stats.incr t.counters Stats.table_cache_misses;
    let reader =
      if t.summary_stride > 0 then begin
        match Hashtbl.find_opt t.summaries meta.Table.number with
        | Some summary ->
          Stats.incr t.counters Stats.summary_hits;
          Table.open_via_summary t.env ~dir:t.dir meta summary
        | None ->
          Stats.incr t.counters Stats.summary_misses;
          let reader = Table.open_reader t.env ~dir:t.dir meta in
          keep_summary t reader;
          reader
      end
      else Table.open_reader t.env ~dir:t.dir meta
    in
    Pdb_util.Lru.insert t.cache meta.Table.number reader ~weight:1;
    reader

(** [admit t reader] caches [reader], a table the store has just written
    and opened from its builder ({!Table.Builder.finish}), as LevelDB
    opens every new table before installing it.  Like a first open it
    records the table's summary; unlike one it reads nothing and counts
    neither a hit nor a miss. *)
let admit t reader =
  if t.summary_stride > 0 then keep_summary t reader;
  Pdb_util.Lru.insert t.cache (Table.number reader) reader ~weight:1

(** [peek t meta] returns the cached reader without affecting recency or
    hit/miss counters — for a compaction input, which must not open
    anything or distort statistics. *)
let peek t (meta : Table.meta) =
  Pdb_util.Lru.peek t.cache meta.Table.number

(** [evict t number] drops a table (called when its file is deleted after
    compaction), along with its summary — the file is gone. *)
let evict t number =
  Pdb_util.Lru.remove t.cache number;
  Hashtbl.remove t.summaries number

(** [known_resident_bytes t meta] is the actual decoded footprint of the
    table if known — from the open reader, else from its summary — and
    [None] for a never-opened table. *)
let known_resident_bytes t (meta : Table.meta) =
  match Pdb_util.Lru.peek t.cache meta.Table.number with
  | Some reader -> Some (Table.resident_bytes reader)
  | None -> (
    match Hashtbl.find_opt t.summaries meta.Table.number with
    | Some s -> Some (Index_summary.resident_table_bytes s)
    | None -> None)

let summary_bytes t =
  Hashtbl.fold (fun _ s acc -> acc + Index_summary.size_bytes s) t.summaries 0

(** Modeled resident memory: cached tables' indexes and filters, plus the
    always-resident summaries. *)
let resident_bytes t =
  Pdb_util.Lru.fold t.cache
    (fun acc _ reader -> acc + Table.resident_bytes reader)
    0
  + summary_bytes t

let open_tables t = Pdb_util.Lru.length t.cache
let counters t = t.counters
