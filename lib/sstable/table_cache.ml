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

    Two production-scale refinements layer on top:
    - [?bytes] switches the cache from entry-bounded to byte-bounded, so
      the budget tracks what the cache actually holds (big tables carry
      big indexes).
    - [?summary_stride > 0] keeps an {!Index_summary} per table ever
      opened, resident above the LRU; a reopen of an evicted table is
      then summary-guided ({!Table.open_via_summary}): no footer read,
      one index slice, filter deferred. *)

module Stats = Pdb_kvs.Engine_stats

type t = {
  env : Pdb_simio.Env.t;
  dir : string;
  cache : (int, Table.reader) Pdb_util.Lru.t; (* by file number *)
  by_bytes : bool;
  summary_stride : int; (* <= 0 disables summaries *)
  summaries : (int, Index_summary.t) Hashtbl.t;
  counters : Stats.counters;
      (** table-cache hits and misses, summary hits and misses *)
}

(** [create ?bytes ?summary_stride env ~dir ~entries] — [bytes = Some b]
    bounds the cache by resident bytes instead of [entries]. *)
let create ?bytes ?(summary_stride = 0) env ~dir ~entries =
  let capacity, by_bytes =
    match bytes with Some b -> (max 1 b, true) | None -> (entries, false)
  in
  {
    env;
    dir;
    cache = Pdb_util.Lru.create ~capacity;
    by_bytes;
    summary_stride;
    summaries = Hashtbl.create 64;
    counters = Stats.counters ();
  }

let weight_of t reader =
  if t.by_bytes then max 1 (Table.resident_bytes reader) else 1

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
    let k = meta.Table.number in
    Pdb_util.Lru.insert t.cache k reader ~weight:(weight_of t reader);
    (* A summary-guided reader defers its filter block: the entry was
       weighed without the decoded bloom, so re-weigh it the moment the
       filter materialises — otherwise the byte budget tracks stale
       sizes and the cache silently over-admits. *)
    if t.by_bytes && Table.has_filter reader
       && not (Table.filter_resident reader)
    then
      Table.set_on_filter_load reader (fun () ->
          match Pdb_util.Lru.peek t.cache k with
          | Some r when r == reader ->
            Pdb_util.Lru.update_weight t.cache k ~weight:(weight_of t reader)
          | Some _ | None -> ());
    reader

(** [admit t reader] caches [reader], a table the store has just written
    and opened from its builder ({!Table.Builder.finish}), as LevelDB
    opens every new table before installing it.  Like a first open it
    records the table's summary; unlike one it reads nothing and counts
    neither a hit nor a miss.  The reader's filter is resident, so the
    entry is weighed once. *)
let admit t reader =
  if t.summary_stride > 0 then keep_summary t reader;
  Pdb_util.Lru.insert t.cache (Table.number reader) reader
    ~weight:(weight_of t reader)

(** [peek t meta] returns the cached reader without affecting recency or
    hit/miss counters — for opportunistic filter consultation that must
    not open anything or distort statistics. *)
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

(** Bytes the LRU's admission accounting believes it holds.  With a
    byte-bounded cache this must equal the summed actual resident bytes
    of the cached readers — the invariant the filter-load re-weigh
    maintains. *)
let accounted_bytes t = Pdb_util.Lru.used t.cache

let open_tables t = Pdb_util.Lru.length t.cache
let counters t = t.counters
