(** Sstables: immutable sorted tables of internal-key/value entries.

    Layout: data blocks, then an optional bloom-filter block over user keys
    (PebblesDB's sstable-level filters, §4.1), then an index block mapping
    each data block's last key to its (offset, size) handle, then a fixed
    footer.  Entries are written once, in internal-key order, and never
    updated in place.

    The footer is seven 32-bit words: filter offset and size, index
    offset and size, entry count, magic number, and a zero padding word. *)

type handle = { offset : int; size : int }

val footer_size : int

(** Summary of a finished table, recorded in the MANIFEST. *)
type meta = {
  number : int;
  file_size : int;
  entries : int;
  smallest : string;  (** encoded internal key *)
  largest : string;
}

val file_name : dir:string -> int -> string

(** An open table: index block resident in memory (the paper's cached
    index blocks); data blocks go through the shared block cache. *)
type reader

(** A cursor over one table; see {!iterator}. *)
type iter

module Builder : sig
  type t

  (** The buffers a table is built in: its data and index blocks, its
      filter's pending keys, and the filter and footer bytes.  A store
      owns one and lends it to each table it builds, so table after table
      reuses the same storage.  It is never shared between stores: one
      process opens many (shards, replicas, tests), and each builds on
      its own. *)
  type scratch

  val scratch : unit -> scratch

  (** [create ?scratch env ~dir ~number ~block_bytes ~bloom] starts a new
      table file.  The builder borrows [scratch] until {!finish}; when
      [scratch] is absent, or lent to a builder not finished yet, it
      builds in fresh buffers of its own, so two builders open at once
      never share one.  [bloom = true] attaches a per-table filter, sized
      when {!finish} writes it to {!Pdb_bloom.Bloom.bits_per_key} bits
      for each distinct user key. *)
  val create :
    ?scratch:scratch -> Pdb_simio.Env.t -> dir:string -> number:int ->
    block_bytes:int -> bloom:bool -> t

  (** [add t ikey value] appends an entry; internal keys must arrive in
      ascending order. *)
  val add : t -> string -> string -> unit

  (** [add_current t ikey it] is [add] of the value [it] rests on, read
      in its block: a compaction moves each value from its input block to
      its output with no copy and no closure.
      @raise Invalid_argument when [it] is not valid. *)
  val add_current : t -> string -> iter -> unit

  (** [mark_hot t] marks the data block the next entry lands in as hot:
      compaction calls it before adding an entry read from a block the
      block cache held, and a flush before adding a memtable entry a get
      returned. *)
  val mark_hot : t -> unit

  val estimated_size : t -> int
  val entry_count : t -> int

  (** [finish t] writes filter, index and footer, syncs the file, and
      returns the table's metadata with the table open: the index as a
      view of the file (see {!Pdb_simio.Env.peek_view}), the filter it
      built and the footer's fields, with no device read and no clock
      charge.  The reader answers every query as {!open_reader} on the
      same file does.  An empty builder deletes its file and returns
      [None].  Either way the builder gives its scratch back: a finished
      builder takes no more entries. *)
  val finish : t -> (meta * reader) option

  (** [admit_hot t cache] puts each hot data block of [t], once {!finish}
      has synced it, into [cache] as a view of the file (see
      {!Pdb_simio.Env.peek_view}), with no device read and no clock
      charge. *)
  val admit_hot : t -> Block_cache.t -> unit
end

(** [open_reader ?hint env ~dir meta] opens a table from its file,
    reading the footer, then the filter and index, which lie next to each
    other, in one read: two random reads on the read path
    (a table the store did not write since it opened, or one the table
    cache evicted with no summary kept); a compaction input no cache
    holds passes [~hint:Sequential_read].  A table a store writes is
    opened by its builder instead ({!Builder.finish}).
    @raise Failure on a bad magic number. *)
val open_reader :
  ?hint:Pdb_simio.Device.read_hint -> Pdb_simio.Env.t -> dir:string -> meta ->
  reader

(** [open_via_summary env ~dir meta summary] reopens an evicted table
    guided by its {!Index_summary}: no footer read, the index read billed
    as one inter-sample slice (excess bytes refunded to the clock), and
    the filter deferred until a probe needs it. *)
val open_via_summary :
  ?hint:Pdb_simio.Device.read_hint -> Pdb_simio.Env.t -> dir:string -> meta ->
  Index_summary.t -> reader

(** [may_contain r user_key] consults the table's bloom filter; [true] when
    no filter is attached.  Loads a deferred filter on first use. *)
val may_contain : reader -> string -> bool

(** The table's file number. *)
val number : reader -> int

val has_filter : reader -> bool

(** Whether the filter is decoded in memory (false while still lazy). *)
val filter_resident : reader -> bool

(** In-memory footprint of the open table (index + filter), for Table 5.4. *)
val resident_bytes : reader -> int

(** [summarize ~stride r] digests an open table into an {!Index_summary}
    capturing its handles and actual resident footprint. *)
val summarize : stride:int -> reader -> Index_summary.t

(** [get r ~cache ~hint lookup] is the kind and value of the freshest
    version of [lookup]'s user key at or below internal key [lookup] (see
    {!Pdb_kvs.Internal_key.lookup_at}), and [None] when the table holds no
    such version.  It reads at most one data block; on a cache hit it
    allocates only the result. *)
val get :
  reader -> cache:Block_cache.t -> hint:Pdb_simio.Device.read_hint -> string ->
  (Pdb_kvs.Internal_key.kind * string) option

(** {2 Iterators}

    A table iterator is one mutable cursor over the table's index and data
    blocks, with no closure inside it: entering a block reads its handle
    from the index without decoding the index key, and a seek searches the
    index and the data block in place, so only the entry it lands on gets
    a fresh key.  Every step onto an entry allocates that entry's key. *)

(** [iterator r ~cache ~hint] is an unpositioned iterator over [r], whose
    data blocks are read through [cache] with [hint].  Through a
    compaction view ({!Block_cache.for_compaction}) a block the cache
    does not hold is read ahead: one device read covers it and the
    consecutive data blocks after it, up to the first block the cache
    holds, the end of the data blocks or
    {!Pdb_kvs.Options.io_coalesce_bytes} in all.  The readahead charges
    blocks before they are entered, so walk such an iterator to its end,
    as a compaction does. *)
val iterator :
  reader -> cache:Block_cache.t -> hint:Pdb_simio.Device.read_hint -> iter

(** [repoint it r] re-points [it] at table [r], unpositioned, and drops
    the block it held. *)
val repoint : iter -> reader -> unit

(** [seek it target] rests [it] on the first entry >= internal key
    [target], or leaves it invalid. *)
val seek : iter -> string -> unit

val seek_to_first : iter -> unit

(** [next it] steps to the next entry, across blocks (no-op when
    invalid). *)
val next : iter -> unit

val valid : iter -> bool

(** [resident it] is whether the block [it] rests on was one its cache
    held, for an iterator over a compaction view
    ({!Block_cache.for_compaction}); always [false] over a cache itself. *)
val resident : iter -> bool

(** The entry's internal key.
    @raise Invalid_argument when [it] is not valid. *)
val key : iter -> string

(** [value it] copies the entry's value out of its block.
    @raise Invalid_argument when [it] is not valid. *)
val value : iter -> string

(** [value_slice it f] calls [f src pos len] on the entry's value in its
    block.
    @raise Invalid_argument when [it] is not valid. *)
val value_slice : iter -> (string -> int -> int -> unit) -> unit

(** [to_iter it] is [it] as a first-class iterator (for merges). *)
val to_iter : iter -> Pdb_kvs.Iter.t

(** [recover_meta env ~dir ~number] reconstructs a table's metadata from
    the file alone — the repair path when the MANIFEST is lost.  Reads
    the footer once, the filter and index in one read, and the first data
    block: three reads.
    @raise Failure on an empty or unreadable table. *)
val recover_meta : Pdb_simio.Env.t -> dir:string -> number:int -> meta
