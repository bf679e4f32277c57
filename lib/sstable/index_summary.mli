(** Compressed in-memory index summaries, resident above the table cache.

    The table cache bounds how many open tables keep their index block
    and bloom filter resident; at production scale the working set of
    tables exceeds it and every reopen pays two random reads (the footer,
    then the filter and index together).  A summary is the
    Cassandra-style middle tier: for each table ever opened, keep a small
    always-resident digest — the footer's handles plus every [stride]-th
    index entry, shared-prefix truncated — so a later reopen skips the
    footer read, bounds its index read to one inter-sample slice, and
    defers the filter until a bloom probe actually needs it (see
    {!Table.open_via_summary}).

    Summaries are pure read-path state derived from the on-disk table;
    building or dropping them never changes file bytes. *)

type t

(** [build ~stride ~number ~entries ~index_handle ~filter_handle
    ~index_bytes ~filter_bytes index] digests a decoded index
    block.  [index f] calls [f key len offset size] on each of the
    index's entries in order, its last key as the first [len] bytes of
    [key] (see {!Block.iter_index}); every [stride]-th entry (and the
    last) is retained, and only those keys are copied.
    [index_bytes]/[filter_bytes] record the table's actual decoded
    resident footprint, making the summary the source of truth for
    memory accounting of evicted tables. *)
val build :
  stride:int ->
  number:int ->
  entries:int ->
  index_handle:int * int ->
  filter_handle:int * int ->
  index_bytes:int ->
  filter_bytes:int ->
  ((Bytes.t -> int -> int -> int -> unit) -> unit) ->
  t

val number : t -> int
val entries : t -> int

(** Footer fields, so a reopen needs no footer read. *)
val index_handle : t -> int * int

val filter_handle : t -> int * int

(** Actual decoded resident size of the open table (index + filter) as
    captured at first open — exact, unlike size estimates derived from
    [Bloom.bits_per_key]. *)
val resident_table_bytes : t -> int

val index_bytes : t -> int
val filter_bytes : t -> int

(** In-memory footprint of the summary itself (the packed samples plus
    fixed bookkeeping), accounted by {!Table_cache.resident_bytes}. *)
val size_bytes : t -> int

val nsamples : t -> int

(** [slice_bytes t] is the modeled size of one inter-sample index slice —
    the bytes a summary-guided reopen actually needs from the index
    block. *)
val slice_bytes : t -> int

(** Decoded samples, oldest first (tests and diagnostics). *)
val samples : t -> (string * (int * int)) list
