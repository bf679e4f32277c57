(** Simulated storage environment: an in-memory file system with IO
    accounting, device-time charging and crash simulation.

    This stands in for the paper's ext4-on-SSD testbed.  Every store in the
    repository performs all of its IO through an [Env.t], so byte counts
    (write amplification) and modeled device time are directly comparable
    across engines.

    Durability model: [append] buffers data; [sync] makes the current file
    contents crash-durable.  {!crash} truncates every file back to its last
    synced length (and removes files that were never synced), after which
    stores exercise their recovery paths.  [rename] follows the ext4
    replace-via-rename heuristic: it implies a flush of the file's current
    contents, so the renamed file — name and data — is durable, matching
    the way LevelDB-family stores install a new MANIFEST via CURRENT.

    Fault injection: a seeded {!Fault_plan} arms a crash at the Nth
    subsequent IO event (create/append/sync/rename/delete/positioned
    write), raising {!Injected_crash} out of the store's own code path —
    including mid-flush and mid-compaction, since background jobs perform
    their IO through the same environment.  When a plan is installed,
    {!crash} additionally applies a torn-write model: each file's unsynced
    suffix persists only up to a block-granular prefix chosen by the plan's
    RNG, and the surviving tail may be garbled (bit flips), modelling
    partial page persistence after power failure. *)

exception Injected_crash of string

module Fault_plan = struct
  type t = {
    rng : Pdb_util.Rng.t;
    mutable countdown : int;  (** IO events left before the crash fires *)
    mutable armed : bool;
    garbage_tail_prob : float;
    block_bytes : int;
    mutable ticks : int;  (** total IO events observed, fired or not *)
    mutable fired_at : string option;
    mutable fired_in_background : bool;
    mutable torn_files : int;
        (** files whose unsynced tail partially persisted at the crash *)
  }

  let create ?(garbage_tail_prob = 0.25)
      ?(block_bytes = 4096) ~seed ~crash_after () =
    {
      rng = Pdb_util.Rng.create seed;
      countdown = crash_after;
      armed = crash_after > 0;
      garbage_tail_prob;
      block_bytes;
      ticks = 0;
      fired_at = None;
      fired_in_background = false;
      torn_files = 0;
    }

  let fired t = t.fired_at <> None
  let fired_at t = t.fired_at
  let fired_in_background t = t.fired_in_background
  let ticks t = t.ticks
  let torn_files t = t.torn_files
end

(* A file's bytes live in chunks that follow its appends: an append that
   runs past the file's capacity adds one chunk for exactly the bytes
   that do not fit.  Growing a file never copies what it already holds,
   its capacity equals its length (until a crash truncates the length; a
   later append fills the spare capacity first), and the bytes of one
   append past the capacity lie in one chunk.  Chunk [i] holds the
   file's bytes [starts.(i), starts.(i + 1)) from its offset 0; the
   first [n] slots of [chunks] and [n + 1] of [starts] are in use, and
   [starts.(n)] is the capacity.  A chunk taken from the pool (below)
   may be longer than its bytes: that slack is never read. *)
type file = {
  mutable chunks : Bytes.t array;
  mutable starts : int array;
  mutable n : int;
  mutable len : int;
  mutable synced : int;
  mutable ever_synced : bool;
      (* distinct from [synced = 0]: a file synced while empty is durable
         as an empty file, a never-synced file vanishes at a crash *)
  mutable gone : bool;
      (* no longer in its env's [files]: its length does not count in
         the env's [live], whatever a writer still appends to it *)
}

(* The chunks of deleted files, kept to hold later appends.  A chunk of
   [L] bytes is filed in class [L / class_bytes]; [bins.(c)] holds class
   [c]'s chunks and [pooled] their total length.  Only chunks between
   [min_pooled] and [max_pooled] bytes are kept: shorter ones would
   waste their slack, and a table's blocks are in range.
   [bins] is allocated at the first chunk pooled. *)
type pool = { mutable bins : Bytes.t list array; mutable pooled : int }

let class_bytes = 32
let min_pooled = 1024
let max_pooled = 64 * 1024

(* An append takes a chunk from its own class or the [window] classes
   above it: less than 288 bytes of slack. *)
let window = 8

type t = {
  files : (string, file) Hashtbl.t;
  mutable live : int;  (* the [len] of every file in [files], summed *)
  pool : pool;
  stats : Io_stats.t;
  device : Device.t;
  clock : Clock.t;
  mutable plan : Fault_plan.t option;
  mutable atomic_depth : int;
  mutable pending_crash : string option;
  mutable tracer : Trace.t option;
}

(* [staged] counts bytes {!append_coalesced} has put in the file and not
   yet charged as a device write. *)
type writer = {
  env : t;
  mutable name : string;
  file : file;
  mutable staged : int;
}

(* The [starts] of a file with no chunks; never written, since a file's
   first chunk grows its arrays. *)
let no_starts = [| 0 |]

let new_file ~ever_synced =
  { chunks = [||]; starts = no_starts; n = 0; len = 0; synced = 0;
    ever_synced; gone = false }

let capacity f = f.starts.(f.n)

(* The index of the chunk holding byte [p], which must be within
   capacity: the last chunk starting at or before [p]. *)
let chunk_index f p =
  let lo = ref 0 and hi = ref (f.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if f.starts.(mid) <= p then lo := mid else hi := mid - 1
  done;
  !lo

(* The first pooled chunk of classes [c, last], taken out of the pool,
   else a fresh chunk of [n] bytes. *)
let rec take_from pool n c last =
  if c > last then Bytes.create n
  else
    match pool.bins.(c) with
    | chunk :: rest ->
      pool.bins.(c) <- rest;
      pool.pooled <- pool.pooled - Bytes.length chunk;
      chunk
    | [] -> take_from pool n (c + 1) last

(* A chunk of at least [n] bytes, else a fresh one of exactly [n]: the
   first pooled chunk of [n]'s own class if it is long enough, or of
   the [window] classes above it, so at most [(window + 1) *
   class_bytes - 1] bytes longer. *)
let take pool n =
  if n < min_pooled || n > max_pooled || pool.pooled = 0 then Bytes.create n
  else begin
    let c = n / class_bytes in
    let first =
      match pool.bins.(c) with
      | chunk :: _ when Bytes.length chunk >= n -> c
      | _ -> c + 1
    in
    take_from pool n first (min (c + window) (Array.length pool.bins - 1))
  end

(* Pool [chunk] if it is in range and the pool stays within [limit]
   bytes; otherwise leave it to the GC. *)
let give pool ~limit chunk =
  let len = Bytes.length chunk in
  if len >= min_pooled && len <= max_pooled && pool.pooled + len <= limit
  then begin
    if Array.length pool.bins = 0 then
      pool.bins <- Array.make ((max_pooled / class_bytes) + 1) [];
    let c = len / class_bytes in
    pool.bins.(c) <- chunk :: pool.bins.(c);
    pool.pooled <- pool.pooled + len
  end

(* Grow [f] to hold at least [size] bytes, by one chunk for exactly the
   missing bytes. *)
let reserve pool f size =
  let cap = capacity f in
  if size > cap then begin
    if f.n = Array.length f.chunks then begin
      let slots = max 4 (2 * f.n) in
      let chunks = Array.make slots Bytes.empty in
      Array.blit f.chunks 0 chunks 0 f.n;
      let starts = Array.make (slots + 1) 0 in
      Array.blit f.starts 0 starts 0 (f.n + 1);
      f.chunks <- chunks;
      f.starts <- starts
    end;
    f.chunks.(f.n) <- take pool (size - cap);
    f.n <- f.n + 1;
    f.starts.(f.n) <- size
  end

(* [each_piece f pos n g src] calls [g src chunk off k done_] for the
   pieces of [f]'s range [pos, pos + n), in order: [k] bytes at offset
   [off] of [chunk], after [done_] bytes of the range.  The range must be
   within capacity.  [g] takes its data as [src], so a closed [g] costs
   no closure per call. *)
let each_piece f pos n g src =
  if n > 0 then begin
    let i = ref (chunk_index f pos) in
    let off = ref (pos - f.starts.(!i)) in
    let done_ = ref 0 in
    while !done_ < n do
      let k = min (n - !done_) (f.starts.(!i + 1) - f.starts.(!i) - !off) in
      g src f.chunks.(!i) !off k !done_;
      done_ := !done_ + k;
      incr i;
      off := 0
    done
  end

(* Piece copiers for {!each_piece}: [blit_string s c off k d] copies
   bytes [d, d + k) of [s] to [c] at [off]. *)
let blit_string s c off k d = Bytes.blit_string s d c off k
let blit_buffer b c off k d = Buffer.blit b d c off k
let blit_zeroes () c off k _ = Bytes.fill c off k '\000'
let blit_out out c off k d = Bytes.blit c off out d k

(* Write the [n] bytes [blit src] copies at [pos], growing [f] as
   needed; [len] is not updated. *)
let write_pieces t f pos n blit src =
  reserve t.pool f (pos + n);
  each_piece f pos n blit src

(* The bytes [pos, pos + n) of [f], which must be within [f.len]. *)
let sub_string f pos n =
  if n = 0 then ""
  else begin
    let i = chunk_index f pos in
    if pos + n <= f.starts.(i + 1) then
      Bytes.sub_string f.chunks.(i) (pos - f.starts.(i)) n
    else begin
      let out = Bytes.create n in
      each_piece f pos n blit_out out;
      Bytes.unsafe_to_string out
    end
  end

(* Set [f]'s length to [len], keeping [t.live] the total of [t]'s
   files. *)
let set_len t f len =
  if not f.gone then t.live <- t.live + len - f.len;
  f.len <- len

(* Note that [f] has left [t.files]. *)
let forget t f =
  t.live <- t.live - f.len;
  f.gone <- true

let get_byte f p =
  let i = chunk_index f p in
  Bytes.get f.chunks.(i) (p - f.starts.(i))

let set_byte f p b =
  let i = chunk_index f p in
  Bytes.set f.chunks.(i) (p - f.starts.(i)) b

let create () =
  {
    files = Hashtbl.create 64;
    live = 0;
    pool = { bins = [||]; pooled = 0 };
    stats = Io_stats.create ();
    device = Device.ssd ();
    clock = Clock.create ();
    plan = None;
    atomic_depth = 0;
    pending_crash = None;
    tracer = None;
  }

let stats t = t.stats
let device t = t.device
let clock t = t.clock

let set_fault_plan t plan = t.plan <- Some plan
let clear_fault_plan t = t.plan <- None

let set_tracer t tr = t.tracer <- Some tr
let tracer t = t.tracer

(* One injection point: decrement the armed plan's countdown and raise
   {!Injected_crash} when it reaches zero.  The event's label is [op ^
   name] (["append:"] and a file name, say), built only when the crash
   fires.  Inside an {!with_atomic} section the crash is deferred to the
   section's end, modelling an operation the device commits atomically
   (page-store checkpoints). *)
let tick t op name =
  match t.plan with
  | Some p when p.Fault_plan.armed ->
    p.Fault_plan.ticks <- p.Fault_plan.ticks + 1;
    p.Fault_plan.countdown <- p.Fault_plan.countdown - 1;
    if p.Fault_plan.countdown <= 0 then begin
      let label = op ^ name in
      p.Fault_plan.armed <- false;
      p.Fault_plan.fired_at <- Some label;
      p.Fault_plan.fired_in_background <-
        t.clock.Clock.lane = Clock.Background;
      (match t.tracer with
       | Some tr ->
         Trace.instant tr ~name:("fault:" ^ label) ~cat:"fault"
           ~lane:"faults"
           ~ts_ns:(Clock.now_ns t.clock) ()
       | None -> ());
      if t.atomic_depth > 0 then t.pending_crash <- Some label
      else raise (Injected_crash label)
    end
  | _ -> ()

(** [with_atomic t f] runs [f] deferring any injected crash to the end of
    the section: the IO inside is committed (or lost) as a unit. *)
let with_atomic t f =
  t.atomic_depth <- t.atomic_depth + 1;
  let result =
    Fun.protect f ~finally:(fun () -> t.atomic_depth <- t.atomic_depth - 1)
  in
  (* fire outside the protect: a raise inside [~finally] would surface as
     [Fun.Finally_raised] instead of the crash itself *)
  (if t.atomic_depth = 0 then
     match t.pending_crash with
     | Some label ->
       t.pending_crash <- None;
       raise (Injected_crash label)
     | None -> ());
  result

let find t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None -> raise (Sys_error (name ^ ": no such simulated file"))

(** [create_file t name] opens [name] for appending, truncating any existing
    contents.  Truncating an already-durable name keeps the directory entry
    durable (the file survives a crash, empty); a brand-new name stays
    volatile until the first sync. *)
let create_file t name =
  let ever_synced =
    match Hashtbl.find_opt t.files name with
    | Some f ->
      forget t f;
      f.ever_synced
    | None -> false
  in
  let file = new_file ~ever_synced in
  Hashtbl.replace t.files name file;
  t.stats.files_created <- t.stats.files_created + 1;
  tick t "create:" name;
  { env = t; name; file; staged = 0 }

(* Put the [n] bytes [blit src] copies (see {!write_pieces}) at the end
   of [w]'s file and count them written. *)
let put_blit w n blit src =
  let f = w.file in
  write_pieces w.env f f.len n blit src;
  set_len w.env f (f.len + n);
  w.env.stats.bytes_written <- w.env.stats.bytes_written + n

(* Charge one sequential device write of [n] bytes. *)
let charge_write t n =
  t.stats.write_ops <- t.stats.write_ops + 1;
  Clock.advance t.clock (Device.write_cost t.device ~bytes:n)

(* Append the [n] bytes [blit src] copies and charge one sequential write
   for them. *)
let append_blit w n blit src =
  if n > 0 then begin
    put_blit w n blit src;
    charge_write w.env n;
    tick w.env "append:" w.name
  end

(** [append w s] appends [s]; charges sequential write cost. *)
let append w s = append_blit w (String.length s) blit_string s

(** [append_buffer w b] appends the contents of [b], exactly as
    [append w (Buffer.contents b)] would, without the copy. *)
let append_buffer w b = append_blit w (Buffer.length b) blit_buffer b

(** [append_coalesced w ~unit b] appends the contents of [b] as
    [append_buffer] does, but charges the device one write of [unit]
    bytes each time that many bytes are staged, the write buffer of a
    file written in large units; [sync] charges what is left.
    The bytes land in the file now, and the fault plan ticks once per
    call. *)
let append_coalesced w ~unit b =
  let n = Buffer.length b in
  if n > 0 then begin
    put_blit w n blit_buffer b;
    w.staged <- w.staged + n;
    while w.staged >= unit do
      charge_write w.env unit;
      w.staged <- w.staged - unit
    done;
    tick w.env "append:" w.name
  end

(** [sync w] charges the bytes [w] has staged as one device write, then
    makes the file contents durable. *)
let sync w =
  if w.staged > 0 then begin
    charge_write w.env w.staged;
    w.staged <- 0
  end;
  w.file.synced <- w.file.len;
  w.file.ever_synced <- true;
  w.env.stats.syncs <- w.env.stats.syncs + 1;
  Clock.advance w.env.clock (Device.sync_cost w.env.device);
  tick w.env "sync:" w.name

(** [close w] closes the writer (contents remain; unsynced data stays
    volatile until the next [sync] on a new writer or a crash). *)
let close (_ : writer) = ()

let writer_size w = w.file.len

(** [write_at t name ~pos s] overwrites bytes at [pos] (extending the file
    with zeroes as needed) — the random-write path used by the page-based
    B+-tree stores.  Positioned writes are treated as immediately durable
    (page stores are assumed to carry their own journaling; see
    DESIGN.md). *)
let write_at t name ~pos s =
  let f =
    match Hashtbl.find_opt t.files name with
    | Some f -> f
    | None ->
      let f = new_file ~ever_synced:false in
      Hashtbl.replace t.files name f;
      t.stats.files_created <- t.stats.files_created + 1;
      f
  in
  let n = String.length s in
  if pos > f.len then write_pieces t f f.len (pos - f.len) blit_zeroes ();
  write_pieces t f pos n blit_string s;
  set_len t f (max f.len (pos + n));
  f.synced <- f.len;
  f.ever_synced <- true;
  t.stats.bytes_written <- t.stats.bytes_written + n;
  t.stats.write_ops <- t.stats.write_ops + 1;
  (* positioned page writes pay a random-IO style setup like reads do *)
  Clock.advance t.clock
    (Device.read_cost t.device ~hint:Device.Random_read ~bytes:0
     +. Device.write_cost t.device ~bytes:n);
  tick t "write_at:" name

let exists t name = Hashtbl.mem t.files name

let file_size t name = (find t name).len

(* The file [name], once [pos, pos + len) is checked to lie inside it;
   [op] names the caller in the error. *)
let find_range t op name ~pos ~len =
  let f = find t name in
  if pos < 0 || len < 0 || pos + len > f.len then
    invalid_arg
      (Printf.sprintf "Env.%s %s: [%d,%d) out of bounds (size %d)" op name pos
         (pos + len) f.len);
  f

(** [peek t name ~pos ~len] reads a range without charging device time or
    IO stats — the sendfile-style path replication shipping uses, where
    the primary streams file bytes it just wrote (still page-cache
    resident) onto the wire.  The network link charges the transfer. *)
let peek t name ~pos ~len =
  sub_string (find_range t "peek" name ~pos ~len) pos len

(** [io_event t label] registers an external IO event (e.g. a replication
    ship) with the fault-injection plan, so crash sweeps land between and
    inside shipping steps exactly as they do between file operations. *)
let io_event t label = tick t label ""

(* The accounting of one device read of [pos, pos + len) of [name]: the
   bounds check, IO stats and clock charge that {!read}, {!read_view} and
   {!prefetch} share.  Returns the file. *)
let charge_read t name ~pos ~len ~hint =
  let f = find_range t "read" name ~pos ~len in
  t.stats.bytes_read <- t.stats.bytes_read + len;
  t.stats.read_ops <- t.stats.read_ops + 1;
  Clock.advance t.clock (Device.read_cost t.device ~hint ~bytes:len);
  f

(** [read t name ~pos ~len ~hint] reads a range, charging device cost per
    the read [hint].  Cached layers above this module avoid calling it for
    cache hits. *)
let read t name ~pos ~len ~hint =
  sub_string (charge_read t name ~pos ~len ~hint) pos len

(** [read_view t name ~pos ~len ~hint] is [read] without the copy when
    the range lies inside one chunk, as every range one append wrote
    past the file's capacity does: it returns the chunk itself and the
    range's offset in it, else a copy and 0.  The chunk is handed out as
    a string, so the caller must only view ranges that never change, and
    only until the file is deleted (see the .mli). *)
let view f ~pos ~len =
  if len = 0 then ("", 0)
  else begin
    let i = chunk_index f pos in
    if pos + len <= f.starts.(i + 1) then
      (Bytes.unsafe_to_string f.chunks.(i), pos - f.starts.(i))
    else (sub_string f pos len, 0)
  end

let read_view t name ~pos ~len ~hint =
  view (charge_read t name ~pos ~len ~hint) ~pos ~len

(** [peek_view t name ~pos ~len] is [read_view] without the IO stats and
    clock charge, as {!peek} is [read] without them. *)
let peek_view t name ~pos ~len =
  view (find_range t "peek_view" name ~pos ~len) ~pos ~len

(** [prefetch t name ~pos ~len ~hint] charges one device read of the
    range and returns nothing: the caller views its bytes with
    {!peek_view}, as from a readahead buffer. *)
let prefetch t name ~pos ~len ~hint =
  ignore (charge_read t name ~pos ~len ~hint : file)

let read_all t name ~hint =
  let f = find t name in
  read t name ~pos:0 ~len:f.len ~hint

(* [delete] pools a file's chunks while the pool holds at most
   1/[pool_share] of the live files' bytes, so a store that stops
   writing keeps little of its last compaction's inputs. *)
let pool_share = 8

(** [delete t name] removes [name] and hands its chunks to the pool,
    which later appends take them from.  The file record is emptied, so
    a writer that outlives the file never writes into a pooled chunk;
    the views already handed out must be dropped first (see the
    .mli). *)
let delete t name =
  match Hashtbl.find_opt t.files name with
  | None -> ()
  | Some f ->
    Hashtbl.remove t.files name;
    forget t f;
    let limit = t.live / pool_share in
    for i = 0 to f.n - 1 do
      give t.pool ~limit f.chunks.(i)
    done;
    f.chunks <- [||];
    f.starts <- no_starts;
    f.n <- 0;
    f.len <- 0;
    f.synced <- 0;
    t.stats.files_deleted <- t.stats.files_deleted + 1;
    tick t "delete:" name

(** [rename t ~src ~dst] atomically renames a file.  Like ext4's
    replace-via-rename heuristic, the rename implies a flush: the file's
    contents at rename time become durable under the new name, so a
    freshly installed MANIFEST or CURRENT cannot vanish at a crash. *)
let rename t ~src ~dst =
  let f = find t src in
  Hashtbl.remove t.files src;
  Option.iter (forget t) (Hashtbl.find_opt t.files dst);
  Hashtbl.replace t.files dst f;
  f.synced <- f.len;
  f.ever_synced <- true;
  t.stats.syncs <- t.stats.syncs + 1;
  Clock.advance t.clock (Device.sync_cost t.device);
  tick t "rename:" dst

(** [rename_writer w ~dst] renames [w]'s file as {!rename} does; [w]
    keeps appending to it, and labels its IO events, under [dst]. *)
let rename_writer w ~dst =
  rename w.env ~src:w.name ~dst;
  w.name <- dst

let list t = Hashtbl.fold (fun name _ acc -> name :: acc) t.files []

(** Total bytes stored across all files — used for space-amplification
    measurements (Figure 5.3). *)
let total_file_bytes t = t.live

(* Flip a handful of random bits in bytes [lo, hi) of [f] — the garbage a
   torn page leaves behind. *)
let garble rng f lo hi =
  let n = hi - lo in
  if n > 0 then begin
    let flips = 1 + Pdb_util.Rng.int rng (min 8 n) in
    for _ = 1 to flips do
      let i = lo + Pdb_util.Rng.int rng n in
      let bit = 1 lsl Pdb_util.Rng.int rng 8 in
      set_byte f i (Char.chr (Char.code (get_byte f i) lxor bit))
    done
  end

(** [crash t] simulates a power failure: every file loses its unsynced
    suffix; files that never reached a sync disappear.  Under an installed
    {!Fault_plan}, the unsynced suffix instead persists up to a
    block-granular prefix chosen by the plan's RNG (possibly with a
    garbled tail), and a never-synced file's directory entry itself may or
    may not have persisted.  Whatever survives the crash is durable — it is
    on the platter.  The plan is consumed. *)
let crash t =
  (* iterate in sorted name order so a seeded plan is deterministic *)
  let names = List.sort compare (list t) in
  List.iter
    (fun name ->
      let f = Hashtbl.find t.files name in
      let keep_file, base =
        if f.ever_synced then (true, f.synced)
        else
          match t.plan with
          | Some p ->
            (* the creating directory update may itself have persisted *)
            (Pdb_util.Rng.bool p.Fault_plan.rng, 0)
          | None -> (false, 0)
      in
      if not keep_file then begin
        Hashtbl.remove t.files name;
        forget t f
      end
      else begin
        let unsynced = f.len - base in
        (match t.plan with
         | Some p when unsynced > 0 ->
           let block = p.Fault_plan.block_bytes in
           let nblocks = (unsynced + block - 1) / block in
           let keep_blocks = Pdb_util.Rng.int p.Fault_plan.rng (nblocks + 1) in
           let keep = min unsynced (keep_blocks * block) in
           set_len t f (base + keep);
           if keep > 0 then begin
             p.Fault_plan.torn_files <- p.Fault_plan.torn_files + 1;
             if Pdb_util.Rng.float p.Fault_plan.rng < p.Fault_plan.garbage_tail_prob
             then garble p.Fault_plan.rng f (max base (f.len - block)) f.len
           end
         | _ -> set_len t f base);
        (* post-reboot, whatever persisted is by definition durable *)
        f.synced <- f.len;
        f.ever_synced <- true
      end)
    names;
  t.plan <- None;
  t.pending_crash <- None
