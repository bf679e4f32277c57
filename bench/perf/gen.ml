(** Workload definitions and the seeded op generator.

    The generator owns the correctness oracle: it applies every write to
    the oracle in the order it draws them, and stamps every get and scan
    with the answer the oracle gives at that point of the op stream.  The
    store executes ops in the same global order (see
    {!Pdb_kvs.Multi_client}), so each stamped answer is exactly what a
    correct store must return. *)

module Rng = Pdb_util.Rng
module Dist = Pdb_util.Dist
module Crc = Pdb_util.Crc32c
module W = Pdb_ycsb.Workload
module Smap = Map.Make (String)

type mix =
  | Load  (** YCSB-load puts of fresh records, in hashed key order *)
  | Uniform_gets  (** gets spread uniformly over the preloaded records *)
  | Ycsb of W.spec  (** a YCSB transaction mix over the preloaded records *)

type spec = {
  name : string;
  engine : Pdb_harness.Stores.engine;
  preload : int;  (** records loaded before the warm-up *)
  ops_per_second : int;  (** timed ops per second of [--seconds] *)
  reps : int;
      (** independent stores per run: the medians over them damp the
          run-to-run spread that each store's layout adds *)
  mix : mix;
  verify_reopen : bool;
      (** close, reopen on the same environment and scan-verify at the end *)
}

let value_min = 512
let value_max = 1536

(* Why each workload exists, and how its sizes were chosen, is recorded
   in README.md.  [scan]'s preload sits where every seed tried stays in
   one compaction regime; [read] needs the most stores because its
   layout is frozen after the load. *)
let workloads =
  let open Pdb_harness.Stores in
  let w name engine ~preload ~ops_per_second ~reps ?(verify_reopen = false)
      mix =
    { name; engine; preload; ops_per_second; reps; mix; verify_reopen }
  in
  [
    w "fill" Pebblesdb ~preload:0 ~ops_per_second:6_000 ~reps:3
      ~verify_reopen:true Load;
    w "read" Pebblesdb ~preload:50_000 ~ops_per_second:8_000 ~reps:7
      Uniform_gets;
    w "scan" Pebblesdb ~preload:3_000 ~ops_per_second:2_400 ~reps:3
      (Ycsb W.workload_e);
    w "mixed" Pebblesdb ~preload:40_000 ~ops_per_second:12_000 ~reps:3
      (Ycsb W.workload_a);
    w "mixed_leveled" Hyperleveldb ~preload:40_000 ~ops_per_second:12_000
      ~reps:3 (Ycsb W.workload_a);
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(** Order-sensitive digest of a run of (key, value CRC) entries. *)
let digest h key vcrc = Crc.update (h lxor vcrc) key 0 (String.length key)

(** One drawn op, with the answer a correct store gives. *)
type op =
  | Put of { id : int; key : string; value : string }
  | Get of { id : int; key : string; crc : int  (** [-1]: absent *) }
  | Scan of { id : int; start : string; len : int; count : int; digest : int }

type entry = { crc : int;  (** CRC32C of the live value *) len : int }

type t = {
  mix : mix;
  rng : Rng.t;
  pool : string;  (** random bytes that values are cut from *)
  order : int array;  (** record numbers of the load, in insert order *)
  dist : Dist.t;  (** request distribution over the inserted records *)
  mutable records : int;
  mutable writes : int;
  mutable oracle : entry Smap.t;
  mutable live_bytes : int;  (** key + value bytes of the live entries *)
  mutable next_id : int;
}

(** [create spec ~seed ~loaded] makes the generator of a run whose load
    inserts [loaded] records.  Every seed loads the same records, as YCSB
    does, in its own order; the seed also drives value sizes and contents
    and every request. *)
let create (spec : spec) ~seed ~loaded =
  let rng = Rng.create seed in
  let order = Array.init loaded Fun.id in
  Rng.shuffle rng order;
  let n = max 1 loaded in
  let dist =
    match spec.mix with
    | Ycsb { W.dist = W.Zipfian; _ } ->
      Dist.scrambled_zipfian ~seed:(seed + 1) n
    | Ycsb { W.dist = W.Uniform; _ } | Load | Uniform_gets ->
      Dist.uniform ~seed:(seed + 1) n
    | Ycsb _ -> invalid_arg "Gen.create: unsupported request distribution"
  in
  {
    mix = spec.mix;
    rng;
    pool = Rng.alpha rng (64 * 1024);
    order;
    dist;
    records = 0;
    writes = 0;
    oracle = Smap.empty;
    live_bytes = 0;
    next_id = 0;
  }

let live_bytes t = t.live_bytes
let oracle t = t.oracle
let next_id t = t.next_id

let take_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let key = Pdb_ycsb.Runner.key_of_record

(* A fresh value of 512 to 1536 bytes (1 KB on average): an 8-byte write
   stamp, then bytes from a random offset of the pool, so no two writes
   store the same value. *)
let fresh_value t =
  let len = value_min + Rng.int t.rng (value_max - value_min + 1) in
  let b = Bytes.create len in
  Bytes.blit_string t.pool
    (Rng.int t.rng (String.length t.pool - len))
    b 0 len;
  Bytes.set_int64_le b 0 (Int64.of_int t.writes);
  t.writes <- t.writes + 1;
  Bytes.unsafe_to_string b

let put t key =
  let value = fresh_value t in
  let len = String.length value in
  (match Smap.find_opt key t.oracle with
   | Some old -> t.live_bytes <- t.live_bytes - old.len + len
   | None -> t.live_bytes <- t.live_bytes + String.length key + len);
  t.oracle <- Smap.add key { crc = Crc.string value; len } t.oracle;
  Put { id = take_id t; key; value }

(** [insert t] draws a put of the next record: during the load, in the
    seed's order; afterwards, records beyond the load. *)
let insert t =
  let n = t.records in
  t.records <- n + 1;
  Dist.set_item_count t.dist t.records;
  put t (key (if n < Array.length t.order then t.order.(n) else n))

let existing t = key (Dist.next t.dist)

let get t key =
  let crc =
    match Smap.find_opt key t.oracle with Some e -> e.crc | None -> -1
  in
  Get { id = take_id t; key; crc }

let scan t start len =
  let rec go seq count h =
    if count = len then (count, h)
    else
      match seq () with
      | Seq.Nil -> (count, h)
      | Seq.Cons ((k, e), rest) -> go rest (count + 1) (digest h k e.crc)
  in
  let count, digest = go (Smap.to_seq_from start t.oracle) 0 0 in
  Scan { id = take_id t; start; len; count; digest }

(** [next t] draws the next op of the workload's mix. *)
let next t =
  match t.mix with
  | Load -> insert t
  | Uniform_gets -> get t (existing t)
  | Ycsb w -> (
    match W.draw_op w t.rng with
    | W.Read -> get t (existing t)
    | W.Update -> put t (existing t)
    | W.Insert -> insert t
    | W.Scan -> scan t (existing t) (1 + Rng.int t.rng w.W.max_scan_len)
    | W.Read_modify_write ->
      invalid_arg "Gen.next: no workload issues read-modify-writes")
