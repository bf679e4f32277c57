(* Golden pins: one fixed, seeded, single-iterator op sequence replayed on
   every LSM-family engine configuration, asserting the exact on-disk bytes
   (one MD5 over every file name and its contents) and the exact clock bits
   (the five [Clock.snapshot] fields printed with [%h]).  Refactors of the
   engine internals must leave both unchanged; a pin only moves when a
   change is meant to alter file bytes or simulated time. *)

module Fingerprint = Pdb_simio.Fingerprint
module P = Pebblesdb.Pebbles_store
module L = Pdb_lsm.Lsm_store
module O = Pdb_kvs.Options
module Iter = Pdb_kvs.Iter
module Wb = Pdb_kvs.Write_batch
module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock

module type ENGINE = sig
  type t

  val open_store :
    ?block_cache:Pdb_sstable.Block_cache.t -> O.t -> env:Env.t -> dir:string -> t

  val close : t -> unit
  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val write : t -> Wb.t -> unit
  val write_group : t -> Wb.t list -> unit
  val get : ?snapshot:int -> t -> string -> string option
  val iterator : ?snapshot:int -> ?upper_bound:string -> t -> Iter.t
  val snapshot : t -> int
  val release_snapshot : t -> int -> unit
  val compact_all : t -> unit
  val check_invariants : t -> unit
end

(* small enough that a few thousand ops flush, compact through every
   level and commit guards *)
let tiny (o : O.t) =
  {
    o with
    O.memtable_bytes = 4 * 1024;
    level_bytes_base = 8 * 1024;
    sstable_target_bytes = 4 * 1024;
    block_bytes = 512;
    block_cache_bytes = 16 * 1024;
    top_level_bits = 7;
    bit_decrement = 1;
    max_levels = 5;
  }

let clock_bits env =
  let s = Clock.snapshot (Env.clock env) in
  Printf.sprintf "%h %h %h %h %h" s.Clock.foreground_ns s.Clock.background_ns
    s.Clock.bg_horizon_ns s.Clock.stall_ns s.Clock.cpu_ns

(* Iterators are created only while the snapshot pins every file, or after
   [compact_all]: the sequence never depends on when obsolete files are
   collected. *)
let replay (type a) (module E : ENGINE with type t = a) opts =
  let env = Env.create () in
  let rng = Random.State.make [| 20171028 |] in
  let key () = Printf.sprintf "k%05d" (Random.State.int rng 900) in
  let value i =
    Printf.sprintf "v%06d-%s" i (String.make (Random.State.int rng 48) 'g')
  in
  let writes db ~from ~n =
    for i = from to from + n - 1 do
      match i mod 17 with
      | 0 -> E.delete db (key ())
      | 5 ->
        let b = Wb.create () in
        for j = 0 to 4 do
          Wb.put b (key ()) (value (i + j))
        done;
        Wb.delete b (key ());
        E.write db b
      | 11 ->
        E.write_group db
          (List.init 3 (fun j ->
               let b = Wb.create () in
               Wb.put b (key ()) (value (i + j));
               b))
      | _ -> E.put db (key ()) (value i)
    done
  in
  let db = E.open_store opts ~env ~dir:"db" in
  writes db ~from:0 ~n:3000;
  let snap = E.snapshot db in
  writes db ~from:3000 ~n:1500;
  for _ = 1 to 200 do
    ignore (E.get ~snapshot:snap db (key ()));
    ignore (E.get db (key ()))
  done;
  (* one iterator, well past the seek-compaction threshold *)
  let it = E.iterator db in
  for _ = 1 to (3 * opts.O.seek_compaction_threshold) + 1 do
    it.Iter.seek (key ());
    for _ = 1 to 5 do
      if it.Iter.valid () then it.Iter.next ()
    done
  done;
  let snap_it = E.iterator ~snapshot:snap db in
  snap_it.Iter.seek_to_first ();
  for _ = 1 to 50 do
    if snap_it.Iter.valid () then snap_it.Iter.next ()
  done;
  writes db ~from:4500 ~n:500;
  E.release_snapshot db snap;
  writes db ~from:5000 ~n:300;
  E.compact_all db;
  E.check_invariants db;
  E.close db;
  let db = E.open_store opts ~env ~dir:"db" in
  writes db ~from:5300 ~n:900;
  E.check_invariants db;
  E.close db;
  (Fingerprint.md5 env, clock_bits env)

let subjects =
  let lsm policy =
    (module L : ENGINE), tiny { (O.hyperleveldb ()) with O.compaction_policy = policy }
  in
  [
    ("pebblesdb", ((module P : ENGINE), tiny (O.pebblesdb ())));
    ( "pebblesdb-1",
      ( (module P : ENGINE),
        tiny
          (Pdb_harness.Stores.default_options Pdb_harness.Stores.Pebblesdb_one)
      ) );
    ("leveled", lsm O.Leveled);
    ("tiered", lsm O.Tiered);
    ("lazy_leveled", lsm O.Lazy_leveled);
  ]

(* (subject, file-set MD5, clock bits), recorded before the engines shared
   their shell *)
let pins =
  [
    ( "pebblesdb",
      "1961e32ff0f3dccde667359940233b0a",
      "0x1.7eacb3p+26 0x1.9ec5c1ap+26 0x1.467f58p+26 0x0p+0 0x1.00b9ec8p+26" );
    ( "pebblesdb-1",
      "2217cb8e6d41fae91716b628ec55ef1e",
      "0x1.11aaea6p+26 0x1.0deabb24p+29 0x1.2822f668p+28 0x0p+0 0x1.da8ed1p+25"
    );
    ( "leveled",
      "b09e7a64fe1ac4bc679001c4a6e10238",
      "0x1.ea93818p+25 0x1.3ed4716p+26 0x1.04a6b0ap+26 0x0p+0 0x1.d22fcp+25" );
    ( "tiered",
      "a1c919664d8a0b2e7de649aec45f5cdd",
      "0x1.416dcaep+26 0x1.233b784p+25 0x1.ffa1f78p+24 0x0p+0 0x1.efdde5p+25" );
    ( "lazy_leveled",
      "e56f21a330d6985c736f11b522a6926f",
      "0x1.416dcaep+26 0x1.233b784p+25 0x1.ffa1f78p+24 0x0p+0 0x1.efdde5p+25" );
  ]

let test_pin name () =
  let (module E : ENGINE), opts = List.assoc name subjects in
  let md5, clock = replay (module E) opts in
  let _, want_md5, want_clock =
    List.find (fun (n, _, _) -> String.equal n name) pins
  in
  Alcotest.(check string) (name ^ ": file bytes") want_md5 md5;
  Alcotest.(check string) (name ^ ": clock bits") want_clock clock

let () =
  Alcotest.run "golden"
    [
      ( "pins",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_pin name))
          subjects );
    ]
