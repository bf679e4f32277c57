(* Golden pins: one fixed, seeded, single-iterator op sequence replayed on
   every LSM-family engine configuration, asserting the exact on-disk bytes
   (one MD5 over every file name and its contents), the exact clock bits
   (the five [Clock.snapshot] fields printed with [%h]) and the device IO
   counts (bytes written and read, write and read ops).  Refactors of the
   engine internals must leave all three unchanged; a pin only moves when
   a change is meant to alter file bytes, simulated time or device IO. *)

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
  val iterator : ?snapshot:int -> t -> Iter.t
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

let io_counts env =
  let s = Env.stats env in
  Printf.sprintf "%d %d %d %d" s.Pdb_simio.Io_stats.bytes_written
    s.Pdb_simio.Io_stats.bytes_read s.Pdb_simio.Io_stats.write_ops
    s.Pdb_simio.Io_stats.read_ops

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
  for _ = 1 to (3 * O.seek_compaction_threshold) + 1 do
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
  (Fingerprint.md5 env, clock_bits env, io_counts env)

(* Scan pins: many short range scans, each through a fresh iterator, with
   about one insert per twenty scans.  Scans between writes run past the
   seek-compaction threshold, so seek compactions fire and later scans
   cross the empty guards they leave.  Besides the file bytes and the
   clock, the pin digests every entry a scan returned. *)
let scan_replay (type a) (module E : ENGINE with type t = a) opts =
  let env = Env.create () in
  let rng = Random.State.make [| 20171029 |] in
  let key () = Printf.sprintf "k%05d" (Random.State.int rng 2000) in
  let value i =
    Printf.sprintf "s%06d-%s" i (String.make (Random.State.int rng 64) 'h')
  in
  let db = E.open_store opts ~env ~dir:"db" in
  for i = 0 to 2999 do
    if i mod 13 = 0 then E.delete db (key ()) else E.put db (key ()) (value i)
  done;
  let entries = Buffer.create 4096 in
  let scanned = ref 0 in
  for i = 1 to 1500 do
    if Random.State.int rng 100 < 5 then E.put db (key ()) (value (3000 + i));
    let it = E.iterator db in
    it.Iter.seek (key ());
    let len = 1 + Random.State.int rng 100 in
    let n = ref 0 in
    while !n < len && it.Iter.valid () do
      Buffer.add_string entries (it.Iter.key ());
      Buffer.add_char entries '=';
      Buffer.add_string entries (it.Iter.value ());
      Buffer.add_char entries '\n';
      incr n;
      if !n < len then it.Iter.next ()
    done;
    scanned := !scanned + !n
  done;
  E.check_invariants db;
  E.close db;
  ( Fingerprint.md5 env,
    clock_bits env,
    io_counts env,
    Printf.sprintf "%d %s" !scanned
      (Digest.to_hex (Digest.string (Buffer.contents entries))) )

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

(* (subject, file-set MD5, clock bits, IO counts); CHANGES.md records
   every move of a pin and its cause *)
let pins =
  [
    ( "pebblesdb",
      "730c2df1fbcf40ba40838c977eef074c",
      "0x1.0ca8ff6p+26 0x1.57e257cp+26 0x1.ab35998p+25 0x0p+0 0x1.01bcb68p+26",
      "2088463 1579147 7736 2053" );
    ( "pebblesdb-1",
      "718c30ceefcd28a300f87d6f1310eae1",
      "0x1.b2fc9f2p+25 0x1.d84604a8p+28 0x1.0253ef18p+28 0x0p+0 0x1.dc9465p+25",
      "5095367 3907948 14927 5797" );
    ( "leveled",
      "029684a69155dafab3b291e5ffe6b574",
      "0x1.b574ad4p+25 0x1.ecfb4ap+25 0x1.8c51fc4p+25 0x0p+0 0x1.d43554p+25",
      "2806254 2302589 7073 1087" );
    ( "tiered",
      "4bd3b07684ba77081e17cc56f8e51024",
      "0x1.11f8ffdp+26 0x1.a703438p+24 0x1.6e3fa3p+24 0x0p+0 0x1.f3e90dp+25",
      "1677328 1431058 6597 1006" );
    ( "lazy_leveled",
      "fb0f83d14eea42377e44d94f317f1229",
      "0x1.11f96e1p+26 0x1.ad66c48p+24 0x1.74a324p+24 0x0p+0 0x1.f3e90dp+25",
      "1678270 1432434 6605 1007" );
  ]

let test_pin name () =
  let (module E : ENGINE), opts = List.assoc name subjects in
  let md5, clock, io = replay (module E) opts in
  let _, want_md5, want_clock, want_io =
    List.find (fun (n, _, _, _) -> String.equal n name) pins
  in
  Alcotest.(check string) (name ^ ": file bytes") want_md5 md5;
  Alcotest.(check string) (name ^ ": clock bits") want_clock clock;
  Alcotest.(check string) (name ^ ": IO counts") want_io io

(* (subject, file-set MD5, clock bits, IO counts, entries scanned and
   their MD5) *)
let scan_pins =
  [
    ( "pebblesdb",
      "2cd8c1b9876685c7f67a60258d6aaeac",
      "0x1.a1d4bbf8p+29 0x1.1504e5p+25 0x1.641719p+24 0x0p+0 0x1.1f32f3p+27",
      "926015 5272806 3691 12045",
      "74535 54e5ef760866f957b6afcd8addef6d0a" );
    ( "pebblesdb-1",
      "a9f36c5c56b41fa6062320fc2ac0171f",
      "0x1.85cc8d66p+29 0x1.3d03648p+27 0x1.56bdf3p+26 0x0p+0 0x1.0c361cp+27",
      "1897535 5678772 6041 12305",
      "74535 54e5ef760866f957b6afcd8addef6d0a" );
    ( "leveled",
      "f6af74ba628062634530cbe1892335b1",
      "0x1.2aae1528p+29 0x1.743626p+24 0x1.3c59b5p+24 0x0p+0 0x1.ba1f98p+26",
      "1164978 4813202 3416 8089",
      "74535 54e5ef760866f957b6afcd8addef6d0a" );
    ( "tiered",
      "36feafc211c45d53aca1ce06816d3415",
      "0x1.1e34c382p+30 0x1.3a82ebp+23 0x1.1e5053p+23 0x0p+0 0x1.07da63p+27",
      "731050 9485009 3223 17131",
      "74535 54e5ef760866f957b6afcd8addef6d0a" );
  ]

let test_scan_pin name () =
  let (module E : ENGINE), opts = List.assoc name subjects in
  let md5, clock, io, scanned = scan_replay (module E) opts in
  let _, want_md5, want_clock, want_io, want_scanned =
    List.find (fun (n, _, _, _, _) -> String.equal n name) scan_pins
  in
  Alcotest.(check string) (name ^ ": file bytes") want_md5 md5;
  Alcotest.(check string) (name ^ ": clock bits") want_clock clock;
  Alcotest.(check string) (name ^ ": IO counts") want_io io;
  Alcotest.(check string) (name ^ ": entries") want_scanned scanned

(* Shard pins: a seeded op sequence through the elastic shard store with
   one forced split and one merge, then a reopen from the installed
   topology.  The pin covers the migration path (fenced copy, install,
   clean, donor retirement) and the wrapper write paths; the "file-ship"
   subject replicates every shard by file shipping, so its primary
   clock carries the ack waits. *)
module Stores = Pdb_harness.Stores
module Dyn = Pdb_kvs.Store_intf

let shard_tweak ~repl (o : O.t) =
  let o =
    {
      (tiny o) with
      O.shards = 2;
      shard_splits = [ "k00450" ];
      elastic = true;
      elastic_window_ops = max_int;
    }
  in
  if repl then { o with O.replicas = 1; repl_strategy = O.File_shipping }
  else o

let shard_replay engine ~repl =
  let env = Env.create () in
  let rng = Random.State.make [| 20171030 |] in
  let key () = Printf.sprintf "k%05d" (Random.State.int rng 900) in
  let value i =
    Printf.sprintf "m%06d-%s" i (String.make (Random.State.int rng 48) 'm')
  in
  let open_ () =
    Stores.open_sharded ~tweak:(shard_tweak ~repl) ~env engine
  in
  let writes (d : Dyn.dyn) ~from ~n =
    for i = from to from + n - 1 do
      match i mod 13 with
      | 0 -> d.Dyn.d_delete (key ())
      | 4 ->
        let b = Wb.create () in
        for j = 0 to 3 do
          Wb.put b (key ()) (value (i + j))
        done;
        Wb.delete b (key ());
        d.Dyn.d_write b
      | 9 ->
        d.Dyn.d_write_group
          (List.init 3 (fun j ->
               let b = Wb.create () in
               Wb.put b (key ()) (value (i + j));
               b))
      | _ -> d.Dyn.d_put (key ()) (value i)
    done
  in
  let sh = open_ () in
  let d = sh.Stores.s_dyn in
  writes d ~from:0 ~n:2000;
  if not (sh.Stores.s_split ~shard:0 ~key:"k00225") then
    Alcotest.fail "split refused";
  writes d ~from:2000 ~n:800;
  for _ = 1 to 200 do
    ignore (d.Dyn.d_get (key ()))
  done;
  let it = d.Dyn.d_iterator () in
  it.Iter.seek (key ());
  for _ = 1 to 50 do
    if it.Iter.valid () then it.Iter.next ()
  done;
  if not (sh.Stores.s_merge ~at:0) then Alcotest.fail "merge refused";
  writes d ~from:2800 ~n:600;
  d.Dyn.d_compact_all ();
  d.Dyn.d_check_invariants ();
  d.Dyn.d_close ();
  let d = (open_ ()).Stores.s_dyn in
  writes d ~from:3400 ~n:400;
  d.Dyn.d_check_invariants ();
  d.Dyn.d_close ();
  (Fingerprint.md5 env, clock_bits env, io_counts env)

let shard_subjects =
  [
    ("pebblesdb", (Stores.Pebblesdb, false));
    ("leveldb", (Stores.Leveldb, false));
    ("kyotocabinet", (Stores.Btree, false));
    ("file-ship", (Stores.Pebblesdb, true));
  ]

(* (subject, file-set MD5, clock bits, IO counts) *)
let shard_pins =
  [
    ( "pebblesdb",
      "c6b753ed1d3f77b34515056f83b0e73f",
      "0x1.20dd5eep+25 0x1.ee8744p+24 0x1.30c24p+23 0x0p+0 0x1.256a42p+25",
      "1055876 638087 4904 598" );
    ( "leveldb",
      "bb8e1aad224d8d7231db09b726112661",
      "0x1.de9061p+24 0x1.998dce8p+24 0x1.5b99c5p+23 0x0p+0 0x1.5c06bap+27",
      "1109511 739433 4759 451" );
    ( "kyotocabinet",
      "183b4e47b2a010a0cd99f6678e542243",
      "0x1.4e41d1d2p+30 0x0p+0 0x0p+0 0x0p+0 0x1.6cc653p+27",
      "2077498 33021 12232 217" );
    ( "file-ship",
      "c6b753ed1d3f77b34515056f83b0e73f",
      "0x1.5773c41acccc9p+29 0x1.1785aab33335p+25 0x1.79a37b33333ap+23 0x0p+0 0x1.256a42p+25",
      "1055876 638087 4904 598" );
  ]

let test_shard_pin name () =
  let engine, repl = List.assoc name shard_subjects in
  let md5, clock, io = shard_replay engine ~repl in
  let _, want_md5, want_clock, want_io =
    List.find (fun (n, _, _, _) -> String.equal n name) shard_pins
  in
  Alcotest.(check string) (name ^ ": file bytes") want_md5 md5;
  Alcotest.(check string) (name ^ ": clock bits") want_clock clock;
  Alcotest.(check string) (name ^ ": IO counts") want_io io

let () =
  Alcotest.run "golden"
    [
      ( "pins",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_pin name))
          subjects );
      ( "scan pins",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_scan_pin name))
          [ "pebblesdb"; "pebblesdb-1"; "leveled"; "tiered" ] );
      ( "shards",
        List.map
          (fun (name, _) ->
            Alcotest.test_case name `Quick (test_shard_pin name))
          shard_subjects );
    ]
