(* The composed store opener (Pdb_harness.Stores): every engine through
   every way the harness opens it — plain, replicated under log and under
   file shipping (page stores fall back to log shipping), sharded, and
   sharded with each shard replicated — driven by seeded puts and
   deletes and checked against a Map oracle. *)

module Stores = Pdb_harness.Stores
module Dyn = Pdb_kvs.Store_intf
module O = Pdb_kvs.Options
module Iter = Pdb_kvs.Iter
module Stats = Pdb_kvs.Engine_stats
module SMap = Map.Make (String)
module Rng = Pdb_util.Rng

let keyspace = 200
let key i = Printf.sprintf "key%03d" i

(* (name, tweak, shards expected, replicated) *)
let openers =
  let split = [ key (keyspace / 2) ] in
  [
    ("plain", Fun.id, 1, false);
    ( "replicas=1 log",
      (fun o -> { o with O.replicas = 1; repl_strategy = O.Log_shipping }),
      1,
      true );
    ( "replicas=1 file",
      (fun o -> { o with O.replicas = 1; repl_strategy = O.File_shipping }),
      1,
      true );
    ("shards=2", (fun o -> { o with O.shards = 2; shard_splits = split }), 2, false);
    ( "shards=2 replicas=1",
      (fun o -> { o with O.shards = 2; shard_splits = split; replicas = 1 }),
      2,
      true );
  ]

let check engine (_, tweak, shards, replicated) () =
  (* a small memtable, so 300 ops cross flushes and compactions *)
  let tweak o = tweak { o with O.memtable_bytes = 4096 } in
  let db = Stores.open_engine ~tweak engine in
  let rng = Rng.create 17 in
  let oracle = ref SMap.empty in
  for i = 1 to 300 do
    let k = key (Rng.int rng keyspace) in
    if Rng.int rng 4 = 0 then begin
      db.Dyn.d_delete k;
      oracle := SMap.remove k !oracle
    end
    else begin
      let v = Printf.sprintf "v%03d-%s" i k in
      db.Dyn.d_put k v;
      oracle := SMap.add k v !oracle
    end
  done;
  for i = 0 to keyspace - 1 do
    Alcotest.(check (option string))
      ("get " ^ key i)
      (SMap.find_opt (key i) !oracle)
      (db.Dyn.d_get (key i))
  done;
  let it = db.Dyn.d_iterator () in
  it.Iter.seek_to_first ();
  let rec scan acc =
    if not (it.Iter.valid ()) then List.rev acc
    else begin
      let kv = (it.Iter.key (), it.Iter.value ()) in
      it.Iter.next ();
      scan (kv :: acc)
    end
  in
  Alcotest.(check (list (pair string string)))
    "full iterator = oracle" (SMap.bindings !oracle) (scan []);
  db.Dyn.d_check_invariants ();
  let st = db.Dyn.d_stats () in
  Alcotest.(check int) "shard count" shards st.Stats.shards;
  Alcotest.(check bool) "replication traffic" replicated
    (st.Stats.repl_messages > 0);
  db.Dyn.d_close ()

let () =
  Alcotest.run "stores"
    [
      ( "opener matrix",
        List.concat_map
          (fun (name, engine) ->
            List.map
              (fun ((opener, _, _, _) as o) ->
                Alcotest.test_case (name ^ " " ^ opener) `Quick (check engine o))
              openers)
          Stores.store_names );
    ]
