(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (chapter 5, plus the chapter-2 motivation), then runs
   Bechamel micro-benchmarks on the core data-structure operations.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig1.1 ... # selected experiments
     dune exec bench/main.exe micro      # only the bechamel section
     dune exec bench/main.exe -- --json mt-smoke
                                         # also write results to BENCH.json *)

let run_bechamel () =
  print_endline "\n#### micro — Bechamel micro-benchmarks (core operations)";
  let open Bechamel in
  let open Toolkit in
  let memtable_insert =
    Test.make ~name:"memtable.add x100"
      (Staged.stage (fun () ->
           let m = Pdb_kvs.Memtable.create () in
           for i = 0 to 99 do
             Pdb_kvs.Memtable.add m ~seq:i ~kind:Pdb_kvs.Internal_key.Value
               ~user_key:(Printf.sprintf "key%06d" (i * 7919 mod 100))
               ~value:"value"
           done))
  in
  let bloom = Pdb_bloom.Bloom.create 10_000 in
  let () =
    for i = 0 to 9_999 do
      Pdb_bloom.Bloom.add bloom (Printf.sprintf "key%06d" i)
    done
  in
  let bloom_check =
    Test.make ~name:"bloom.mem x2"
      (Staged.stage (fun () ->
           ignore (Pdb_bloom.Bloom.mem bloom "key004242");
           ignore (Pdb_bloom.Bloom.mem bloom "missing-key")))
  in
  let sl =
    let sl = Pdb_skiplist.Skiplist.create ~compare:String.compare "" "" in
    for i = 0 to 9_999 do
      Pdb_skiplist.Skiplist.insert sl (Printf.sprintf "key%06d" i) "v"
    done;
    sl
  in
  let skiplist_seek =
    Test.make ~name:"skiplist.seek"
      (Staged.stage (fun () ->
           ignore (Pdb_skiplist.Skiplist.seek sl "key004242")))
  in
  let level =
    let level = Pebblesdb.Guard.create_level () in
    Pebblesdb.Guard.commit_guards level
      (List.init 512 (fun i -> Printf.sprintf "g%06d" (i * 16)));
    level
  in
  let guard_search =
    Test.make ~name:"guard.index"
      (Staged.stage (fun () ->
           ignore (Pebblesdb.Guard.guard_index level "g004242")))
  in
  let murmur =
    Test.make ~name:"murmur3+trailing_ones"
      (Staged.stage (fun () ->
           ignore
             (Pdb_util.Murmur3.trailing_ones
                (Pdb_util.Murmur3.hash32 "some-user-key-0042"))))
  in
  let tests =
    [ memtable_insert; bloom_check; skiplist_seek; guard_search; murmur ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let instances = Instance.[ monotonic_clock ] in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n%!" name est
        | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json, ids = List.partition (fun a -> a = "--json") args in
  if json <> [] then Pdb_harness.Bench_util.Json.enable ();
  let result =
    Pdb_harness.Experiments.run_ids ~extra:[ ("micro", run_bechamel) ] ids
  in
  if json <> [] then begin
    Pdb_harness.Bench_util.Json.write_file "BENCH.json";
    print_endline "\nwrote BENCH.json"
  end;
  match result with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("bench: " ^ msg);
    exit 1
