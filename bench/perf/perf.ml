(* The repository benchmark: five oracle-checked workloads, printing
   every metric as [workload metric value unit].

     dune exec bench/perf/perf.exe -- --seed 42
     dune exec bench/perf/perf.exe -- --seed 42 --workload read --trace DIR

   Each workload runs on several independent stores (its [reps]), each in
   its own child process with its own generator seed derived from --seed;
   an end-to-end metric is the median over them.

   Options:
     --seed N        generator seed (default 42); the store sees only ops
     --workload W    run only W (repeatable; default: all five)
     --seconds S     timed-phase length: S x the workload's ops per second
                     (default 10)
     --scale F       multiply preload, warm-up and timed op counts by F
                     (default 1; the smoke test runs a small scale)
     --trace DIR     also run the first repetition traced: per-layer
                     metrics, and Chrome traces written to DIR
     --runs N        run everything N times and require identical
                     end-to-end values (default 1)
     --json FILE     write the results as JSON

   Exits non-zero after printing everything when an op failed, when the
   traced run's simulated metrics differ from the untraced run's, when the
   tracer dropped an event, or when repeated runs disagree. *)

type line = {
  cls : string;  (** sim, host or layer; see {!Drive} *)
  name : string;
  value : string;  (** as printed by the child: exact *)
  unit : string;
  samples : string option;  (** ["n=<count>"] for percentiles *)
}

type child = {
  lines : line list;
  attempted : int;
  failed : int;
  ok : bool;  (** exited 0 *)
}

let run_child ~workload ~seed ~seconds ~scale ~trace =
  let args =
    [ Sys.executable_name; "--child"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%h" seconds; "--scale";
      Printf.sprintf "%h" scale ]
    @ match trace with Some dir -> [ "--trace"; dir ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = ref [] and attempted = ref 0 and failed = ref 0 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "count"; "attempted"; n ] -> attempted := int_of_string n
       | [ "count"; "failed"; n ] -> failed := int_of_string n
       | [ cls; name; value; unit ] ->
         lines := { cls; name; value; unit; samples = None } :: !lines
       | [ cls; name; value; unit; n ] ->
         lines := { cls; name; value; unit; samples = Some n } :: !lines
       | _ -> prerr_endline "perf: unexpected child output"
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  { lines = List.rev !lines; attempted = !attempted; failed = !failed; ok }

let values cls c =
  List.filter_map
    (fun l -> if l.cls = cls then Some (l.name, l.value) else None)
    c.lines

let find c name = List.find_opt (fun l -> l.name = name) c.lines

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* End-to-end lines of the first repetition, each value replaced by the
   median over all repetitions.  A metric missing from any repetition
   (a percentile with too few samples) is dropped. *)
let medians children =
  let first = List.hd children in
  List.filter_map
    (fun l ->
      if l.cls = "layer" then None
      else
        let value c =
          Option.map (fun l -> float_of_string l.value) (find c l.name)
        in
        let vs = List.filter_map value children in
        if List.length vs <> List.length children then None
        else Some { l with value = Printf.sprintf "%.17g" (median vs) })
    first.lines

let host_total c =
  List.fold_left
    (fun acc n ->
      match find c n with
      | Some l -> acc +. float_of_string l.value
      | None -> acc)
    0.0 [ "host.setup_s"; "host.timed_s" ]

type result = {
  spec : Gen.spec;
  e2e : line list;  (** medians over the repetitions *)
  layers : line list;  (** per-layer metrics of the first repetition *)
  attempted : int;
  failed : int;
  problems : string list;
}

let rep_seed seed i = (seed * 1000) + i

let run_workload (spec : Gen.spec) ~seed ~seconds ~scale ~trace ~runs =
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let workload = spec.Gen.name in
  let once () =
    let children =
      List.init spec.Gen.reps (fun i ->
          run_child ~workload ~seed:(rep_seed seed i) ~seconds ~scale
            ~trace:None)
    in
    List.iteri
      (fun i c ->
        if not c.ok then problem "repetition %d exited non-zero" i;
        if c.failed > 0 then
          problem "repetition %d: %d of %d ops failed the oracle" i c.failed
            c.attempted)
      children;
    let first = List.hd children in
    let layers =
      match trace with
      | None -> []
      | Some dir ->
        let traced =
          run_child ~workload ~seed:(rep_seed seed 0) ~seconds ~scale
            ~trace:(Some dir)
        in
        if not traced.ok then problem "traced run exited non-zero";
        if values "sim" traced <> values "sim" first then
          problem "traced simulated metrics differ from the untraced run";
        (match find traced "trace.dropped" with
         | Some l when float_of_string l.value > 0.0 ->
           problem "the tracer dropped %s events" l.value
         | _ -> ());
        let overhead =
          100.0 *. (host_total traced -. host_total first) /. host_total first
        in
        (* allocation per op comes from the untraced run, where no tracer
           allocates inside the store *)
        let alloc l =
          String.starts_with ~prefix:"kvs.alloc_words_per_op" l.name
        in
        List.filter
          (fun l ->
            l.cls = "layer" && l.name <> "trace.dropped" && not (alloc l))
          traced.lines
        @ List.filter alloc first.lines
        @ [ { cls = "layer"; name = "host.trace_overhead_pct"; unit = "%";
              value = Printf.sprintf "%.17g" overhead; samples = None } ]
    in
    (children, layers)
  in
  let children, layers = once () in
  let e2e = medians children in
  for _ = 2 to runs do
    let again, _ = once () in
    if medians again <> e2e then
      problem "a repeated run gave different end-to-end values"
  done;
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 children in
  { spec; e2e; layers; attempted = sum (fun c -> c.attempted);
    failed = sum (fun c -> c.failed); problems = List.rev !problems }

let failed_frac r = float_of_int r.failed /. float_of_int (max 1 r.attempted)

let print_result r =
  let w = r.spec.Gen.name in
  let show l =
    Printf.printf "%s %s %s %s%s\n" w l.name l.value l.unit
      (match l.samples with Some n -> " " ^ n | None -> "")
  in
  List.iter show r.e2e;
  Printf.printf "%s attempted %d ops\n%s failed %d ops\n" w r.attempted w
    r.failed;
  Printf.printf "%s failed_frac %.17g ratio\n" w (failed_frac r);
  List.iter show r.layers;
  flush stdout;
  List.iter (fun p -> Printf.eprintf "perf: %s FAILED: %s\n%!" w p) r.problems

let json_metrics b lines =
  List.iteri
    (fun i l ->
      Printf.bprintf b "%s\n        %S: {\"value\": %s, \"unit\": %S%s}"
        (if i = 0 then "" else ",") l.name l.value l.unit
        (match l.samples with
         | Some n ->
           Printf.sprintf ", \"samples\": %s"
             (String.sub n 2 (String.length n - 2))
         | None -> ""))
    lines

let write_json path ~seed ~seconds ~scale results =
  let b = Buffer.create 16384 in
  Printf.bprintf b
    "{\n  \"seed\": %d,\n  \"seconds\": %g,\n  \"scale\": %g,\n\
    \  \"workloads\": {"
    seed seconds scale;
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "%s\n    %S: {\n      \"engine\": %S,\n      \"reps\": %d,\n\
        \      \"attempted\": %d,\n      \"failed\": %d,\n\
        \      \"failed_frac\": %.17g,\n      \"metrics\": {"
        (if i = 0 then "" else ",") r.spec.Gen.name
        (Pdb_harness.Stores.engine_name r.spec.Gen.engine)
        r.spec.Gen.reps r.attempted r.failed (failed_frac r);
      json_metrics b r.e2e;
      Buffer.add_string b "\n      },\n      \"per_layer\": {";
      json_metrics b r.layers;
      Printf.bprintf b "\n      },\n      \"problems\": [%s]\n    }"
        (String.concat ", " (List.map (Printf.sprintf "%S") r.problems)))
    results;
  Buffer.add_string b "\n  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let usage () =
  prerr_endline
    "usage: perf.exe [--seed N] [--workload W]... [--seconds S] [--scale F] \
     [--trace DIR] [--runs N] [--json FILE]";
  exit 2

let () =
  let seed = ref 42 and seconds = ref 10.0 and scale = ref 1.0 in
  let workloads = ref [] and trace = ref None and runs = ref 1 in
  let json = ref None and child = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--workload" :: v :: rest -> workloads := v :: !workloads; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--scale" :: v :: rest -> scale := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := Some v; parse rest
    | "--runs" :: v :: rest -> runs := int_of_string v; parse rest
    | "--json" :: v :: rest -> json := Some v; parse rest
    | "--child" :: v :: rest -> child := Some v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0.0 || !scale <= 0.0 || !runs < 1 then usage ();
  let spec name =
    match Gen.find name with
    | Some s -> s
    | None ->
      Printf.eprintf "perf: unknown workload %S (expected one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.Gen.name) Gen.workloads));
      exit 2
  in
  match !child with
  | Some name ->
    Drive.main (spec name) ~seed:!seed ~seconds:!seconds ~scale:!scale
      ~trace_dir:!trace
  | None ->
    let specs =
      match List.rev !workloads with
      | [] -> Gen.workloads
      | names -> List.map spec names
    in
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      !trace;
    let results =
      List.map
        (fun s ->
          let r =
            run_workload s ~seed:!seed ~seconds:!seconds ~scale:!scale
              ~trace:!trace ~runs:!runs
          in
          print_result r;
          r)
        specs
    in
    Option.iter
      (fun path ->
        write_json path ~seed:!seed ~seconds:!seconds ~scale:!scale results)
      !json;
    if List.exists (fun r -> r.problems <> []) results then exit 1
