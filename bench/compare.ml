(* [main.exe compare [--allow WORKLOAD/METRIC]... OLD.json NEW.json]:
   per-metric deltas between two [perf.exe --json] result files.

   Prints old, new and the change in percent for every workload x metric
   (end-to-end metrics, the attempted/failed counts, then per-layer
   metrics).  Exits 1 when any simulated metric differs, when an
   allocation metric ([alloc_words_per_op], [kvs.alloc_words_per_op.*])
   grows by more than 0.5%, or when NEW lacks one of these that OLD has;
   exits 2 on an unreadable file or a malformed [--allow].  Simulated
   metrics repeat exactly for a given seed, and so does allocation, so
   the gate has no noise.  Other host metrics (heap, host time) may
   differ, and allocation may fall.  Each [--allow fill/write_amp] lets
   that one gated metric of that one workload move: a change that means
   to move simulated numbers or to allocate more names each move it
   makes, and nothing else gets through.

   [main.exe trajectory DIR] applies that gate along the committed
   trajectory: at each seed, every [BENCH_<n>.seed<s>.json] in DIR
   against the point before it, with the moves that [BENCH_<n>.allow]
   names (one [WORKLOAD/METRIC reason] per line) allowed.  Exits 1 when
   a step fails, 2 on an unreadable file or a malformed allow line. *)

(* ---------- a minimal JSON reader, enough for perf.exe's output ---------- *)

type json =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip_ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' when !pos + 1 < n ->
        Buffer.add_char b
          (match s.[!pos + 1] with 'n' -> '\n' | 't' -> '\t' | c -> c);
        pos := !pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* numbers, and the bare words true/false/null (and nan/inf, which
     %g may print) *)
  let atom () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | 'a' .. 'z' | '-' | '+' | '.' | 'E' -> true
          | _ -> false)
    do
      incr pos
    done;
    match String.sub s start (!pos - start) with
    | "true" -> Bool true
    | "false" -> Bool false
    | "null" -> Null
    | w -> (
      match float_of_string_opt w with
      | Some f -> Num f
      | None -> fail "expected a value")
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
      incr pos;
      Obj (members (fun () ->
          let k = string_lit () in
          expect ':';
          (k, value ())) '}')
    | '[' ->
      incr pos;
      List (members value ']')
    | '"' -> Str (string_lit ())
    | _ -> atom ()
  and members : 'a. (unit -> 'a) -> char -> 'a list =
   fun item close ->
    skip_ws ();
    if !pos < n && s.[!pos] = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if !pos < n && s.[!pos] = ',' then begin
          incr pos;
          go acc
        end
        else begin
          expect close;
          List.rev acc
        end
      in
      go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

(* ---------- the comparison ---------- *)

let has_prefix p name =
  String.length name >= String.length p
  && String.sub name 0 (String.length p) = p

(* Metrics of the simulator's host, not of the simulated system. *)
let is_host name =
  List.mem name [ "alloc_words_per_op"; "peak_heap_mb" ]
  || List.exists
       (fun p -> has_prefix p name)
       [ "host."; "kvs.host_ns_per_op."; "kvs.alloc_words_per_op." ]

(* Host metrics that are deterministic and ratcheted: words allocated. *)
let is_alloc name =
  name = "alloc_words_per_op" || has_prefix "kvs.alloc_words_per_op." name

(* The growth an allocation metric may show, as a fraction. *)
let alloc_slack = 0.005

(* (metric, value) pairs of one workload, in file order. *)
let metrics w =
  let values section =
    match member section w with
    | Some (Obj kvs) ->
      List.filter_map
        (fun (k, m) ->
          match member "value" m with Some (Num v) -> Some (k, v) | _ -> None)
        kvs
    | _ -> []
  in
  let count k =
    match member k w with Some (Num v) -> [ (k, v) ] | _ -> []
  in
  values "metrics"
  @ List.concat_map count [ "attempted"; "failed"; "failed_frac" ]
  @ values "per_layer"

let workloads doc =
  match member "workloads" doc with Some (Obj ws) -> ws | _ -> []

let load path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  try parse s
  with Parse_error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let delta_pct o n =
  if o = n then "0.0%"
  else if o = 0.0 then "n/a"
  else Printf.sprintf "%+.1f%%" ((n -. o) /. Float.abs o *. 100.0)

(* Print the table; the result is the number of simulated metrics that
   differ, allocation metrics that grew past [alloc_slack], and gated
   metrics that went missing, other than the [allow]ed (workload,
   metric) pairs. *)
let compare_docs ?(allow = []) old_doc new_doc =
  let bad = ref 0 in
  Printf.printf "%-14s %-34s %18s %18s %9s\n" "workload" "metric" "old"
    "new" "delta";
  List.iter
    (fun (wname, old_w) ->
      let new_ms =
        match List.assoc_opt wname (workloads new_doc) with
        | Some w -> metrics w
        | None -> []
      in
      List.iter
        (fun (m, o) ->
          let simulated = not (is_host m) in
          let gated = simulated || is_alloc m in
          let allowed = List.mem (wname, m) allow in
          let flag what =
            if allowed then "  " ^ what ^ " (allowed)"
            else begin
              incr bad;
              "  " ^ what
            end
          in
          match List.assoc_opt m new_ms with
          | None ->
            Printf.printf "%-14s %-34s %18.10g %18s %9s%s\n" wname m o "-" "-"
              (if gated then flag "MISSING" else "  MISSING")
          | Some n ->
            let changed = o <> n && not (Float.is_nan o && Float.is_nan n) in
            Printf.printf "%-14s %-34s %18.10g %18.10g %9s%s\n" wname m o n
              (delta_pct o n)
              (if changed && simulated then flag "SIMULATED"
               else if is_alloc m && n > o +. (alloc_slack *. Float.abs o)
               then flag "ALLOC UP"
               else ""))
        (metrics old_w))
    (workloads old_doc);
  !bad

(* "fill/write_amp" -> ("fill", "write_amp") *)
let parse_allow a =
  match String.index_opt a '/' with
  | Some i when i > 0 && i < String.length a - 1 ->
    Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
  | Some _ | None -> None

(* ---------- the trajectory: each point against the one before ---------- *)

(* "BENCH_21.seed42.json" -> Some (21, 42) *)
let point_of_file name =
  try Scanf.sscanf name "BENCH_%u.seed%u.json%!" (fun n seed -> Some (n, seed))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* The moves [BENCH_<n>.allow] excuses in [dir]: one [WORKLOAD/METRIC
   reason] per line (blank lines skipped); none when there is no file. *)
let allow_file dir n =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%d.allow" n) in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ "" ] -> None
           | first :: _ -> (
             match parse_allow first with
             | Some pair -> Some pair
             | None -> failwith (Printf.sprintf "%s: bad line %S" path line))
           | [] -> None)

(** [trajectory dir] compares, at each seed, every [BENCH_<n>] point in
    [dir] with the point before it, under the allowances of
    [BENCH_<n>.allow]; returns the steps that fail, as
    [(old, new, seed)]. *)
let trajectory dir =
  let points =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map point_of_file
    |> List.sort compare
  in
  let file n seed =
    Filename.concat dir (Printf.sprintf "BENCH_%d.seed%d.json" n seed)
  in
  let rec steps seed = function
    | a :: (b :: _ as rest) ->
      Printf.printf "\n== BENCH_%d -> BENCH_%d, seed %d\n" a b seed;
      let bad =
        compare_docs ~allow:(allow_file dir b) (load (file a seed))
          (load (file b seed))
      in
      (if bad > 0 then [ (a, b, seed) ] else []) @ steps seed rest
    | [ _ ] | [] -> []
  in
  List.sort_uniq compare (List.map snd points)
  |> List.concat_map (fun seed ->
         steps seed
           (List.filter_map
              (fun (n, s) -> if s = seed then Some n else None)
              points))

let usage =
  "usage: main.exe compare [--allow WORKLOAD/METRIC]... OLD.json NEW.json\n\
  \       main.exe trajectory DIR"

(** [trajectory_main args] runs {!trajectory} on the directory after
    [trajectory] and returns the exit code. *)
let trajectory_main = function
  | [ dir ] -> (
    match trajectory dir with
    | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("trajectory: " ^ msg);
      2
    | [] ->
      print_endline "\nevery step of the trajectory passes";
      0
    | failed ->
      List.iter
        (fun (a, b, seed) ->
          Printf.printf "step BENCH_%d -> BENCH_%d at seed %d fails\n" a b seed)
        failed;
      1)
  | _ ->
    prerr_endline usage;
    2

(** [main args] runs the comparison on the arguments after [compare] and
    returns the exit code. *)
let main args =
  let rec parse allow = function
    | "--allow" :: a :: rest -> (
      match parse_allow a with
      | Some pair -> parse (pair :: allow) rest
      | None -> Error ("compare: --allow wants WORKLOAD/METRIC, not " ^ a))
    | [ old_path; new_path ] -> Ok (List.rev allow, old_path, new_path)
    | _ -> Error usage
  in
  match parse [] args with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok (allow, old_path, new_path) -> (
    match compare_docs ~allow (load old_path) (load new_path) with
    | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("compare: " ^ msg);
      2
    | 0 ->
      print_endline
        (if allow = [] then "no gated metric moved"
         else "no gated metric moved but the allowed ones");
      0
    | bad ->
      Printf.printf
        "%d gated metric(s) moved or are missing (simulated: any change; \
         allocation: growth over %.1f%%)\n"
        bad (alloc_slack *. 100.0);
      1)
