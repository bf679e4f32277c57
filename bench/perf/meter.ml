(** Host-side accounting around every call the benchmark makes into the
    store: words allocated (always), and host-time spans tagged with the
    op id (traced runs only).  Neither touches the simulated clock. *)

type kind = Write | Read | Scan | Gen

let index = function Write -> 0 | Read -> 1 | Scan -> 2 | Gen -> 3
let names = [| "write"; "read"; "scan"; "gen" |]

(* Words allocated so far.  [Gc.minor_words] is exact and allocation
   free; words allocated directly in the major heap (strings above 2 KB,
   such as data blocks) come from [Gc.counters], whose minor count is not
   used because it is imprecise on OCaml 5.1. *)
let major_direct () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** A host span, kept in memory until the run ends. *)
type span = {
  kind : kind;
  first : int;  (** first op id covered *)
  count : int;  (** ops covered *)
  start : int;
  dur : int;
}

type t = {
  words : float array;  (** per kind: words allocated inside the calls *)
  ops : int array;  (** per kind: ops covered *)
  ns : float array;  (** per kind: host ns inside the calls (traced) *)
  traced : bool;
  mutable spans : span list;  (** newest first *)
  mutable overhead : float;  (** words a bracket itself allocates *)
  mutable attempted : int;
  mutable failed : int;
}

let make ~traced =
  { words = Array.make 4 0.0; ops = Array.make 4 0; ns = Array.make 4 0.0;
    traced; spans = []; overhead = 0.0; attempted = 0; failed = 0 }

let record t kind ~first ~count ~start =
  let dur = now_ns () - start in
  let k = index kind in
  t.ns.(k) <- t.ns.(k) +. float_of_int dur;
  t.spans <- { kind; first; count; start; dur } :: t.spans

(** [call t kind ~first ~ops f] runs [f], charging its allocation and
    host time to [kind].  An exception counts [ops] failures and yields
    [None]. *)
let call t kind ~first ~ops f =
  let k = index kind in
  let start = if t.traced then now_ns () else 0 in
  let m0 = Gc.minor_words () in
  let j0 = major_direct () in
  let r = try Some (f ()) with _ -> None in
  let j1 = major_direct () in
  let m1 = Gc.minor_words () in
  if t.traced then record t kind ~first ~count:ops ~start;
  t.words.(k) <- t.words.(k) +. (m1 -. m0) +. (j1 -. j0) -. t.overhead;
  t.ops.(k) <- t.ops.(k) + ops;
  t.attempted <- t.attempted + ops;
  if Option.is_none r then t.failed <- t.failed + ops;
  r

(** [create ~traced] is a meter whose {!call}s report only the words
    their callee allocated: what an empty bracket allocates is measured
    once and subtracted. *)
let create ~traced =
  let probe = make ~traced:false in
  for _ = 1 to 16 do
    ignore (call probe Read ~first:0 ~ops:1 (fun () -> ()))
  done;
  let t = make ~traced in
  t.overhead <- probe.words.(index Read) /. 16.0;
  t

(** [reset t] zeroes the per-kind totals (spans and failures are kept). *)
let reset t =
  Array.fill t.words 0 4 0.0;
  Array.fill t.ops 0 4 0;
  Array.fill t.ns 0 4 0.0

let fail t = t.failed <- t.failed + 1

(** [gen t ~first ~ops f] runs a generator call, timing it when traced. *)
let gen t ~first ~ops f =
  if not t.traced then f ()
  else begin
    let start = now_ns () in
    let r = f () in
    record t Gen ~first ~count:ops ~start;
    t.ops.(index Gen) <- t.ops.(index Gen) + ops;
    r
  end

(** [write_chrome t oc] writes the spans as Chrome trace events (one row
    per kind, times in host microseconds from the first span). *)
let write_chrome t oc =
  let spans = List.rev t.spans in
  let origin = match spans with s :: _ -> s.start | [] -> 0 in
  output_string oc "{\"traceEvents\":[";
  Array.iteri
    (fun i name ->
      Printf.fprintf oc
        "%s\n{\"ph\":\"M\",\"pid\":2,\"tid\":%d,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"host-%s\"}}"
        (if i = 0 then "" else ",") i name)
    names;
  List.iter
    (fun s ->
      let k = index s.kind in
      Printf.fprintf oc
        ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"op\":%d,\"ops\":%d}}"
        k names.(k)
        (float_of_int (s.start - origin) /. 1e3)
        (float_of_int s.dur /. 1e3)
        s.first s.count)
    spans;
  output_string oc "]}\n"
