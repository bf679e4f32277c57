(** Per-operation latency collection over the simulated clock.

    One histogram per operation kind, in nanoseconds of modeled time —
    the quantities behind the paper's Figure 5.5 (average and 99th
    percentile read/write latency per engine).

    Each drawn op of a {!Phase.drive} phase is one observation under its
    kind: its placement on its client's lane ([Fg_lanes]), arrival to
    completion.  Collecting latencies is purely observational: it never
    changes IO, clock charges or store bytes. *)

module H = Pdb_util.Histogram

type kind = Read | Write | Seek | Other

type t = {
  read : H.t;
  write : H.t;
  seek : H.t;
  other : H.t;
}

let create () =
  { read = H.create (); write = H.create (); seek = H.create ();
    other = H.create () }

let hist t = function
  | Read -> t.read
  | Write -> t.write
  | Seek -> t.seek
  | Other -> t.other

(** [record t kind ns] adds one observation in nanoseconds. *)
let record t kind ns = H.add (hist t kind) ns

(** Kinds with display labels, in reporting order. *)
let kinds =
  [ (Write, "write"); (Read, "read"); (Seek, "seek"); (Other, "other") ]

(* --- reporting ------------------------------------------------------ *)

let us ns = ns /. 1e3

(** [summary_line lat kind] is ["mean=… p50=… p90=… p99=… p99.9=… (µs, n=…)"]
    or [None] when no ops of that kind were recorded. *)
let summary_line lat kind =
  let h = hist lat kind in
  if H.count h = 0 then None
  else
    Some
      (Printf.sprintf
         "mean=%.1f p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f (us, n=%d)"
         (us (H.mean h))
         (us (H.percentile h 50.0))
         (us (H.percentile h 90.0))
         (us (H.percentile h 99.0))
         (us (H.percentile h 99.9))
         (H.count h))

(** Print one "  <label> latency : …" line per populated kind. *)
let print_summary ?(indent = "  ") lat =
  List.iter
    (fun (kind, label) ->
      match summary_line lat kind with
      | Some line -> Printf.printf "%s%-5s latency : %s\n%!" indent label line
      | None -> ())
    kinds
