(** Per-operation latency collection over the simulated clock.

    One histogram per operation kind, in nanoseconds of modeled time —
    the quantities behind the paper's Figure 5.5 (average and 99th
    percentile read/write latency per engine).

    Two producers feed it: {!instrument} wraps a {!Store_intf.dyn} so the
    serial foreground path measures each call as a clock-snapshot delta
    (elapsed simulated time including stalls and background horizon
    movement), and the multi-client driver records lane-placement
    latencies from [Fg_lanes] directly.  Both are purely observational:
    collecting latencies never changes IO, clock charges or store bytes. *)

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

module Clock = Pdb_simio.Clock

(** [timed lat clock kind f x] is [f x], recording its modeled latency —
    the simulated-clock elapsed delta across the call — into [lat] as one
    [kind] observation. *)
let timed lat clock kind f x =
  let before = Clock.snapshot clock in
  let r = f x in
  record lat kind (Clock.elapsed_ns (Clock.diff (Clock.snapshot clock) before));
  r

(** [instrument lat store] wraps the serial foreground entry points of
    [store] so each put/delete/write (Write), get (Read) and iterator
    seek (Seek) records its modeled latency — the simulated-clock elapsed
    delta across the call — into [lat].  The store's behaviour and state
    are unchanged. *)
let instrument lat (store : Store_intf.dyn) =
  let clock = Pdb_simio.Env.clock store.Store_intf.d_env in
  let timed kind f = timed lat clock kind f in
  let instrument_iter (it : Iter.t) =
    { it with
      Iter.seek = timed Seek it.Iter.seek;
      seek_to_first = timed Seek it.Iter.seek_to_first;
    }
  in
  { store with
    Store_intf.d_put =
      (fun k v -> (timed Write (fun () -> store.Store_intf.d_put k v)) ());
    d_get = timed Read store.Store_intf.d_get;
    d_delete = timed Write store.Store_intf.d_delete;
    d_write = timed Write store.Store_intf.d_write;
    d_write_group = timed Write store.Store_intf.d_write_group;
    d_iterator =
      (fun () -> instrument_iter (store.Store_intf.d_iterator ()));
  }

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
