(** Network cost model: replication links as their own DAM device.

    Replication traffic must not steal disk lanes — a backup that is
    "behind" because the primary's device is busy would hide exactly the
    tradeoff we want to measure (Vardoulakis et al.: ship the log and
    burn backup CPU, or ship compacted files and burn network bytes).
    Each primary→backup link therefore carries its own frontier
    timeline, in the same style as {!Device}: a message starting at
    [now] on a busy link queues behind the link's frontier, pays a
    per-message latency plus a per-byte wire cost, and advances the
    frontier to its finish time.

    Costs are in nanoseconds.  Sends are purely observational with
    respect to the disk clock: the caller decides how much of the
    returned finish time to charge (e.g. log shipping charges the ack
    wait to the foreground lane; file shipping ships asynchronously and
    charges nothing).  With a tracer attached every message emits a
    ["net:<label>"] span on lane ["net:link-<i>"], so shipped traffic is
    visible alongside compaction lanes in the same Chrome trace. *)

type profile = {
  latency_ns : float; (* per-message propagation + request setup *)
  byte_ns : float; (* wire cost per byte *)
}

(** 10GbE-like defaults: ~50 us per message, ~0.8 ns/byte (~1.2 GB/s). *)
let tengig () = { latency_ns = 50_000.0; byte_ns = 0.8 }

let message_cost p ~bytes = p.latency_ns +. (float_of_int bytes *. p.byte_ns)

type link = {
  id : int;
  mutable frontier_ns : float; (* finish time of the last queued message *)
}

type t = {
  profile : profile;
  clock : Clock.t; (* the primary's clock: defines "now" for sends *)
  tracer : unit -> Trace.t option;
  mutable next_id : int;
}

let create ~clock ~tracer () =
  { profile = tengig (); clock; tracer; next_id = 0 }

(** [add_link t] opens a fresh link (one per backup). *)
let add_link t =
  let link = { id = t.next_id; frontier_ns = 0.0 } in
  t.next_id <- t.next_id + 1;
  link

(** [send t link ~bytes ~label] queues a [bytes]-sized message on [link]
    and returns its delivery time (simulated ns).  The message starts at
    the later of the link's frontier and the clock's current elapsed
    time — a busy link delays delivery, an idle link starts at once. *)
let send t link ~bytes ~label =
  let now = Clock.now_ns t.clock in
  let start = Float.max link.frontier_ns now in
  let dur = message_cost t.profile ~bytes in
  link.frontier_ns <- start +. dur;
  (match t.tracer () with
   | Some tr ->
     Trace.span tr ~name:("net:" ^ label) ~cat:"net"
       ~lane:(Printf.sprintf "net:link-%d" link.id)
       ~start_ns:start ~dur_ns:dur
       ~args:[ ("bytes", string_of_int bytes) ]
       ()
   | None -> ());
  link.frontier_ns

let profile t = t.profile
