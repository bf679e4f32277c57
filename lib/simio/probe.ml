(* See probe.mli.  The refund convention matches the seed parallel-seek
   model: a fully parallel probe paid [slowest + 0.5 * (rest)]; with a
   finite budget the makespan replaces [slowest].

   A session allocates nothing per member probe: its costs go into a
   float buffer the ctx owns and reuses, and the current lane's time is
   read from the clock in place. *)

(* All-float, so stored flat: writing it boxes nothing. *)
type stamp = { mutable start_elapsed : float }

type ctx = {
  clock : Clock.t;
  budget : int;
  tracer : unit -> Trace.t option;
  mutable active : bool;  (** a session is open *)
  mutable label : string;  (** the open session's label *)
  stamp : stamp;  (** the open session's start *)
  mutable costs : float array;
      (** the open session's member costs, oldest first, in [0, n) *)
  mutable n : int;
  loads : float array;  (** lane loads for the LPT packing *)
}

let create_ctx ~clock ~budget ~tracer () =
  { clock; budget; tracer; active = false; label = "";
    stamp = { start_elapsed = 0.0 }; costs = Array.make 16 0.0; n = 0;
    loads = Array.make (max 1 budget) 0.0 }

(* The current lane's device time, read in place: a float returned by a
   function of another module would be boxed. *)
let[@inline] lane_time (c : Clock.t) =
  match c.Clock.lane with
  | Clock.Foreground -> c.Clock.times.Clock.foreground_ns
  | Clock.Background -> c.Clock.times.Clock.background_ns

let[@inline] push ctx cost =
  if ctx.n = Array.length ctx.costs then begin
    let grown = Array.make (2 * ctx.n) 0.0 in
    Array.blit ctx.costs 0 grown 0 ctx.n;
    ctx.costs <- grown
  end;
  ctx.costs.(ctx.n) <- cost;
  ctx.n <- ctx.n + 1

let measure ctx f x =
  if not ctx.active then f x
  else begin
    let before = lane_time ctx.clock in
    match f x with
    | r ->
      push ctx (lane_time ctx.clock -. before);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      push ctx (lane_time ctx.clock -. before);
      Printexc.raise_with_backtrace e bt
  end

(* The serial sum of [costs.(0 .. n-1)], newest first. *)
let[@inline] total costs n =
  let s = ref 0.0 in
  for i = n - 1 downto 0 do
    s := !s +. costs.(i)
  done;
  !s

(* Pack [costs.(0 .. n-1)] onto [lanes] lanes, longest first (LPT): each
   cost lands on the least-loaded lane.  lanes <= 1 or a single cost
   degenerate to the serial sum [total].  Sorts the costs in place and
   uses [loads.(0 .. lanes-1)] as scratch. *)
let[@inline] pack ~lanes ~total costs n loads =
  let lanes = max 1 lanes in
  if lanes = 1 || n <= 1 then total
  else begin
    (* insertion sort, longest first: sessions hold a handful of probes *)
    for i = 1 to n - 1 do
      let c = costs.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && Float.compare costs.(!j) c < 0 do
        costs.(!j + 1) <- costs.(!j);
        decr j
      done;
      costs.(!j + 1) <- c
    done;
    Array.fill loads 0 lanes 0.0;
    for k = 0 to n - 1 do
      let least = ref 0 in
      for i = 1 to lanes - 1 do
        if loads.(i) < loads.(!least) then least := i
      done;
      loads.(!least) <- loads.(!least) +. costs.(k)
    done;
    let m = ref 0.0 in
    for i = 0 to lanes - 1 do
      m := Float.max !m loads.(i)
    done;
    !m
  end

let makespan ~lanes costs =
  (* the buffer holds the oldest cost first; a list is newest first *)
  let a = Array.of_list (List.rev costs) in
  let n = Array.length a in
  pack ~lanes ~total:(total a n) a n (Array.make (max 1 lanes) 0.0)

let finish ctx =
  let n = ctx.n in
  if n > 1 then begin
    let lanes = ctx.budget in
    let total = total ctx.costs n in
    let overlapped = pack ~lanes ~total ctx.costs n ctx.loads in
    (* snapshot the end time before refunding: the refund rewinds the
       clock, so measuring afterwards under-reports (or negative-reports)
       the session's duration *)
    let end_elapsed = Clock.now_ns ctx.clock in
    if total > overlapped then
      (* pay the makespan plus a queueing share of the overlap *)
      Clock.refund ctx.clock (0.5 *. (total -. overlapped));
    match ctx.tracer () with
    | Some tr when total > 0.0 ->
      let start = ctx.stamp.start_elapsed in
      Trace.span tr ~name:("probe:" ^ ctx.label) ~cat:"probe"
        ~lane:"foreground" ~start_ns:start ~dur_ns:(end_elapsed -. start)
        ~args:
          [
            ("tables", string_of_int n);
            ("serial_ns", Printf.sprintf "%.0f" total);
            ("overlapped_ns", Printf.sprintf "%.0f" overlapped);
            ("budget", string_of_int lanes);
          ]
        ()
    | Some _ | None -> ()
  end

let close ctx =
  ctx.active <- false;
  finish ctx

let with_session ctx ~label f =
  if ctx.active then f () (* nested: fold into the outer session *)
  else begin
    ctx.active <- true;
    ctx.label <- label;
    ctx.n <- 0;
    ctx.stamp.start_elapsed <- Clock.now_ns ctx.clock;
    match f () with
    | r ->
      close ctx;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close ctx;
      Printexc.raise_with_backtrace e bt
  end
