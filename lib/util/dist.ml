(** Request-key distributions used by the YCSB workload generator.

    Implemented from the YCSB paper / reference generator: uniform, zipfian
    (incrementally extensible), scrambled zipfian (spreads the hot set over
    the key space) and latest (zipfian over recency). *)

type t =
  | Uniform of { rng : Rng.t; mutable n : int }
  | Zipfian of zipf
  | Scrambled of zipf
  | Latest of zipf
  | Shifting of hotspot
  | Diurnal of hotspot

and hotspot = {
  hrng : Rng.t;
  mutable hn : int;  (** key-space size *)
  period : int;  (** draws per hotspot phase (shifting) or cycle (diurnal) *)
  span : float;  (** hot window width, as a fraction of the key space *)
  hot : float;  (** probability a draw lands inside the hot window *)
  mutable drawn : int;
}

and zipf = {
  zrng : Rng.t;
  mutable items : int;
  mutable zetan : float; (* zeta(items, theta) *)
  mutable eta : float;
}

(** YCSB's zipfian constant: the skew of every zipfian distribution. *)
let theta = 0.99

let zeta n =
  let s = ref 0.0 in
  for i = 1 to n do
    s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !s

let alpha = 1.0 /. (1.0 -. theta)
let zeta2theta = zeta 2

let make_zipf rng n =
  let zetan = zeta n in
  {
    zrng = rng;
    items = n;
    zetan;
    eta = (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
          /. (1.0 -. (zeta2theta /. zetan));
  }

(* Incrementally extend zeta when the item count grows (YCSB's trick for the
   "latest" distribution, where inserts grow the key space). *)
let grow_zipf z n =
  if n > z.items then begin
    let s = ref z.zetan in
    for i = z.items + 1 to n do
      s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    z.zetan <- !s;
    z.items <- n;
    z.eta <-
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2theta /. z.zetan))
  end

let next_zipf z =
  let u = Rng.float z.zrng in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 theta then 1
  else
    let v =
      float_of_int z.items
      *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) alpha
    in
    min (z.items - 1) (int_of_float v)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv64 v =
  let open Int64 in
  let h = ref fnv_offset in
  let v = ref (of_int v) in
  for _ = 0 to 7 do
    let octet = logand !v 0xffL in
    h := mul (logxor !h octet) fnv_prime;
    v := shift_right_logical !v 8
  done;
  to_int (shift_right_logical !h 1) land Stdlib.max_int

(** [uniform ~seed n] draws keys uniformly from [\[0, n)]. *)
let uniform ~seed n = Uniform { rng = Rng.create seed; n }

(** [zipfian ~seed n] draws keys zipf-distributed with the hot keys at the
    low indices. *)
let zipfian ~seed n = Zipfian (make_zipf (Rng.create seed) n)

(** [scrambled_zipfian ~seed n] spreads a zipfian hot set uniformly across
    [\[0, n)] — YCSB's default request distribution. *)
let scrambled_zipfian ~seed n = Scrambled (make_zipf (Rng.create seed) n)

(** [latest ~seed n] favours recently inserted keys (key [n-1] hottest). *)
let latest ~seed n = Latest (make_zipf (Rng.create seed) n)

(** [shifting_hotspot ~seed ~period ?span ?hot n] concentrates [hot] of
    the draws on a contiguous window of [span * n] keys whose position
    {e jumps} every [period] draws (golden-ratio hopping, so successive
    hotspots land far apart) — the drifting skew that makes a static
    shard split go stale. *)
let shifting_hotspot ?(span = 0.10) ?(hot = 0.9) ~seed ~period n =
  Shifting
    { hrng = Rng.create seed; hn = n; period = max 1 period; span; hot;
      drawn = 0 }

(** [diurnal ~seed ~period ?span ?hot n] moves the hot window smoothly —
    sinusoidally across the key space with a cycle of [period] draws —
    the day/night drift of a geographically keyed workload. *)
let diurnal ?(span = 0.10) ?(hot = 0.9) ~seed ~period n =
  Diurnal
    { hrng = Rng.create seed; hn = n; period = max 1 period; span; hot;
      drawn = 0 }

(* Hot-window start for the current draw count: shifting hops by the
   golden ratio per phase; diurnal tracks a sine over the cycle. *)
let hotspot_start shifting h =
  let width = h.span in
  let centre_frac =
    if shifting then
      let phase = h.drawn / h.period in
      Float.rem (0.5 +. (float_of_int phase *. 0.618033988749895)) 1.0
    else
      let x = float_of_int (h.drawn mod h.period) /. float_of_int h.period in
      0.5 +. (0.5 -. (width /. 2.0)) *. sin (2.0 *. Float.pi *. x)
  in
  let start_frac =
    Float.max 0.0 (Float.min (1.0 -. width) (centre_frac -. (width /. 2.0)))
  in
  int_of_float (start_frac *. float_of_int h.hn)

let next_hotspot shifting h =
  let width = max 1 (int_of_float (h.span *. float_of_int h.hn)) in
  let v =
    if Rng.float h.hrng < h.hot then
      hotspot_start shifting h + Rng.int h.hrng width
    else Rng.int h.hrng h.hn
  in
  h.drawn <- h.drawn + 1;
  min (h.hn - 1) v

(** [next t] draws the next key index. *)
let next t =
  match t with
  | Uniform u -> Rng.int u.rng u.n
  | Zipfian z -> next_zipf z
  | Scrambled z ->
    let v = next_zipf z in
    fnv64 v mod z.items
  | Latest z ->
    let v = next_zipf z in
    z.items - 1 - v
  | Shifting h -> next_hotspot true h
  | Diurnal h -> next_hotspot false h

(** [set_item_count t n] grows the key space (after inserts). *)
let set_item_count t n =
  match t with
  | Uniform u -> u.n <- max u.n n
  | Zipfian z | Scrambled z | Latest z -> grow_zipf z n
  | Shifting h | Diurnal h -> h.hn <- max h.hn n
