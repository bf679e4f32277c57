(** First-class iterator values.

    The same shape serves two roles: internal iterators range over encoded
    internal keys (sstable and memtable contents), and database iterators
    range over user keys with tombstones and stale versions filtered out.
    All key-value stores in this repository expose their iterators in this
    form, which keeps merging-iterator code engine-agnostic. *)

type t = {
  seek_to_first : unit -> unit;
  seek : string -> unit;
      (** Position at the smallest entry with key >= the argument. *)
  next : unit -> unit;
  valid : unit -> bool;
  key : unit -> string;
  value : unit -> string;
  value_slice : (string -> int -> int -> unit) -> unit;
      (** [value_slice f] calls [f src pos len] once, where the current
          value is the [len] bytes of [src] at [pos]: a block-backed
          iterator hands over its block rather than a copy.  [src] is
          valid only during the call. *)
}

(** [whole value] is a [value_slice] that hands over all of [value ()] —
    for iterators whose values are separate strings already. *)
let whole value f =
  let v = value () in
  f v 0 (String.length v)

let empty =
  let invalid () = invalid_arg "Iter.empty: iterator is not valid" in
  {
    seek_to_first = (fun () -> ());
    seek = (fun _ -> ());
    next = (fun () -> ());
    valid = (fun () -> false);
    key = invalid;
    value = invalid;
    value_slice = (fun _ -> invalid ());
  }

(** [of_sorted_array ?compare entries] iterates over an array pre-sorted by
    [compare] (byte order by default) — used by tests and by in-memory
    snapshots. *)
let of_sorted_array ?(compare = String.compare) entries =
  let pos = ref 0 in
  let n = Array.length entries in
  let value () = snd entries.(!pos) in
  {
    seek_to_first = (fun () -> pos := 0);
    seek =
      (fun target ->
        (* binary search for first key >= target *)
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if compare (fst entries.(mid)) target < 0 then lo := mid + 1
          else hi := mid
        done;
        pos := !lo);
    next = (fun () -> incr pos);
    valid = (fun () -> !pos >= 0 && !pos < n);
    key = (fun () -> fst entries.(!pos));
    value;
    value_slice = whole value;
  }

(** [to_list it] drains an iterator from the start — test helper. *)
let to_list it =
  it.seek_to_first ();
  let rec go acc =
    if it.valid () then begin
      let entry = (it.key (), it.value ()) in
      it.next ();
      go (entry :: acc)
    end
    else List.rev acc
  in
  go []
