(** Probabilistic skip list.

    The memtable substrate (LSM puts go "to an in-memory skip list called
    the memtable", §2.2) and the conceptual ancestor of FLSM guards: a key
    that reaches height [h] appears in every list up to [h], just as a key
    chosen as a guard at level [i] is a guard at every level deeper than
    [i].

    Keys are ordered by a user-supplied comparator.  Entries are
    append-only: a duplicate insert adds a new node (memtables rely on the
    internal-key comparator making duplicates distinct via sequence
    numbers).  Each entry carries one flag, clear at insert, that
    {!mark} sets and {!iter} reports. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  forward : ('k, 'v) node option array;
  mutable marked : bool;
}

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  rng : Pdb_util.Rng.t;
  mutable head : ('k, 'v) node; (* sentinel; key/value unused *)
  prev : ('k, 'v) node array;
      (* [insert]'s predecessors, one per list level, reused by every
         insert; only the levels the insert sets are read *)
  mutable height : int;
  mutable length : int;
}

let branching = 4
let max_height = 12

let create ~compare dummy_key dummy_value =
  let head =
    { key = dummy_key; value = dummy_value;
      forward = Array.make max_height None; marked = false }
  in
  {
    compare;
    rng = Pdb_util.Rng.create 0x5eed;
    head;
    prev = Array.make max_height head;
    height = 1;
    length = 0;
  }

let length t = t.length

let random_height t =
  let rec go h =
    if h < max_height && Pdb_util.Rng.int t.rng branching = 0 then go (h + 1)
    else h
  in
  go 1

(* The last node of [level], from [node] on, whose key is < [key]. *)
let rec last_below t key node level =
  match node.forward.(level) with
  | Some n when t.compare n.key key < 0 -> last_below t key n level
  | _ -> node

(* Find, for each list level, the last node whose key is < [key], into
   [t.prev]. *)
let find_predecessors t key =
  let prev = t.prev in
  let node = ref t.head in
  for level = t.height - 1 downto 0 do
    node := last_below t key !node level;
    prev.(level) <- !node
  done;
  prev

(** [insert t key value] adds an entry; duplicates are kept (newest is
    reachable first only through comparator design, so memtable comparators
    must order duplicates deterministically). *)
let insert t key value =
  let prev = find_predecessors t key in
  let h = random_height t in
  if h > t.height then begin
    for level = t.height to h - 1 do
      prev.(level) <- t.head
    done;
    t.height <- h
  end;
  let node = { key; value; forward = Array.make h None; marked = false } in
  for level = 0 to h - 1 do
    node.forward.(level) <- prev.(level).forward.(level);
    prev.(level).forward.(level) <- Some node
  done;
  t.length <- t.length + 1

(* The first node whose key is >= [key]: [find_predecessors] without the
   array. *)
let first_from t key =
  let node = ref t.head in
  for level = t.height - 1 downto 0 do
    node := last_below t key !node level
  done;
  !node.forward.(0)

type ('k, 'v) entry = ('k, 'v) node

(** [seek t key] is the first entry with key >= [key], or [None]; it
    allocates nothing. *)
let seek = first_from

let entry_key (n : _ entry) = n.key
let entry_value (n : _ entry) = n.value

(** [mark e] sets [e]'s flag. *)
let mark (n : _ entry) = n.marked <- true

(** [find t key] is the value of the smallest entry >= [key] whose key
    compares equal to [key]. *)
let find t key =
  match first_from t key with
  | Some n when t.compare n.key key = 0 -> Some n.value
  | Some _ | None -> None

let mem t key = Option.is_some (find t key)

(** [min_entry t] / [max_entry t] are the smallest / largest entries. *)
let min_entry t =
  match t.head.forward.(0) with
  | Some n -> Some (n.key, n.value)
  | None -> None

let max_entry t =
  let rec descend node level =
    match node.forward.(level) with
    | Some n -> descend n level
    | None -> if level = 0 then node else descend node (level - 1)
  in
  let last = descend t.head (t.height - 1) in
  if last == t.head then None else Some (last.key, last.value)

(** [iter t f] applies [f key value marked] to every entry in key order;
    [marked] is whether {!mark} set the entry's flag. *)
let iter t f =
  let rec go = function
    | Some n ->
      f n.key n.value n.marked;
      go n.forward.(0)
    | None -> ()
  in
  go t.head.forward.(0)

let fold t f acc =
  let acc = ref acc in
  iter t (fun k v _ -> acc := f !acc k v);
  !acc

let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

(** Forward-only cursor over the list, used by memtable iterators. *)
module Cursor = struct
  type ('k, 'v) cursor = {
    list : ('k, 'v) t;
    mutable node : ('k, 'v) node option;
  }

  let make list = { list; node = None }

  let seek_to_first c = c.node <- c.list.head.forward.(0)

  let seek c key = c.node <- first_from c.list key

  let valid c = Option.is_some c.node

  let key c =
    match c.node with
    | Some n -> n.key
    | None -> invalid_arg "Skiplist.Cursor.key: invalid cursor"

  let value c =
    match c.node with
    | Some n -> n.value
    | None -> invalid_arg "Skiplist.Cursor.value: invalid cursor"

  let next c =
    match c.node with
    | Some n -> c.node <- n.forward.(0)
    | None -> ()
end
