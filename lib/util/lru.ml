(** Weighted LRU cache.

    Backs the block cache and table cache in the sstable substrate.  Each
    entry carries a fixed integer weight (bytes in the block cache, 1 in
    the table cache); inserting past [capacity] evicts least-recently-used
    entries.  Implemented as a hash table over an
    intrusive doubly-linked list. *)

(* [Nil] ends the list; a [Node] is its own inline record, so linking a
   node stores it as is, with no [Some] around it.  [hit] is [Some value],
   built once, so a cache hit allocates nothing. *)
type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      value : 'v;
      hit : 'v option;
      weight : int;
      mutable prev : ('k, 'v) node;
      mutable next : ('k, 'v) node;
    }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node; (* most recently used *)
  mutable tail : ('k, 'v) node; (* least recently used *)
  mutable used : int;
}

let create ~capacity =
  {
    capacity;
    table = Hashtbl.create 64;
    head = Nil;
    tail = Nil;
    used = 0;
  }

let set_prev node p = match node with Node n -> n.prev <- p | Nil -> ()
let set_next node x = match node with Node n -> n.next <- x | Nil -> ()

let unlink t node =
  match node with
  | Nil -> ()
  | Node n ->
    (match n.prev with Nil -> t.head <- n.next | p -> set_next p n.next);
    (match n.next with Nil -> t.tail <- n.prev | x -> set_prev x n.prev);
    n.prev <- Nil;
    n.next <- Nil

let push_front t node =
  match node with
  | Nil -> ()
  | Node n ->
    n.next <- t.head;
    n.prev <- Nil;
    set_prev t.head node;
    t.head <- node;
    if t.tail == Nil then t.tail <- node

(* The node under [k], or [Nil]: [Hashtbl.find_opt] would allocate the
   option. *)
let lookup t k = try Hashtbl.find t.table k with Not_found -> Nil

let drop t node =
  match node with
  | Nil -> ()
  | Node n ->
    unlink t node;
    Hashtbl.remove t.table n.key;
    t.used <- t.used - n.weight

let evict_one t = drop t t.tail

(** [find t k] returns the cached value and promotes it to most recent.
    A hit allocates nothing. *)
let find t k =
  match lookup t k with
  | Node n as node ->
    if t.head != node then begin
      unlink t node;
      push_front t node
    end;
    n.hit
  | Nil -> None

(** [mem t k] tests presence without affecting recency. *)
let mem t k = Hashtbl.mem t.table k

(** [peek t k] returns the cached value without promoting it — for
    accounting and opportunistic reads that must not distort recency or
    the caller's hit counts. *)
let peek t k = match lookup t k with Node n -> n.hit | Nil -> None

(** [insert t k v ~weight] adds or replaces an entry, evicting as needed.
    Entries heavier than the whole capacity are not cached. *)
let insert t k v ~weight =
  if weight <= t.capacity then begin
    drop t (lookup t k);
    let node =
      Node { key = k; value = v; hit = Some v; weight; prev = Nil; next = Nil }
    in
    Hashtbl.replace t.table k node;
    push_front t node;
    t.used <- t.used + weight;
    while t.used > t.capacity do
      evict_one t
    done
  end

let remove t k = drop t (lookup t k)

let used t = t.used
let length t = Hashtbl.length t.table

(** [fold t f acc] folds over entries from most to least recently used
    without affecting recency. *)
let fold t f acc =
  let rec go node acc =
    match node with
    | Nil -> acc
    | Node n -> go n.next (f acc n.key n.value)
  in
  go t.head acc
