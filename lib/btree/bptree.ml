(** Page-based B+-tree store.

    The stand-in for the paper's non-LSM baselines: KyotoCabinet-style
    write-through operation (chapter 2's motivation — "inserting 100
    million key-value pairs into KyotoCabinet writes 829 GB to storage")
    and, in buffered mode, the page store underneath the WiredTiger-like
    engine ({!Wt_store}).

    Updating a B+-tree rewrites whole pages in place, so its write
    amplification is roughly [page_size / entry_size] per random update —
    the behaviour the LSM family was invented to avoid.  Pages live in a
    single simulated file ([<dir>/btree.pages]) with positioned writes;
    a small header page persists the root/next-page metadata.

    Concurrency, snapshots and fine-grained recovery are out of scope:
    write-through mode is durable per update, buffered mode relies on the
    caller (the WiredTiger shim) journaling its writes. *)

module Env = Pdb_simio.Env
module Clock = Pdb_simio.Clock
module Device = Pdb_simio.Device
module O = Pdb_kvs.Options
module Stats = Pdb_kvs.Engine_stats
module Wb = Pdb_kvs.Write_batch

type leaf = { mutable entries : (string * string) list; mutable next : int }

type internal = { mutable keys : string list; mutable children : int list }
(* children = keys+1: child i holds keys < keys.(i) *)

type node = Leaf of leaf | Internal of internal

type mode = Write_through | Buffered

type t = {
  opts : O.t;
  env : Env.t;
  dir : string;
  clock : Clock.t;
  counters : Stats.counters;
  mode : mode;
  page_file : string;
  slot_bytes : int; (* on-file slot per page *)
  split_bytes : int; (* serialized size that forces a split *)
  pages : (int, node) Hashtbl.t; (* loaded pages *)
  hot : (string, unit) Pdb_util.Lru.t; (* page-cache residency model *)
  dirty : (int, unit) Hashtbl.t;
  mutable root : int;
  mutable next_page : int;
  mutable count : int;
  mutable closed : bool;
}

let header_bytes = 64

(* ---------- serialization ---------- *)

let encode_node node =
  let buf = Buffer.create 256 in
  (match node with
   | Leaf l ->
     Buffer.add_char buf 'L';
     Pdb_util.Varint.put_uvarint buf (l.next + 1);
     Pdb_util.Varint.put_uvarint buf (List.length l.entries);
     List.iter
       (fun (k, v) ->
         Pdb_util.Varint.put_length_prefixed buf k;
         Pdb_util.Varint.put_length_prefixed buf v)
       l.entries
   | Internal n ->
     Buffer.add_char buf 'I';
     Pdb_util.Varint.put_uvarint buf (List.length n.keys);
     List.iter (Pdb_util.Varint.put_length_prefixed buf) n.keys;
     List.iter (Pdb_util.Varint.put_uvarint buf) n.children);
  Buffer.contents buf

let decode_node s =
  match s.[0] with
  | 'L' ->
    let next, pos = Pdb_util.Varint.get_uvarint s 1 in
    let count, pos = Pdb_util.Varint.get_uvarint s pos in
    let pos = ref pos in
    let entries = ref [] in
    for _ = 1 to count do
      let k, p = Pdb_util.Varint.get_length_prefixed s !pos in
      let v, p = Pdb_util.Varint.get_length_prefixed s p in
      pos := p;
      entries := (k, v) :: !entries
    done;
    Leaf { entries = List.rev !entries; next = next - 1 }
  | 'I' ->
    let nkeys, pos = Pdb_util.Varint.get_uvarint s 1 in
    let pos = ref pos in
    let keys = ref [] in
    for _ = 1 to nkeys do
      let k, p = Pdb_util.Varint.get_length_prefixed s !pos in
      pos := p;
      keys := k :: !keys
    done;
    let children = ref [] in
    for _ = 1 to nkeys + 1 do
      let c, p = Pdb_util.Varint.get_uvarint s !pos in
      pos := p;
      children := c :: !children
    done;
    Internal { keys = List.rev !keys; children = List.rev !children }
  | c -> invalid_arg (Printf.sprintf "Bptree.decode_node: bad tag %C" c)

(* ---------- page IO ---------- *)

let page_offset t id = header_bytes + (id * t.slot_bytes)

let write_page t id =
  match Hashtbl.find_opt t.pages id with
  | None -> ()
  | Some node ->
    let raw = encode_node node in
    (* length-prefix within the slot so reads know the extent *)
    let buf = Buffer.create (String.length raw + 4) in
    Pdb_util.Varint.put_fixed32 buf (String.length raw);
    Buffer.add_string buf raw;
    Env.write_at t.env t.page_file ~pos:(page_offset t id)
      (Buffer.contents buf)

let write_header t =
  let buf = Buffer.create header_bytes in
  Pdb_util.Varint.put_fixed32 buf t.root;
  Pdb_util.Varint.put_fixed32 buf t.next_page;
  Pdb_util.Varint.put_fixed32 buf t.count;
  Env.write_at t.env t.page_file ~pos:0 (Buffer.contents buf)

(* Touch a page in the residency model; charge a random read on a miss. *)
let touch t id =
  let key = string_of_int id in
  if not (Pdb_util.Lru.mem t.hot key) then
    Clock.advance t.clock
      (Device.read_cost (Env.device t.env) ~hint:Device.Random_read
         ~bytes:t.slot_bytes);
  Pdb_util.Lru.insert t.hot key () ~weight:t.slot_bytes

let load_page t id =
  match Hashtbl.find_opt t.pages id with
  | Some node ->
    touch t id;
    node
  | None ->
    let len =
      Pdb_util.Varint.get_fixed32
        (Env.read t.env t.page_file ~pos:(page_offset t id) ~len:4
           ~hint:Device.Random_read)
        0
    in
    let raw =
      Env.read t.env t.page_file ~pos:(page_offset t id + 4) ~len
        ~hint:Device.Random_read
    in
    let node = decode_node raw in
    Hashtbl.replace t.pages id node;
    Pdb_util.Lru.insert t.hot (string_of_int id) () ~weight:t.slot_bytes;
    node

let mark_dirty t id =
  match t.mode with
  | Write_through -> write_page t id
  | Buffered -> Hashtbl.replace t.dirty id ()

let alloc_page t node =
  let id = t.next_page in
  t.next_page <- id + 1;
  Hashtbl.replace t.pages id node;
  Pdb_util.Lru.insert t.hot (string_of_int id) () ~weight:t.slot_bytes;
  mark_dirty t id;
  id

(* ---------- open / close ---------- *)

let open_store ?(mode = Write_through) (opts : O.t) ~env ~dir =
  let page_file = dir ^ "/btree.pages" in
  let slot_bytes = 4 * opts.O.block_bytes in
  let t =
    {
      opts;
      env;
      dir;
      clock = Env.clock env;
      counters = Stats.counters ();
      mode;
      page_file;
      slot_bytes;
      split_bytes = opts.O.block_bytes;
      pages = Hashtbl.create 1024;
      hot =
        Pdb_util.Lru.create
          ~capacity:(max (4 * slot_bytes) opts.O.block_cache_bytes);
      dirty = Hashtbl.create 64;
      root = 0;
      next_page = 0;
      count = 0;
      closed = false;
    }
  in
  if Env.exists env page_file && Env.file_size env page_file >= 12 then begin
    let header =
      Env.read env page_file ~pos:0 ~len:12 ~hint:Device.Random_read
    in
    t.root <- Pdb_util.Varint.get_fixed32 header 0;
    t.next_page <- Pdb_util.Varint.get_fixed32 header 4;
    t.count <- Pdb_util.Varint.get_fixed32 header 8
  end
  else
    Env.with_atomic env (fun () ->
        t.root <- alloc_page t (Leaf { entries = []; next = -1 });
        write_page t t.root;
        write_header t);
  t

(* A checkpoint is modeled as atomic with respect to injected crashes:
   real page stores make it so with their own page-level journaling, which
   this simulation does not reproduce.  Without the atomic section a crash
   halfway through the page sweep would leave a structurally inconsistent
   tree (new header over old pages or vice versa), a failure mode of the
   page store's journal rather than of the engines under test. *)
let flush_dirty t =
  Env.with_atomic t.env (fun () ->
      Hashtbl.iter (fun id () -> write_page t id) t.dirty;
      Hashtbl.reset t.dirty;
      write_header t)

let close t =
  flush_dirty t;
  t.closed <- true

let options t = t.opts
let env t = t.env
let counters t = t.counters

let stats t =
  Stats.view [ t.counters ] ~busy:[||] ~flush_busy:0.0 ~cache:(0, 0)

(* ---------- descent ---------- *)

(* Path from root to the leaf owning [key]: (page_id, node) list with the
   leaf last; internal steps also note the child index taken. *)
let rec descend t id key acc =
  let node = load_page t id in
  match node with
  | Leaf _ -> List.rev ((id, node, -1) :: acc)
  | Internal n ->
    let rec pick i keys children =
      match (keys, children) with
      | [], [ c ] -> (i, c)
      | k :: krest, c :: crest ->
        if String.compare key k < 0 then (i, c)
        else pick (i + 1) krest crest
      | _ -> invalid_arg "Bptree: malformed internal node"
    in
    let idx, child = pick 0 n.keys n.children in
    descend t child key ((id, node, idx) :: acc)

let leaf_of_path path =
  match List.rev path with
  | (id, Leaf l, _) :: _ -> (id, l)
  | _ -> invalid_arg "Bptree: path without leaf"

(* ---------- splits ---------- *)

let node_size node = String.length (encode_node node)

let split_list l =
  let n = List.length l in
  let rec take i = function
    | [] -> ([], [])
    | x :: rest ->
      if i = 0 then ([], x :: rest)
      else
        let a, b = take (i - 1) rest in
        (x :: a, b)
  in
  take (n / 2) l

(* Insert [sep_key, new_page] into the parent chain, splitting internals
   as needed. *)
let rec insert_into_parent t path sep_key new_page =
  match List.rev path with
  | [] ->
    (* split reached the root: grow the tree *)
    let old_root = t.root in
    t.root <-
      alloc_page t
        (Internal { keys = [ sep_key ]; children = [ old_root; new_page ] });
    write_header t
  | (pid, Internal n, idx) :: rest ->
    let rec insert_at i keys children =
      match (keys, children) with
      | ks, c :: cs when i = 0 ->
        (sep_key :: ks, c :: new_page :: cs)
      | k :: ks, c :: cs ->
        let ks', cs' = insert_at (i - 1) ks cs in
        (k :: ks', c :: cs')
      | _ -> invalid_arg "Bptree: insert_into_parent"
    in
    let keys', children' = insert_at idx n.keys n.children in
    n.keys <- keys';
    n.children <- children';
    if node_size (Internal n) > t.split_bytes && List.length n.keys > 1 then begin
      (* split the internal node *)
      let k = List.length n.keys in
      let mid = k / 2 in
      let rec split i keys children =
        match (keys, children) with
        | key :: ks, c :: cs when i < mid ->
          let lk, rk, sep, lc, rc = split (i + 1) ks cs in
          (key :: lk, rk, sep, c :: lc, rc)
        | sep :: ks, c :: cs when i = mid -> ([], ks, sep, [ c ], cs)
        | _ -> invalid_arg "Bptree: internal split"
      in
      let lk, rk, sep, lc, rc = split 0 n.keys n.children in
      n.keys <- lk;
      n.children <- lc;
      let right = alloc_page t (Internal { keys = rk; children = rc }) in
      mark_dirty t pid;
      insert_into_parent t (List.rev rest) sep right
    end
    else mark_dirty t pid
  | (_, Leaf _, _) :: _ -> invalid_arg "Bptree: leaf in parent position"

(* ---------- operations ---------- *)

(* A write-through update is atomic like a checkpoint ({!flush_dirty}):
   its pages and the header holding the key count land together. *)
let write_through t f =
  match t.mode with
  | Write_through ->
    Env.with_atomic t.env (fun () ->
        f ();
        write_header t)
  | Buffered -> f ()

(* [insert] and [remove] change the tree; [put] and [delete] also count
   a client's operation *)
let insert t key value =
  assert (not t.closed);
  Clock.advance_cpu t.clock
    (t.opts.O.op_overhead_write_ns +. O.cpu_per_op_ns);
  write_through t (fun () ->
      let path = descend t t.root key [] in
      let lid, leaf = leaf_of_path path in
      let existed = List.mem_assoc key leaf.entries in
      let entries =
        (key, value)
        :: List.filter (fun (k, _) -> not (String.equal k key)) leaf.entries
      in
      leaf.entries <-
        List.sort (fun (a, _) (b, _) -> String.compare a b) entries;
      if not existed then t.count <- t.count + 1;
      if
        node_size (Leaf { entries = leaf.entries; next = leaf.next })
        > t.split_bytes
        && List.length leaf.entries > 1
      then begin
        let left, right = split_list leaf.entries in
        let right_page =
          alloc_page t (Leaf { entries = right; next = leaf.next })
        in
        leaf.entries <- left;
        leaf.next <- right_page;
        mark_dirty t lid;
        let sep = fst (List.hd right) in
        insert_into_parent t
          (List.filteri (fun i _ -> i < List.length path - 1) path)
          sep right_page
      end
      else mark_dirty t lid)

let get t key =
  assert (not t.closed);
  Stats.incr t.counters Stats.gets;
  Clock.advance_cpu t.clock
    (t.opts.O.op_overhead_read_ns +. O.cpu_per_op_ns);
  let path = descend t t.root key [] in
  let _, leaf = leaf_of_path path in
  List.assoc_opt key leaf.entries

let remove t key =
  assert (not t.closed);
  Clock.advance_cpu t.clock
    (t.opts.O.op_overhead_write_ns +. O.cpu_per_op_ns);
  let path = descend t t.root key [] in
  let lid, leaf = leaf_of_path path in
  if List.mem_assoc key leaf.entries then
    write_through t (fun () ->
        leaf.entries <-
          List.filter (fun (k, _) -> not (String.equal k key)) leaf.entries;
        t.count <- t.count - 1;
        mark_dirty t lid)

let put t key value =
  Stats.incr t.counters Stats.puts;
  Stats.add t.counters Stats.user_bytes_written
    (String.length key + String.length value);
  insert t key value

let delete t key =
  Stats.incr t.counters Stats.deletes;
  remove t key

(* a bulk batch (a shard migration) moves data no client wrote *)
let write t batch =
  let bulk = Wb.is_bulk batch in
  Wb.iter batch (function
    | Wb.Put (k, v) -> if bulk then insert t k v else put t k v
    | Wb.Delete k -> if bulk then remove t k else delete t k)

(* no WAL to coalesce: a group degrades to the one-by-one writes *)
let write_group t batches = List.iter (write t) batches

(* leftmost leaf id *)
let rec leftmost t id =
  match load_page t id with
  | Leaf _ -> id
  | Internal n -> leftmost t (List.hd n.children)

let iterator t =
  (* remaining entries of the current leaf + id of the next leaf *)
  let entries = ref [] in
  let next_leaf = ref (-1) in
  let rec refill () =
    if !entries = [] && !next_leaf >= 0 then begin
      match load_page t !next_leaf with
      | Leaf l ->
        entries := l.entries;
        next_leaf := l.next;
        refill ()
      | Internal _ -> invalid_arg "Bptree: leaf chain corrupt"
    end
  in
  let position lid remaining =
    (match load_page t lid with
     | Leaf l -> next_leaf := l.next
     | Internal _ -> invalid_arg "Bptree: expected leaf");
    entries := remaining;
    refill ()
  in
  let value () =
    match !entries with
    | (_, v) :: _ -> v
    | [] -> invalid_arg "Bptree.iterator: not valid"
  in
  {
    Pdb_kvs.Iter.seek_to_first =
      (fun () ->
        let id = leftmost t t.root in
        match load_page t id with
        | Leaf l -> position id l.entries
        | Internal _ -> ());
    seek =
      (fun key ->
        let path = descend t t.root key [] in
        let lid, leaf = leaf_of_path path in
        let rest =
          List.filter (fun (k, _) -> String.compare k key >= 0) leaf.entries
        in
        position lid rest);
    next =
      (fun () ->
        (match !entries with
         | _ :: rest -> entries := rest
         | [] -> ());
        refill ());
    valid = (fun () -> !entries <> []);
    key =
      (fun () ->
        match !entries with
        | (k, _) :: _ -> k
        | [] -> invalid_arg "Bptree.iterator: not valid");
    value;
    value_slice = Pdb_kvs.Iter.whole value;
  }

let flush t = flush_dirty t
let compact_all t = flush_dirty t

let memory_bytes t =
  Hashtbl.length t.pages * t.slot_bytes / 4 (* rough node footprint *)
  + Pdb_util.Lru.used t.hot / 16

let describe t =
  Printf.sprintf "b+tree store: %d keys, %d pages, root=%d" t.count
    t.next_page t.root

let count t = t.count

let check_invariants t =
  (* every leaf reachable by the chain is sorted; chain covers [count] *)
  let rec walk id seen last_key =
    if id < 0 then seen
    else
      match load_page t id with
      | Leaf l ->
        let rec check_sorted prev = function
          | [] -> prev
          | (k, _) :: rest ->
            (match prev with
             | Some p when String.compare p k >= 0 ->
               failwith "bptree invariant: leaf entries not ascending"
             | _ -> ());
            check_sorted (Some k) rest
        in
        let last = check_sorted last_key l.entries in
        walk l.next (seen + List.length l.entries) last
      | Internal _ -> failwith "bptree invariant: internal in leaf chain"
  in
  let total = walk (leftmost t t.root) 0 None in
  if total <> t.count then
    failwith
      (Printf.sprintf "bptree invariant: count mismatch (%d vs %d)" total
         t.count)
