(** Snapshot registry: the live set of pinned sequence numbers.

    A snapshot pins the store's state at a sequence number: reads and
    iterators through it see exactly the versions visible then.  Compaction
    must keep any version that some live snapshot still needs — the
    LevelDB rule implemented by {!droppable}: a version may be discarded
    only when the next-newer version of the same key is itself visible to
    every live snapshot. *)

type t = { mutable live : int list (* unordered multiset of pinned seqs *) }

let create () = { live = [] }

let acquire t seq = t.live <- seq :: t.live

(** [release t seq] unpins one acquisition of [seq]. *)
let release t seq =
  let rec remove = function
    | [] -> []
    | s :: rest -> if s = seq then rest else s :: remove rest
  in
  t.live <- remove t.live

let is_empty t = t.live = []

(** [smallest t ~default] is the oldest pinned sequence number, or
    [default] (usually the current last sequence) when nothing is pinned. *)
let smallest t ~default =
  List.fold_left min default t.live

(** Compaction visibility rule.  [prev_seq] is the sequence of the
    next-newer entry already seen for this user key (the first, i.e.
    freshest, is always kept, so it is never asked about).  The current
    entry is droppable iff that newer entry is visible to every live
    snapshot. *)
let droppable t ~prev_seq ~last_seq = prev_seq <= smallest t ~default:last_seq

(** A bottom-level tombstone can be dropped entirely only when every live
    snapshot already sees it (older versions it hides are gone or about to
    be). *)
let tombstone_droppable t ~seq ~last_seq = seq <= smallest t ~default:last_seq
