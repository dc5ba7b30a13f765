(** The string equality index (paper Section 3).

    Every live element, attribute and text node is indexed under the
    hash of its XDM string value — whole-document, path- and
    type-agnostic. A B+tree on [(hash, node id)] provides the posting
    lists; a per-node hash column supports update recombination without
    re-reading any string data.

    Lookups return {e candidates} (hash matches); {!lookup} filters them
    against the actual string values, so false positives from hash
    collisions (paper Figure 11) never reach the caller. *)

type t

type node = Xvi_xml.Store.node

val create : Xvi_xml.Store.t -> t
(** Compute the hash column ({!Indexer.create}), then bulk-load the
    B+tree. Comments and processing instructions are not indexed (the
    paper covers "text, element, and attribute node values"). *)

val of_fields : ?pool:Xvi_util.Pool.t -> Xvi_xml.Store.t -> Hash.t Indexer.fields -> t
(** Build from fields already computed — how {!Db} shares one document
    pass across all its indices (paper §5). The fields become owned by
    the index.

    With [?pool] of parallelism [> 1], posting collection runs on
    per-domain key arrays over node-id slices (each sorted in its
    domain); the k-way merge and the B+tree bulk load stay
    single-threaded. The resulting tree is identical to the serial
    build. *)

val pack_key : Hash.t -> node -> int
(** The index's posting key: hash in the high 32 bits, node id in the
    low 30.  Packed order is (hash, node) lexicographic order. *)

val of_key_seq : Hash.t Indexer.fields -> count:int -> (unit -> int) -> t
(** Bulk load from a generator of exactly [count] strictly ascending
    {!pack_key} postings, without materializing a binding array — what
    {!of_fields} and {!decode} both end in.  Over the postings of a
    document's fields it is identical ({!digest}) to {!of_fields}. *)

val hash_of : t -> node -> Hash.t
(** The indexed hash of a live node. *)

val lookup : t -> Xvi_xml.Store.t -> string -> node list
(** Nodes whose string value equals the argument, in node-id order.
    Collision false-positives are filtered out. *)

val lookup_candidates : t -> Xvi_xml.Store.t -> string -> node list
(** Hash matches before verification — exposed for the collision
    experiments and for callers that layer their own predicates. *)

(** {1 Streaming access (query planner)} *)

val cursor : t -> Xvi_xml.Store.t -> string -> unit -> node option
(** Lazy posting cursor in ascending node order: pulls hash matches off
    the B+tree leaf chain one at a time, filtering collision false
    positives against the live string values. Do not update the index
    while a cursor is live. *)

val estimate : t -> string -> int
(** Hash-bucket size — the planner's cardinality estimate for an
    equality lookup (an upper bound: collisions inflate it). *)

(** {1 Maintenance} *)

val maintain : t -> Xvi_xml.Store.t -> Indexer.frontier -> unit
(** Figure 8 over the frontier of a write set (built once and shared by
    every index): the frontier's text and attribute nodes changed value
    in the store; recompute their hashes, recombine the affected
    ancestors from sibling hashes, and repair the postings of every node
    whose hash changed. *)

val update_texts : t -> Xvi_xml.Store.t -> node list -> unit
(** {!maintain} over the frontier of the given text/attribute nodes. *)

val on_delete :
  t -> Xvi_xml.Store.t -> removed:node list -> Indexer.frontier -> unit
(** A subtree was deleted: [removed] are its (now tombstoned) nodes, and
    the frontier has its former parent as structural. Drops their
    postings and recombines upward from the parent. *)

val on_insert :
  t -> Xvi_xml.Store.t -> roots:node list -> Indexer.frontier -> unit
(** Freshly inserted subtrees, with their parents as the frontier's
    structural nodes: computes fields for the new nodes in one
    {!Indexer.compute_subtree} pass from the first root (the fragment's
    nodes are the last ids of the store), posts them, and recombines
    upward. *)

(** {1 Epochs and persistence} *)

val snapshot : t -> t
(** O(directories) logically independent copy: the posting tree is
    path-copied and the hash column page-cloned on the next write to
    either side. *)

val encode : t -> Xvi_util.Codec.Sink.t -> unit
(** The snapshot section: the posting node ids in key order. *)

val decode :
  Xvi_xml.Store.t -> Hash.t Indexer.fields -> Xvi_util.Codec.Source.t -> t
(** Inverse of {!encode} over the store it indexes and that store's
    hash fields ({!Indexer.fill}), which the index takes over. The
    postings must be every indexed node exactly once, in strictly
    ascending key order, so the result equals {!create}.
    @raise Xvi_util.Codec.Malformed otherwise. *)

val digest : t -> Xvi_xml.Store.t -> string
(** Logical digest: the sorted postings and the hash of every live
    indexed node. Equal for equal logical state, whatever the copy
    history. *)

(** {1 Accounting and validation} *)

val entry_count : t -> int
val storage_bytes : t -> int
(** Per-node hash column + B+tree, as Figure 9 accounts it. *)

val validate : t -> Xvi_xml.Store.t -> (unit, string) result
(** Test hook: every live indexable node's stored hash equals the hash
    of its recomputed string value, postings match exactly, and the
    B+tree invariants hold. *)
