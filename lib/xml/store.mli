(** Columnar XML node store.

    The reproduction's stand-in for MonetDB/XQuery's relational XML
    storage. Nodes live in parallel growable columns (struct-of-arrays);
    a node is identified by a dense, stable integer id — the row it was
    appended at. Ids never move, so the value indices can key on them
    across updates (the paper's update algorithms rely on this).

    Navigation is by [parent] / [first_child] / [next_sibling] links, all
    O(1), which provides the "efficient depth-first traversal" interface
    the paper's Section 5 assumes of the host system. Document order is
    defined by tree traversal (not by id order, since later insertions
    append rows).

    Deletion tombstones the subtree and unlinks it; tombstoned rows keep
    their id so indices can be repaired incrementally. *)

type t

type node = int
(** Dense node id; row number in the store. *)

type kind =
  | Document  (** The virtual root, always node 0. *)
  | Element
  | Text
  | Attribute
  | Comment
  | Pi
  | Deleted  (** Tombstone left by {!delete_subtree}. *)

val create : unit -> t
(** Empty store containing only the document node. *)

val snapshot : t -> t
(** O(directories) copy-on-write snapshot: the result shares all column
    pages with [t]; whichever side writes into a shared page first
    clones just that page (and its directory). This is what epoch
    publication uses instead of deep-copying whole columns. *)

val document : node
(** The document node id (0). *)

(** {1 Construction}

    [append_*] add a node as the {e last} child (or attribute) of
    [parent]; this is the shredding path.

    Id invariant: a node is appended after its parent, so every child's
    (and attribute's) id is above its parent's, in every store.
    {!compact} rebuilds by appending, so it keeps the invariant, and
    {!decode} refuses a store that breaks it. One pass in descending id
    order therefore meets all of a node's children before the node —
    the order the index build ([Xvi_core.Indexer.fill]) relies on.
    The nodes of an inserted fragment are the store's last ids. *)

val append_element : t -> parent:node -> string -> node
val append_text : t -> parent:node -> string -> node
val append_attribute : t -> element:node -> name:string -> value:string -> node
val append_comment : t -> parent:node -> string -> node
val append_pi : t -> parent:node -> target:string -> string -> node

(** {1 Inspection} *)

val kind : t -> node -> kind
val is_live : t -> node -> bool

val name : t -> node -> string
(** Tag name of an element, name of an attribute, target of a PI.
    @raise Invalid_argument for other kinds. *)

val name_id : t -> node -> int
(** Interned variant of {!name}; [-1] when the kind has no name. *)

val names : t -> Name_pool.t

val text : t -> node -> string
(** Content of a text, attribute, comment or PI node.
    @raise Invalid_argument for elements and the document node. *)

val parent : t -> node -> node option
val first_child : t -> node -> node option
val next_sibling : t -> node -> node option
val prev_sibling : t -> node -> node option
val last_child : t -> node -> node option
val first_attribute : t -> node -> node option
val next_attribute : t -> node -> node option

val children : t -> node -> node list
(** Live child nodes in document order (attributes excluded). *)

val attributes : t -> node -> node list

val is_ancestor : t -> ancestor:node -> node -> bool
(** [is_ancestor t ~ancestor n] — strict: a node is not its own
    ancestor. Attributes count as below their owner element. *)

val compare_order : t -> node -> node -> int
(** Document-order comparison of two live nodes (ancestors precede
    descendants; attributes precede the element's children). O(depth +
    siblings) — lets small result sets be sorted without a full
    document traversal. *)

val level : t -> node -> int
(** Depth; the document node has level 0. *)

val subtree_size : t -> node -> int
(** Live nodes in the subtree rooted at [n], including [n] and
    attributes. *)

(** {1 Document-order iteration} *)

val iter_pre : ?root:node -> t -> (node -> unit) -> unit
(** Pre-order walk over live nodes. Attributes of an element are visited
    right after the element, before its children (the order MonetDB uses
    and the order the paper's Table 1 counts assume). *)

val text_nodes : ?root:node -> t -> node array
(** Live text nodes in document order. *)

val node_range : t -> int
(** One past the largest node id ever allocated (live or tombstoned) —
    the size index arrays must have. *)

val live_count : t -> int
val count_of_kind : t -> kind -> int

(** {1 XDM string value} *)

val string_value : t -> node -> string
(** Per the XQuery data model: for elements and the document node, the
    concatenation of all descendant text nodes in document order
    (comments, PIs and attributes do not contribute); for text,
    attribute, comment and PI nodes, their own content. *)

(** {1 Updates} *)

val set_text : t -> node -> string -> unit
(** Replace the content of a text or attribute node.
    @raise Invalid_argument for other kinds. *)

val delete_subtree : t -> node -> unit
(** Tombstone [n] and its whole subtree and unlink [n] from its parent.
    @raise Invalid_argument when [n] is the document node. *)

val insert_element : t -> parent:node -> ?before:node -> string -> node
(** New element under [parent], placed before sibling [before] (default:
    appended as last child). *)

val insert_text : t -> parent:node -> ?before:node -> string -> node

(** {1 Accounting} *)

val storage_bytes : t -> int
(** Footprint of all columns, text payloads, and the name pool; the
    "DB size" denominator of the Figure 9 storage experiment. *)

val offheap_bytes : t -> int
(** Bytes held in Bigarray chunks outside the OCaml heap (the ten node
    columns plus the text arena). *)

val heap_bytes : t -> int
(** GC-visible payload bytes — with off-heap columns, just the name
    pool. *)

val text_bytes : t -> int
(** Total bytes of live text/attribute content. *)

val text_arena : t -> string
(** A copy of the whole text arena, abandoned bytes included — for a
    pass over every text ({!text_span}) that should not copy each one. *)

val text_span : t -> node -> int * int
(** [(offset, length)] of a node's text in {!text_arena}:
    [text t n = String.sub (text_arena t) off len].
    @raise Invalid_argument for the kinds {!text} rejects. *)

(** {1 Compaction} *)

val compact : t -> t * (node -> node option)
(** [compact t] is a fresh store holding only the live tree, with dense
    new node ids in document order (tombstones vacuumed), plus the
    mapping from old ids to new ones ([None] for tombstoned nodes).
    [t] is unchanged. Indices must be rebuilt over the new store — ids
    are not stable across compaction, which is why it is an explicit
    maintenance operation, as in any database. *)

(** {1 Snapshot codec} *)

val max_nodes : int
(** [2^30 - 1]: the largest node count a snapshot may hold — node ids
    share a 62-bit posting key with a 32-bit hash (see
    {!Xvi_core.String_index}). *)

val encode : t -> Xvi_util.Codec.Sink.t -> unit
(** Write the store as the snapshot's store section: the name pool, then
    varint columns — kind and name id in one, links as zigzag deltas
    from the node's own id, text offsets as deltas from the previous
    text's end — and the arena raw. *)

val decode : Xvi_util.Codec.Source.t -> t
(** Inverse of {!encode}; total. Besides rejecting malformed varints,
    unknown kinds, out-of-range links, name ids and text ranges and a
    node count above {!max_nodes}, it checks that the live nodes form
    one tree under the document node with consistent links and every
    child's id above its parent's, so no traversal of the result can
    loop.
    @raise Xvi_util.Codec.Malformed on any violation. *)

(** {1 Pre/size/level snapshot} *)

val pre_size_level : t -> (node * int * int) array
(** The classic MonetDB encoding materialised from the current tree:
    element [i] of the result is [(node, size, level)] for pre number
    [i], where [size] counts live descendants (attributes included).
    Exists for tests and for exporting; the live store works off links. *)
