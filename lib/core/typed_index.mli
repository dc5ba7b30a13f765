(** The typed range-lookup index (paper Section 4).

    For a given type machine (see {!Lexical_types}), every node whose
    string value is a {e viable} fragment of the type's lexical language
    carries a one/two-byte SCT state; nodes whose value is a {e complete}
    lexical form additionally appear in a B+tree on [(typed value,
    node id)], which serves range and equality lookups with no false
    positives. Rejected nodes — the vast majority, in typical data —
    store nothing.

    Lexical reconstruction: when an update makes an intermediate node's
    combined value complete, its typed key must be recovered. Mode
    [`Document] (default) re-reads the node's string value from the
    store; mode [`Fragment] keeps the lexical fragment of every viable
    node in the index, so the document is never touched (the paper's
    stated goal, at the price of replicating the — short — viable
    fragments). DESIGN.md explains why the paper's [value ++ state]
    reconstruction is unsound in corner cases; the ablation bench
    compares the two modes. *)

type t

type node = Xvi_xml.Store.node

type reconstruct = [ `Document | `Fragment ]

val create :
  ?reconstruct:reconstruct ->
  ?pool:Xvi_util.Pool.t ->
  Lexical_types.spec ->
  Xvi_xml.Store.t ->
  t

val of_fields :
  ?reconstruct:reconstruct ->
  ?pool:Xvi_util.Pool.t ->
  Lexical_types.spec ->
  Xvi_xml.Store.t ->
  int Indexer.fields ->
  t
(** Build from SCT states already computed — how {!Db} shares one
    document pass across all its indices (paper §5).

    With [?pool] of parallelism [> 1] in [`Document] mode, value
    collection (viability counting, lexical re-reads, float parsing)
    runs per-domain over node-id slices (otherwise one id-order pass); the sort and B+tree bulk load
    stay single-threaded. [`Fragment] mode always collects serially —
    it fills the shared fragment table during the pass. *)

val spec : t -> Lexical_types.spec
val type_name : t -> string

val state_of : t -> node -> int
(** The SCT state of a node; {!Sct.reject} for rejected ones. *)

val is_viable : t -> node -> bool
val is_complete : t -> node -> bool

val value_of : t -> node -> float option
(** The typed key of a node whose value is complete. *)

(** {1 Lookups} *)

val range : ?lo:float -> ?hi:float -> t -> node list
(** Nodes with a complete typed value in [\[lo, hi\]] (inclusive,
    missing bound = unbounded), ordered by value. Exact — no
    verification pass is needed. *)

val equals : t -> float -> node list

(** {1 Streaming access (query planner)} *)

val cursor : ?lo:float -> ?hi:float -> t -> unit -> node option
(** Posting cursor over the range in ascending {e node} order (the merge
    order of the query executor; the tree's native order is by value, so
    the range is materialized and sorted on the first pull). Do not
    update the index while a cursor is live. *)

val estimate_range : ?lo:float -> ?hi:float -> t -> int
(** Exact binding count in the range, counted per B+tree leaf — the
    planner's cardinality estimate. *)

(** {1 Maintenance} *)

(** As {!String_index}'s: one {!Indexer.frontier} per write set, shared
    by every index. Values are re-extracted across the whole touched
    set, since a state can survive a value change. *)

val maintain : t -> Xvi_xml.Store.t -> Indexer.frontier -> unit
val update_texts : t -> Xvi_xml.Store.t -> node list -> unit

val on_delete :
  t -> Xvi_xml.Store.t -> removed:node list -> Indexer.frontier -> unit

val on_insert :
  t -> Xvi_xml.Store.t -> roots:node list -> Indexer.frontier -> unit

(** {1 Epochs and persistence} *)

val snapshot : t -> t
(** O(directories) logically independent copy: the value tree is
    path-copied, and the state and key columns page-cloned, on the next
    write to either side. *)

val encode : t -> Xvi_util.Codec.Sink.t -> unit
(** The snapshot section: type name, reconstruct mode and the value
    entries in key order. *)

val decode :
  Xvi_xml.Store.t ->
  Lexical_types.spec ->
  int Indexer.fields ->
  Xvi_util.Codec.Source.t ->
  t
(** Inverse of {!encode} over the store it indexes and that store's
    state fields for [spec] ({!Indexer.fill}), which the index takes
    over. The section must be for [spec], and the value entries must be
    exactly the complete nodes with their parsed values, in strictly
    ascending key order, so the result equals {!create}. The viable
    count and, for a [`Fragment] index, the fragment map are rebuilt
    from the states and the store.
    @raise Xvi_util.Codec.Malformed otherwise. *)

val digest : t -> Xvi_xml.Store.t -> string
(** Logical digest: the sorted value-tree keys, the viable count, and
    every live indexed node's state and typed key. *)

(** {1 Statistics, accounting, validation} *)

type stats = {
  viable_nodes : int;  (** nodes carrying a state *)
  complete_nodes : int;  (** nodes in the value B+tree *)
  complete_text_nodes : int;
      (** the paper's Table 1 "Double Values" column: text nodes with a
          (potential) valid lexical value — counted here as complete *)
  complete_non_leaves : int;
      (** the paper's Table 1 "non-leaf" column: elements with element
          children whose concatenated string value is a complete typed
          value (the empty string is viable, so viability alone would
          count every element with only empty children) *)
}

val stats : t -> Xvi_xml.Store.t -> stats

val entry_count : t -> int
(** Bindings in the value B+tree. *)

val storage_bytes : t -> int
(** State bytes for viable nodes + value B+tree (+ fragments in
    [`Fragment] mode), as Figure 9 accounts it. *)

val validate : t -> Xvi_xml.Store.t -> (unit, string) result
(** Test hook: states and B+tree contents equal a from-scratch
    recomputation. *)
