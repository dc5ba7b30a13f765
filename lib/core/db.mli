(** An indexed XML database: one document store plus the paper's full
    family of value indices, kept consistent through updates.

    This is the user-facing API of the library — shred a document, get
    self-tuned whole-document value indices (no path or type
    configuration, per the paper's introduction), run equality and
    range lookups, and apply updates with low maintenance cost.

    Construction is driven by a {!Config.t} record (which types, the
    opt-in substring index, and how many domains build in parallel);
    range lookups take a first-class {!Range.t} bound pair.

    Every lookup below — and any composition of them — routes through
    the query layer: the predicate is compiled to an {!Xvi_query.Ir}
    term, planned against the available indices by estimated
    cardinality, and executed as streaming cursor merges. {!query},
    {!query_seq} and {!explain} expose that pipeline directly. *)

type t

type node = Xvi_xml.Store.node

(** Construction configuration. Build one with a record update of
    {!Config.default}:
    [{ Db.Config.default with jobs = 4; substring = true }]. *)
module Config : sig
  type t = {
    types : Lexical_types.spec list;
        (** typed indices to build; default
            [Lexical_types.[double (); datetime ()]] — the two types the
            paper singles out *)
    substring : bool;
        (** build the substring q-gram index (the paper's future-work
            extension); default [false] *)
    jobs : int;
        (** domains used for index construction; [<= 1] builds serially
            on the calling domain, [j > 1] spawns [j - 1] worker domains
            for the build and joins them before returning. The result is
            bit-identical either way. Default [1]. *)
  }

  val default : t
end

module Range = Xvi_query.Range
(** Inclusive range bounds for typed lookups (see {!Xvi_query.Range}).
    Re-exported with a visible equality so ranges flow between the
    lookup API and hand-built {!Xvi_query.Ir} terms. *)

module Ir = Xvi_query.Ir
(** The predicate IR accepted by {!query} / {!explain}. *)

val of_store : ?config:Config.t -> ?pool:Xvi_util.Pool.t -> Xvi_xml.Store.t -> t
(** Index an existing store. The string index is always built; typed
    and substring indices follow [config] (default {!Config.default}).
    One {!Indexer.fill} pass computes every field column; the posting
    and value trees are then bulk-loaded from the columns. Collecting
    postings and parsing typed values runs on [pool] when given, else
    on a pool of [config.jobs] domains when [config.jobs > 1]; the
    result is bit-identical either way, since each domain collects a
    node-id slice and the keys are sorted before the bulk load. *)

val assemble :
  config:Config.t ->
  store:Xvi_xml.Store.t ->
  strings:String_index.t ->
  typed:Typed_index.t list ->
  t
(** Assemble a database from components the snapshot decoder
    ({!Snapshot}) produced: [typed] must be in [config.types] order.
    The store-derived parts ([Name_index], the optional substring
    index) are built here. When the components are identical to what
    [of_store] builds, so is the database ({!digest}). *)

val of_xml : ?config:Config.t -> string -> (t, Xvi_xml.Parser.error) result
(** Shred an XML document and index it. *)

val of_xml_exn : ?config:Config.t -> string -> t
  [@@deprecated
    "raises through the public boundary; use Db.of_xml (or Xvi_serve.Engine) \
     and handle the Error case"]

val copy : t -> t
(** A logically independent replica in O(directories), with no
    serialisation: the off-heap store and every index column are
    snapshotted copy-on-write (pages shared until either side writes
    one), every index B+tree is snapshotted by path copying, and the
    cached {!plane} is shared (it is immutable, and value updates keep
    it valid). One side can be mutated while the other is read from
    another domain; this is how {!Xvi_serve.Engine} publishes epochs, at
    a cost proportional to what the next commit writes rather than to
    the index size. *)

val digest : t -> string
(** A digest of the logical state: every live node's kind, links, name
    and text; the sorted postings of the string, substring and name
    indices; each typed index's value-tree keys and viable count; and
    the hash and SCT fields and typed keys of every live indexed node.
    Two databases with the same content have the same digest whatever
    their copy history — marshalled bytes would differ with owner
    tokens. The crash, replication and
    concurrency sweeps compare states with it. *)

val store : t -> Xvi_xml.Store.t

val config : t -> Config.t
(** The configuration the database was built with; {!compact} reuses
    it. *)

val string_index : t -> String_index.t

val typed_index : t -> string -> Typed_index.t option
(** By type name, e.g. ["xs:double"]. *)

val typed_indices : t -> Typed_index.t list
val substring_index : t -> Substring_index.t option

val name_index : t -> Name_index.t
(** The structural element-name index; always built. *)

val plane : t -> Xvi_xml.Pre_plane.t
(** The pre/size/level snapshot of the current structure (MonetDB's
    range encoding). Built lazily, cached, and invalidated by
    structural updates; value updates keep it valid. *)

val elements_named : t -> string -> node list
(** Live elements with this tag, via {!Name_index}. *)

(** {1 Queries}

    The compositional entry points: hand the planner any {!Ir} term.
    Conjunctions are reordered cheapest-estimate-first and intersected
    by streaming leapfrog merges, disjunctions are k-way ordered merge
    unions, [Within] runs as a staircase-join filter on the cheapest
    cursor, and predicates no index serves fall back to a verified
    scan. *)

val query : t -> Ir.t -> node list
(** All matching nodes, in document order. *)

val query_seq : t -> Ir.t -> node Seq.t
(** Lazy execution in ascending {e node-id} order (the cursors' merge
    order, which is document order until structural inserts diverge the
    two); each [Seq] step pulls the underlying cursors once. *)

val query_ids : t -> Ir.t -> node list
(** Plan-output order without the final document-order sort: the
    index's native order for single-index plans (e.g. value order for a
    typed range), ascending node-id order otherwise. The cheapest way
    to consume hits whose order does not matter. *)

val estimate : t -> Ir.t -> int
(** The planner's cardinality estimate (an upper bound from index
    statistics; {e not} an execution). *)

val explain : t -> Ir.t -> string
(** The plan as an indented tree: per-node access paths with their
    estimates, intersections in execution (cheapest-first) order,
    staircase filters, residual verification, scan fallbacks. *)

(** {1 Lookups}

    The pre-IR lookup family; each is a one-line IR compile + plan and
    returns exactly what it always has. *)

val lookup_string : t -> string -> node list
(** All nodes (element, attribute or text) whose XDM string value equals
    the argument — e.g. the paper's
    [//*\[fn:data(name) = "ArthurDent"\]] support. *)

val lookup_double : t -> Range.t -> node list
(** Range lookup on the [xs:double] index, e.g.
    [lookup_double db (Range.between 10. 20.)]. Total even without the
    double index — see {!lookup_typed}. *)

val lookup_typed : t -> string -> Range.t -> node list
(** Range lookup on a typed index by type name, in (value, node) order.
    Without the index configured this still answers — the planner falls
    back to a verified document scan (DFA acceptance + parse per node),
    which is O(document), orders of magnitude above the indexed path;
    configure the index for anything hot.
    @raise Invalid_argument on a type name unknown to
    {!Lexical_types.all}. *)

val lookup_contains : t -> string -> node list
(** Text/attribute nodes whose value contains the pattern. Served by
    the substring index when built; otherwise the planner's verified
    scan answers — correct but O(document), the same cost cliff as
    {!lookup_typed}. *)

val lookup_element_contains : t -> string -> node list
(** Elements/document nodes whose XDM string value contains the
    pattern (boundary-spanning matches included). Same scan-fallback
    cost cliff as {!lookup_contains} when the substring index is not
    built. *)

(** {2 Scoped lookups}

    Value-index hits restricted to a subtree through a staircase-join
    filter on the pre/size/level plane — no tree walking, no list
    intersection. A scope that is tombstoned (or otherwise unknown to
    the current plane snapshot) covers nothing: the result is []. *)

val lookup_string_within : t -> scope:node -> string -> node list
(** Nodes in the subtree rooted at [scope] (inclusive) whose string
    value equals the argument, in document order. *)

val lookup_double_within : t -> scope:node -> Range.t -> node list

(** {2 Result-typed reads}

    The lookup family above is total except for one escape hatch: an
    unknown type name raises [Invalid_argument] out of {!lookup_typed} /
    {!query}. Boundaries that must never raise — {!Xvi_serve.Engine},
    the wire protocol — use these variants, which return the same
    answers with that failure as a value. *)

type read_error = [ `Unknown_type of string ]

val read_error_to_string : read_error -> string

val query_r : t -> Ir.t -> (node list, read_error) result
(** {!query} with unknown type names surfaced as [Error] instead of an
    exception. *)

val lookup_typed_r : t -> string -> Range.t -> (node list, read_error) result
(** {!lookup_typed}, total. *)

(** {1 Updates}

    Each operation mutates the store {e and} maintains every index. *)

val update_text : t -> node -> string -> unit
val update_texts : t -> (node * string) list -> unit

val delete_subtree : t -> node -> unit

val insert_xml :
  t -> parent:node -> string -> (node list, Xvi_xml.Parser.error) result
(** Parse an XML fragment and insert it as the last children of
    [parent]. *)

val compact : t -> t * (node -> node option)
(** Vacuum tombstones: a fresh database over a compacted store (dense
    ids in document order), all indices rebuilt with the original
    {!config}, plus the old-to-new id mapping. The original database is
    unchanged. *)

(** {1 Accounting and validation} *)

val index_storage_bytes : t -> int
(** All indices together. *)

val validate : t -> (unit, string) result
(** Every index equals a from-scratch rebuild. *)
