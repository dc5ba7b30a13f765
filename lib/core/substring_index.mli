(** Substring (containment) index — the paper's stated future work
    ("indices capable of answering queries that involve substring
    matching", §7), built in the same self-tuned, updatable style.

    Every text and attribute node's value is indexed under its distinct
    character 3-grams (packed into 24-bit integer keys — no hash
    collisions at all); a containment query intersects the posting lists
    of the pattern's 3-grams, starting from the rarest, and verifies the
    few surviving candidates with a direct substring scan. Patterns
    shorter than 3 characters cannot use the gram index and fall back to
    a document scan.

    Scope note: the index covers the {e own} values of text and
    attribute nodes. A substring of an {e element's} concatenated string
    value can span text-node boundaries; answering those from per-node
    grams is not possible without positional information, so element
    containment is served by checking the element's descendants'
    matches plus a verification step — see {!element_contains}. *)

type t

type node = Xvi_xml.Store.node

val q : int
(** The gram width (3). *)

val create : Xvi_xml.Store.t -> t

val string_contains : pattern:string -> string -> bool
(** The naive substring check used to verify candidates (patterns are
    short) — shared with the query planner's scan fallback so both
    paths agree on the empty-pattern convention (everything matches). *)

val contains : t -> Xvi_xml.Store.t -> string -> node list
(** Text/attribute nodes whose value contains the pattern, in node-id
    order. Exact (candidates are verified). Patterns shorter than
    {!q} are answered by a scan over the indexed nodes. *)

val element_contains : t -> Xvi_xml.Store.t -> string -> node list
(** Elements (and the document node) whose XDM string value contains
    the pattern. Uses {!contains} hits as seeds — any within-node match
    lifts to every ancestor — and additionally verifies boundary-
    spanning matches on the seed nodes' ancestors. Exact but slower
    than {!contains}; degenerates to an ancestor sweep when the pattern
    is shorter than {!q}. *)

(** {1 Streaming access (query planner)} *)

val cursor : t -> Xvi_xml.Store.t -> string -> unit -> node option
(** {!contains} as a posting cursor (ascending node order). The gram
    intersection runs on the first pull — lazy in {e when} the work
    happens, so an enclosing leapfrog merge that exhausts early on
    another input never pays for it. *)

val element_cursor : t -> Xvi_xml.Store.t -> string -> unit -> node option
(** {!element_contains} as a cursor, same laziness contract. *)

val estimate : t -> string -> int
(** Rarest-gram posting-list length — the planner's cardinality
    estimate (an upper bound on {!contains} hits). Patterns shorter
    than {!q} estimate as the whole entry count: they scan. *)

val element_estimate : t -> string -> int
(** {!estimate} scaled by a nominal ancestor-chain depth. *)

(** {1 Maintenance}

    Gram postings depend on the {e old} value (to know which postings to
    drop), so update and delete take [(node, old value)] pairs; {!Db}
    captures them before mutating the store. *)

val update_texts : t -> Xvi_xml.Store.t -> (node * string) list -> unit
(** The store already holds the new values. *)

val on_delete : t -> removed:(node * string) list -> unit
val on_insert : t -> Xvi_xml.Store.t -> roots:node list -> unit

(** {1 Epochs} *)

val snapshot : t -> t
(** O(1) logically independent copy (the posting tree is path-copied on
    the next write to either side). *)

val digest : t -> string
(** Logical digest of the sorted postings. *)

(** {1 Accounting and validation} *)

val entry_count : t -> int
(** Total (gram, node) postings. *)

val storage_bytes : t -> int

val validate : t -> Xvi_xml.Store.t -> (unit, string) result
(** Postings equal a from-scratch recomputation. *)
