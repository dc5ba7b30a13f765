(** Element-name index.

    Not one of the paper's value indices, but the structural companion
    its host system provides: MonetDB/XQuery resolves a name test from
    its tag column without touching the tree. The query layer uses it to
    seed [//person[...]]-style context selection, so value predicates
    (answered by the paper's indices) never force a document scan.

    Postings live in a copy-on-write B+tree keyed by (name, element), so
    {!snapshot} is O(1) and an insert published later never shows
    through an earlier epoch. Deletion is handled lazily: tombstoned
    nodes are filtered out at lookup time, so subtree deletion costs the
    index nothing. *)

type t

type node = Xvi_xml.Store.node

val create : Xvi_xml.Store.t -> t

val nodes : t -> Xvi_xml.Store.t -> string -> node list
(** Live elements carrying this tag name, in node-id order. An unknown
    name yields []. *)

val count : t -> Xvi_xml.Store.t -> string -> int
(** [List.length (nodes ...)] without building the list. *)

val cursor : t -> Xvi_xml.Store.t -> string -> unit -> node option
(** Lazy cursor over the live elements of this tag, ascending node
    order, tombstones skipped on pull. Do not insert under this name
    while the cursor is live. *)

val on_insert : t -> Xvi_xml.Store.t -> roots:node list -> unit
(** Register the elements of freshly inserted subtrees. *)

val snapshot : t -> t
(** O(1) logically independent copy (see {!Xvi_btree.Btree.S.snapshot}). *)

val digest : t -> Xvi_xml.Store.t -> string
(** Logical digest of the live postings. *)

val storage_bytes : t -> int

val validate : t -> Xvi_xml.Store.t -> (unit, string) result
(** Lookup results equal a document scan, for every name in the pool. *)
