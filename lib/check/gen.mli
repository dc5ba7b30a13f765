(** Random documents and operation traces for the differential harness.

    Documents mix everything the shredder accepts: nested elements,
    mixed content (the paper's [<age><decades>4</decades>2<years/></age>]
    shape), attributes, numeric / datetime / prose / near-numeric text,
    empty elements, comments and processing instructions.

    Operations are {e self-contained}: a node is designated by an
    integer {e selector} resolved at application time against a
    deterministic enumeration of the eligible live nodes (node-id
    order, modulo the count). A trace [(document, op list)] therefore
    replays bit-identically on any machine, survives shrinking (removing
    an op leaves the rest meaningful), and can be printed as OCaml. *)

type op =
  | Update_text of int * string
      (** selector over live text/attribute nodes, new value *)
  | Update_texts of (int * string) list  (** one batched maintenance pass *)
  | Delete_subtree of int  (** selector over live non-document nodes *)
  | Insert_xml of int * string
      (** selector over live elements + the document node, fragment *)
  | Insert_rejected of int * string
      (** as [Insert_xml], with an ill-formed fragment: the insert must
          fail and leave the database unchanged *)
  | Compact  (** vacuum tombstones; replaces the database *)
  | Snapshot_roundtrip  (** save + load through {!Xvi_core.Snapshot} *)
  | Txn of txn_script
      (** two interleaved transactions on one fresh manager *)

and txn_script = {
  writes_a : (int * string) list;
  writes_b : (int * string) list;
  abort_a : bool;  (** abort [a] instead of committing it *)
  abort_b : bool;
}

val names : string array
(** The element-name pool documents draw from; the runner probes these
    against the name index. *)

val document : Xvi_util.Prng.t -> string
(** A random well-formed document, roughly 20–200 nodes. *)

val fragment : Xvi_util.Prng.t -> string
(** A small well-formed fragment (possibly with a leading/trailing bare
    text run) for {!Xvi_core.Db.insert_xml}. *)

val bad_fragment : Xvi_util.Prng.t -> string
(** A fragment every insert rejects: a well-formed one cut short inside
    its last element, or followed by a stray end tag or an unknown
    entity. *)

val value : Xvi_util.Prng.t -> string
(** A replacement text value: numeric, datetime, prose, near-numeric
    junk, a viable-but-incomplete fragment like ["."], or empty. *)

val op : Xvi_util.Prng.t -> op
(** The next random operation, weighted towards value updates (the
    paper's Figure 8 path). *)

(** A random predicate-IR tree in the same self-contained style as
    {!op}: scopes are integer selectors resolved by the runner against
    the live elements + the document node at check time. Range bounds
    may be open; type names mix the harness-indexed types with known
    types that have no index, forcing the planner's verified-scan
    fallback into the differential. *)
type ir_spec =
  | S_eq of string
  | S_range of string * float option * float option
      (** type name, inclusive lo / hi *)
  | S_contains of string
  | S_el_contains of string
  | S_named of string
  | S_within of int * ir_spec
  | S_and of ir_spec list
  | S_or of ir_spec list
  | S_not of ir_spec

val ir : Xvi_util.Prng.t -> ir_spec
(** A random tree, depth at most 3, leaves as above. *)

val op_to_ocaml : op -> string
(** The op as OCaml constructor syntax, for replayable trace output. *)
