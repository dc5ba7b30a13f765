(** The shared index creation and maintenance skeleton
    (paper Section 5, Figures 7 and 8).

    Both the string equality index and the typed range indices maintain
    one {e field} per node — a 32-bit hash value or a one-byte SCT state
    — with the same structure: a text node's field comes from its value
    ([H] / the FSM), and an element node's field is the ordered
    combination of its children's fields ([C] / the SCT probe). The
    algorithms below are generic over that structure, so "creating and
    updating multiple defined indices can be done simultaneously"
    (paper Section 5).

    The combination structure must be a monoid: [combine] associative
    with [identity] as unit. The field of a node with no text
    descendants (e.g. the paper's [<years/>]) is [identity] —
    consistently, [identity = of_text ""]. *)

type 'f ops = {
  field_name : string;  (** for diagnostics, e.g. ["hash"] *)
  of_text : string -> 'f;  (** [H] or the FSM run *)
  of_sub : string -> int -> int -> 'f;
      (** [of_sub s off len = of_text (String.sub s off len)] *)
  combine : 'f -> 'f -> 'f;  (** [C] or the SCT probe *)
  identity : 'f;
  equal : 'f -> 'f -> bool;
  to_int : 'f -> int;
  of_int : int -> 'f;
      (** every field kind is an int underneath; the column stores that
          int ([of_int (to_int f) = f]) *)
  absorbing : 'f option;
      (** an element [z] with [combine z x = z = combine x z] for every
          [x] (the SCT's reject), if there is one: a fold that reaches it
          stops *)
  inverse : ('f -> 'f) option;
      (** the group inverse, if [combine] has one (the hash): a parent
          with one changed child is then updated by a delta instead of
          a re-fold *)
}

val hash_ops : Hash.t ops
(** The string-index instance. *)

val sct_ops : Sct.t -> int ops
(** The typed-index instance for a given state combination table. *)

type 'f fields
(** Per-node field storage, indexed by node id, growable: an off-heap
    copy-on-write int column ({!Xvi_util.Bigvec.Int}). *)

val snapshot : 'f fields -> 'f fields
(** O(directories) logical copy; both sides clone a shared page on
    their next write to it. *)

val get : 'f fields -> Xvi_xml.Store.node -> 'f
(** Nodes never assigned (e.g. childless elements) read as the
    identity, which is exactly their correct field. *)

val set : 'f fields -> Xvi_xml.Store.node -> 'f -> unit
(** Assign one node's field, growing the storage with identity holes as
    needed — the write primitive of every builder below. *)

type packed = Packed : 'f ops * 'f fields -> packed
(** One index's field computation, with its type hidden, so machines of
    different field types can share a pass. *)

val empty_fields : 'f ops -> 'f fields
(** Fresh, empty storage, for {!fill}. *)

val fill : ?from:Xvi_xml.Store.node -> Xvi_xml.Store.t -> packed list -> unit
(** The one index-creation pass (paper Section 5: "creating ... multiple
    defined indices can be done simultaneously with only one pass").
    Fills every packed field store with the field of every live node
    whose id is at least [from] (default [0], the whole store), in one
    pass in descending id order: each text is read once and fed to
    every machine, and each element folds its children's finished
    fields. It relies on every child's id being above its parent's (see
    {!Xvi_xml.Store.append_element}), so a node's children are done
    before it — the order Figure 7's stack walk establishes over
    MonetDB's child-less pre/size/level table. The fields equal
    {!create_reference} node for node. *)

val create : 'f ops -> Xvi_xml.Store.t -> 'f fields
(** One index's fields: {!fill} with a single machine. *)

val compute_subtree :
  'f ops -> Xvi_xml.Store.t -> 'f fields -> Xvi_xml.Store.node -> unit
(** Fields for a freshly inserted fragment: {!fill} from [root], its
    first top-level node. A fragment's nodes are appended after every
    existing id, so the pass covers exactly them. Does not touch
    ancestors — pass the fragment's parent as [structural] to
    {!update}. *)

val create_reference : 'f ops -> Xvi_xml.Store.t -> 'f fields
(** The obviously-correct recursive definition
    ([field n = fold combine (children n)]), used by tests to validate
    {!fill} and {!update}. *)

type 'f change = {
  node : Xvi_xml.Store.node;
  old_field : 'f;
  new_field : 'f;
  level : int;  (** depth of [node]; changes are reported deepest first *)
}

type 'f update_result = {
  changes : 'f change list;
      (** nodes whose field actually changed, deepest first — drives
          posting-list repair *)
  touched : (Xvi_xml.Store.node * int) list;
      (** every frontier node with its level, deepest first, except
          those whose field is the absorbing element both before and
          after the write. A field can be unchanged while the underlying
          value changed (e.g. replacing the digits ["78"] by ["80"]
          preserves the SCT state), so typed indices must re-extract
          values across the whole touched set; a node that stays reject
          has no value to re-extract. *)
}

type frontier
(** The dirty frontier of one write set (Figure 8): the written text and
    attribute nodes, the structural parents, and every ancestor above
    them, each with its level and the slot of its parent, deepest first.
    It depends only on the tree's shape, so one frontier serves the
    string index and every typed index of a write set. *)

val frontier :
  Xvi_xml.Store.t ->
  texts:Xvi_xml.Store.node list ->
  ?structural:Xvi_xml.Store.node list ->
  unit ->
  frontier
(** [texts] are text or attribute nodes whose value changed — their
    fields are recomputed from their new content; [structural] are
    elements whose child list changed (subtree deleted or inserted
    beneath them). Attribute values do not contribute to their element's
    string value, so an attribute write adds no ancestor.
    @raise Invalid_argument if a [texts] node is neither text nor
    attribute. *)

val maintain : 'f ops -> Xvi_xml.Store.t -> 'f fields -> frontier -> 'f update_result
(** Figure 8 over a frontier: every affected ancestor is recombined
    {e from its immediate children's fields}, bottom-up — the paper's
    key point: no string data outside the updated nodes is ever re-read.
    Only what can change is visited:
    - an ancestor none of whose children changed its field keeps its
      field and is not recombined (change cutoff);
    - a fold stops once it reaches the absorbing element;
    - with an inverse, an ancestor with exactly one changed child walks
      the siblings outward from that child until either end, and
      finishes with the group delta;
    - structural parents, and ancestors with several changed children,
      re-fold. *)

val update :
  'f ops ->
  Xvi_xml.Store.t ->
  'f fields ->
  texts:Xvi_xml.Store.node list ->
  ?structural:Xvi_xml.Store.node list ->
  unit ->
  'f update_result
(** [maintain] over the frontier of [texts] and [structural], for one
    index on its own. *)
