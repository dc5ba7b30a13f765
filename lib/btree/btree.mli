(** In-memory B+tree.

    This is the index substrate of the reproduction: the paper builds its
    value indices as (clustered) B-trees inside MonetDB/XQuery. Keys live
    in the leaves; internal nodes hold separator keys. Duplicate logical
    keys are supported by composing the key with a discriminator (e.g.
    [(hash, node_id)]), which is how the string index stores its posting
    lists.

    Trees are copy-on-write: {!S.snapshot} is O(1), and afterwards each
    side copies a root-to-leaf path the first time it writes below a
    shared node (path copying), so an epoch published to readers costs
    nothing until the writer touches it, and then only the paths it
    touches. Range scans walk a root-to-leaf stack rather than a leaf
    chain, which path copying could not keep intact.

    The implementation favours clarity and testability: every structural
    invariant is checkable with {!S.check_invariants}, and the test suite
    model-checks the tree against [Stdlib.Map] under random workloads. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int

  val to_string : t -> string
  (** For diagnostics and invariant-violation messages only. *)

  val size_bytes : t -> int
  (** Bytes charged for this key by {!S.memory_bytes}. Per-key (not a
      flat constant) so variable-width keys — encoded byte strings —
      report their actual length. *)
end

module type S = sig
  type key
  type 'a t

  val create : ?order:int -> unit -> 'a t
  (** [create ~order ()] makes an empty tree. [order] is the maximum
      number of keys per node (default 32, minimum 4). *)

  val of_sorted_array : ?order:int -> (key * 'a) array -> 'a t
  (** Bulk load from a strictly ascending array — how index creation
      populates the tree after the single document pass (orders of
      magnitude cheaper than repeated {!insert}).
      @raise Invalid_argument if keys are not strictly ascending. *)

  val of_sorted_seq : ?order:int -> len:int -> (unit -> key * 'a) -> 'a t
  (** Bulk load from a generator of exactly [len] strictly ascending
      pairs, without materializing them: the streaming ingest path
      feeds a merge cursor straight into the leaf level. Produces a
      tree identical to {!of_sorted_array} on the same sequence.
      @raise Invalid_argument as soon as ascent is violated (the
      generator may have been consumed partway). *)

  val snapshot : 'a t -> 'a t
  (** O(1) logically independent copy. Both the result and [t] get
      fresh owner tokens, so neither owns a node the other can reach;
      a write on either side path-copies before it mutates. One side
      may be written while the other is read from another domain. *)

  val length : 'a t -> int
  (** Number of bindings, O(1). *)

  val is_empty : 'a t -> bool

  val find : 'a t -> key -> 'a option
  (** Point lookup. *)

  val mem : 'a t -> key -> bool

  val insert : 'a t -> key -> 'a -> unit
  (** [insert t k v] binds [k] to [v], replacing any previous binding. *)

  val remove : 'a t -> key -> bool
  (** [remove t k] deletes the binding for [k]; returns whether a binding
      existed. The tree rebalances by borrowing or merging. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  (** In ascending key order. *)

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** In ascending key order. *)

  val iter_range : ?lo:key -> ?hi:key -> (key -> 'a -> unit) -> 'a t -> unit
  (** [iter_range ~lo ~hi f t] applies [f] to bindings with
      [lo <= k <= hi] (bounds inclusive; omitted bound = unbounded), in
      ascending order. *)

  val iter_raw : ?lo:key -> ?hi:key -> (key array -> int -> int -> unit) -> 'a t -> unit
  (** [iter_raw f t] walks the same range as {!iter_range} but hands
      [f] each run of in-range key slots [(keys, off, len)] directly
      from the leaf storage — one call per leaf on full leaves, no
      per-key closure dispatch, no value access. Hot scans use it to
      decode byte keys inline. The array is live tree storage: [f]
      must neither mutate it nor retain it past the call. *)

  val range : ?lo:key -> ?hi:key -> 'a t -> (key * 'a) list
  (** [iter_range] collected into a list. *)

  val to_seq_range : ?lo:key -> ?hi:key -> 'a t -> (key * 'a) Seq.t
  (** [iter_range] as an on-demand sequence — the substrate of the
      index posting cursors: consumers pull one binding at a time
      instead of materializing the range. The sequence reads the live
      tree; do not mutate the tree while consuming it (a {!snapshot}
      taken first may be mutated freely). *)

  val count_range : ?lo:key -> ?hi:key -> 'a t -> int
  (** Number of bindings in the (inclusive) range, without building a
      list — the planner's cardinality estimator. O(log n + k). *)

  val min_binding : 'a t -> (key * 'a) option
  val max_binding : 'a t -> (key * 'a) option

  val height : 'a t -> int
  (** Leaf depth; 0 for the empty tree. *)

  val node_count : 'a t -> int
  (** Total number of tree nodes (for storage accounting). *)

  val memory_bytes : value_bytes:int -> 'a t -> int
  (** Approximate heap footprint assuming [value_bytes] per stored value
      and {!ORDERED.size_bytes} per occupied key, plus one word per slot
      of fill-factor slack (as a disk-resident index would charge).
      Used by the Figure 9 storage experiment. *)

  val check_invariants : 'a t -> (unit, string) result
  (** Verifies: key ordering within and across nodes, separator
      correctness, occupancy bounds, uniform leaf depth, that the scan
      stack visits exactly the in-order leaves, and the cached
      length. *)
end

module Make (K : ORDERED) : S with type key = K.t

(** Ready-made key modules for the indices. *)

module Int_key : ORDERED with type t = int

module Int_pair_key : ORDERED with type t = int * int
(** Lexicographic; used for [(hash, node_id)] composite keys. *)

module Float_pair_key : ORDERED with type t = float * int
(** Lexicographic; used for [(double value, node_id)] composite keys.
    Total order with NaN sorted after all numbers. *)

module String_key : ORDERED with type t = string

module Bytes_key : ORDERED with type t = string
(** Order-preserving encoded byte strings (see {!Encoding}): comparison
    is plain [String.compare], i.e. flat memcmp, and [size_bytes] is the
    actual encoded length. *)

module Bytes : S with type key = string
(** The byte-key B+tree: [Make (Bytes_key)]. Callers build keys with
    {!Encoding} so that byte order equals logical order. *)
