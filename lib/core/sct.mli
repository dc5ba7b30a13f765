(** Node states and the State Combination Table (paper Section 4,
    Figures 5–6), derived generically from a type's lexical DFA.

    The paper hand-normalises its double FSM "in such a way that these
    paths lead to different copies of the same state" so that a state
    combination table exists. The clean mathematical object behind that
    construction is the {e transition monoid} of the DFA: map every
    string [v] to the function [f_v : state -> state] it induces; then

    - [f_v] determines everything the index needs about [v]: whether [v]
      is a complete lexical value ([f_v start] is final), whether it is a
      {e potential} value — a factor of the language that could become
      complete with left/right context from siblings ([f_v] sends some
      reachable state to a co-accessible one) — or must be rejected;
    - concatenation is function composition: [f_(uv) = f_u ; f_v], so the
      SCT is just the (finite) composition table of the monoid.

    All non-viable functions are collapsed into a single absorbing
    {!reject} element (non-viability cannot be cured by more context, in
    either direction), which is the paper's "absence of a state
    signifies the reject state". The monoid for the paper's double
    machine has the same order of magnitude as the paper's 60 states.

    Elements are dense small integers, so a node state fits the paper's
    one byte and the SCT is a flat array probe — the paper's
    "probing an array vs. invoking a function" creation-time argument. *)

type t

val of_dfa : ?max_elements:int -> Dfa.t -> t
(** Enumerate the transition monoid (breadth-first over generator
    composition, shortest witness first) and tabulate composition.
    [max_elements] (default 4096) bounds the enumeration.
    @raise Failure if the monoid is larger — the type's DFA is then
    unsuitable for SCT-based indexing. *)

val dfa : t -> Dfa.t

val size : t -> int
(** Number of elements, including {!reject}. *)

val identity : t -> int
(** The state of the empty string — the initial "field" of every node in
    the creation algorithm (Figure 7, line 02). *)

val reject : t -> int
(** The absorbing reject element (id 0). *)

val of_string : t -> string -> int
(** The element of a text value; runs all DFA copies in parallel with an
    early exit to {!reject} (the common case on prose text — the paper's
    "majority of all text nodes ... will be rejected immediately"). *)

val of_substring : t -> string -> int -> int -> int
(** [of_substring t s off len] is [of_string t (String.sub s off len)],
    without the copy. *)

val compose : t -> int -> int -> int
(** The SCT probe: [compose t (of_string t u) (of_string t v) =
    of_string t (u ^ v)]. O(1). *)

val is_viable : t -> int -> bool
(** [false] exactly for {!reject}. *)

val is_accepting : t -> int -> bool
(** Whether a standalone string with this state is a complete lexical
    value of the type. *)

val dfa_state : t -> int -> int
(** The classic FSM state [δ(start, v)] of an element; the DFA sink for
    {!reject}. Connects the monoid view back to the paper's Figure 5. *)

val witness : t -> int -> string
(** Shortest string inducing this element (["<reject>"] for {!reject}).
    The paper uses such canonical fragments to reconstruct lexical
    representations; see DESIGN.md for why we keep actual fragments. *)

val state_bytes : t -> int
(** Per-node state width: 1 byte when {!size} <= 256 (as in the paper),
    else 2. Used by the storage-accounting experiments. *)

val table_bytes : t -> int
(** Memory of the composition table, for storage accounting. *)
