(** A small XPath subset with index-accelerated evaluation.

    Covers the query shapes the paper uses to motivate its indices:

    {[
      //person[.//age = 42]
      //person[first/text() = "Arthur"]
      //*[fn:data(name) = "ArthurDent"]
      //item[price >= 40 and price < 60]
      /site/people/person/@id
    ]}

    Grammar (abbreviated syntax only):

    - paths: [/step/step…], [//step…], steps separated by [/] or [//]
    - steps: name test ([person]), wildcard ([*]), [text()], [node()],
      attribute ([@id], [@*]), self ([.]), descendant-or-self via [//]
    - predicates: [\[path\]] (existence), [\[path op literal\]] with
      [op] one of [= != < <= > >=]; string literals in single or double
      quotes, numeric literals as doubles; [fn:data(path)] is the XDM
      string value of the path's nodes (general comparison: the
      predicate holds if {e some} node matches, per XQuery semantics);
      [contains(path, "lit")] substring containment (answered by the
      q-gram index when the {!Xvi_core.Db} was built with
      [~substring:true]); [and] / [or] combinations.

    Two evaluators are provided: a naive tree-walking one (the
    correctness baseline) and one that consults a {!Xvi_core.Db}'s value
    indices for comparison predicates — string equality via the hash
    index, numeric comparisons via the double index — mirroring how
    MonetDB/XQuery would use the paper's indices. Both return the same
    node sets; tests enforce it. *)

type t
(** A parsed expression. *)

type error = { pos : int; message : string }

val parse : string -> (t, error) result
val parse_exn : string -> t
val to_string : t -> string
(** Round-trippable rendering of the parsed expression. *)

val eval : Xvi_xml.Store.t -> t -> Xvi_xml.Store.node list
(** Naive evaluation against the whole document, in document order. *)

val eval_indexed : Xvi_core.Db.t -> t -> Xvi_xml.Store.node list
(** Index-accelerated evaluation; same result, in document order.
    Comparison predicates are compiled into the query layer's predicate
    IR ({!Xvi_core.Db.Ir}); the cheapest conjunct by planner estimate is
    executed as the candidate generator and its hits mapped back through
    ancestor checks instead of walking every subtree. *)

val compile_candidates :
  Xvi_core.Db.t -> t -> (string * Xvi_core.Db.Ir.t) list
(** The indexable top-level conjuncts of the expression's final-step
    predicate, compiled into predicate-IR terms and labeled with their
    source text. Empty when the ancestor-driven fast path does not apply
    (non-downward steps, predicates on interior steps, or no indexable
    conjunct). {!eval_indexed} runs the cheapest of these — by
    {!Xvi_core.Db.estimate} — as its candidate generator and verifies
    the remaining conjuncts per candidate; conjuncts are never
    intersected with each other, because distinct conjuncts may be
    satisfied by distinct operand nodes. [xvi query --explain] prints
    this table with the planner's plan for the chosen driver. *)

type plan = {
  used_string_index : int;
  used_double_index : int;
  used_name_index : int;
}
(** How many predicates one indexed evaluation answered from each
    index — exposed for the examples and for tests that assert
    acceleration actually happened. *)

val eval_with_plan : Xvi_core.Db.t -> t -> Xvi_xml.Store.node list * plan
(** {!eval_indexed}, also returning that evaluation's plan counters. *)
