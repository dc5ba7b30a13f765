(** The XML Schema type machines backing the typed range indices.

    Each supported type is described by the DFA of its complete lexical
    representation (leading/trailing whitespace allowed, as XQuery
    casting strips it); {!Sct} derives the factor semantics and the
    state combination table. A [parse] function maps a {e complete}
    lexical form to a float key whose order agrees with the type's value
    order, so one B+tree implementation serves every type — mirroring
    the paper's remark that "an index on xs:double can be used to
    accelerate predicates on all numerical XQuery types".

    The double machine follows the paper's Figure 5: optional sign,
    digits with an optional fraction (a bare trailing or leading dot is
    a valid {e potential} fragment: the paper's ["."] under [<weight>]),
    and an optional exponent. The special values INF/-INF/NaN are not in
    Figure 5 and are likewise omitted here. *)

type spec = private {
  type_name : string;  (** e.g. ["xs:double"] *)
  sct : Sct.t;
  parse : string -> float option;
      (** Order-preserving key of a complete lexical form. Returns
          [None] only on values the DFA does not accept. *)
}

val double : unit -> spec
val integer : unit -> spec
val boolean : unit -> spec

val datetime : unit -> spec
(** [xs:dateTime] — [YYYY-MM-DDThh:mm:ss(.s+)?(Z|±hh:mm)?]; the key is
    seconds since the proleptic-Gregorian epoch, timezone applied. *)

val decimal : unit -> spec
(** [xs:decimal] — like double without the exponent part. *)

val date : unit -> spec
(** [xs:date] — [YYYY-MM-DD(Z|±hh:mm)?]; the key is the starting
    instant of the day, per XML Schema's order for dates. *)

val time : unit -> spec
(** [xs:time] — [hh:mm:ss(.s+)?(Z|±hh:mm)?]; the key is seconds from
    midnight, timezone applied. *)

val all : unit -> spec list
(** All seven specs. Memoized, like each individual accessor —
    deriving an SCT is not free. [spec] is private, so every spec is
    one of these seven and is named by its [type_name]. *)

val of_name : string -> spec option
(** The spec whose [type_name] this is, e.g. ["xs:double"]; derives
    only that spec's SCT. *)

val days_from_civil : year:int -> month:int -> day:int -> int
(** Days since 1970-01-01 in the proleptic Gregorian calendar (Howard
    Hinnant's algorithm). Exposed for tests. *)
