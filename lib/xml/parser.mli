(** Non-validating XML 1.0 shredder.

    Appends the events of the {!Sax} lexer to a {!Store.t} in one pass,
    with no intermediate tree — the analogue of MonetDB/XQuery's
    document shredder, and the "shred time" baseline of the Figure 9
    experiments.  Comments and PIs before the root element are stored
    under the document node, those after it are dropped, and CDATA
    sections are stored as text.  {!Sax} documents the accepted
    syntax. *)

type error = Sax.error = { line : int; col : int; offset : int; message : string }
(** [line]/[col] are 1-based; [offset] is the 0-based absolute byte
    offset of the failure position in the input. *)

val error_to_string : error -> string
(** ["LINE:COL: MESSAGE"] — the byte offset is available on the record
    for callers that want it (seeking in a stream, editor spans). *)

val parse : ?strip_ws:bool -> string -> (Store.t, error) result
(** [parse s] shreds document [s] into a fresh store. [strip_ws]
    (default [true]) drops whitespace-only text nodes — boundary
    whitespace stripping, the common XML-database shredding default; set
    it to [false] to keep mixed-content whitespace exactly. *)

type shredder
(** The one shredder: appends a document's {!Sax} events to a store. *)

val shredder : Store.t -> shredder
(** A shredder that appends under the document node of the given store
    (normally fresh from {!Store.create}). *)

val shred : shredder -> Sax.event -> unit
(** Append the node the event starts or carries as the last child of the
    innermost open element. Comments and PIs before the root element go
    under the document node; every event after the root element closed
    is dropped. Feed it a well-formed event stream: the caller stops on
    a {!Sax} error. {!parse} is [shred] over a whole string; streaming
    ingest drives it one event at a time. *)

val parse_exn : ?strip_ws:bool -> string -> Store.t
(** @raise Failure on ill-formed input. *)

val parse_fragment :
  ?strip_ws:bool -> Store.t -> parent:Store.node -> string ->
  (Store.node list, error) result
(** [parse_fragment store ~parent s] parses a sequence of nodes (no
    single-root requirement) and appends them as children of [parent];
    returns the new top-level node ids. Used for subtree insertion.
    [Error] (at 1:1) when [parent] is out of range or is not a live
    element or the document; otherwise the whole fragment is lexed
    before the store is touched. On [Error] the store is unchanged. *)
