(** Streaming pull lexer for non-validating XML 1.0: the one lexer of
    the tree.

    [Sax] turns an incremental byte source into a sequence of events.
    {!Parser} appends those events to a {!Store.t}; [Xvi_ingest] feeds
    them to the one-pass index builder, so large inputs shred with a
    working set bounded by the element depth, not the document size.
    Entity resolution, whitespace stripping, CDATA handling, prolog and
    trailing-misc treatment and error positions are defined here once.

    Supported: elements, attributes (single- or double-quoted),
    character data, the five predefined entities, decimal and
    hexadecimal character references, CDATA sections, comments,
    processing instructions, an XML declaration, and a DOCTYPE
    declaration (skipped, including an internal subset).  Namespaces
    are not resolved; qualified names are opaque strings.

    Chunk boundaries are invisible: the same bytes split any way at
    all produce the same event sequence and the same errors. *)

type error = { line : int; col : int; offset : int; message : string }
(** [line]/[col] are 1-based; [offset] is the 0-based absolute byte
    offset of the failure position in the input. *)

val error_to_string : error -> string
(** ["LINE:COL: MESSAGE"] — the byte offset is available on the record
    for callers that want it (seeking in a stream, editor spans). *)

type source = unit -> bytes option
(** A pull source: [Some chunk] of fresh bytes, or [None] at end of
    input.  Empty chunks are allowed and skipped.  The lexer copies what
    it needs before pulling again, so the source may reuse one buffer
    for every chunk. *)

type position = { line : int; col : int; offset : int }
(** 1-based line/column and 0-based absolute byte offset of the first
    byte of the event's token ('<' of a tag, first character of a text
    run). *)

type event =
  | Start_element of { name : string; attrs : (string * string) list }
      (** Attributes in source order, entity references resolved.  A
          self-closing tag emits [Start_element] immediately followed
          by [End_element]. *)
  | End_element of string  (** Tag name, matched against the start tag. *)
  | Text of string
      (** Character data with entities resolved.  Whitespace-only runs
          are dropped under [~strip_ws:true]; a run containing any
          entity reference is kept even if it resolves to whitespace. *)
  | Cdata of string
      (** A non-empty CDATA section.  Reported separately from [Text]
          (never merged with adjacent character data); {!Parser} stores
          it as a text node. *)
  | Comment of string
  | Pi of { target : string; body : string }
      (** Processing instruction.  The leading XML declaration is
          consumed and not reported.  Prolog and trailing-misc
          comments/PIs {e are} reported; the consumer decides their
          fate ({!Parser} stores prolog misc under the document node
          and drops trailing misc). *)

type t

val make : ?strip_ws:bool -> source -> t
(** [make source] lexes a document: prolog, one root element, trailing
    misc.  [strip_ws] (default [true]) drops whitespace-only text. *)

val fragment : ?strip_ws:bool -> source -> t
(** [fragment source] lexes a node sequence for subtree insertion: no
    prolog and no single-root requirement.  Text, comments, PIs and
    elements may appear at the top level; end of input there is a
    clean end, and a top-level end tag is the error "unexpected
    end-tag in fragment" at its '<'. *)

val next : t -> ((event * position) option, error) result
(** Pull the next event.  [Ok None] is clean end of input (for a
    document, only after the root element closed and any trailing misc
    was consumed).  After an [Error] the lexer is stuck: subsequent
    calls return the same error. *)

val iter : t -> (event -> unit) -> (unit, error) result
(** [iter t f] pulls every remaining event into [f], in order.  Unlike
    {!next} it allocates no position, option or result per event, which
    is what a consumer that does not need positions wants.  [Ok ()] at
    clean end of input; an [Error] is reported, and sticks, as with
    {!next}. *)

val consumed : t -> int
(** Absolute count of source bytes fully tokenized so far.  At every
    event boundary this is an exact cut point: feeding the first
    [consumed t] bytes followed by the rest of the input (through any
    chunking) reproduces the remaining event stream. *)

val depth : t -> int
(** Number of currently open elements. *)

val of_string : string -> source
(** The string in chunks of at most 64 KiB, copied through one reused
    buffer. *)

val of_channel : ?chunk_size:int -> in_channel -> source
(** Read [chunk_size] (default 64 KiB) bytes at a time. *)
