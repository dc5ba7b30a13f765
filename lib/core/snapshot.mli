(** Binary snapshots of an indexed database.

    Shredding and index creation dominate start-up time; a snapshot
    saves the store and every index in one file so a later process can
    reopen them directly — the role MonetDB's persistent BATs play for
    the paper's indices.

    Format (v5): a magic line carrying the format version, a table of
    sections (tag, byte length and MD5 of each), then the sections back
    to back — the configuration (with the checkpoint LSN), the columnar
    store, the string index and one section per typed index — each in
    an explicit, closure-free encoding of LEB128 varints, zigzag link
    deltas and raw text. Type machines are stored by name and rebuilt
    from {!Lexical_types}, so {e any} build reads a v5 file, whichever
    build wrote it; the substring and name indices are rebuilt from the
    store on load.

    {!load} is total: truncation, trailing bytes and byte flips fail the
    framing or a section digest, and every decoder also checks its
    input (varint overflow, links outside the node range, unknown kinds,
    name ids past the pool, text outside the arena, a node count above
    {!Xvi_xml.Store.max_nodes}, keys out of order, invalid SCT states),
    and the index sections are verified against the store they index.
    Any damaged file yields an [Error], never an exception; a result
    is always a database equal to a rebuild of its store.

    The LSN turns a snapshot into a {e checkpoint} for the durability
    layer ({!Xvi_wal}): recovery replays only the log records committed
    after it. A snapshot saved outside the durable path carries LSN 0
    (everything in any log is newer). *)

val save : ?lsn:int -> Db.t -> string -> unit
(** [save ?lsn db path] writes a snapshot atomically and durably: the
    bytes go to a temp file which is [fsync]ed before the rename into
    place, and the directory is synced after it — a crash at any point
    leaves either the old file or the new one, never a torn mix. Each
    section streams through one reused 64 KiB buffer, so saving needs
    no memory proportional to the database. [lsn] (default [0], never
    negative) is the log position this snapshot covers. The output is
    a function of the database's logical state: equal databases save to
    equal bytes. *)

type error =
  | Not_a_snapshot  (** bad magic — the file is something else *)
  | Unsupported_version of int
      (** a snapshot in another format version (v4 and earlier were
          tied to the binary that wrote them and cannot be read) *)
  | Corrupted of string
      (** framing, digest or decoding check failed — the file started
          as a snapshot but its bytes were damaged *)
  | Io_error of string

val error_to_string : error -> string

val load : ?config:Db.Config.t -> string -> (Db.t, error) result
(** Read a snapshot back. Without [config] the database is returned as
    saved, its indices read rather than rebuilt. With [config] the
    loaded {e store} is kept but every index is rebuilt under the new
    configuration — the way to reopen a snapshot with different types,
    with the substring index, or with a parallel ([jobs > 1])
    rebuild. *)

val load_with_lsn :
  ?config:Db.Config.t -> string -> (Db.t * int, error) result
(** Like {!load}, also returning the checkpoint LSN recorded at
    {!save} time. The durable open path starts its log replay there. *)

val load_exn : ?config:Db.Config.t -> string -> Db.t
(** @raise Failure on any {!error}. *)

val is_snapshot : string -> bool
(** Cheap magic check, for CLIs that accept either XML or snapshots.
    True for every format version, so an old file is reported as
    {!Unsupported_version} rather than parsed as XML. *)

val header_bytes : Db.t -> int
(** Bytes of framing (magic line and section table) at the head of
    [db]'s snapshot — the region a fault sweep flips exhaustively. *)
