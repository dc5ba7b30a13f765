(** The `xvi serve` wire protocol: length-prefixed frames, one line of
    space-separated tokens per frame.

    {2 Framing}

    Each frame is the payload's decimal byte length, a newline, then
    exactly that many payload bytes:

    {v <len-decimal> "\n" <len bytes> v}

    The length is canonical decimal ([0|[1-9][0-9]*], at most
    {!max_frame}); a reader takes no other spelling.

    Frames carry one request or one response. String arguments are
    percent-encoded (uppercase [%XX] for bytes [< 0x21], [%], [=] and
    [0x7F]) so any XML content — spaces, newlines, arbitrary bytes —
    travels as a single token. An empty argument travels as an empty
    token (the separating space is still present), so it round-trips
    too.

    Integers are canonical decimal, exactly as [string_of_int] spells
    them: [0|-?[1-9][0-9]*] within [int]'s range. Decoders reject every
    other spelling ([+5], [007], [-0], [0x10], [1_000], [0b11], [0u5])
    and every out-of-range value, so a decoded value re-encodes to the
    bytes it came from. Float bounds are [%.17g] as the encoder writes
    them, or a plain decimal of at most 17 digits ([0.1]) as a person
    types one.

    {2 Requests}

    {v
    hello                          -> epoch
    pin                            -> epoch        (repin newest epoch)
    lookup-string <v>              -> nodes
    lookup-contains <v>            -> nodes
    lookup-element-contains <v>    -> nodes
    lookup-named <tag>             -> nodes
    lookup-typed <type> <lo> <hi>  -> nodes        (bounds: float or "_")
    value <node>                   -> value        (XDM string value)
    begin                          -> ok
    set <node> <v>                 -> ok           (stage a text write)
    commit                         -> lsn          (durable ack)
    commit-deferred                -> lsn          (applied, not yet fsynced)
    abort                          -> ok
    insert <parent> <fragment>     -> nodes-lsn
    delete <node>                  -> lsn
    stats                          -> stats
    sync                           -> ok
    quit                           -> bye          (close this connection)
    shutdown                       -> bye          (stop the whole server)
    v}

    {2 Replication}

    Followers drive replication entirely through the same
    request/response frames — the stream is a pull loop, so a follower
    at any LSN can resume after either side restarts:

    {v
    repl-info                      -> repl-info    (role and watermarks)
    repl-snapshot <offset>         -> chunk        (bootstrap transfer)
    repl-pull <from-lsn> <max>     -> frames | snapshot-needed
    repl-digest <anchor> <lsn>     -> digest | snapshot-needed
    promote                        -> ok           (follower becomes leader)
    v}

    [frames] carries raw {!Xvi_wal.Wal} frame bytes — already
    length+digest framed, so in-transit corruption is detected by the
    follower exactly as recovery detects torn logs, with no second
    checksum layer. [snapshot-needed] means the leader checkpointed the
    requested records away; only a fresh snapshot can re-seed the
    follower.

    {2 Responses}

    {v
    ok
    epoch <epoch> <lsn> <commits>
    nodes <count> <id>*
    nodes-lsn <lsn> <count> <id>*
    value <v>
    lsn <lsn>
    stats <key>=<value>*
    conflict <node> <reason>
    err <message>
    bye
    v} *)

type request =
  | Hello
  | Pin
  | Lookup_string of string
  | Lookup_contains of string
  | Lookup_element_contains of string
  | Lookup_named of string
  | Lookup_typed of string * float option * float option
  | Value of int
  | Begin
  | Set of int * string
  | Commit
  | Commit_deferred
  | Abort
  | Insert of int * string
  | Delete of int
  | Stats
  | Sync
  | Quit
  | Shutdown
  | Repl_info
  | Repl_snapshot of int  (** byte offset into the snapshot file *)
  | Repl_pull of { from_lsn : int; max_bytes : int }
  | Repl_digest of { anchor : int; lsn : int }
      (** chain digest over the log prefix [anchor..lsn] — see
          {!Digest_r} *)
  | Promote

type response =
  | Ok_
  | Epoch of { epoch : int; lsn : int; commits : int }
  | Nodes of int list
  | Nodes_lsn of int list * int
  | Value_r of string
  | Lsn of int
  | Stats_r of (string * string) list
  | Conflict_r of { node : int; reason : string }
  | Err of string
  | Bye
  | Repl_info_r of {
      role : string;  (** ["leader"] or ["follower"] *)
      last_lsn : int;
      durable_lsn : int;
      checkpoint_lsn : int;
      applied_lsn : int;  (** follower: highest locally applied LSN *)
      leader_lsn : int;  (** follower: last observed leader durable LSN *)
    }
  | Chunk of { total : int; data : string }
      (** one slice of the snapshot file; [total] is its full size *)
  | Frames_r of { durable_lsn : int; data : string }
      (** raw WAL frame bytes (complete committed groups); empty [data]
          means the follower is caught up to [durable_lsn] *)
  | Digest_r of string option
      (** hex digest over the digests of every frame in [anchor..lsn],
          in LSN order; [None] = the leader's log does not span that
          range. A single frame's digest would be unsound for the rejoin
          walkback — a commit record does not commit to the history
          before it, so two diverged logs can carry byte-identical
          commit frames at the same LSN. Equal {e chain} digests attest
          the whole range. *)
  | Snapshot_needed_r of int
      (** records [<= base] were checkpointed away *)

(** {1 Codec} — total in both directions; unparsable input is an
    [Error], never an exception. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val escape : string -> string
val unescape : string -> (string, string) result

(** {1 Framing over a file descriptor} *)

val max_frame : int
(** Refuse frames larger than this (16 MiB) — a malformed length
    prefix must not allocate unbounded memory. *)

val write_frame : Unix.file_descr -> string -> unit
(** Header and payload go out in one buffer, one [write]. May raise
    [Unix.Unix_error] (broken pipe etc.) — the server maps that to
    dropping the connection. *)

val write_response : Unix.file_descr -> response -> unit
(** [write_frame fd (encode_response r)], encoded straight into the
    frame buffer: no intermediate payload string. *)

val read_frame : Unix.file_descr -> (string, [ `Closed | `Malformed of string ]) result
(** [`Closed] on clean EOF before any byte of a frame.

    Never reads a byte past the end of its own frame, so frames sent
    back to back on one descriptor are read one call each. While the
    header is incomplete, its digits so far bound the frame's remaining
    length from below, which makes reading ahead safe: a frame whose
    header and payload have arrived takes 2 [read]s, or 3 when its
    header has 3 or more digits (plus one per 64 KiB of payload, the
    [Unix.read] chunk). *)
