(** The differential runner: apply a random operation trace to an
    indexed {!Xvi_core.Db} and, after {e every} step, compare every
    query family against {!Oracle}'s index-free answers.

    On a divergence the runner shrinks the trace (delta debugging over
    the op list) to a minimal failing sequence and renders it as a
    self-contained, replayable OCaml program. *)

type outcome = {
  docs : int;  (** documents generated and exercised *)
  ops : int;  (** operations applied *)
  checks : int;  (** individual oracle-vs-index comparisons *)
}

type failure = {
  seed : int;
  doc_index : int;  (** which generated document failed *)
  doc : string;  (** its XML, verbatim *)
  ops : Gen.op list;  (** shrunk to a minimal failing trace *)
  message : string;  (** what diverged, at which step *)
}

val run_doc :
  ?config:Xvi_core.Db.Config.t ->
  doc:string ->
  ops:Gen.op list ->
  unit ->
  (int, string) result
(** Replay one trace: build the database over [doc] (default config:
    doubles + datetimes + the substring index, serial build), apply each
    op, cross-check after every step. [Ok checks] on success, [Error
    message] on the first divergence, validation failure, or escaped
    exception. This is the entry point a printed trace calls. *)

val run :
  ?config:Xvi_core.Db.Config.t ->
  ?log:(string -> unit) ->
  seed:int ->
  docs:int ->
  ops_per_doc:int ->
  unit ->
  (outcome, failure) result
(** Generate [docs] random documents from [seed], each with
    [ops_per_doc] operations, and differential-check them all. The
    first divergence is shrunk before being returned. [log] receives
    one progress line per document. *)

val render_trace : failure -> string
(** The failure as a replayable OCaml program ([run_doc] invocation),
    plus the divergence message in a comment. *)

(** {1 Concurrent readers against a single writer}

    {!run_concurrent} serves a generated document through
    {!Xvi_serve.Engine} and races [readers] reader domains against the
    single writer while it commits a scripted sequence: text batches,
    with every fourth commit structural (an inserted fragment, or the
    delete of an inserted subtree). Each reader repeatedly pins an epoch
    and checks it two ways: the pinned database's logical digest
    ({!Xvi_core.Db.digest}) must equal that of an oracle replica that
    replayed exactly the first [pin.commits] scripted commits (an epoch
    is always a whole committed prefix, never torn), and several query
    families on the pinned database — scoped lookups through its plane
    among them — must agree with {!Oracle} over its own store. Epoch and
    commit counters must never move backwards within a reader.

    Midway through the script the writer {e stalls inside a commit},
    holding the writer lock, and refuses to continue until every reader
    has made further progress — so a run that returns [Ok] has
    witnessed, not assumed, that no read ever blocks on the writer.

    The run forces tiny column pages and directories
    ({!Xvi_util.Bigvec.with_chunk_log_for_testing}) so the scripted
    writes cross many page and directory boundaries, and holds one
    pre-write pin across the entire script: at the end its digest, and
    its answers to name, lookup and scoped queries, must be exactly
    those at pin time — no copy-on-write page, tree node, shared plane
    or name-index entry was changed in place under it. *)

type concurrent_outcome = {
  readers : int;  (** reader domains raced *)
  reads : int;  (** pins fully cross-checked, summed over readers *)
  commits : int;  (** scripted writer commits applied *)
  epochs : int;  (** distinct epochs observed by any reader *)
}

val run_concurrent :
  ?config:Xvi_core.Db.Config.t ->
  ?log:(string -> unit) ->
  seed:int ->
  readers:int ->
  commits:int ->
  unit ->
  (concurrent_outcome, string) result
(** Race [readers] domains against a [commits]-commit writer over a
    document generated from [seed]. [Error] carries the first
    divergence, ordering violation, or the blocked-reader verdict. *)
