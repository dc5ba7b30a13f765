(** The unified database engine: one writer, any number of lock-free
    readers, one API over the in-memory / durable split.

    Before this module, callers picked a concrete handle —
    {!Xvi_core.Db} for a memory database, {!Xvi_wal.Durable} for a
    crash-safe directory — and each exposed a different mix of raising
    and result-typed operations, none of them safe to share between
    domains. [Engine] replaces both as the public boundary:

    {b Epoch-based MVCC.} The engine owns a private {e master} database
    that only the single writer (serialised by an internal lock) ever
    mutates. After commits become durable, the engine {e publishes} an
    immutable copy of the master — an {e epoch}, sharing column pages, tree
    nodes and the plane with it copy-on-write ({!Xvi_core.Db.copy}) —
    through one [Atomic] cell. Readers {!pin} the current epoch with a single atomic
    load and then run any {!Xvi_core.Db} read against a database no one
    will ever mutate: no read takes a lock, before or after pinning, so
    a stalled or slow writer cannot block a reader (and vice versa).

    {b Durability = visibility.} An epoch only ever contains commits
    whose log records have been fsynced ([sync_mode = Always], an aged
    group-commit window, or an explicit {!sync}); under [Never] the OS
    page cache is the declared durability contract, so commits publish
    immediately. A reader can therefore never observe state that a
    crash could take back.

    {b Group commit across sessions.} Deferred commits from any number
    of sessions share fsyncs exactly as {!Xvi_wal.Wal} batches them; a
    background flusher domain closes aged windows under quiescence,
    advances the durable watermark, publishes, and wakes every
    {!await_durable} waiter — so concurrent committers pay one fsync
    per window, not one each.

    All entry points are result-typed; nothing here raises on bad
    input. *)

type t

type node = Xvi_xml.Store.node

type error =
  | Io of string  (** filesystem-level failure opening or initialising *)
  | Parse of Xvi_xml.Parser.error  (** a document or fragment that does not parse *)
  | Read of Xvi_core.Db.read_error  (** unknown type name in a query *)
  | Conflict of Xvi_txn.Txn.conflict  (** first-committer-wins loss *)
  | Invalid of string  (** bad target node, finished transaction, misuse *)
  | Read_only  (** a write reached a replica; writes go to the leader *)
  | Closed  (** the engine was {!close}d *)

val error_to_string : error -> string

(** {1 Opening} *)

type target =
  | Memory of Xvi_core.Db.t
      (** serve an already-built database; no durability *)
  | Dir of string  (** recover and serve a {!Xvi_wal.Durable} directory *)
  | Replica of string
      (** serve a durable directory {e read-only}: snapshot + committed
          log replayed as in recovery, but with no torn-tail truncation,
          no writer attached, and every write entry point returning
          [Error Read_only]. A replication follower owns the directory's
          bytes itself (it appends shipped frames) and feeds the engine
          through {!replica_apply}; promotion is simply {!close} followed
          by [open_ (Dir d)] — the ordinary recovery path. *)

val open_ :
  ?config:Xvi_core.Db.Config.t ->
  ?sync_mode:Xvi_wal.Wal.sync_mode ->
  ?auto_checkpoint_bytes:int ->
  ?publish_period:float ->
  target ->
  (t, error) result
(** [open_ (Dir d)] recovers the directory exactly as
    {!Xvi_wal.Durable.open_} does (snapshot + replay + torn-tail
    truncation); [open_ (Memory db)] takes ownership of [db] as the
    master — the caller must not touch [db] afterwards (readers use
    published copies, see {!pin}). [config], [sync_mode] and
    [auto_checkpoint_bytes] apply to [Dir] targets only.

    [publish_period] (seconds, default [0.]) rate-limits epoch
    publication: a fresh epoch is cut at most once per period, so the
    copy-on-write clones each epoch costs the next writes amortise over
    many commits the way fsyncs amortise under group commit. [0.] publishes at every durable boundary —
    read-your-writes for a session that awaited durability. {!refresh}
    and {!sync} always force a fresh epoch regardless of the period. *)

val init :
  ?sync_mode:Xvi_wal.Wal.sync_mode ->
  ?auto_checkpoint_bytes:int ->
  ?publish_period:float ->
  ?force:bool ->
  dir:string ->
  Xvi_core.Db.t ->
  (t, error) result
(** Initialise a fresh durable directory from [db] (snapshot at LSN 0,
    empty log) and serve it. Refuses to overwrite an existing durable
    directory unless [force] — the same contract as
    {!Xvi_wal.Durable.create}, minus the exceptions. *)

val ingest :
  ?config:Xvi_core.Db.Config.t ->
  ?sync_mode:Xvi_wal.Wal.sync_mode ->
  ?auto_checkpoint_bytes:int ->
  ?publish_period:float ->
  ?force:bool ->
  ?batch_rows:int ->
  ?pool:Xvi_util.Pool.t ->
  ?progress:(Xvi_ingest.Ingest.progress -> unit) ->
  dir:string ->
  Xvi_xml.Sax.source ->
  (t, error) result
(** Stream a document into a fresh durable directory
    ({!Xvi_wal.Durable.bulk_ingest}: bounded-memory shred + index,
    every batch WAL-committed) and serve the finished database — the
    first published epoch is the fully loaded, durably checkpointed
    state. [force] as in {!init}. On a parse error the durable prefix
    stays in the directory; [open_ (Dir d)] then reports the
    interrupted ingest instead of serving the empty pre-ingest state
    (finish or recreate it via {!Xvi_wal.Durable.resume_ingest} /
    the CLI). *)

val is_durable : t -> bool
val dir : t -> string option

val read_only : t -> bool
(** [true] exactly for [Replica] targets. *)

val last_replay : t -> Xvi_wal.Wal.replay_report option
(** What recovery did, for [Dir] targets opened over an existing log. *)

(** {1 Reading: epochs} *)

type pinned = {
  epoch : int;  (** publication counter, strictly increasing *)
  lsn : Xvi_wal.Wal.lsn;  (** every commit at or below this LSN is in [db] *)
  commits : int;  (** committed mutations since {!open_} included in [db] *)
  db : Xvi_core.Db.t;  (** immutable — never mutated by anyone, ever *)
}

val pin : t -> pinned
(** The newest published epoch: one atomic load, no lock, never blocks —
    not even mid-commit of the writer. The returned database is valid
    (and consistent) forever; a long-running reader simply sees an older
    epoch. Re-pin to observe newer commits. *)

val snapshot : t -> Xvi_core.Db.t
(** [(pin t).db] — the read handle sessions pin. *)

val refresh : t -> pinned
(** Force publication of any durable-but-unpublished state (syncing the
    log first if commits are still deferred), then {!pin}. This is the
    one read-side call that takes the writer lock; use it for
    read-your-writes, not in hot read loops. *)

(** {1 Writing} *)

val begin_ : t -> Xvi_txn.Txn.t
(** A transaction on the master database, staged through
    {!Xvi_txn.Txn.update_text} and committed with {!submit}. Staging
    validates against live state; the authoritative re-check happens
    inside {!submit} under the writer lock. *)

val submit : t -> Xvi_txn.Txn.t -> (Xvi_wal.Wal.lsn, error) result
(** Serialise, conflict-check and commit the transaction: on [Ok lsn]
    the write set is write-ahead logged (per the sync mode) and applied
    to the master with every index maintained. Returns [Error
    (Conflict _)] on a first-committer-wins loss. The commit becomes
    {e visible} to new {!pin}s once durable — immediately under
    [Always], at the next window flush under [Group]. An empty write
    set commits as a no-op and returns the current LSN. *)

val submit_durable : t -> Xvi_txn.Txn.t -> (Xvi_wal.Wal.lsn, error) result
(** {!submit}, then {!await_durable}: on [Ok], the commit is on stable
    storage — the ack a remote client can trust. *)

val await_durable : t -> Xvi_wal.Wal.lsn -> unit
(** Block until every commit at or below [lsn] is fsynced (returns
    immediately on memory engines and already-covered LSNs). *)

val update_texts : t -> (node * string) list -> (Xvi_wal.Wal.lsn, error) result
(** Begin + stage + {!submit} in one call. [Error (Invalid _)] if a
    target is not a text or attribute node. *)

val insert_xml :
  t -> parent:node -> string -> (node list * Xvi_wal.Wal.lsn, error) result
(** Durably logged structural insert (single-operation transaction).
    Validated before logging: a bad parent or unparsable fragment is an
    [Error] and nothing reaches the log. *)

val delete_subtree : t -> node -> (Xvi_wal.Wal.lsn, error) result

val sync : t -> unit
(** Fsync any deferred commits, publish, and wake waiters. *)

val replica_apply :
  t -> Xvi_wal.Wal.framed list -> (Xvi_wal.Wal.lsn, error) result
(** Apply committed transaction groups (as delivered by
    {!Xvi_wal.Wal.Tail.poll}) to a [Replica] engine's master and publish
    a fresh epoch; returns the new applied LSN. Frames at or below the
    current applied LSN are skipped — replay stays idempotent under
    re-delivery. The caller must have made the frames locally durable
    first (the follower appends + fsyncs before applying), preserving
    the "no epoch a crash can take back" invariant. [Error Read_only]
    on non-replica engines (it is the only write that goes the other
    way). *)

val checkpoint : t -> (unit, error) result
(** Snapshot + truncate the log ({!Xvi_wal.Durable.checkpoint});
    [Error (Invalid _)] on a memory engine. *)

(** {1 Accounting} *)

type stats = {
  epoch : int;  (** latest published epoch *)
  commits : int;  (** committed mutations since open *)
  last_lsn : Xvi_wal.Wal.lsn;  (** newest committed LSN (durable or not) *)
  durable_lsn : Xvi_wal.Wal.lsn;  (** fsync watermark; [>= last_lsn] means no deferred tail *)
  txn : Xvi_txn.Txn.stats;
  durable : Xvi_wal.Durable.stats option;  (** [None] on memory engines *)
  cow_pages : int;
      (** column pages cloned by copy-on-write, process-wide since start
          ({!Xvi_util.Bigvec.cow_pages}) *)
  cow_bytes : int;
      (** bytes those clones and their directory copies moved
          ({!Xvi_util.Bigvec.cow_bytes}) *)
}

val stats : t -> stats

val close : t -> unit
(** Final sync, final publication of nothing further, flusher joined,
    underlying handles released. Idempotent. Blocked
    {!await_durable}/{!submit_durable} callers are released (their
    commits are durable: close syncs first). *)

(** {1 Test instrumentation} *)

val set_commit_stall : t -> (unit -> unit) option -> unit
(** Install a hook the writer runs {e while holding the writer lock} at
    the start of every {!submit} — the concurrency harness uses it to
    stall the writer mid-commit and assert that readers keep pinning
    and querying epochs meanwhile. Not for production use. *)
