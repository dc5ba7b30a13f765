(** A database directory that survives crashes.

    Layout: [dir/snapshot.xvi] (a {!Xvi_core.Snapshot} stamped with the
    LSN it covers) plus [dir/wal.log] (a {!Wal} of everything committed
    since). The protocol:

    - {b commit}: the write set is appended to the log — and, depending
      on the {!Wal.sync_mode}, fsynced — {e before} the store or any
      index changes, via the {!Xvi_txn.Txn.durability} hook;
    - {b open}: load the snapshot, scan the log, truncate its torn or
      uncommitted tail at the last valid commit boundary, replay every
      committed transaction above the snapshot's LSN, and continue
      appending. Replay is idempotent — opening twice yields
      bit-identical databases — because the snapshot's LSN watermark
      filters already-covered commits;
    - {b checkpoint}: write a fresh snapshot stamped with the current
      LSN (atomic rename, file and directory fsynced), then truncate
      the log down to a single [Checkpoint] record. A crash between the
      two steps is safe in either order of observation: the new
      snapshot simply finds every surviving log record at or below its
      watermark. Checkpoints run on demand ({!checkpoint}, the CLI) or
      automatically once the log outgrows [auto_checkpoint_bytes]. *)

type t

val create :
  ?sync_mode:Wal.sync_mode -> ?auto_checkpoint_bytes:int -> ?force:bool ->
  dir:string -> Xvi_core.Db.t -> t
(** Initialise [dir] (created if missing) with a snapshot of [db] at
    LSN 0 and an empty log. [sync_mode] defaults to {!Wal.Always};
    [auto_checkpoint_bytes] defaults to never checkpointing
    automatically. When [dir] already holds a durable store
    ({!is_durable_dir}), raises [Invalid_argument] rather than silently
    destroying its committed data — pass [~force:true] to overwrite
    deliberately (the CLI maps [--force] onto this). *)

val open_ :
  ?config:Xvi_core.Db.Config.t ->
  ?sync_mode:Wal.sync_mode ->
  ?auto_checkpoint_bytes:int ->
  string ->
  (t, string) result
(** Recover: load, scan, truncate, replay (see above). [Error] when the
    snapshot is unreadable, the log's header is damaged, or replay
    contradicts the database. A missing log file (e.g. after copying
    only the snapshot) is tolerated — there is nothing to replay. *)

val open_exn :
  ?config:Xvi_core.Db.Config.t ->
  ?sync_mode:Wal.sync_mode ->
  ?auto_checkpoint_bytes:int ->
  string ->
  t
  [@@deprecated
    "raises through the public boundary; use Durable.open_ (or \
     Xvi_serve.Engine.open_) and handle the Error case"]

val is_durable_dir : string -> bool
(** A directory containing a snapshot — how the CLI tells a durable
    directory from a bare snapshot file. *)

val snapshot_path : string -> string
(** [dir/snapshot.xvi] — exposed for the replication layer, which reads
    and writes a follower directory's files itself. *)

val wal_path : string -> string
(** [dir/wal.log]. *)

val db : t -> Xvi_core.Db.t
val dir : t -> string

val last_replay : t -> Wal.replay_report option
(** What recovery did when this handle was opened with {!open_};
    [None] for {!create} or when there was no log to replay. *)

val last_lsn : t -> Wal.lsn
(** LSN of the most recently appended record — what a commit that just
    returned was assigned. Read this under the same serialisation that
    ordered the commit (the serve engine's writer lock): the writer is
    not thread-safe. *)

val sync_mode : t -> Wal.sync_mode

val manager : t -> Xvi_txn.Txn.manager
(** The transaction manager wired to the log: commits through it are
    write-ahead logged. One manager per handle (created lazily). *)

val update_texts :
  t -> (Xvi_xml.Store.node * string) list -> (unit, Xvi_txn.Txn.conflict) result
(** One durable transaction over the write set. The [Error] carries a
    serialisation conflict; callers must surface it. *)

val update_text :
  t -> Xvi_xml.Store.node -> string -> (unit, Xvi_txn.Txn.conflict) result

val insert_xml :
  t ->
  parent:Xvi_xml.Store.node ->
  string ->
  (Xvi_xml.Store.node list, Xvi_xml.Parser.error) result
(** Durably logged subtree insertion. Validated {e before} logging, so
    a record in the log is always applicable — at commit time and on
    every future replay: the fragment's syntax on a scratch store
    ([Error] on failure), and the target on the live store — raises
    [Invalid_argument] when [parent] is out of range, deleted, or not a
    node that can take children (element or document). *)

val delete_subtree : t -> Xvi_xml.Store.node -> unit
(** Durably logged subtree deletion. Raises [Invalid_argument] — before
    anything reaches the log — on the document root (like
    {!Xvi_core.Db.delete_subtree}), on an out-of-range node, and on an
    already-deleted node. *)

(** {1 Streaming bulk ingest}

    [bulk_ingest] shreds and indexes a document from a {!Xvi_xml.Sax}
    byte source in bounded memory ({!Xvi_ingest.Ingest}), committing
    every builder batch through the log as one
    [Begin]/[Ingest_chunk]/[Commit] transaction {e after} the event
    reader accepted its bytes. The directory holds a snapshot of the
    empty database at LSN 0 throughout; when the stream ends, the
    finished database is checkpointed and the chunk records truncated
    away.

    A crash mid-ingest therefore loses at most the open batch: {!open_}
    finds the pre-ingest snapshot plus the committed chunks — exactly
    the durable document prefix — reports them via {!pending_ingest},
    and {!resume_ingest} continues from there. Because the logged
    chunks replay byte-identically through a fresh builder, the final
    database is identical ({!Xvi_core.Db.digest}) to an uninterrupted
    ingest (and to the whole-document build) no matter where the crash
    cut. *)

val bulk_ingest :
  ?sync_mode:Wal.sync_mode ->
  ?auto_checkpoint_bytes:int ->
  ?force:bool ->
  ?config:Xvi_core.Db.Config.t ->
  ?batch_rows:int ->
  ?pool:Xvi_util.Pool.t ->
  ?progress:(Xvi_ingest.Ingest.progress -> unit) ->
  dir:string ->
  Xvi_xml.Sax.source ->
  (t, string) result
(** Initialise [dir] (like {!create}, including the [~force] guard
    against overwriting an existing durable store) and ingest [source]
    into it. [progress] fires at every committed batch edge. On a parse
    error the handle is closed and [Error] returned; the directory
    then reopens with the durable prefix pending (see above). *)

type pending_ingest = { chunks : int; chunk_bytes : int }

val pending_ingest : t -> pending_ingest option
(** Evidence of an interrupted bulk ingest found by {!open_}: how many
    committed chunks the log holds and their total byte count. While
    pending, {!db} is the pre-ingest (empty) database and every update
    entry point raises [Invalid_argument] — {!resume_ingest} or
    recreate the directory first. *)

val resume_ingest :
  ?batch_rows:int ->
  ?pool:Xvi_util.Pool.t ->
  ?progress:(Xvi_ingest.Ingest.progress -> unit) ->
  t ->
  Xvi_xml.Sax.source ->
  (t, string) result
(** Finish an interrupted ingest. [source] must yield the {e same
    document} the original ingest was fed: the logged chunks are
    replayed through a fresh builder, the first [chunk_bytes] bytes of
    [source] are skipped, and ingest continues (a shorter or divergent
    source surfaces as a parse error). Raises [Invalid_argument] when
    nothing is pending. On success the returned handle (the same [t])
    holds the finished, checkpointed database. *)

val checkpoint : t -> unit
(** Snapshot now, then truncate the log (see the protocol above).
    Raises [Invalid_argument] while an ingest is pending — it would
    discard the durable chunks. *)

val sync : t -> unit
(** Flush any group-commit window or [Never]-mode backlog to stable
    storage. Under [Group] an aged-out window is otherwise flushed by
    the next operation's first log record (or by {!close}); a store
    that goes quiescent right after a [`Deferred] commit keeps that
    window open until one of those happens, so latency-sensitive
    callers should [sync] before going idle. *)

type stats = {
  wal_bytes : int;  (** current log size, header included *)
  next_lsn : Wal.lsn;
  last_checkpoint_lsn : Wal.lsn;
  writer : Wal.Writer.stats;
  chunk_log_s : float;
      (** wall seconds this handle spent committing bulk-ingest chunks
          (append, commit record, fsync) *)
  checkpoint_s : float;
      (** wall seconds of this handle's last checkpoint (snapshot save
          and log truncation); [0.] before the first *)
}

val stats : t -> stats

val close : t -> unit
(** Final sync (unless [sync_mode = Never]) and release. Idempotent;
    any later operation raises [Invalid_argument]. *)
