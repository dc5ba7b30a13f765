(** Streaming bulk ingest: shred + index in one bounded-memory pass.

    The whole-document front door ([Parser.parse] then [Db.of_store])
    allocates O(document) on the heap — the input string, then the
    posting sort transients — before the first posting lands in the
    off-heap columns.  This module consumes the same {!Xvi_xml.Sax}
    event stream that [Parser] appends to a store, but runs the paper's
    one-pass multi-index machinery {e incrementally} as the events
    arrive: store rows and field staging go straight into
    off-heap [Bigvec] columns, the open-element accumulator stack is
    O(depth), and postings are sorted in bounded batches, k-way merged
    into the B+tree bulk loader at the end.  Live heap during ingest is
    O(depth + batch) plus the final index shell.

    The product is {e identical} ({!Xvi_core.Db.digest}) to
    [Db.of_store ~config (Parser.parse doc)] with [config.jobs = 1]
    — the differential harness and [Fault.ingest_sweep] enforce this on
    every document.  [~pool] parallelism only accelerates the per-batch
    posting sorts, whose output is order-invariant. *)

module Builder : sig
  (** Event consumer.  Feed it a valid [Sax] event stream (the driver
      is responsible for stopping on [Sax] errors), cut batches
      whenever {!pending_rows} exceeds the budget, then {!finish}. *)

  type t

  val create : ?pool:Xvi_util.Pool.t -> Xvi_core.Db.Config.t -> t
  (** A fresh builder over an empty store.  [config.jobs] is ignored
      here — pass [?pool] to parallelize batch sorts. *)

  val feed : t -> Xvi_xml.Sax.event -> unit
  (** Append the event's rows and run every index machine one step. *)

  val rows : t -> int
  (** Store rows appended so far (= [Store.node_range] of the store
      under construction). *)

  val pending_rows : t -> int
  (** Rows appended since the last {!flush_batch} — the driver's batch
      cut signal. *)

  val batches : t -> int
  (** Completed batches. *)

  val flush_batch : t -> unit
  (** Close the current batch: sort its posting run (on the pool when
      present).  No-op when nothing is pending.  Must only be called at
      event boundaries — which is any point between {!feed} calls. *)

  val finish : t -> Xvi_core.Db.t
  (** Finalize the document node, flush the last batch, replay the
      staged fields, merge the posting runs into the B+tree bulk
      loader, and assemble the database.  Must only be called after the
      event stream ended cleanly ([Ok None] from [Sax.next]); the
      builder must not be used afterwards. *)

  val staging_bytes : t -> int
  (** Off-heap bytes held by the staging columns (bench accounting;
      the store's own columns are not included). *)
end

type progress = {
  rows : int;  (** store rows appended *)
  batches : int;  (** posting batches completed *)
  consumed : int;  (** source bytes fully tokenized *)
}

val load :
  ?config:Xvi_core.Db.Config.t ->
  ?batch_rows:int ->
  ?pool:Xvi_util.Pool.t ->
  ?progress:(progress -> unit) ->
  Xvi_xml.Sax.source ->
  (Xvi_core.Db.t, Xvi_xml.Sax.error) result
(** Drive a source through {!Builder} with a batch cut every
    [batch_rows] (default 65536) appended rows.  [progress] fires at
    every batch edge and once at the end.  In-memory (non-durable)
    ingest; the WAL-checkpointed variant is [Xvi_wal.Durable.bulk_ingest]. *)

val default_batch_rows : int
