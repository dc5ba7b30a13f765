(** Streaming bulk ingest: shred a document as its bytes arrive, then
    index it.

    The whole-document front door ([Parser.parse] then [Db.of_store])
    needs the input as one string.  This module pulls {!Xvi_xml.Sax}
    events from a chunk source and feeds each to the same shredder
    ({!Xvi_xml.Parser.shred}), so the store's rows land in its off-heap
    columns as the bytes arrive and the document string never exists.
    At the end of the stream, {!Builder.finish} indexes the store
    exactly as [Db.of_store] does: one {!Xvi_core.Indexer.fill} pass
    computes every field column, then the posting and value trees are
    bulk-loaded.  Batches of rows only mark where the durable driver
    ([Xvi_wal.Durable.bulk_ingest]) commits a WAL chunk and where
    progress is reported.

    The product is therefore {e identical} ({!Xvi_core.Db.digest}) to
    [Db.of_store ~config (Parser.parse doc)] — the differential harness
    and [Fault.ingest_sweep] check this on every document. *)

module Builder : sig
  (** Event consumer.  Feed it a valid [Sax] event stream (the driver
      is responsible for stopping on [Sax] errors), cut batches
      whenever {!pending_rows} exceeds the budget, then {!finish}. *)

  type t

  val create : ?pool:Xvi_util.Pool.t -> Xvi_core.Db.Config.t -> t
  (** A fresh builder over an empty store.  [?pool] and [config] are
      handed to [Db.of_store] at {!finish}. *)

  val feed : t -> Xvi_xml.Sax.event -> unit
  (** Append the event's rows ({!Xvi_xml.Parser.shred}). *)

  val rows : t -> int
  (** Store rows appended so far (= [Store.node_range] of the store
      under construction). *)

  val pending_rows : t -> int
  (** Rows appended since the last {!flush_batch} — the driver's batch
      cut signal. *)

  val batches : t -> int
  (** Completed batches. *)

  val flush_batch : t -> unit
  (** Close the current batch.  No-op when nothing is pending. *)

  val finish : t -> Xvi_core.Db.t
  (** Close the last batch and index the store ([Db.of_store ~config
      ?pool]).  Must only be called after the event stream ended
      cleanly ([Ok None] from [Sax.next]); the builder must not be used
      afterwards. *)
end

type progress = {
  rows : int;  (** store rows appended *)
  batches : int;  (** batches completed *)
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
    [batch_rows] (default 65536) appended rows.  Live heap while the
    document streams in is O(depth + chunk); the index build at the end
    holds one int array of posting keys besides the product.
    [progress] fires at every batch edge and once at the end.
    In-memory (non-durable) ingest; the WAL-checkpointed variant is
    [Xvi_wal.Durable.bulk_ingest]. *)

val default_batch_rows : int
