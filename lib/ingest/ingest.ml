module Store = Xvi_xml.Store
module Sax = Xvi_xml.Sax
module Parser = Xvi_xml.Parser
module Pool = Xvi_util.Pool
module Db = Xvi_core.Db

(* The streamed build is the whole-document build fed one event at a
   time: every event goes through the one shredder ([Parser.shred])
   into the store's off-heap columns, and [finish] indexes the store as
   [Db.of_store] does — one [Indexer.fill] pass, then bulk loads — so
   the product is the same by construction. Batches only mark where the
   driver commits a WAL chunk and reports progress. *)

module Builder = struct
  type t = {
    store : Store.t;
    shredder : Parser.shredder;
    config : Db.Config.t;
    pool : Pool.t option;
    mutable row_mark : int; (* node_range at the last batch cut *)
    mutable nbatches : int;
  }

  let create ?pool config =
    let store = Store.create () in
    {
      store;
      shredder = Parser.shredder store;
      config;
      pool;
      row_mark = Store.node_range store;
      nbatches = 0;
    }

  let feed t ev = Parser.shred t.shredder ev
  let rows t = Store.node_range t.store
  let pending_rows t = rows t - t.row_mark
  let batches t = t.nbatches

  let cut t =
    t.nbatches <- t.nbatches + 1;
    t.row_mark <- rows t

  let flush_batch t = if pending_rows t > 0 then cut t

  let finish t =
    (* the last batch ends with the stream, and always holds the
       document node *)
    cut t;
    Db.of_store ~config:t.config ?pool:t.pool t.store
end

type progress = { rows : int; batches : int; consumed : int }

let default_batch_rows = 65536

let load ?(config = Db.Config.default) ?(batch_rows = default_batch_rows)
    ?pool ?(progress = fun (_ : progress) -> ()) source =
  let batch_rows = max 1 batch_rows in
  let sax = Sax.make source in
  let b = Builder.create ?pool config in
  let report () =
    progress
      {
        rows = Builder.rows b;
        batches = Builder.batches b;
        consumed = Sax.consumed sax;
      }
  in
  let rec go () =
    match Sax.next sax with
    | Error e -> Error e
    | Ok None ->
        let db = Builder.finish b in
        report ();
        Ok db
    | Ok (Some (ev, _pos)) ->
        Builder.feed b ev;
        if Builder.pending_rows b >= batch_rows then begin
          Builder.flush_batch b;
          report ()
        end;
        go ()
  in
  go ()
