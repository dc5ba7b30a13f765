module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Db = Xvi_core.Db
module Snapshot = Xvi_core.Snapshot
module Txn = Xvi_txn.Txn
module Ingest = Xvi_ingest.Ingest

let snapshot_path dir = Filename.concat dir "snapshot.xvi"
let wal_path dir = Filename.concat dir "wal.log"

let is_durable_dir dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && Sys.file_exists (snapshot_path dir)

type t = {
  dir : string;
  mutable db : Db.t;
      (** replaced exactly once, when a resumed bulk ingest finishes *)
  writer : Wal.Writer.t;
  auto_checkpoint : int option;
  mutable mgr : Txn.manager option;
  mutable next_txn : int;
  mutable last_checkpoint_lsn : Wal.lsn;
  mutable last_replay : Wal.replay_report option;
  mutable pending : (string list * int) option;
      (** committed ingest chunks (in log order, total bytes) awaiting
          {!resume_ingest}; [db] is the pre-ingest state while set *)
  mutable closed : bool;
  mutable chunk_log_s : float;
      (** wall time committing bulk-ingest chunks: append, commit, fsync *)
  mutable checkpoint_s : float;  (** wall time of the last checkpoint *)
}

let db t = t.db
let dir t = t.dir
let last_replay t = t.last_replay
let last_lsn t = Wal.Writer.last_lsn t.writer
let sync_mode t = Wal.Writer.sync_mode t.writer

let check_open t op =
  if t.closed then
    invalid_arg (Printf.sprintf "Durable.%s: store is closed" op)

let check_no_pending t op =
  match t.pending with
  | None -> ()
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Durable.%s: a bulk ingest is pending recovery; resume_ingest it \
            (or recreate the directory) first"
           op)

let fresh_txn t =
  t.next_txn <- t.next_txn + 1;
  t.next_txn

(* --- checkpointing --- *)

let checkpoint t =
  check_open t "checkpoint";
  (* checkpointing a pending-ingest directory would snapshot the
     pre-ingest database at an LSN covering the chunk records — i.e.
     silently discard the ingested prefix *)
  check_no_pending t "checkpoint";
  let base = Wal.Writer.last_lsn t.writer in
  (* snapshot first — made durable by Snapshot.save's own fsync+rename
     protocol — then drop the log it supersedes. A crash between the two
     leaves a snapshot at LSN [base] plus a log of records <= base,
     which replay filters out: both orders of the crash are safe, only
     this order also keeps the log from lying about uncommitted data. *)
  let t0 = Xvi_util.Timing.now_s () in
  Snapshot.save ~lsn:base t.db (snapshot_path t.dir);
  Wal.Writer.truncate_to_checkpoint t.writer ~base;
  t.last_checkpoint_lsn <- base;
  t.checkpoint_s <- Xvi_util.Timing.now_s () -. t0

let maybe_auto_checkpoint t =
  match t.auto_checkpoint with
  | Some threshold when Wal.Writer.size t.writer > threshold -> checkpoint t
  | _ -> ()

(* --- the durability hook wiring --- *)

let log_update_batch t writes =
  check_open t "commit";
  let txn = fresh_txn t in
  ignore (Wal.Writer.append t.writer (Wal.Begin { txn }) : Wal.lsn);
  List.iter
    (fun (node, value) ->
      ignore
        (Wal.Writer.append t.writer (Wal.Update_text { txn; node; value })
          : Wal.lsn))
    writes;
  snd (Wal.Writer.log_commit t.writer ~txn)

let make_manager t =
  Txn.manager
    ~durability:
      {
        Txn.log_commit = (fun writes -> log_update_batch t writes);
        committed = (fun () -> maybe_auto_checkpoint t);
      }
    t.db

let manager t =
  check_no_pending t "manager";
  match t.mgr with
  | Some mgr -> mgr
  | None ->
      let mgr = make_manager t in
      t.mgr <- Some mgr;
      mgr

(* Separate committed bulk-ingest transactions (Begin, Ingest_chunk*,
   Commit) from the regular update stream. Ingest chunks replay through
   a fresh event stream, not through [Wal.apply], so [open_] must route
   them before replaying anything. A transaction mixing chunk records
   with update records contradicts the only writer that emits chunks
   and is reported as corruption; stray records without a Begin are
   forwarded so [Wal.apply] produces its usual diagnostics. *)
let split_ingest frames =
  let buf : (int, string list * Wal.framed list * bool) Hashtbl.t =
    Hashtbl.create 8
  in
  let chunks = ref [] (* reverse log order *) in
  let others = ref [] (* reverse log order *) in
  let error = ref None in
  let forward fr = others := fr :: !others in
  List.iter
    (fun fr ->
      if Option.is_none !error then
        match fr.Wal.record with
        | Wal.Begin { txn } -> Hashtbl.replace buf txn ([], [ fr ], false)
        | Wal.Ingest_chunk { txn; bytes } -> (
            match Hashtbl.find_opt buf txn with
            | Some (cs, frs, other) ->
                Hashtbl.replace buf txn (bytes :: cs, fr :: frs, other)
            | None -> forward fr)
        | Wal.Update_text { txn; _ }
        | Wal.Insert { txn; _ }
        | Wal.Delete { txn; _ } -> (
            match Hashtbl.find_opt buf txn with
            | Some (cs, frs, _) -> Hashtbl.replace buf txn (cs, fr :: frs, true)
            | None -> forward fr)
        | Wal.Commit { txn } | Wal.Abort { txn } -> (
            match Hashtbl.find_opt buf txn with
            | None -> forward fr
            | Some (cs, frs, other) -> (
                Hashtbl.remove buf txn;
                let committed =
                  match fr.Wal.record with Wal.Commit _ -> true | _ -> false
                in
                match cs with
                | [] -> List.iter forward (List.rev (fr :: frs))
                | _ :: _ ->
                    if other then
                      error :=
                        Some
                          (Printf.sprintf
                             "transaction %d mixes ingest chunks with update \
                              records"
                             txn)
                    else if committed then
                      (* [cs] is newest-first; prepending keeps the
                         global accumulator in reverse log order *)
                      chunks := cs @ !chunks))
        | Wal.Checkpoint _ -> forward fr)
    frames;
  match !error with
  | Some m -> Error m
  | None -> Ok (List.rev !chunks, List.rev !others)

(* --- opening --- *)

let make ?auto_checkpoint_bytes ~dir ~db ~writer ~last_checkpoint_lsn
    ~last_replay () =
  {
    dir;
    db;
    writer;
    auto_checkpoint = auto_checkpoint_bytes;
    mgr = None;
    next_txn = 0;
    last_checkpoint_lsn;
    last_replay;
    pending = None;
    closed = false;
    chunk_log_s = 0.;
    checkpoint_s = 0.;
  }

let create ?(sync_mode = Wal.Always) ?auto_checkpoint_bytes ?(force = false)
    ~dir db =
  (match Sys.is_directory dir with
  | true -> ()
  | false -> invalid_arg (Printf.sprintf "Durable.create: %s is a file" dir)
  | exception Sys_error _ -> Unix.mkdir dir 0o755);
  if (not force) && is_durable_dir dir then
    invalid_arg
      (Printf.sprintf
         "Durable.create: %s already holds a durable store (snapshot + WAL); \
          pass ~force:true to overwrite it"
         dir);
  Snapshot.save ~lsn:0 db (snapshot_path dir);
  let writer = Wal.Writer.create ~sync_mode (wal_path dir) in
  make ?auto_checkpoint_bytes ~dir ~db ~writer ~last_checkpoint_lsn:0
    ~last_replay:None ()

let open_ ?config ?(sync_mode = Wal.Always) ?auto_checkpoint_bytes dir =
  match Snapshot.load_with_lsn ?config (snapshot_path dir) with
  | Error e ->
      Error
        (Printf.sprintf "%s: %s" (snapshot_path dir)
           (Snapshot.error_to_string e))
  | Ok (db, snap_lsn) -> (
      let wpath = wal_path dir in
      if not (Sys.file_exists wpath) then begin
        (* a snapshot without its log: nothing to replay; start a fresh
           one, but keep LSNs monotonic across the gap *)
        let writer = Wal.Writer.create ~sync_mode wpath in
        Wal.Writer.close writer;
        let writer =
          Wal.Writer.attach ~sync_mode
            ~size:(String.length Wal.magic)
            ~next_lsn:(snap_lsn + 1) wpath
        in
        Ok
          (make ?auto_checkpoint_bytes ~dir ~db ~writer
             ~last_checkpoint_lsn:snap_lsn ~last_replay:None ())
      end
      else
        match Wal.scan_file wpath with
        | Error m -> Error (Printf.sprintf "%s: %s" wpath m)
        | Ok scan -> (
            match split_ingest scan.Wal.frames with
            | Error m -> Error (Printf.sprintf "%s: %s" wpath m)
            | Ok (chunks, update_frames) -> (
                let attach_writer () =
                  (* drop the dead tail before appending anything new;
                     Writer.attach below fsyncs the file, making the
                     shrunken length durable before any fresh frame can
                     land where stale bytes used to be *)
                  if scan.Wal.committed_end < scan.Wal.file_size then
                    Unix.truncate wpath scan.Wal.committed_end;
                  Wal.Writer.attach ~sync_mode ~size:scan.Wal.committed_end
                    ~next_lsn:(max (scan.Wal.last_lsn + 1) (snap_lsn + 1))
                    wpath
                in
                match (chunks, update_frames) with
                | _ :: _, _ :: _ ->
                    (* a bulk ingest writes into a directory it
                       initialised; its log never also carries update
                       transactions *)
                    Error
                      (Printf.sprintf
                         "%s: log mixes ingest chunks with committed updates"
                         wpath)
                | _ :: _, [] ->
                    (* crash mid-ingest: the snapshot is the pre-ingest
                       (empty) database, the chunks are the durable
                       document prefix; hold them for resume_ingest *)
                    let chunk_bytes =
                      List.fold_left
                        (fun acc c -> acc + String.length c)
                        0 chunks
                    in
                    let writer = attach_writer () in
                    let t =
                      make ?auto_checkpoint_bytes ~dir ~db ~writer
                        ~last_checkpoint_lsn:snap_lsn ~last_replay:None ()
                    in
                    t.pending <- Some (chunks, chunk_bytes);
                    Ok t
                | [], _ -> (
                    match Wal.apply ~from_lsn:snap_lsn db update_frames with
                    | Error m -> Error (Printf.sprintf "%s: replay: %s" wpath m)
                    | Ok stats ->
                        let report =
                          {
                            Wal.stats;
                            first_lsn =
                              (match scan.Wal.frames with
                              | [] -> 0
                              | fr :: _ -> fr.Wal.lsn);
                            last_lsn = scan.Wal.last_lsn;
                            truncated_bytes =
                              scan.Wal.file_size - scan.Wal.committed_end;
                            dropped_records = scan.Wal.dropped_records;
                            damage = scan.Wal.damage;
                          }
                        in
                        let last_checkpoint_lsn =
                          List.fold_left
                            (fun acc fr ->
                              match fr.Wal.record with
                              | Wal.Checkpoint { base } -> max acc base
                              | _ -> acc)
                            snap_lsn scan.Wal.frames
                        in
                        let writer = attach_writer () in
                        Ok
                          (make ?auto_checkpoint_bytes ~dir ~db ~writer
                             ~last_checkpoint_lsn ~last_replay:(Some report) ())
                    ))))

let open_exn ?config ?sync_mode ?auto_checkpoint_bytes dir =
  match open_ ?config ?sync_mode ?auto_checkpoint_bytes dir with
  | Ok t -> t
  | Error m -> failwith ("Durable.open_: " ^ m)

(* --- durable update operations --- *)

let update_texts t writes =
  check_open t "update_texts";
  let tx = Txn.begin_ (manager t) in
  List.iter
    (fun (n, v) ->
      match Txn.update_text tx n v with
      | Ok () -> ()
      | Error `Not_text ->
          Txn.abort tx;
          invalid_arg
            (Printf.sprintf "Durable.update_texts: node %d is not a text node"
               n)
      | Error `Finished -> assert false)
    writes;
  Txn.commit tx

let update_text t n v = update_texts t [ (n, v) ]

(* Structural operations are logged as single-op transactions. Both the
   fragment (syntax, on a scratch store) and the target node (range,
   liveness, kind, on the live store) are validated first: once the
   record is in the log, applying it must not fail — neither now nor on
   replay. A record that fails to apply after its Commit was fsynced
   would make every future [open_] of the directory return [Error]. *)
let insert_xml t ~parent fragment =
  check_open t "insert_xml";
  check_no_pending t "insert_xml";
  let store = Db.store t.db in
  if parent < 0 || parent >= Store.node_range store then
    invalid_arg
      (Printf.sprintf "Durable.insert_xml: parent %d out of range" parent);
  (match Store.kind store parent with
  | Store.Document | Store.Element -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Durable.insert_xml: parent %d cannot take children (not a live \
            element or the document)"
           parent));
  match Parser.parse_fragment (Store.create ()) ~parent:Store.document fragment with
  | Error _ as e -> e
  | Ok _ -> (
      let txn = fresh_txn t in
      ignore (Wal.Writer.append t.writer (Wal.Begin { txn }) : Wal.lsn);
      ignore
        (Wal.Writer.append t.writer (Wal.Insert { txn; parent; fragment })
          : Wal.lsn);
      ignore
        (Wal.Writer.log_commit t.writer ~txn
          : Wal.lsn * [ `Synced | `Deferred ]);
      match Db.insert_xml t.db ~parent fragment with
      | Ok roots ->
          maybe_auto_checkpoint t;
          Ok roots
      | Error e ->
          (* unreachable after validation; if it ever happens the log
             and the database disagree and limping on would persist the
             disagreement *)
          failwith
            ("Durable.insert_xml: validated fragment rejected on apply: "
            ^ Parser.error_to_string e))

let delete_subtree t node =
  check_open t "delete_subtree";
  check_no_pending t "delete_subtree";
  let store = Db.store t.db in
  if node < 0 || node >= Store.node_range store then
    invalid_arg
      (Printf.sprintf "Durable.delete_subtree: node %d out of range" node);
  if not (Store.is_live store node) then
    invalid_arg
      (Printf.sprintf "Durable.delete_subtree: node %d is already deleted" node);
  (match Store.parent store node with
  | Some _ -> ()
  | None -> invalid_arg "Durable.delete_subtree: node has no parent");
  let txn = fresh_txn t in
  ignore (Wal.Writer.append t.writer (Wal.Begin { txn }) : Wal.lsn);
  ignore (Wal.Writer.append t.writer (Wal.Delete { txn; node }) : Wal.lsn);
  ignore
    (Wal.Writer.log_commit t.writer ~txn : Wal.lsn * [ `Synced | `Deferred ]);
  Db.delete_subtree t.db node;
  maybe_auto_checkpoint t

let sync t =
  check_open t "sync";
  Wal.Writer.sync t.writer

(* --- streaming bulk ingest ---

   Protocol: the directory starts as a snapshot of the empty database
   at LSN 0 plus a fresh log. Every batch the builder cuts, the raw
   source bytes tokenized since the previous cut are committed as one
   Begin / Ingest_chunk / Commit transaction — logged only after the
   event reader accepted them, so a chunk in the log is always
   replayable. When the stream ends, the finished database is
   checkpointed (snapshot + log truncation), leaving an ordinary
   durable directory.

   A crash at any point therefore recovers to a consistent state: the
   pre-ingest snapshot plus the committed chunks, i.e. exactly the
   document prefix whose batches were durable. [open_] surfaces that as
   {!pending_ingest}; {!resume_ingest} refeeds the logged chunks
   through a fresh builder (byte-identical to the original stream, so
   the final database is bit-identical no matter where the crash cut),
   skips that prefix of the caller's source, and continues. *)

type pending_ingest = { chunks : int; chunk_bytes : int }

let pending_ingest t =
  match t.pending with
  | None -> None
  | Some (cs, chunk_bytes) ->
      Some { chunks = List.length cs; chunk_bytes }

let log_chunk t bytes =
  let t0 = Xvi_util.Timing.now_s () in
  let txn = fresh_txn t in
  ignore (Wal.Writer.append t.writer (Wal.Begin { txn }) : Wal.lsn);
  ignore
    (Wal.Writer.append t.writer (Wal.Ingest_chunk { txn; bytes }) : Wal.lsn);
  ignore
    (Wal.Writer.log_commit t.writer ~txn : Wal.lsn * [ `Synced | `Deferred ]);
  t.chunk_log_s <- t.chunk_log_s +. (Xvi_util.Timing.now_s () -. t0)

(* Drive [source] through the streaming builder, committing a chunk at
   every batch edge. [prelogged] chunks are already durable: they are
   replayed into the builder first and the same number of bytes is
   skipped off [source] (which must be the same document). *)
let drive_ingest t ~batch_rows ?pool ~progress source ~prelogged =
  let config = Db.config t.db in
  let base =
    List.fold_left (fun acc c -> acc + String.length c) 0 prelogged
  in
  let pre = ref prelogged in
  let skipped = ref 0 in
  (* fresh source bytes not yet committed as a chunk, starting at
     absolute offset [buf_base] *)
  let tee = Buffer.create 65536 in
  let buf_base = ref base in
  let durable_upto = ref base in
  let rec pull () =
    match !pre with
    | c :: rest ->
        pre := rest;
        if String.length c = 0 then pull () else Some (Bytes.of_string c)
    | [] -> (
        match source () with
        | None -> None
        | Some b ->
            let n = Bytes.length b in
            if !skipped + n <= base then begin
              skipped := !skipped + n;
              pull ()
            end
            else begin
              let from = max 0 (base - !skipped) in
              skipped := base;
              let fresh = Bytes.sub b from (n - from) in
              Buffer.add_bytes tee fresh;
              Some fresh
            end)
  in
  let on_progress (p : Ingest.progress) =
    (* [p.consumed] bytes are fully tokenized and their rows shredded;
       commit the span the log does not yet hold *)
    if p.consumed > !durable_upto then begin
      let lo = !durable_upto - !buf_base in
      let len = p.consumed - !durable_upto in
      log_chunk t (Buffer.sub tee lo len);
      durable_upto := p.consumed;
      let keep = Buffer.sub tee (lo + len) (Buffer.length tee - lo - len) in
      Buffer.clear tee;
      Buffer.add_string tee keep;
      buf_base := p.consumed
    end;
    progress p
  in
  match Ingest.load ~config ~batch_rows ?pool ~progress:on_progress pull with
  | Error e ->
      (* the committed chunks stay in the log: reopening the directory
         surfaces them as pending_ingest ([close] is defined below) *)
      t.closed <- true;
      Wal.Writer.close t.writer;
      Error (Printf.sprintf "ingest: %s" (Parser.error_to_string e))
  | Ok db ->
      t.db <- db;
      t.pending <- None;
      checkpoint t;
      Ok t

let bulk_ingest ?(sync_mode = Wal.Always) ?auto_checkpoint_bytes
    ?(force = false) ?(config = Db.Config.default)
    ?(batch_rows = Ingest.default_batch_rows) ?pool
    ?(progress = fun (_ : Ingest.progress) -> ()) ~dir source =
  (match Sys.is_directory dir with
  | true -> ()
  | false ->
      invalid_arg (Printf.sprintf "Durable.bulk_ingest: %s is a file" dir)
  | exception Sys_error _ -> Unix.mkdir dir 0o755);
  if (not force) && is_durable_dir dir then
    invalid_arg
      (Printf.sprintf
         "Durable.bulk_ingest: %s already holds a durable store (snapshot + \
          WAL); pass ~force:true to overwrite it"
         dir);
  let db0 = Db.of_store ~config (Store.create ()) in
  Snapshot.save ~lsn:0 db0 (snapshot_path dir);
  let writer = Wal.Writer.create ~sync_mode (wal_path dir) in
  let t =
    make ?auto_checkpoint_bytes ~dir ~db:db0 ~writer ~last_checkpoint_lsn:0
      ~last_replay:None ()
  in
  drive_ingest t ~batch_rows:(max 1 batch_rows) ?pool ~progress source
    ~prelogged:[]

let resume_ingest ?(batch_rows = Ingest.default_batch_rows) ?pool
    ?(progress = fun (_ : Ingest.progress) -> ()) t source =
  check_open t "resume_ingest";
  match t.pending with
  | None -> invalid_arg "Durable.resume_ingest: no ingest awaiting recovery"
  | Some (chunks, _) ->
      t.pending <- None;
      drive_ingest t ~batch_rows:(max 1 batch_rows) ?pool ~progress source
        ~prelogged:chunks

(* --- accounting --- *)

type stats = {
  wal_bytes : int;
  next_lsn : Wal.lsn;
  last_checkpoint_lsn : Wal.lsn;
  writer : Wal.Writer.stats;
  chunk_log_s : float;
  checkpoint_s : float;
}

let stats (t : t) =
  {
    wal_bytes = Wal.Writer.size t.writer;
    next_lsn = Wal.Writer.next_lsn t.writer;
    last_checkpoint_lsn = t.last_checkpoint_lsn;
    writer = Wal.Writer.stats t.writer;
    chunk_log_s = t.chunk_log_s;
    checkpoint_s = t.checkpoint_s;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Wal.Writer.close t.writer
  end
