module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Db = Xvi_core.Db
module Txn = Xvi_txn.Txn
module Wal = Xvi_wal.Wal
module Durable = Xvi_wal.Durable
module Timing = Xvi_util.Timing

type node = Store.node

type error =
  | Io of string
  | Parse of Parser.error
  | Read of Db.read_error
  | Conflict of Txn.conflict
  | Invalid of string
  | Read_only
  | Closed

let error_to_string = function
  | Io m -> m
  | Parse e -> Parser.error_to_string e
  | Read e -> Db.read_error_to_string e
  | Conflict c ->
      Printf.sprintf "serialisation conflict on node %d: %s" c.Txn.node
        c.Txn.reason
  | Invalid m -> m
  | Read_only -> "engine is a read-only replica; writes go to the leader"
  | Closed -> "engine is closed"

type pinned = { epoch : int; lsn : Wal.lsn; commits : int; db : Db.t }

type backend = Mem | Disk of Durable.t | Rep of string  (** replica: dir *)

type flusher = { fdomain : unit Domain.t; stop : bool Atomic.t }

type t = {
  backend : backend;
  mgr : Txn.manager;
  master : Db.t;
  lock : Mutex.t;  (** serialises every mutation of master + metadata *)
  flushed : Condition.t;  (** signalled whenever [durable_upto] advances *)
  published : pinned Atomic.t;  (** the lock-free read side *)
  publish_period : float;
  mutable epoch : int;
  mutable commits : int;
  mutable last_lsn : Wal.lsn;
  mutable durable_upto : Wal.lsn;
  mutable dirty : bool;  (** master is ahead of the published epoch *)
  mutable deferred_since : float;  (** arrival time of the oldest unacked commit *)
  mutable last_publish : float;
  mutable stall : (unit -> unit) option;
  mutable flusher : flusher option;
  mutable closed : bool;
}

(* --- publication ---

   Every helper below runs with [t.lock] held. An epoch is cut only when
   the whole master state is durable ([durable_upto >= last_lsn]): the
   copy would otherwise leak commits a crash could take back. [Db.copy]
   shares column pages and tree nodes with the master, so an epoch costs
   O(directories); the master's next writes copy what they touch. The
   plane is forced on the master before the copy, which shares it: it is
   rebuilt only after a structural commit dropped it, and readers never
   write the (benignly racy) lazy cache themselves. *)

let epoch_db master =
  ignore (Db.plane master : Xvi_xml.Pre_plane.t);
  Db.copy master

let publish_locked t now =
  if t.dirty && t.durable_upto >= t.last_lsn then begin
    t.epoch <- t.epoch + 1;
    let db = epoch_db t.master in
    Atomic.set t.published
      { epoch = t.epoch; lsn = t.last_lsn; commits = t.commits; db };
    t.dirty <- false;
    t.last_publish <- now
  end

let maybe_publish_locked t =
  let now = Timing.now_s () in
  if t.publish_period <= 0.0 || now -. t.last_publish >= t.publish_period then
    publish_locked t now

(* Ack commits up to [lsn]: advance the watermark, publish (subject to
   the period), wake waiters. *)
let acked_locked t lsn =
  if lsn > t.durable_upto then t.durable_upto <- lsn;
  maybe_publish_locked t;
  Condition.broadcast t.flushed

let sync_locked t =
  (match t.backend with Disk d -> Durable.sync d | Mem | Rep _ -> ());
  if t.last_lsn > t.durable_upto then t.durable_upto <- t.last_lsn;
  publish_locked t (Timing.now_s ());
  Condition.broadcast t.flushed

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- the group-commit flusher ---

   Under [Group w] a quiescent window would otherwise stay open (and its
   commits unacked) until the next append; the flusher closes windows
   that aged past [w] so sessions blocked in [await_durable] are woken
   in bounded time. It sleeps in short slices so [close] never waits
   long to join it, but only fsyncs once the oldest unacked commit is
   older than the window — the batching observable stays intact. *)

let flusher_loop t window stop =
  let slice = Float.min 0.05 (Float.max 0.0005 (window /. 2.0)) in
  while not (Atomic.get stop) do
    Unix.sleepf slice;
    Mutex.lock t.lock;
    if
      (not t.closed)
      && t.durable_upto < t.last_lsn
      && Timing.now_s () -. t.deferred_since >= window
    then sync_locked t
    else if t.dirty && t.durable_upto >= t.last_lsn then
      (* durable state the publish period postponed; cut it now *)
      maybe_publish_locked t;
    Mutex.unlock t.lock
  done

(* --- opening --- *)

let make ?(publish_period = 0.0) ~backend ~master ~last_lsn () =
  let mgr =
    match backend with
    | Mem | Rep _ -> Txn.manager master
    | Disk d -> Durable.manager d
  in
  let now = Timing.now_s () in
  let epoch0 = { epoch = 0; lsn = last_lsn; commits = 0; db = epoch_db master } in
  let t =
    {
      backend;
      mgr;
      master;
      lock = Mutex.create ();
      flushed = Condition.create ();
      published = Atomic.make epoch0;
      publish_period;
      epoch = 0;
      commits = 0;
      last_lsn;
      durable_upto = last_lsn;
      dirty = false;
      deferred_since = now;
      last_publish = now;
      stall = None;
      flusher = None;
      closed = false;
    }
  in
  (match backend with
  | Disk d -> (
      match Durable.sync_mode d with
      | Wal.Group window ->
          let stop = Atomic.make false in
          let fdomain = Domain.spawn (fun () -> flusher_loop t window stop) in
          t.flusher <- Some { fdomain; stop }
      | Wal.Always | Wal.Never -> ())
  | Mem | Rep _ -> ());
  t

type target = Memory of Db.t | Dir of string | Replica of string

(* A replica open is recovery minus its side effects: snapshot +
   committed-prefix replay, but nothing is truncated and no writer is
   attached — the follower owns the directory's bytes and this engine
   only ever learns of new frames through [replica_apply]. *)
let open_replica ?config ?publish_period dir =
  let module Snapshot = Xvi_core.Snapshot in
  match Snapshot.load_with_lsn ?config (Durable.snapshot_path dir) with
  | Error e ->
      Error
        (Io
           (Printf.sprintf "%s: %s"
              (Durable.snapshot_path dir)
              (Snapshot.error_to_string e)))
  | Ok (db, snap_lsn) -> (
      let wpath = Durable.wal_path dir in
      if not (Sys.file_exists wpath) then
        Ok
          (make ?publish_period ~backend:(Rep dir) ~master:db
             ~last_lsn:snap_lsn ())
      else
        match Wal.scan_file wpath with
        | Error m -> Error (Io (Printf.sprintf "%s: %s" wpath m))
        | Ok scan -> (
            match Wal.apply ~from_lsn:snap_lsn db scan.Wal.frames with
            | Error m -> Error (Io (Printf.sprintf "%s: replay: %s" wpath m))
            | Ok (_ : Wal.apply_stats) ->
                Ok
                  (make ?publish_period ~backend:(Rep dir) ~master:db
                     ~last_lsn:(max scan.Wal.last_lsn snap_lsn) ())))

let open_ ?config ?sync_mode ?auto_checkpoint_bytes ?publish_period target =
  match target with
  | Memory db ->
      Ok (make ?publish_period ~backend:Mem ~master:db ~last_lsn:0 ())
  | Dir dir -> (
      match Durable.open_ ?config ?sync_mode ?auto_checkpoint_bytes dir with
      | Error m -> Error (Io m)
      | Ok d -> (
          match Durable.pending_ingest d with
          | Some { Durable.chunks; chunk_bytes } ->
              (* serving the pre-ingest (empty) database would silently
                 hide the durable prefix; recovery needs the source *)
              Durable.close d;
              Error
                (Invalid
                   (Printf.sprintf
                      "%s holds an interrupted bulk ingest (%d chunks, %d \
                       bytes); finish it with ingest --resume (or recreate \
                       the directory)"
                      dir chunks chunk_bytes))
          | None ->
              Ok
                (make ?publish_period ~backend:(Disk d) ~master:(Durable.db d)
                   ~last_lsn:(Durable.last_lsn d) ())))
  | Replica dir -> open_replica ?config ?publish_period dir

let init ?sync_mode ?auto_checkpoint_bytes ?publish_period ?(force = false)
    ~dir db =
  let file_in_the_way =
    match Sys.is_directory dir with
    | true -> false
    | false -> true
    | exception Sys_error _ -> false
  in
  if file_in_the_way then
    Error (Invalid (Printf.sprintf "%s exists and is not a directory" dir))
  else if (not force) && Durable.is_durable_dir dir then
    Error
      (Invalid
         (Printf.sprintf
            "%s already holds a durable store; pass force to overwrite it" dir))
  else
    match Durable.create ?sync_mode ?auto_checkpoint_bytes ~force ~dir db with
    | d ->
        Ok
          (make ?publish_period ~backend:(Disk d) ~master:db
             ~last_lsn:(Durable.last_lsn d) ())
    | exception Unix.Unix_error (e, fn, arg) ->
        Error (Io (Printf.sprintf "%s: %s(%s)" (Unix.error_message e) fn arg))
    | exception Sys_error m -> Error (Io m)

let ingest ?config ?sync_mode ?auto_checkpoint_bytes ?publish_period
    ?(force = false) ?batch_rows ?pool ?progress ~dir source =
  let file_in_the_way =
    match Sys.is_directory dir with
    | true -> false
    | false -> true
    | exception Sys_error _ -> false
  in
  if file_in_the_way then
    Error (Invalid (Printf.sprintf "%s exists and is not a directory" dir))
  else if (not force) && Durable.is_durable_dir dir then
    Error
      (Invalid
         (Printf.sprintf
            "%s already holds a durable store; pass force to overwrite it" dir))
  else
    match
      Durable.bulk_ingest ?sync_mode ?auto_checkpoint_bytes ~force ?config
        ?batch_rows ?pool ?progress ~dir source
    with
    | Ok d ->
        Ok
          (make ?publish_period ~backend:(Disk d) ~master:(Durable.db d)
             ~last_lsn:(Durable.last_lsn d) ())
    | Error m -> Error (Io m)
    | exception Unix.Unix_error (e, fn, arg) ->
        Error (Io (Printf.sprintf "%s: %s(%s)" (Unix.error_message e) fn arg))
    | exception Sys_error m -> Error (Io m)

let is_durable t = match t.backend with Disk _ -> true | Mem | Rep _ -> false

let dir t =
  match t.backend with
  | Disk d -> Some (Durable.dir d)
  | Rep dir -> Some dir
  | Mem -> None

let read_only t = match t.backend with Rep _ -> true | Mem | Disk _ -> false

let last_replay t =
  match t.backend with Disk d -> Durable.last_replay d | Mem | Rep _ -> None

(* --- reading --- *)

let pin t = Atomic.get t.published
let snapshot t = (pin t).db

let refresh t =
  with_lock t (fun () -> if not t.closed then sync_locked t);
  pin t

(* --- writing --- *)

let begin_ t = with_lock t (fun () -> Txn.begin_ t.mgr)

let group_window t =
  match t.backend with
  | Disk d -> (
      match Durable.sync_mode d with Wal.Group w -> Some w | _ -> None)
  | Mem | Rep _ -> None

let submit t tx =
  if not (Txn.is_active tx) then
    Error (Invalid "Engine.submit: transaction is finished")
  else
    with_lock t (fun () ->
        if t.closed then Error Closed
        else if read_only t then begin
          Txn.abort tx;
          Error Read_only
        end
        else begin
          (match t.stall with Some f -> f () | None -> ());
          let had_tail = t.durable_upto < t.last_lsn in
          match Txn.commit_r tx with
          | Error c -> Error (Conflict c)
          | Ok info when info.Txn.writes = 0 -> Ok t.last_lsn
          | Ok info ->
              t.commits <- t.commits + 1;
              let lsn =
                match t.backend with
                | Mem | Rep _ -> t.last_lsn + 1
                | Disk d -> Durable.last_lsn d
              in
              t.last_lsn <- lsn;
              t.dirty <- true;
              (match info.Txn.durability with
              | `Memory | `Synced -> acked_locked t lsn
              | `Deferred -> (
                  match group_window t with
                  | Some _ ->
                      (* the flusher (or a later window-closing commit)
                         will ack; remember when the tail started aging *)
                      if not had_tail then t.deferred_since <- Timing.now_s ()
                  | None ->
                      (* [Never]: the OS page cache is the declared
                         durability contract — ack now *)
                      acked_locked t lsn));
              Ok lsn
        end)

let await_durable t lsn =
  Mutex.lock t.lock;
  while t.durable_upto < lsn && not t.closed do
    Condition.wait t.flushed t.lock
  done;
  Mutex.unlock t.lock

let submit_durable t tx =
  match submit t tx with
  | Error _ as e -> e
  | Ok lsn ->
      await_durable t lsn;
      Ok lsn

let update_texts t writes =
  let tx = begin_ t in
  let rec stage = function
    | [] -> Ok ()
    | (n, v) :: rest -> (
        match Txn.update_text tx n v with
        | Ok () -> stage rest
        | Error `Not_text ->
            Txn.abort tx;
            Error
              (Invalid
                 (Printf.sprintf
                    "Engine.update_texts: node %d is not a text or attribute \
                     node"
                    n))
        | Error `Finished ->
            Error (Invalid "Engine.update_texts: transaction is finished"))
  in
  match stage writes with Error _ as e -> e | Ok () -> submit t tx

(* --- structural operations ---

   Validated here, result-typed, before anything reaches [Durable] (whose
   own checks raise). Single-operation transactions, serialised by the
   writer lock like everything else. *)

let check_insert_parent db parent =
  let store = Db.store db in
  if parent < 0 || parent >= Store.node_range store then
    Error (Invalid (Printf.sprintf "insert_xml: parent %d out of range" parent))
  else
    match Store.kind store parent with
    | Store.Document | Store.Element -> Ok ()
    | _ ->
        Error
          (Invalid
             (Printf.sprintf
                "insert_xml: parent %d cannot take children (not a live \
                 element or the document)"
                parent))

let check_delete_target db node =
  let store = Db.store db in
  if node < 0 || node >= Store.node_range store then
    Error (Invalid (Printf.sprintf "delete_subtree: node %d out of range" node))
  else if not (Store.is_live store node) then
    Error
      (Invalid (Printf.sprintf "delete_subtree: node %d is already deleted" node))
  else if node = Store.document then
    Error (Invalid "delete_subtree: cannot delete the document root")
  else Ok ()

(* After a structural commit: under [Always] the record is already
   synced; under [Group]/[Never] it is deferred like any other commit.
   [had_tail] is whether unacked commits already existed when the
   operation started — it decides whether this one opens a new window. *)
let structural_committed_locked t ~had_tail =
  t.commits <- t.commits + 1;
  let lsn =
    match t.backend with
    | Mem | Rep _ -> t.last_lsn + 1
    | Disk d -> Durable.last_lsn d
  in
  t.last_lsn <- lsn;
  t.dirty <- true;
  (match t.backend with
  | Mem | Rep _ -> acked_locked t lsn
  | Disk d -> (
      match Durable.sync_mode d with
      | Wal.Always | Wal.Never -> acked_locked t lsn
      | Wal.Group _ ->
          if not had_tail then t.deferred_since <- Timing.now_s ()));
  lsn

let insert_xml t ~parent fragment =
  with_lock t (fun () ->
      if t.closed then Error Closed
      else if read_only t then Error Read_only
      else
        match check_insert_parent t.master parent with
        | Error _ as e -> e
        | Ok () -> (
            let had_tail = t.durable_upto < t.last_lsn in
            let inserted =
              match t.backend with
              | Mem -> Db.insert_xml t.master ~parent fragment
              | Disk d -> Durable.insert_xml d ~parent fragment
              | Rep _ -> assert false (* rejected by the read_only guard *)
            in
            match inserted with
            | Error e -> Error (Parse e)
            | Ok roots -> Ok (roots, structural_committed_locked t ~had_tail)))

let delete_subtree t node =
  with_lock t (fun () ->
      if t.closed then Error Closed
      else if read_only t then Error Read_only
      else
        match check_delete_target t.master node with
        | Error _ as e -> e
        | Ok () ->
            let had_tail = t.durable_upto < t.last_lsn in
            (match t.backend with
            | Mem -> Db.delete_subtree t.master node
            | Disk d -> Durable.delete_subtree d node
            | Rep _ -> assert false (* rejected by the read_only guard *));
            Ok (structural_committed_locked t ~had_tail))

let sync t = with_lock t (fun () -> if not t.closed then sync_locked t)

(* Frames arrive in committed groups ([Wal.Tail.poll] delimits them the
   way recovery would); [Wal.apply]'s [from_lsn] watermark makes
   re-delivery a no-op, so the follower can replay the same batch after
   a retry without diverging. The applied LSN doubles as the durable
   watermark — the caller fsynced the bytes before handing them over —
   which is exactly the condition [publish_locked] requires. *)
let replica_apply t frames =
  with_lock t (fun () ->
      if t.closed then Error Closed
      else
        match t.backend with
        | Mem | Disk _ -> Error Read_only
        | Rep _ -> (
            match Wal.apply ~from_lsn:t.last_lsn t.master frames with
            | Error m -> Error (Invalid m)
            | Ok stats ->
                let lsn =
                  List.fold_left
                    (fun acc f -> max acc f.Wal.lsn)
                    t.last_lsn frames
                in
                t.commits <- t.commits + stats.Wal.applied_txns;
                t.last_lsn <- lsn;
                t.durable_upto <- lsn;
                if stats.Wal.applied_txns > 0 then t.dirty <- true;
                publish_locked t (Timing.now_s ());
                Condition.broadcast t.flushed;
                Ok lsn))

let checkpoint t =
  with_lock t (fun () ->
      if t.closed then Error Closed
      else
        match t.backend with
        | Rep _ -> Error Read_only
        | Mem -> Error (Invalid "checkpoint: engine is not durable")
        | Disk d ->
            Durable.checkpoint d;
            (* checkpointing synced everything it covered *)
            if t.last_lsn > t.durable_upto then t.durable_upto <- t.last_lsn;
            publish_locked t (Timing.now_s ());
            Condition.broadcast t.flushed;
            Ok ())

(* --- accounting --- *)

type stats = {
  epoch : int;
  commits : int;
  last_lsn : Wal.lsn;
  durable_lsn : Wal.lsn;
  txn : Txn.stats;
  durable : Durable.stats option;
  cow_pages : int;
  cow_bytes : int;
}

let stats t =
  with_lock t (fun () ->
      {
        epoch = t.epoch;
        commits = t.commits;
        last_lsn = t.last_lsn;
        durable_lsn = t.durable_upto;
        txn = Txn.stats t.mgr;
        durable =
          (match t.backend with
          | Disk d -> Some (Durable.stats d)
          | Mem | Rep _ -> None);
        cow_pages = Xvi_util.Bigvec.cow_pages ();
        cow_bytes = Xvi_util.Bigvec.cow_bytes ();
      })

let close t =
  (match t.flusher with
  | Some f -> Atomic.set f.stop true
  | None -> ());
  with_lock t (fun () ->
      if not t.closed then begin
        (* final sync + final publication, then cut everyone loose *)
        (match t.backend with
        | Disk d ->
            Durable.sync d;
            if t.last_lsn > t.durable_upto then t.durable_upto <- t.last_lsn;
            publish_locked t (Timing.now_s ());
            Durable.close d
        | Mem | Rep _ -> publish_locked t (Timing.now_s ()));
        t.closed <- true;
        Condition.broadcast t.flushed
      end);
  match t.flusher with
  | Some f ->
      Domain.join f.fdomain;
      t.flusher <- None
  | None -> ()

let set_commit_stall t hook = with_lock t (fun () -> t.stall <- hook)
