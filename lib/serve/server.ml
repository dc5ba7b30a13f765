module Range = Xvi_query.Range

type client = {
  dom : unit Domain.t;
  cfd : Unix.file_descr;
  alive : bool Atomic.t;
      (** who closes [cfd]: the handler normally; the shutdown drain
          when it must wake a handler blocked in a read *)
}

(* Replication is served through the same request loop, but its logic
   lives a layer up (Xvi_repl) — the server only routes. [promote]
   returns the replacement engine when a follower becomes the leader;
   the server publishes it so every *new* connection serves writable
   sessions, while connections opened against the replica keep their
   (read-only, still valid) pins. *)
type repl = {
  role : string;  (** "leader" or "follower", for logs and stats *)
  info : unit -> Protocol.response;
  snapshot_chunk : offset:int -> Protocol.response;
  pull : from_lsn:int -> max_bytes:int -> Protocol.response;
  frame_digest : anchor:int -> int -> Protocol.response;
  promote : unit -> ((Engine.t * repl) option, string) result;
  stats_extra : unit -> (string * string) list;
}

type t = {
  engine : Engine.t Atomic.t;
  socket_path : string;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  log : string -> unit;
  clients_lock : Mutex.t;
  mutable clients : client list;
  mutable repl : repl option;
}

let socket t = t.socket_path
let engine t = Atomic.get t.engine
let request_stop t = Atomic.set t.stop true
let set_repl t repl = t.repl <- repl
let set_engine t e = Atomic.set t.engine e
[@@xvi.lint.allow
  "D1: engine swap is a single-word atomic publication; request loops \
   re-read the cell per request, so no lock is needed"]

let create ?(log = fun (_ : string) -> ()) ?repl ~engine ~socket () =
  (* a peer that dies mid-frame must surface as EPIPE on the write —
     not as a process-killing SIGPIPE; every socket program in this
     process shares the disposition, which is the posture they all want *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (* a stale socket file from a crashed server would fail the bind *)
    if Sys.file_exists socket then Unix.unlink socket;
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.listen fd 64
  with
  | () ->
      log (Printf.sprintf "listening on %s" socket);
      Ok
        {
          engine = Atomic.make engine;
          socket_path = socket;
          listen_fd = fd;
          stop = Atomic.make false;
          log;
          clients_lock = Mutex.create ();
          clients = [];
          repl;
        }
  | exception Unix.Unix_error (e, fn, _) ->
      Unix.close fd;
      Error
        (Printf.sprintf "cannot listen on %s: %s (%s)" socket
           (Unix.error_message e) fn)

(* --- request execution against one session --- *)

let range_of_bounds lo hi =
  match (lo, hi) with
  | None, None -> Range.any
  | Some lo, None -> Range.at_least lo
  | None, Some hi -> Range.at_most hi
  | Some lo, Some hi -> Range.between lo hi

let epoch_response (pin : Engine.pinned) =
  Protocol.Epoch
    { epoch = pin.Engine.epoch; lsn = pin.Engine.lsn; commits = pin.Engine.commits }

let error_response = function
  | Engine.Conflict c ->
      Protocol.Conflict_r { node = c.Xvi_txn.Txn.node; reason = c.Xvi_txn.Txn.reason }
  | e -> Protocol.Err (Engine.error_to_string e)

let stats_pairs t =
  let s = Engine.stats (engine t) in
  let base =
    [
      ("epoch", string_of_int s.Engine.epoch);
      ("commits", string_of_int s.Engine.commits);
      ("last_lsn", string_of_int s.Engine.last_lsn);
      ("durable_lsn", string_of_int s.Engine.durable_lsn);
      ("txn_committed", string_of_int s.Engine.txn.Xvi_txn.Txn.committed);
      ("txn_empty", string_of_int s.Engine.txn.Xvi_txn.Txn.empty);
      ("txn_conflicts", string_of_int s.Engine.txn.Xvi_txn.Txn.conflicts);
    ]
  in
  let base =
    match s.Engine.durable with
    | None -> base @ [ ("durable", "no") ]
    | Some d ->
        base
        @ [
            ("durable", "yes");
            ("wal_bytes", string_of_int d.Xvi_wal.Durable.wal_bytes);
            ( "last_checkpoint_lsn",
              string_of_int d.Xvi_wal.Durable.last_checkpoint_lsn );
          ]
  in
  let base =
    base
    @ [
        ("cow_pages", string_of_int s.Engine.cow_pages);
        ("cow_bytes", string_of_int s.Engine.cow_bytes);
      ]
  in
  match t.repl with
  | None -> base
  | Some r -> base @ (("role", r.role) :: r.stats_extra ())

let exec t session req =
  let nodes_of = function
    | Ok ids -> Protocol.Nodes ids
    | Error e -> error_response e
  in
  match (req : Protocol.request) with
  | Protocol.Hello -> (epoch_response (Session.pinned session), `Continue)
  | Protocol.Pin -> (epoch_response (Session.refresh session), `Continue)
  | Protocol.Lookup_string v ->
      (Protocol.Nodes (Session.lookup_string session v), `Continue)
  | Protocol.Lookup_contains v ->
      (Protocol.Nodes (Session.lookup_contains session v), `Continue)
  | Protocol.Lookup_element_contains v ->
      (Protocol.Nodes (Session.lookup_element_contains session v), `Continue)
  | Protocol.Lookup_named v ->
      (Protocol.Nodes (Session.elements_named session v), `Continue)
  | Protocol.Lookup_typed (ty, lo, hi) ->
      (nodes_of (Session.lookup_typed session ty (range_of_bounds lo hi)), `Continue)
  | Protocol.Value n -> (
      match Session.string_value session n with
      | Ok v -> (Protocol.Value_r v, `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Begin -> (
      match Session.begin_ session with
      | Ok () -> (Protocol.Ok_, `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Set (n, v) -> (
      match Session.stage session n v with
      | Ok () -> (Protocol.Ok_, `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Commit -> (
      match Session.commit ~durable:true session with
      | Ok lsn -> (Protocol.Lsn lsn, `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Commit_deferred -> (
      match Session.commit ~durable:false session with
      | Ok lsn -> (Protocol.Lsn lsn, `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Abort ->
      Session.abort session;
      (Protocol.Ok_, `Continue)
  | Protocol.Insert (parent, frag) -> (
      match Session.insert_xml session ~parent frag with
      | Ok (roots, lsn) -> (Protocol.Nodes_lsn (roots, lsn), `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Delete n -> (
      match Session.delete_subtree session n with
      | Ok lsn -> (Protocol.Lsn lsn, `Continue)
      | Error e -> (error_response e, `Continue))
  | Protocol.Stats -> (Protocol.Stats_r (stats_pairs t), `Continue)
  | Protocol.Sync ->
      Engine.sync (engine t);
      (Protocol.Ok_, `Continue)
  | Protocol.Repl_info -> (
      match t.repl with
      | None -> (Protocol.Err "replication not enabled", `Continue)
      | Some r -> (r.info (), `Continue))
  | Protocol.Repl_snapshot offset -> (
      match t.repl with
      | None -> (Protocol.Err "replication not enabled", `Continue)
      | Some r -> (r.snapshot_chunk ~offset, `Continue))
  | Protocol.Repl_pull { from_lsn; max_bytes } -> (
      match t.repl with
      | None -> (Protocol.Err "replication not enabled", `Continue)
      | Some r -> (r.pull ~from_lsn ~max_bytes, `Continue))
  | Protocol.Repl_digest { anchor; lsn } -> (
      match t.repl with
      | None -> (Protocol.Err "replication not enabled", `Continue)
      | Some r -> (r.frame_digest ~anchor lsn, `Continue))
  | Protocol.Promote -> (
      match t.repl with
      | None -> (Protocol.Err "replication not enabled", `Continue)
      | Some r -> (
          match r.promote () with
          | Error m -> (Protocol.Err m, `Continue)
          | Ok None -> (Protocol.Ok_, `Continue)
          | Ok (Some (e, r')) ->
              (Atomic.set t.engine e
              [@xvi.lint.allow
                "D1: promotion swaps the engine cell atomically; the \
                 request loop re-reads it per request and the old \
                 engine stays valid for in-flight readers"]);
              t.repl <- Some r';
              t.log "promoted: serving as leader";
              (Protocol.Ok_, `Continue)))
  | Protocol.Quit -> (Protocol.Bye, `Quit)
  | Protocol.Shutdown -> (Protocol.Bye, `Shutdown)

let serve_connection t fd alive =
  let session = Session.create (engine t) in
  let respond r = Protocol.write_response fd r in
  let rec loop () =
    match Protocol.read_frame fd with
    | Error `Closed -> ()
    | Error (`Malformed m) ->
        (* framing is lost; tell the peer once and hang up *)
        respond (Protocol.Err ("protocol error: " ^ m))
    | Ok payload -> (
        match Protocol.decode_request payload with
        | Error m ->
            respond (Protocol.Err m);
            loop ()
        | Ok req -> (
            let resp, verdict = exec t session req in
            respond resp;
            match verdict with
            | `Continue -> loop ()
            | `Quit -> ()
            | `Shutdown -> request_stop t))
  in
  Fun.protect
    ~finally:(fun () ->
      Session.close session;
      if Atomic.exchange alive false then Unix.close fd)
    (fun () ->
      match loop () with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) ->
          (* peer vanished mid-write (or the drain shut us down);
             nothing to answer to *)
          ())

let run t =
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* a signal (e.g. the embedding process's SIGINT handler asking
             us to stop) interrupted the wait; loop and re-check [stop] *)
          ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              let alive = Atomic.make true in
              let dom = Domain.spawn (fun () -> serve_connection t fd alive) in
              Mutex.lock t.clients_lock;
              t.clients <- { dom; cfd = fd; alive } :: t.clients;
              Mutex.unlock t.clients_lock
          | exception Unix.Unix_error (_, _, _) -> ()));
      accept_loop ()
    end
  in
  accept_loop ();
  t.log "shutting down";
  (* no new connections; drain the live ones. A handler blocked in a
     read is woken by shutting its socket down; whoever wins the [alive]
     exchange owns the close. *)
  Mutex.lock t.clients_lock;
  let clients = t.clients in
  t.clients <- [];
  Mutex.unlock t.clients_lock;
  List.iter
    (fun c ->
      let mine = Atomic.exchange c.alive false in
      if mine then begin
        match Unix.shutdown c.cfd Unix.SHUTDOWN_ALL with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) -> ()
      end;
      Domain.join c.dom;
      if mine then Unix.close c.cfd)
    clients;
  Unix.close t.listen_fd;
  if Sys.file_exists t.socket_path then Unix.unlink t.socket_path;
  t.log "stopped"
