module Store = Xvi_xml.Store
module Db = Xvi_core.Db

type durability = {
  log_commit : (Store.node * string) list -> [ `Synced | `Deferred ];
  committed : unit -> unit;
}

type manager = {
  db : Db.t;
  versions : (Store.node, int) Hashtbl.t; (* node -> commit stamp *)
  durability : durability option;
  mutable clock : int;
  mutable committed : int;
  mutable empty : int;
  mutable aborted : int;
  mutable conflicts : int;
  mutable wal_synced : int;
  mutable wal_deferred : int;
}

type stats = {
  committed : int;
  empty : int;
  aborted : int;
  conflicts : int;
  wal_synced : int;
  wal_deferred : int;
}

type status = Active | Committed | Aborted

type t = {
  mgr : manager;
  start : int;
  writes : (Store.node, string) Hashtbl.t;
  mutable status : status;
}

type conflict = { node : Store.node; reason : string }

let manager ?durability db =
  {
    db;
    versions = Hashtbl.create 256;
    durability;
    clock = 0;
    committed = 0;
    empty = 0;
    aborted = 0;
    conflicts = 0;
    wal_synced = 0;
    wal_deferred = 0;
  }

let db mgr = mgr.db

let begin_ mgr =
  { mgr; start = mgr.clock; writes = Hashtbl.create 8; status = Active }

let check_active t op =
  match t.status with
  | Active -> ()
  | Committed | Aborted ->
      invalid_arg (Printf.sprintf "Txn.%s: transaction is finished" op)

let update_text t node value =
  match t.status with
  | Committed | Aborted -> Error `Finished
  | Active -> (
      match Store.kind (Db.store t.mgr.db) node with
      | Store.Text | Store.Attribute ->
          Hashtbl.replace t.writes node value;
          Ok ()
      | _ -> Error `Not_text)

let write_set t = Hashtbl.fold (fun n _ acc -> n :: acc) t.writes []

let is_active t =
  match t.status with Active -> true | Committed | Aborted -> false

type commit_info = {
  durability : [ `Memory | `Synced | `Deferred ];
  writes : int;
}

let commit_r t =
  check_active t "commit";
  (* First-committer-wins, checked only on the written leaves — the
     paper's point is precisely that ancestors need no locks and no
     conflict check, because recombination commutes. Structural deletes
     bypass the version table, so the kind a write validated at
     [update_text] time is re-checked here: a node tombstoned since then
     must surface as a conflict *before* the durability hook can log a
     record that would fail to apply (and fail again on every replay). *)
  let conflict =
    Hashtbl.fold
      (fun node _ acc ->
        match acc with
        | Some _ -> acc
        | None -> (
            match Hashtbl.find_opt t.mgr.versions node with
            | Some stamp when stamp > t.start ->
                Some
                  {
                    node;
                    reason =
                      Printf.sprintf
                        "node %d committed at stamp %d after txn start %d" node
                        stamp t.start;
                  }
            | _ -> (
                match Store.kind (Db.store t.mgr.db) node with
                | Store.Text | Store.Attribute -> None
                | _ ->
                    Some
                      {
                        node;
                        reason =
                          Printf.sprintf
                            "node %d was removed by a structural operation \
                             during the transaction"
                            node;
                      })))
      t.writes None
  in
  match conflict with
  | Some c ->
      t.status <- Aborted;
      t.mgr.aborted <- t.mgr.aborted + 1;
      t.mgr.conflicts <- t.mgr.conflicts + 1;
      Error c
  | None ->
      t.mgr.clock <- t.mgr.clock + 1;
      let stamp = t.mgr.clock in
      let updates = Hashtbl.fold (fun n v acc -> (n, v) :: acc) t.writes [] in
      (* Write-ahead: the log record must be appended (and, depending on
         the sync mode, forced) before any index or store byte changes,
         so a crash between the two replays the commit rather than
         losing it. *)
      let durability =
        match t.mgr.durability with
        | Some d when updates <> [] -> (
            match d.log_commit updates with
            | `Synced ->
                t.mgr.wal_synced <- t.mgr.wal_synced + 1;
                `Synced
            | `Deferred ->
                t.mgr.wal_deferred <- t.mgr.wal_deferred + 1;
                `Deferred)
        | _ -> `Memory
      in
      Db.update_texts t.mgr.db updates;
      List.iter (fun (n, _) -> Hashtbl.replace t.mgr.versions n stamp) updates;
      t.status <- Committed;
      (* an empty write set reaches neither the log nor the indices, so
         it is no commit for the durable layer either *)
      if updates = [] then t.mgr.empty <- t.mgr.empty + 1
      else t.mgr.committed <- t.mgr.committed + 1;
      (* Post-visibility hook: the durable layer checks its
         auto-checkpoint threshold here, once the database reflects the
         commit it would snapshot. *)
      (match t.mgr.durability with
      | Some d when updates <> [] -> d.committed ()
      | _ -> ());
      Ok { durability; writes = List.length updates }

let commit t = Result.map (fun (_ : commit_info) -> ()) (commit_r t)

let abort t =
  check_active t "abort";
  t.status <- Aborted;
  t.mgr.aborted <- t.mgr.aborted + 1

let stats (mgr : manager) =
  {
    committed = mgr.committed;
    empty = mgr.empty;
    aborted = mgr.aborted;
    conflicts = mgr.conflicts;
    wal_synced = mgr.wal_synced;
    wal_deferred = mgr.wal_deferred;
  }
