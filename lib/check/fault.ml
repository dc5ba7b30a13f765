module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Snapshot = Xvi_core.Snapshot
module Txn = Xvi_txn.Txn
module Wal = Xvi_wal.Wal
module Durable = Xvi_wal.Durable

type report = { truncations : int; flips : int }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* One damaged variant: load must return Error — an exception or an Ok
   means the snapshot layer trusted corrupt bytes. *)
let expect_rejection ~what path =
  (match Snapshot.is_snapshot path with
  | (true | false) -> ()
  | exception e ->
      failwith
        (Printf.sprintf "is_snapshot raised %s on %s" (Printexc.to_string e)
           what));
  match Snapshot.load path with
  | Error _ -> Ok ()
  | Ok _ -> Error (Printf.sprintf "load returned Ok on %s" what)
  | exception e ->
      Error
        (Printf.sprintf "load raised %s on %s" (Printexc.to_string e) what)

let sweep ?(flips = 128) ?all_offsets ?truncations:trunc_cap db =
  let path = Filename.temp_file "xvi_fault" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save db path;
      let pristine = read_file path in
      let size = String.length pristine in
      (match Snapshot.load path with
      | Ok _ -> ()
      | Error e ->
          failwith ("pristine snapshot did not load: " ^ Snapshot.error_to_string e));
      let all_offsets =
        match all_offsets with Some b -> b | None -> size <= 8192
      in
      let failure = ref None in
      let fail m = if !failure = None then failure := Some m in
      (* truncations: descending, so each step is one metadata-only
         syscall and the file never has to be rewritten *)
      let lengths =
        match trunc_cap with
        | None -> List.init size (fun i -> size - 1 - i)
        | Some cap when cap >= size -> List.init size (fun i -> size - 1 - i)
        | Some cap ->
            (* evenly spaced, still descending so truncate alone suffices *)
            List.init cap (fun i -> (cap - 1 - i) * size / cap)
      in
      let truncations = ref 0 in
      List.iter
        (fun len ->
          if !failure = None then begin
            Unix.truncate path len;
            incr truncations;
            match
              expect_rejection
                ~what:(Printf.sprintf "truncation to %d bytes" len)
                path
            with
            | Ok () -> ()
            | Error m -> fail m
          end)
        lengths;
      write_file path pristine;
      (* byte flips: every offset when small, else evenly spaced plus
         the whole header region (magic line and section table: every
         tag, length and digest) *)
      let offsets =
        if all_offsets then List.init size (fun i -> i)
        else begin
          let header = min size (Snapshot.header_bytes db) in
          let spaced =
            List.init flips (fun i -> i * size / flips)
          in
          List.sort_uniq Int.compare (List.init header (fun i -> i) @ spaced)
        end
      in
      let flipped = ref 0 in
      List.iter
        (fun pos ->
          if !failure = None then begin
            let damaged = Bytes.of_string pristine in
            Bytes.set damaged pos
              (Char.chr (Char.code pristine.[pos] lxor (1 lsl (pos mod 8))));
            write_file path (Bytes.to_string damaged);
            incr flipped;
            match
              expect_rejection
                ~what:(Printf.sprintf "byte flip at offset %d" pos)
                path
            with
            | Ok () -> ()
            | Error m -> fail m
          end)
        offsets;
      (* and the original must still load after a restore *)
      write_file path pristine;
      (match Snapshot.load path with
      | Ok _ -> ()
      | Error e ->
          fail ("restored pristine snapshot rejected: " ^ Snapshot.error_to_string e));
      match !failure with
      | Some m -> Error m
      | None -> Ok { truncations = !truncations; flips = !flipped })

(* --- crash-point sweep over the write-ahead log ---

   The oracle for every crash position is a database rebuilt from the
   base snapshot by re-issuing the committed prefix of operations
   through the public Db/Txn APIs — no WAL code anywhere in it. Which
   operations are "the committed prefix" is also decided independently
   of the scan logic: the live run records the log size after each
   commit, and a crash at byte [c] commits exactly the operations whose
   recorded size is <= c. Recovery must then produce a database whose
   logical digest ({!Db.digest}) equals the oracle's, twice over
   (reopening the recovered directory must change nothing —
   idempotency). *)

type wal_op =
  | W_batch of (Store.node * string) list
  | W_insert of { parent : Store.node; fragment : string }
  | W_delete of Store.node

type wal_report = { crash_points : int; wal_flips : int; commits : int }

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Re-issue the first [k] operations on a fresh load of the base
   snapshot. Batches go through Txn with the same insertion order as the
   live run, so the winning commit hands Db.update_texts the same list
   in the same order — the oracle and the recovery must agree bit for
   bit, not just logically. *)
let oracle_rebuild snap_path ops k =
  match Snapshot.load snap_path with
  | Error e ->
      failwith ("wal_sweep: oracle snapshot load: " ^ Snapshot.error_to_string e)
  | Ok db ->
      let mgr = Txn.manager db in
      List.iter
        (function
          | W_batch writes -> (
              let tx = Txn.begin_ mgr in
              List.iter
                (fun (n, v) ->
                  match Txn.update_text tx n v with
                  | Ok () -> ()
                  | Error _ -> failwith "wal_sweep: oracle update rejected")
                writes;
              match Txn.commit tx with
              | Ok () -> ()
              | Error _ -> failwith "wal_sweep: oracle commit conflicted")
          | W_insert { parent; fragment } -> (
              match Db.insert_xml db ~parent fragment with
              | Ok _ -> ()
              | Error _ -> failwith "wal_sweep: oracle insert rejected")
          | W_delete n -> Db.delete_subtree db n)
        (take k ops);
      Db.digest db

let wal_sweep ?crash_points ?(wal_flips = 128) db batches =
  let batches = List.filter (fun b -> b <> []) batches in
  let base = fresh_dir "xvi_wal_base" in
  let crash = fresh_dir "xvi_wal_crash" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf base;
      rm_rf crash)
    (fun () ->
      (* Live run: snapshot the caller's database at LSN 0, reopen the
         directory (so the caller's copy is never mutated), and commit
         the scripted operations, recording the log size after each. *)
      Durable.close (Durable.create ~sync_mode:Wal.Always ~dir:base db);
      let live =
        match Durable.open_ base with
        | Ok t -> t
        | Error m -> failwith ("wal_sweep: reopen failed: " ^ m)
      in
      let boundaries = ref [] (* (wal size after commit, op), reversed *) in
      let record op =
        boundaries := ((Durable.stats live).Durable.wal_bytes, op) :: !boundaries
      in
      List.iter
        (fun writes ->
          match Durable.update_texts live writes with
          | Ok () -> record (W_batch writes)
          | Error (c : Txn.conflict) ->
              failwith ("wal_sweep: live commit conflicted: " ^ c.Txn.reason))
        batches;
      let probe = "<wal-probe kind=\"crash-sweep\">probe text</wal-probe>" in
      (match Durable.insert_xml live ~parent:Store.document probe with
      | Ok (root :: _) ->
          record (W_insert { parent = Store.document; fragment = probe });
          Durable.delete_subtree live root;
          record (W_delete root)
      | Ok [] -> failwith "wal_sweep: probe insert returned no roots"
      | Error e ->
          failwith
            ("wal_sweep: probe insert rejected: "
            ^ Xvi_xml.Parser.error_to_string e));
      Durable.close live;
      let boundaries = List.rev !boundaries in
      let ops = List.map snd boundaries in
      let sizes = Array.of_list (List.map fst boundaries) in
      let commits = Array.length sizes in
      let wal_bytes = read_file (Filename.concat base "wal.log") in
      let snap_bytes = read_file (Filename.concat base "snapshot.xvi") in
      let wal_size = String.length wal_bytes in
      let magic_len = String.length Wal.magic in
      (* memoised oracle digests, one per committed-prefix length *)
      let oracle = Array.make (commits + 1) None in
      let oracle_digest k =
        match oracle.(k) with
        | Some d -> d
        | None ->
            let d = oracle_rebuild (Filename.concat base "snapshot.xvi") ops k in
            oracle.(k) <- Some d;
            d
      in
      let committed_before cut =
        let k = ref 0 in
        Array.iter (fun s -> if s <= cut then incr k) sizes;
        !k
      in
      let failure = ref None in
      let fail m = if !failure = None then failure := Some m in
      let crash_snap = Filename.concat crash "snapshot.xvi" in
      let crash_wal = Filename.concat crash "wal.log" in
      (* One crash variant: the snapshot plus the damaged log. Expects
         recovery to land exactly on the oracle of [expect] commits, and
         a second recovery of the recovered directory to change
         nothing. *)
      let check_variant ~what ~damaged ~expect =
        write_file crash_snap snap_bytes;
        write_file crash_wal damaged;
        match Durable.open_ crash with
        | Error m ->
            fail (Printf.sprintf "recovery failed on %s: %s" what m)
        | Ok t ->
            let d1 = Db.digest (Durable.db t) in
            Durable.close t;
            if d1 <> oracle_digest expect then
              fail
                (Printf.sprintf
                   "recovery diverged from oracle on %s (%d commits expected)"
                   what expect)
            else (
              match Durable.open_ crash with
              | Error m ->
                  fail (Printf.sprintf "second recovery failed on %s: %s" what m)
              | Ok t2 ->
                  let d2 = Db.digest (Durable.db t2) in
                  Durable.close t2;
                  if d2 <> d1 then
                    fail
                      (Printf.sprintf "recovery is not idempotent on %s" what))
      in
      let expect_open_error ~what ~damaged =
        write_file crash_snap snap_bytes;
        write_file crash_wal damaged;
        match Durable.open_ crash with
        | Error _ -> ()
        | Ok t ->
            Durable.close t;
            fail (Printf.sprintf "recovery accepted %s" what)
      in
      (* crash positions: every byte length of the log, or [crash_points]
         evenly spaced ones plus every commit boundary and its
         neighbours *)
      let lengths =
        match crash_points with
        | None -> List.init (wal_size + 1) (fun i -> i)
        | Some cap ->
            let spaced = List.init cap (fun i -> i * wal_size / cap) in
            let edges =
              Array.to_list sizes
              |> List.concat_map (fun s -> [ s - 1; s; s + 1 ])
            in
            List.sort_uniq Int.compare
              ((0 :: (magic_len - 1) :: magic_len :: wal_size :: edges) @ spaced)
            |> List.filter (fun l -> l >= 0 && l <= wal_size)
      in
      let points = ref 0 in
      List.iter
        (fun len ->
          if !failure = None then begin
            incr points;
            let damaged = String.sub wal_bytes 0 len in
            let what = Printf.sprintf "log torn at byte %d of %d" len wal_size in
            if len < magic_len then expect_open_error ~what ~damaged
            else check_variant ~what ~damaged ~expect:(committed_before len)
          end)
        lengths;
      (* byte flips inside the log: damage after the magic must recover
         the prefix before the damaged frame; damage inside the magic
         must be rejected *)
      let flip_offsets =
        let wanted = min wal_flips wal_size in
        if wanted <= 0 then []
        else
          List.sort_uniq Int.compare
            (List.init magic_len (fun i -> i)
            @ List.init wanted (fun i -> i * wal_size / wanted))
          |> List.filter (fun p -> p >= 0 && p < wal_size)
      in
      let flipped = ref 0 in
      List.iter
        (fun pos ->
          if !failure = None then begin
            incr flipped;
            let damaged = Bytes.of_string wal_bytes in
            Bytes.set damaged pos
              (Char.chr
                 (Char.code wal_bytes.[pos] lxor (1 lsl (pos mod 8))));
            let damaged = Bytes.to_string damaged in
            let what = Printf.sprintf "byte flip at log offset %d" pos in
            if pos < magic_len then expect_open_error ~what ~damaged
            else check_variant ~what ~damaged ~expect:(committed_before pos)
          end)
        flip_offsets;
      match !failure with
      | Some m -> Error m
      | None ->
          Ok { crash_points = !points; wal_flips = !flipped; commits })

(* --- crash-point sweep over group commit across sessions ---

   Same oracle discipline as [wal_sweep], but the live run goes through
   the serving engine: up to [sessions] concurrently open transactions
   commit deferred under a group window too wide to ever close on its
   own, so only the explicit engine sync at the end of each round — one
   shared fsync for the whole round — makes them durable. The WAL size
   recorded after each commit and at each sync boundary decides,
   independently of the recovery scanner, what a crash at byte [c] may
   keep: recovery must land on exactly the committed prefix, and at a
   sync boundary on exactly the acked set — every acknowledged commit
   present, no unacked commit visible. *)

module Iset = Set.Make (Int)
module Engine = Xvi_serve.Engine

type serve_report = {
  serve_crash_points : int;
  sessions : int;
  serve_commits : int;
  syncs : int;
}

let serve_sweep ?crash_points ?(sessions = 3) db batches =
  let batches = List.filter (fun b -> b <> []) batches in
  let base = fresh_dir "xvi_serve_base" in
  let crash = fresh_dir "xvi_serve_crash" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf base;
      rm_rf crash)
    (fun () ->
      (* a window no commit will ever out-wait: only explicit syncs ack *)
      let window = Wal.Group 3600.0 in
      (match Engine.init ~sync_mode:window ~dir:base db with
      | Ok e -> Engine.close e
      | Error e ->
          failwith ("serve_sweep: init failed: " ^ Engine.error_to_string e));
      let engine =
        match Engine.open_ ~sync_mode:window (Engine.Dir base) with
        | Ok e -> e
        | Error e ->
            failwith ("serve_sweep: open failed: " ^ Engine.error_to_string e)
      in
      (* rounds: up to [sessions] pairwise-disjoint batches staged in
         concurrently open transactions (overlap would make the later
         commit a legitimate first-committer-wins conflict, which is not
         what this sweep is about) *)
      let nodes_of b = Iset.of_list (List.map fst b) in
      let rounds =
        let rec pack acc cur cur_nodes n = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | b :: rest ->
              let bn = nodes_of b in
              if n < sessions && Iset.disjoint cur_nodes bn then
                pack acc (b :: cur) (Iset.union cur_nodes bn) (n + 1) rest
              else pack (List.rev cur :: acc) [ b ] bn 1 rest
        in
        pack [] [] Iset.empty 0 batches
      in
      let boundaries = ref [] (* (wal size after commit, op), reversed *) in
      let sync_points = ref [] (* (wal size at sync, commits acked), reversed *) in
      let committed = ref 0 in
      let wal_bytes () =
        match (Engine.stats engine).Engine.durable with
        | Some d -> d.Durable.wal_bytes
        | None -> failwith "serve_sweep: engine is not durable"
      in
      List.iter
        (fun round ->
          (* every session's transaction is open before any commits, so
             the log interleaves their records inside one unsynced
             window *)
          let txs =
            List.map
              (fun b ->
                let tx = Engine.begin_ engine in
                List.iter
                  (fun (n, v) ->
                    match Txn.update_text tx n v with
                    | Ok () -> ()
                    | Error _ -> failwith "serve_sweep: stage rejected")
                  b;
                (tx, b))
              round
          in
          List.iter
            (fun (tx, b) ->
              match Engine.submit engine tx with
              | Ok _ ->
                  incr committed;
                  boundaries := (wal_bytes (), W_batch b) :: !boundaries
              | Error e ->
                  failwith
                    ("serve_sweep: commit rejected: " ^ Engine.error_to_string e))
            txs;
          (* the whole round must still be pending — group commit defers
             every ack to the shared fsync *)
          let st = Engine.stats engine in
          if round <> [] && st.Engine.durable_lsn >= st.Engine.last_lsn then
            failwith
              "serve_sweep: deferred commits were acked before the shared sync";
          Engine.sync engine;
          let st = Engine.stats engine in
          if st.Engine.durable_lsn < st.Engine.last_lsn then
            failwith "serve_sweep: sync left commits unacked";
          sync_points := (wal_bytes (), !committed) :: !sync_points)
        rounds;
      Engine.close engine;
      let boundaries = List.rev !boundaries in
      let syncs = List.rev !sync_points in
      let ops = List.map snd boundaries in
      let sizes = Array.of_list (List.map fst boundaries) in
      let commits = Array.length sizes in
      let wal_all = read_file (Filename.concat base "wal.log") in
      let snap_bytes = read_file (Filename.concat base "snapshot.xvi") in
      let wal_size = String.length wal_all in
      let magic_len = String.length Wal.magic in
      let oracle = Array.make (commits + 1) None in
      let oracle_digest k =
        match oracle.(k) with
        | Some d -> d
        | None ->
            let d = oracle_rebuild (Filename.concat base "snapshot.xvi") ops k in
            oracle.(k) <- Some d;
            d
      in
      let committed_before cut =
        let k = ref 0 in
        Array.iter (fun s -> if s <= cut then incr k) sizes;
        !k
      in
      let failure = ref None in
      let fail m = if !failure = None then failure := Some m in
      (* the ack bookkeeping must agree with the recorded boundaries:
         at a sync point, the durable log holds exactly the acked set *)
      List.iter
        (fun (s, acked) ->
          if committed_before s <> acked then
            fail
              (Printf.sprintf
                 "sync at %d bytes acked %d commits but the log holds %d" s
                 acked (committed_before s)))
        syncs;
      let crash_snap = Filename.concat crash "snapshot.xvi" in
      let crash_wal = Filename.concat crash "wal.log" in
      let check_variant ~what ~damaged ~expect =
        write_file crash_snap snap_bytes;
        write_file crash_wal damaged;
        match Durable.open_ crash with
        | Error m -> fail (Printf.sprintf "recovery failed on %s: %s" what m)
        | Ok t ->
            let d1 = Db.digest (Durable.db t) in
            Durable.close t;
            if d1 <> oracle_digest expect then
              fail
                (Printf.sprintf
                   "recovery diverged from oracle on %s (%d commits expected)"
                   what expect)
            else (
              match Durable.open_ crash with
              | Error m ->
                  fail (Printf.sprintf "second recovery failed on %s: %s" what m)
              | Ok t2 ->
                  let d2 = Db.digest (Durable.db t2) in
                  Durable.close t2;
                  if d2 <> d1 then
                    fail (Printf.sprintf "recovery is not idempotent on %s" what))
      in
      let expect_open_error ~what ~damaged =
        write_file crash_snap snap_bytes;
        write_file crash_wal damaged;
        match Durable.open_ crash with
        | Error _ -> ()
        | Ok t ->
            Durable.close t;
            fail (Printf.sprintf "recovery accepted %s" what)
      in
      (* crash positions: every byte length, or [crash_points] evenly
         spaced ones plus every commit boundary, every sync boundary,
         and their neighbours *)
      let lengths =
        match crash_points with
        | None -> List.init (wal_size + 1) (fun i -> i)
        | Some cap ->
            let spaced = List.init cap (fun i -> i * wal_size / cap) in
            let edges =
              (Array.to_list sizes @ List.map fst syncs)
              |> List.concat_map (fun s -> [ s - 1; s; s + 1 ])
            in
            List.sort_uniq Int.compare
              ((0 :: (magic_len - 1) :: magic_len :: wal_size :: edges) @ spaced)
            |> List.filter (fun l -> l >= 0 && l <= wal_size)
      in
      let points = ref 0 in
      List.iter
        (fun len ->
          if !failure = None then begin
            incr points;
            let damaged = String.sub wal_all 0 len in
            let what =
              Printf.sprintf "group-commit log torn at byte %d of %d" len
                wal_size
            in
            if len < magic_len then expect_open_error ~what ~damaged
            else check_variant ~what ~damaged ~expect:(committed_before len)
          end)
        lengths;
      match !failure with
      | Some m -> Error m
      | None ->
          Ok
            {
              serve_crash_points = !points;
              sessions;
              serve_commits = commits;
              syncs = List.length syncs;
            })

(* --- replication fault sweep: two nodes, one faulty stream ---

   The leader run and the oracle discipline are exactly [wal_sweep]'s.
   What is under test here is the replication path: a real
   [Xvi_repl.Follower] fed by an in-process transport whose "leader" is
   a byte string we cut, truncate and corrupt at will. The follower's
   code — batch validation, append-then-apply, rejoin walkback,
   re-seed, promotion — is the production code, byte for byte; only
   the wire is fake. *)

module Repl_transport = Xvi_repl.Transport
module Follower = Xvi_repl.Follower

type repl_report = {
  repl_cut_points : int;
  stream_flips : int;
  follower_crashes : int;
  repl_failovers : int;
  repl_commits : int;
}

let repl_sweep ?cut_points ?stream_flips:flip_cap ?follower_crashes:crash_cap
    ?failovers:failover_cap db batches =
  let batches = List.filter (fun b -> b <> []) batches in
  let base = fresh_dir "xvi_repl_base" in
  let scratch = fresh_dir "xvi_repl_scratch" in
  let fdir = Filename.concat scratch "follower" in
  let golden = Filename.concat scratch "golden" in
  let old_dir = Filename.concat scratch "rejoin" in
  let fake_wal = Filename.concat scratch "leader_wal.log" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf fdir;
      rm_rf golden;
      rm_rf old_dir;
      rm_rf scratch;
      rm_rf base)
    (fun () ->
      (* live leader run: snapshot at LSN 0, every commit fsynced *)
      Durable.close (Durable.create ~sync_mode:Wal.Always ~dir:base db);
      let live =
        match Durable.open_ base with
        | Ok t -> t
        | Error m -> failwith ("repl_sweep: reopen failed: " ^ m)
      in
      let boundaries = ref [] in
      let record op =
        boundaries := ((Durable.stats live).Durable.wal_bytes, op) :: !boundaries
      in
      List.iter
        (fun writes ->
          match Durable.update_texts live writes with
          | Ok () -> record (W_batch writes)
          | Error (c : Txn.conflict) ->
              failwith ("repl_sweep: live commit conflicted: " ^ c.Txn.reason))
        batches;
      let probe = "<repl-probe kind=\"repl-sweep\">probe text</repl-probe>" in
      (match Durable.insert_xml live ~parent:Store.document probe with
      | Ok (root :: _) ->
          record (W_insert { parent = Store.document; fragment = probe });
          Durable.delete_subtree live root;
          record (W_delete root)
      | Ok [] -> failwith "repl_sweep: probe insert returned no roots"
      | Error e ->
          failwith
            ("repl_sweep: probe insert rejected: "
            ^ Xvi_xml.Parser.error_to_string e));
      Durable.close live;
      let boundaries = List.rev !boundaries in
      let ops = List.map snd boundaries in
      let sizes = Array.of_list (List.map fst boundaries) in
      let commits = Array.length sizes in
      let wal_all = read_file (Filename.concat base "wal.log") in
      let snap_bytes = read_file (Filename.concat base "snapshot.xvi") in
      let wal_size = String.length wal_all in
      let magic_len = String.length Wal.magic in
      let oracle = Array.make (commits + 1) None in
      let oracle_digest k =
        match oracle.(k) with
        | Some d -> d
        | None ->
            let d = oracle_rebuild (Filename.concat base "snapshot.xvi") ops k in
            oracle.(k) <- Some d;
            d
      in
      let committed_before cut =
        let k = ref 0 in
        Array.iter (fun s -> if s <= cut then incr k) sizes;
        !k
      in
      let failure = ref None in
      let fail m = if !failure = None then failure := Some m in
      (* the fake leader: serves whatever prefix [visible] holds,
         through the same Tail code the real leader serves with; one
         pending corruption flips a byte of the next shipped batch *)
      let visible = ref wal_all in
      let corrupt = ref None in
      let flip s pos =
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code s.[pos] lxor (1 lsl (pos mod 8))));
        Bytes.to_string b
      in
      let leader : Repl_transport.t =
        {
          Repl_transport.info = (fun () -> Error "fake leader: no info");
          snapshot_chunk =
            (fun ~offset ->
              let total = String.length snap_bytes in
              if offset >= total then Ok ("", total)
              else Ok (String.sub snap_bytes offset (total - offset), total));
          pull =
            (fun ~from_lsn ~max_bytes ->
              write_file fake_wal !visible;
              match Wal.scan_string !visible with
              | Error m -> Error m
              | Ok scan -> (
                  let durable = scan.Wal.last_lsn in
                  let tail = Wal.Tail.create ~from_lsn fake_wal in
                  match Wal.Tail.poll ~upto_lsn:durable ~max_bytes tail with
                  | Error m -> Error m
                  | Ok Wal.Tail.Await -> Ok (`Frames ("", durable))
                  | Ok (Wal.Tail.Snapshot_needed { base }) ->
                      Ok (`Snapshot_needed base)
                  | Ok (Wal.Tail.Frames { bytes; _ }) ->
                      let bytes =
                        match !corrupt with
                        | Some pos when pos < String.length bytes ->
                            corrupt := None;
                            flip bytes pos
                        | Some _ | None -> bytes
                      in
                      Ok (`Frames (bytes, durable))));
          frame_digest =
            (fun ~anchor lsn ->
              match Wal.scan_string !visible with
              | Error m -> Error m
              | Ok scan -> (
                  if anchor < 1 || lsn < anchor then Ok `Missing
                  else
                    match scan.Wal.frames with
                    | [] -> Ok `Missing
                    | first :: _ when anchor < first.Wal.lsn ->
                        Ok (`Snapshot_needed (first.Wal.lsn - 1))
                    | frames ->
                        if List.exists (fun f -> f.Wal.lsn = lsn) frames then begin
                          let buf = Buffer.create 256 in
                          List.iter
                            (fun f ->
                              if anchor <= f.Wal.lsn && f.Wal.lsn <= lsn then
                                Buffer.add_string buf (Wal.frame_digest f))
                            frames;
                          Ok
                            (`Digest
                              (Digest.to_hex (Digest.string (Buffer.contents buf))))
                        end
                        else Ok `Missing));
          close = (fun () -> ());
        }
      in
      let drain f =
        let rec go n =
          if n > 100_000 then Error "follower did not converge"
          else
            match Follower.catch_up f with
            | Ok `Caught_up -> Ok ()
            | Ok (`Applied _) | Ok `Resynced -> go (n + 1)
            | Error _ as e -> e
        in
        go 0
      in
      let dir_digest dir ~what =
        match Durable.open_ dir with
        | Error m -> Error (Printf.sprintf "recovery failed on %s: %s" what m)
        | Ok t ->
            let d = Db.digest (Durable.db t) in
            Durable.close t;
            Ok d
      in
      let follower_over transport ~dir =
        Follower.create ~sync_mode:Wal.Always ~batch_bytes:(1 lsl 30)
          ~transport ~dir ()
      in
      let fresh_follower ~dir =
        rm_rf dir;
        follower_over leader ~dir
      in
      (* recover the follower's directory and require the oracle of
         [expect] commits, twice over (promotion = this recovery) *)
      let check_promoted_dir dir ~what ~expect =
        match dir_digest dir ~what with
        | Error m -> fail m
        | Ok d1 ->
            if d1 <> oracle_digest expect then
              fail
                (Printf.sprintf
                   "state diverged from oracle on %s (%d commits expected)"
                   what expect)
            else (
              match dir_digest dir ~what:(what ^ ", second recovery") with
              | Error m -> fail m
              | Ok d2 ->
                  if d2 <> d1 then
                    fail (Printf.sprintf "recovery is not idempotent on %s" what))
      in
      (* --- leader-crash sweep: cut the stream at every frame boundary
         (and just inside each frame); the follower must converge on
         exactly the committed prefix of the cut *)
      let frame_ends =
        let rec go pos acc =
          match Wal.decode wal_all pos with
          | Wal.Frame (_, next) -> go next (next :: acc)
          | Wal.End | Wal.Torn _ -> List.rev acc
        in
        go magic_len []
      in
      let clamp = List.filter (fun c -> c >= magic_len && c <= wal_size) in
      let cuts =
        match cut_points with
        | None ->
            List.sort_uniq Int.compare
              (clamp
                 (magic_len :: wal_size
                 :: List.concat_map (fun c -> [ c - 1; c; c + 1 ]) frame_ends))
        | Some cap ->
            let spaced =
              List.init cap (fun i ->
                  magic_len + (i * (wal_size - magic_len) / cap))
            in
            let edges =
              Array.to_list sizes
              |> List.concat_map (fun s -> [ s - 1; s; s + 1 ])
            in
            List.sort_uniq Int.compare
              (clamp ((magic_len :: wal_size :: edges) @ spaced))
      in
      let cut_count = ref 0 in
      List.iter
        (fun c ->
          if !failure = None then begin
            incr cut_count;
            visible := String.sub wal_all 0 c;
            let what =
              Printf.sprintf "leader crash at byte %d of %d" c wal_size
            in
            match fresh_follower ~dir:fdir with
            | Error m -> fail (Printf.sprintf "bootstrap on %s: %s" what m)
            | Ok f -> (
                match drain f with
                | Error m ->
                    Follower.close f;
                    fail (Printf.sprintf "catch-up on %s: %s" what m)
                | Ok () ->
                    Follower.close f;
                    check_promoted_dir fdir ~what ~expect:(committed_before c))
          end)
        cuts;
      (* --- corruption sweep: flip one byte of the shipped stream; the
         follower must reject the whole batch with nothing applied, then
         converge once the wire is clean again *)
      visible := wal_all;
      let stream_len = wal_size - magic_len in
      let flip_positions =
        match flip_cap with
        | None -> List.init stream_len (fun i -> i)
        | Some cap ->
            let wanted = min cap stream_len in
            if wanted <= 0 then []
            else
              List.sort_uniq Int.compare
                (List.init wanted (fun i -> i * stream_len / wanted))
      in
      let flip_count = ref 0 in
      List.iter
        (fun pos ->
          if !failure = None then begin
            incr flip_count;
            match fresh_follower ~dir:fdir with
            | Error m ->
                fail (Printf.sprintf "bootstrap before flip at %d: %s" pos m)
            | Ok f ->
                corrupt := Some pos;
                (match Follower.catch_up f with
                | Ok (`Caught_up | `Applied _ | `Resynced) ->
                    fail
                      (Printf.sprintf
                         "follower accepted a stream with byte %d flipped" pos)
                | Error _ -> ());
                corrupt := None;
                if !failure = None && Follower.applied_lsn f <> 0 then
                  fail
                    (Printf.sprintf
                       "partial batch applied after flip at %d (lsn %d)" pos
                       (Follower.applied_lsn f));
                (match drain f with
                | Error m ->
                    fail
                      (Printf.sprintf "no convergence after flip at %d: %s" pos m)
                | Ok () -> ());
                Follower.close f;
                if !failure = None then begin
                  match
                    dir_digest fdir
                      ~what:(Printf.sprintf "retry after flip at %d" pos)
                  with
                  | Error m -> fail m
                  | Ok d ->
                      if d <> oracle_digest commits then
                        fail
                          (Printf.sprintf
                             "converged state diverged from oracle after flip \
                              at %d"
                             pos)
                end
          end)
        flip_positions;
      (* --- follower-crash sweep: tear the follower's own log at every
         length; re-creating the follower over the damaged directory
         must truncate the torn tail (or re-seed from scratch) and
         converge back to the full oracle *)
      visible := wal_all;
      (match fresh_follower ~dir:golden with
      | Error m -> fail ("golden bootstrap: " ^ m)
      | Ok f -> (
          match drain f with
          | Error m ->
              Follower.close f;
              fail ("golden catch-up: " ^ m)
          | Ok () -> Follower.close f));
      let crash_count = ref 0 in
      if !failure = None then begin
        let golden_wal = read_file (Filename.concat golden "wal.log") in
        let golden_size = String.length golden_wal in
        let crash_lengths =
          match crash_cap with
          | None -> List.init (golden_size + 1) (fun i -> i)
          | Some cap ->
              List.sort_uniq Int.compare
                (0 :: golden_size
                :: List.init cap (fun i -> i * golden_size / cap))
        in
        List.iter
          (fun len ->
            if !failure = None then begin
              incr crash_count;
              let what =
                Printf.sprintf "follower crash at byte %d of %d" len golden_size
              in
              rm_rf fdir;
              Unix.mkdir fdir 0o755;
              write_file (Filename.concat fdir "snapshot.xvi") snap_bytes;
              write_file (Filename.concat fdir "wal.log")
                (String.sub golden_wal 0 len);
              match follower_over leader ~dir:fdir with
              | Error m -> fail (Printf.sprintf "rejoin on %s: %s" what m)
              | Ok f -> (
                  match drain f with
                  | Error m ->
                      Follower.close f;
                      fail (Printf.sprintf "catch-up on %s: %s" what m)
                  | Ok () -> (
                      Follower.close f;
                      match dir_digest fdir ~what with
                      | Error m -> fail m
                      | Ok d ->
                          if d <> oracle_digest commits then
                            fail
                              (Printf.sprintf "state diverged from oracle on %s"
                                 what)))
            end)
          crash_lengths
      end;
      (* --- failover rounds: promote the follower at a cut, commit a
         fresh write on the promoted leader, then let the deposed
         leader rejoin with its full (now divergent) log — the walkback
         must truncate its tail at the last common LSN and both
         directories must recover to bit-identical state *)
      let failover_cuts =
        let all =
          List.sort_uniq Int.compare (magic_len :: Array.to_list sizes)
        in
        match failover_cap with
        | None -> all
        | Some cap ->
            let arr = Array.of_list all in
            let n = Array.length arr in
            if n <= cap then all
            else List.init cap (fun i -> arr.(i * n / cap))
      in
      let failover_count = ref 0 in
      List.iter
        (fun c ->
          if !failure = None then begin
            incr failover_count;
            visible := String.sub wal_all 0 c;
            let what = Printf.sprintf "failover at cut %d" c in
            let round () =
              match fresh_follower ~dir:fdir with
              | Error m -> Error ("bootstrap: " ^ m)
              | Ok f -> (
                  match drain f with
                  | Error m ->
                      Follower.close f;
                      Error ("catch-up: " ^ m)
                  | Ok () -> (
                      match Follower.promote f with
                      | Error m ->
                          Follower.close f;
                          Error ("promote: " ^ m)
                      | Ok (promoted, _handlers) ->
                          Fun.protect
                            ~finally:(fun () ->
                              Follower.close f;
                              Engine.close promoted)
                            (fun () ->
                              let frag =
                                Printf.sprintf
                                  "<failover cut=\"%d\">fresh write</failover>"
                                  c
                              in
                              match
                                Engine.insert_xml promoted
                                  ~parent:Store.document frag
                              with
                              | Error e ->
                                  Error
                                    ("failover write: "
                                    ^ Engine.error_to_string e)
                              | Ok _ -> (
                                  Engine.sync promoted;
                                  rm_rf old_dir;
                                  Unix.mkdir old_dir 0o755;
                                  write_file
                                    (Filename.concat old_dir "snapshot.xvi")
                                    snap_bytes;
                                  write_file
                                    (Filename.concat old_dir "wal.log")
                                    wal_all;
                                  match
                                    follower_over
                                      (Repl_transport.of_engine promoted)
                                      ~dir:old_dir
                                  with
                                  | Error m -> Error ("rejoin: " ^ m)
                                  | Ok old -> (
                                      match drain old with
                                      | Error m ->
                                          Follower.close old;
                                          Error ("rejoin catch-up: " ^ m)
                                      | Ok () ->
                                          let a = Follower.applied_lsn old in
                                          let b =
                                            (Engine.pin promoted).Engine.lsn
                                          in
                                          Follower.close old;
                                          if a <> b then
                                            Error
                                              (Printf.sprintf
                                                 "rejoined node stopped at \
                                                  lsn %d, leader at %d"
                                                 a b)
                                          else Ok ())))))
            in
            match round () with
            | Error m -> fail (Printf.sprintf "%s: %s" what m)
            | Ok () -> (
                match
                  ( dir_digest fdir ~what:(what ^ ", promoted"),
                    dir_digest old_dir ~what:(what ^ ", rejoined") )
                with
                | Error m, _ | _, Error m -> fail m
                | Ok d1, Ok d2 ->
                    if d1 <> d2 then
                      fail
                        (Printf.sprintf
                           "rejoined node did not converge to the promoted \
                            leader on %s"
                           what))
          end)
        failover_cuts;
      match !failure with
      | Some m -> Error m
      | None ->
          Ok
            {
              repl_cut_points = !cut_count;
              stream_flips = !flip_count;
              follower_crashes = !crash_count;
              repl_failovers = !failover_count;
              repl_commits = commits;
            })

(* --- crash-point sweep over streaming bulk ingest ---

   The live run streams a document through Durable.bulk_ingest with a
   deliberately tiny batch budget, recording the log size after every
   committed chunk. The crash sweep then replants the pre-ingest
   snapshot plus a cut (or corrupted) log in a scratch directory and
   demands, independently of the recovery code's own bookkeeping:

   - open_ lands on the pre-ingest (empty) database with exactly the
     chunks whose commit boundary survived the cut held as pending —
     and is idempotent about it;
   - resume_ingest over the original document converges to a database
     digest-identical to the serial whole-document build — no
     matter where the crash cut;
   - the completed directory (live or resumed) reopens to that same
     digest, which doubles as the streamed-vs-whole differential. *)

type ingest_report = {
  ingest_crash_points : int;
  ingest_flips : int;
  ingest_batches : int;
}

let ingest_sweep ?crash_points ?(ingest_flips = 64) ?(batch_rows = 16) doc =
  let source_of () =
    let pos = ref 0 in
    fun () ->
      if !pos >= String.length doc then None
      else begin
        let n = min 512 (String.length doc - !pos) in
        let b = Bytes.of_string (String.sub doc !pos n) in
        pos := !pos + n;
        Some b
      end
  in
  (* the serial whole-document oracle, and the empty pre-ingest one *)
  match Xvi_xml.Parser.parse doc with
  | Error e ->
      Error ("ingest_sweep: document: " ^ Xvi_xml.Parser.error_to_string e)
  | Ok store ->
      let full_digest = Db.digest (Db.of_store store) in
      let empty_digest = Db.digest (Db.of_store (Store.create ())) in
      let base = fresh_dir "xvi_ingest_base" in
      let crash = fresh_dir "xvi_ingest_crash" in
      Fun.protect
        ~finally:(fun () ->
          rm_rf base;
          rm_rf crash)
        (fun () ->
          let base_wal = Filename.concat base "wal.log" in
          let base_snap = Filename.concat base "snapshot.xvi" in
          let snap_bytes = ref "" (* the LSN-0 pre-ingest snapshot *) in
          let wal_bytes = ref "" in
          let sizes = ref [] (* log size after each chunk commit, reversed *) in
          let on_progress (_ : Xvi_ingest.Ingest.progress) =
            if String.length !snap_bytes = 0 then
              snap_bytes := read_file base_snap;
            let w = read_file base_wal in
            (* the final progress call can land without a fresh commit *)
            if String.length w > String.length !wal_bytes then begin
              wal_bytes := w;
              sizes := String.length w :: !sizes
            end
          in
          (match
             Durable.bulk_ingest ~dir:base ~batch_rows
               ~progress:on_progress (source_of ())
           with
          | Error m -> failwith ("ingest_sweep: live ingest failed: " ^ m)
          | Ok t ->
              let d = Db.digest (Durable.db t) in
              Durable.close t;
              if d <> full_digest then
                failwith
                  "ingest_sweep: streamed ingest diverged from the \
                   whole-document build");
          (match Durable.open_ base with
          | Error m -> failwith ("ingest_sweep: reopen failed: " ^ m)
          | Ok t ->
              let d = Db.digest (Durable.db t) in
              let pending = Durable.pending_ingest t in
              Durable.close t;
              (match pending with
              | Some _ ->
                  failwith
                    "ingest_sweep: completed directory still reports a \
                     pending ingest"
              | None -> ());
              if d <> full_digest then
                failwith
                  "ingest_sweep: completed directory did not reopen to the \
                   whole-document digest");
          let wal_bytes = !wal_bytes in
          let snap_bytes = !snap_bytes in
          let wal_size = String.length wal_bytes in
          let sizes = Array.of_list (List.rev !sizes) in
          let batches = Array.length sizes in
          let magic_len = String.length Wal.magic in
          let committed_before cut =
            let k = ref 0 in
            Array.iter (fun s -> if s <= cut then incr k) sizes;
            !k
          in
          let failure = ref None in
          let fail m = if !failure = None then failure := Some m in
          let crash_snap = Filename.concat crash "snapshot.xvi" in
          let crash_wal = Filename.concat crash "wal.log" in
          (* One crash variant: recovery must expose exactly [expect]
             pending chunks over the empty database, twice over; when
             chunks survived, resuming over the original document must
             converge to the whole-document digest, after which the
             directory must reopen to it. *)
          let check_variant ~what ~damaged ~expect =
            write_file crash_snap snap_bytes;
            write_file crash_wal damaged;
            match Durable.open_ crash with
            | Error m -> fail (Printf.sprintf "recovery failed on %s: %s" what m)
            | Ok t -> (
                let d1 = Db.digest (Durable.db t) in
                let chunks1 =
                  match Durable.pending_ingest t with
                  | None -> 0
                  | Some p -> p.Durable.chunks
                in
                if d1 <> empty_digest then begin
                  Durable.close t;
                  fail
                    (Printf.sprintf
                       "recovery did not land on the pre-ingest state on %s"
                       what)
                end
                else if chunks1 <> expect then begin
                  Durable.close t;
                  fail
                    (Printf.sprintf
                       "recovery kept %d chunks on %s (%d committed)" chunks1
                       what expect)
                end
                else begin
                  Durable.close t;
                  (* idempotence, then resume on a fresh handle *)
                  match Durable.open_ crash with
                  | Error m ->
                      fail
                        (Printf.sprintf "second recovery failed on %s: %s" what
                           m)
                  | Ok t2 -> (
                      let d2 = Db.digest (Durable.db t2) in
                      let chunks2 =
                        match Durable.pending_ingest t2 with
                        | None -> 0
                        | Some p -> p.Durable.chunks
                      in
                      if d2 <> d1 || chunks2 <> chunks1 then begin
                        Durable.close t2;
                        fail
                          (Printf.sprintf "recovery is not idempotent on %s"
                             what)
                      end
                      else if chunks2 = 0 then Durable.close t2
                      else
                        match
                          Durable.resume_ingest ~batch_rows t2 (source_of ())
                        with
                        | Error m ->
                            fail
                              (Printf.sprintf "resume failed on %s: %s" what m)
                        | Ok t3 ->
                            let d3 = Db.digest (Durable.db t3) in
                            Durable.close t3;
                            if d3 <> full_digest then
                              fail
                                (Printf.sprintf
                                   "resumed ingest diverged from the \
                                    whole-document build on %s"
                                   what)
                            else (
                              match Durable.open_ crash with
                              | Error m ->
                                  fail
                                    (Printf.sprintf
                                       "post-resume reopen failed on %s: %s"
                                       what m)
                              | Ok t4 ->
                                  let d4 = Db.digest (Durable.db t4) in
                                  Durable.close t4;
                                  if d4 <> full_digest then
                                    fail
                                      (Printf.sprintf
                                         "resumed directory did not reopen \
                                          to the whole-document digest on %s"
                                         what)))
                end)
          in
          let expect_open_error ~what ~damaged =
            write_file crash_snap snap_bytes;
            write_file crash_wal damaged;
            match Durable.open_ crash with
            | Error _ -> ()
            | Ok t ->
                Durable.close t;
                fail (Printf.sprintf "recovery accepted %s" what)
          in
          let lengths =
            match crash_points with
            | None -> List.init (wal_size + 1) (fun i -> i)
            | Some cap ->
                let spaced = List.init cap (fun i -> i * wal_size / cap) in
                let edges =
                  Array.to_list sizes
                  |> List.concat_map (fun s -> [ s - 1; s; s + 1 ])
                in
                List.sort_uniq Int.compare
                  ((0 :: (magic_len - 1) :: magic_len :: wal_size :: edges)
                  @ spaced)
                |> List.filter (fun l -> l >= 0 && l <= wal_size)
          in
          let points = ref 0 in
          List.iter
            (fun len ->
              if !failure = None then begin
                incr points;
                let damaged = String.sub wal_bytes 0 len in
                let what =
                  Printf.sprintf "ingest log torn at byte %d of %d" len
                    wal_size
                in
                if len < magic_len then expect_open_error ~what ~damaged
                else check_variant ~what ~damaged ~expect:(committed_before len)
              end)
            lengths;
          let flip_offsets =
            let wanted = min ingest_flips wal_size in
            if wanted <= 0 then []
            else
              List.sort_uniq Int.compare
                (List.init magic_len (fun i -> i)
                @ List.init wanted (fun i -> i * wal_size / wanted))
              |> List.filter (fun p -> p >= 0 && p < wal_size)
          in
          let flipped = ref 0 in
          List.iter
            (fun pos ->
              if !failure = None then begin
                incr flipped;
                let damaged = Bytes.of_string wal_bytes in
                Bytes.set damaged pos
                  (Char.chr
                     (Char.code wal_bytes.[pos] lxor (1 lsl (pos mod 8))));
                let damaged = Bytes.to_string damaged in
                let what =
                  Printf.sprintf "byte flip at ingest log offset %d" pos
                in
                if pos < magic_len then expect_open_error ~what ~damaged
                else check_variant ~what ~damaged ~expect:(committed_before pos)
              end)
            flip_offsets;
          match !failure with
          | Some m -> Error m
          | None ->
              Ok
                {
                  ingest_crash_points = !points;
                  ingest_flips = !flipped;
                  ingest_batches = batches;
                })
