(* Durability tests: WAL codec round-trips, torn-tail truncation at
   every byte offset, recovery idempotency, group-commit batching
   observability, snapshot LSN stamping and checkpoint truncation. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Snapshot = Xvi_core.Snapshot
module Txn = Xvi_txn.Txn
module Wal = Xvi_wal.Wal
module Durable = Xvi_wal.Durable
module Fault = Xvi_check.Fault

let with_dir f =
  let dir = Filename.temp_file "xvi_wal_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun e ->
            try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let records_for_roundtrip =
  [
    Wal.Begin { txn = 0 };
    Wal.Begin { txn = max_int };
    Wal.Update_text { txn = 1; node = 7; value = "" };
    Wal.Update_text { txn = 1; node = 7; value = "plain text" };
    Wal.Update_text { txn = 2; node = 0; value = "\x00\xff\nbinary\x01" };
    Wal.Insert { txn = 3; parent = 12; fragment = "<a b=\"c\">&amp;</a>" };
    Wal.Insert { txn = 3; parent = 0; fragment = "" };
    Wal.Delete { txn = 4; node = 9 };
    Wal.Commit { txn = 4 };
    Wal.Abort { txn = 5 };
    Wal.Checkpoint { base = 0 };
    Wal.Checkpoint { base = 123456789 };
  ]

let test_codec_roundtrip () =
  List.iteri
    (fun i record ->
      let lsn = i + 1 in
      let frame = Wal.encode ~lsn record in
      match Wal.decode frame 0 with
      | Wal.Frame (fr, next) ->
          Alcotest.(check int)
            (Printf.sprintf "lsn of %s" (Wal.record_to_string record))
            lsn fr.Wal.lsn;
          Alcotest.(check string)
            (Printf.sprintf "record %d" i)
            (Wal.record_to_string record)
            (Wal.record_to_string fr.Wal.record);
          Alcotest.(check int) "consumed whole frame" (String.length frame) next
      | Wal.End -> Alcotest.fail "decode returned End on a full frame"
      | Wal.Torn m -> Alcotest.failf "decode tore a valid frame: %s" m)
    records_for_roundtrip

let test_decode_every_torn_prefix () =
  let record =
    Wal.Update_text { txn = 3; node = 41; value = "torn tail probe" }
  in
  let frame = Wal.encode ~lsn:9 record in
  for len = 0 to String.length frame - 1 do
    match Wal.decode (String.sub frame 0 len) 0 with
    | Wal.End when len = 0 -> ()
    | Wal.End -> Alcotest.failf "clean End on %d of %d bytes" len (String.length frame)
    | Wal.Torn _ -> ()
    | Wal.Frame _ ->
        Alcotest.failf "decoded a frame from %d of %d bytes" len
          (String.length frame)
  done

let log_of records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf Wal.magic;
  List.iteri
    (fun i r -> Buffer.add_string buf (Wal.encode ~lsn:(i + 1) r))
    records;
  Buffer.contents buf

let test_scan_committed_prefix () =
  let s =
    log_of
      [
        Wal.Begin { txn = 1 };
        Wal.Update_text { txn = 1; node = 2; value = "a" };
        Wal.Commit { txn = 1 };
        Wal.Begin { txn = 2 };
        Wal.Update_text { txn = 2; node = 3; value = "b" };
        (* no commit: this tail is dead *)
      ]
  in
  match Wal.scan_string s with
  | Error m -> Alcotest.failf "scan failed: %s" m
  | Ok sc ->
      Alcotest.(check int) "committed frames" 3 (List.length sc.Wal.frames);
      Alcotest.(check int) "dropped tail records" 2 sc.Wal.dropped_records;
      Alcotest.(check int) "last committed lsn" 3 sc.Wal.last_lsn;
      Alcotest.(check bool) "no damage" true (sc.Wal.damage = None);
      Alcotest.(check bool) "committed_end before tail" true
        (sc.Wal.committed_end < sc.Wal.file_size)

let test_scan_rejects_non_monotonic () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf Wal.magic;
  Buffer.add_string buf (Wal.encode ~lsn:5 (Wal.Begin { txn = 1 }));
  Buffer.add_string buf (Wal.encode ~lsn:5 (Wal.Commit { txn = 1 }));
  match Wal.scan_string (Buffer.contents buf) with
  | Error m -> Alcotest.failf "scan failed: %s" m
  | Ok sc ->
      Alcotest.(check bool) "damage reported" true (sc.Wal.damage <> None);
      Alcotest.(check int) "nothing committed" 0 (List.length sc.Wal.frames)

let test_scan_bad_magic () =
  (match Wal.scan_string "not a log at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  match Wal.scan_string (String.sub Wal.magic 0 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short magic accepted"

(* The tentpole framing property: cut the log at every byte offset of
   the last record and the scan must still end exactly at the last
   intact commit boundary. *)
let test_torn_tail_every_offset () =
  let committed =
    [
      Wal.Begin { txn = 1 };
      Wal.Update_text { txn = 1; node = 2; value = "first" };
      Wal.Commit { txn = 1 };
    ]
  in
  let prefix = log_of committed in
  let boundary = String.length prefix in
  let last = Wal.encode ~lsn:4 (Wal.Begin { txn = 2 }) in
  let full = prefix ^ last in
  for cut = boundary to String.length full do
    let s = String.sub full 0 cut in
    match Wal.scan_string s with
    | Error m -> Alcotest.failf "scan failed at cut %d: %s" cut m
    | Ok sc ->
        Alcotest.(check int)
          (Printf.sprintf "committed_end at cut %d" cut)
          boundary sc.Wal.committed_end;
        Alcotest.(check int)
          (Printf.sprintf "frames at cut %d" cut)
          3
          (List.length sc.Wal.frames)
  done

(* --- tailing: the replication read path ---------------------------- *)

let append_group w ~txn updates =
  ignore (Wal.Writer.append w (Wal.Begin { txn }) : int);
  List.iter
    (fun (node, value) ->
      ignore (Wal.Writer.append w (Wal.Update_text { txn; node; value }) : int))
    updates;
  fst (Wal.Writer.log_commit w ~txn)

let poll_exn ?upto_lsn ?max_bytes what tail =
  match Wal.Tail.poll ?upto_lsn ?max_bytes tail with
  | Ok ev -> ev
  | Error m -> Alcotest.failf "%s: poll failed: %s" what m

let test_tail_stream () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.Writer.create ~sync_mode:Wal.Always path in
      Fun.protect
        ~finally:(fun () -> Wal.Writer.close w)
        (fun () ->
          let l1 = append_group w ~txn:1 [ (1, "one") ] in
          let l2 = append_group w ~txn:2 [ (2, "two"); (3, "three") ] in
          let tail = Wal.Tail.create path in
          (match poll_exn "first poll" tail with
          | Wal.Tail.Frames { frames; bytes } ->
              (* both groups arrive in log order, as the exact on-disk
                 byte suffix after the magic header *)
              let file = read_file path in
              let magic_len = String.length Wal.magic in
              Alcotest.(check string) "bytes are the on-disk frames"
                (String.sub file magic_len (String.length file - magic_len))
                bytes;
              (match List.rev frames with
              | last :: _ -> Alcotest.(check int) "ends at l2" l2 last.Wal.lsn
              | [] -> Alcotest.fail "no frames delivered");
              Alcotest.(check int) "tail position" l2 (Wal.Tail.last_lsn tail)
          | Wal.Tail.Await -> Alcotest.fail "tail had frames but said Await"
          | Wal.Tail.Snapshot_needed _ ->
              Alcotest.fail "contiguous log reported snapshot-needed");
          (match poll_exn "drained poll" tail with
          | Wal.Tail.Await -> ()
          | _ -> Alcotest.fail "drained tail must Await");
          (* a durability watermark withholds groups past it: the next
             group exists on disk but must not ship until upto_lsn
             covers its boundary *)
          let l3 = append_group w ~txn:3 [ (1, "third") ] in
          (match poll_exn ~upto_lsn:l2 "withheld poll" tail with
          | Wal.Tail.Await -> ()
          | _ -> Alcotest.fail "group past upto_lsn must be withheld");
          (match poll_exn ~upto_lsn:l3 "released poll" tail with
          | Wal.Tail.Frames { frames; _ } ->
              (match List.rev frames with
              | last :: _ -> Alcotest.(check int) "ends at l3" l3 last.Wal.lsn
              | [] -> Alcotest.fail "released poll empty")
          | _ -> Alcotest.fail "released group did not ship");
          (* max_bytes caps a batch but always delivers one whole group *)
          let tiny = Wal.Tail.create path in
          (match poll_exn ~max_bytes:1 "capped poll" tiny with
          | Wal.Tail.Frames { frames; _ } -> (
              match List.rev frames with
              | last :: _ ->
                  Alcotest.(check int) "exactly the first group" l1
                    last.Wal.lsn
              | [] -> Alcotest.fail "capped poll empty")
          | _ -> Alcotest.fail "capped poll must still deliver one group");
          ignore (l1 : int)))

let test_tail_torn_tail_awaits () =
  (* An append in flight tears the tail: at every torn prefix of the
     last group the tailer must deliver exactly the committed groups
     before it and then Await — never mis-frame the torn bytes, never
     error. *)
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.Writer.create ~sync_mode:Wal.Always path in
      let l1 = append_group w ~txn:1 [ (1, "committed") ] in
      let boundary = Wal.Writer.size w in
      let _l2 = append_group w ~txn:2 [ (2, "torn away") ] in
      Wal.Writer.close w;
      let full = read_file path in
      let torn_path = Filename.concat dir "torn.log" in
      for cut = boundary to String.length full - 1 do
        write_file torn_path (String.sub full 0 cut);
        let tail = Wal.Tail.create torn_path in
        (match poll_exn (Printf.sprintf "cut %d" cut) tail with
        | Wal.Tail.Frames { frames; _ } -> (
            match List.rev frames with
            | last :: _ ->
                Alcotest.(check int)
                  (Printf.sprintf "only the committed group at cut %d" cut)
                  l1 last.Wal.lsn
            | [] -> Alcotest.fail "empty Frames")
        | Wal.Tail.Await ->
            Alcotest.failf "cut %d: committed group not delivered" cut
        | Wal.Tail.Snapshot_needed _ ->
            Alcotest.failf "cut %d: torn tail misread as truncation" cut);
        match poll_exn (Printf.sprintf "cut %d again" cut) tail with
        | Wal.Tail.Await -> ()
        | Wal.Tail.Frames _ ->
            Alcotest.failf "cut %d: torn bytes shipped as frames" cut
        | Wal.Tail.Snapshot_needed _ ->
            Alcotest.failf "cut %d: torn tail misread as truncation" cut
      done)

let test_tail_checkpoint_truncation () =
  (* A checkpoint truncates the log under a live tailer. The tailer
     must detect the LSN discontinuity and report a typed
     [Snapshot_needed] — not an error, and never silently skip the
     missing records. *)
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.Writer.create ~sync_mode:Wal.Always path in
      let l1 = append_group w ~txn:1 [ (1, "one") ] in
      let _l2 = append_group w ~txn:2 [ (2, "two") ] in
      let last = Wal.Writer.last_lsn w in
      (* a tailer that only consumed the first group... *)
      let tail = Wal.Tail.create path in
      (match poll_exn ~upto_lsn:l1 "consume first group" tail with
      | Wal.Tail.Frames _ -> ()
      | _ -> Alcotest.fail "first group not delivered");
      (* ...while the writer checkpoints everything away *)
      Wal.Writer.truncate_to_checkpoint w ~base:last;
      let l3 = append_group w ~txn:3 [ (1, "after checkpoint") ] in
      Wal.Writer.close w;
      (match poll_exn "poll after truncation" tail with
      | Wal.Tail.Snapshot_needed { base } ->
          Alcotest.(check int) "snapshot covers the checkpoint base" last base
      | Wal.Tail.Frames _ ->
          Alcotest.fail "tailer skipped the checkpointed records"
      | Wal.Tail.Await -> Alcotest.fail "truncation misread as quiet tail");
      (* a fresh tailer from the beginning is in the same position *)
      let fresh = Wal.Tail.create path in
      (match poll_exn "fresh tail" fresh with
      | Wal.Tail.Snapshot_needed { base } ->
          Alcotest.(check int) "fresh tail needs the snapshot too" last base
      | _ -> Alcotest.fail "fresh tail must report snapshot-needed");
      (* but a tailer already past the checkpoint streams on *)
      let caught_up = Wal.Tail.create ~from_lsn:last path in
      match poll_exn "caught-up tail" caught_up with
      | Wal.Tail.Frames { frames; _ } -> (
          match List.rev frames with
          | last_f :: _ ->
              Alcotest.(check int) "post-checkpoint group" l3 last_f.Wal.lsn
          | [] -> Alcotest.fail "post-checkpoint group missing")
      | _ -> Alcotest.fail "tail past the checkpoint must keep streaming")

let test_sync_mode_strings () =
  let check s expect =
    match (Wal.sync_mode_of_string s, expect) with
    | Some got, Some want ->
        Alcotest.(check string) s (Wal.sync_mode_to_string want)
          (Wal.sync_mode_to_string got)
    | None, None -> ()
    | Some got, None ->
        Alcotest.failf "%S parsed as %s" s (Wal.sync_mode_to_string got)
    | None, Some _ -> Alcotest.failf "%S did not parse" s
  in
  check "always" (Some Wal.Always);
  check "never" (Some Wal.Never);
  check "group" (Some (Wal.Group 0.002));
  check "group:10" (Some (Wal.Group 0.01));
  check "group:0" (Some (Wal.Group 0.));
  check "group:-1" None;
  check "sometimes" None

(* --- snapshot LSN stamping (format v3) --- *)

let test_snapshot_lsn_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.xvi" in
      let db = Db.of_xml_exn "<a><b>x</b></a>" in
      Snapshot.save ~lsn:42 db path;
      (match Snapshot.load_with_lsn path with
      | Ok (_, lsn) -> Alcotest.(check int) "lsn stamped" 42 lsn
      | Error e -> Alcotest.failf "load: %s" (Snapshot.error_to_string e));
      Snapshot.save db path;
      match Snapshot.load_with_lsn path with
      | Ok (_, lsn) -> Alcotest.(check int) "default lsn" 0 lsn
      | Error e -> Alcotest.failf "load: %s" (Snapshot.error_to_string e))

(* --- durable directories --- *)

let small_xml = "<doc><a>alpha</a><b>beta</b><c n=\"7\">gamma</c></doc>"

let test_durable_recovery_idempotent () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let texts = Store.text_nodes (Db.store db) in
      let t = Durable.create ~dir db in
      (match Durable.update_texts t [ (texts.(0), "one"); (texts.(1), "two") ] with
      | Ok () -> ()
      | Error c -> Alcotest.failf "commit conflicted: %s" c.Txn.reason);
      (match Durable.update_text t texts.(2) "three" with
      | Ok () -> ()
      | Error c -> Alcotest.failf "commit conflicted: %s" c.Txn.reason);
      (match Durable.insert_xml t ~parent:Store.document "<tail>end</tail>" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "insert: %s" (Xvi_xml.Parser.error_to_string e));
      let live_fp = Db.digest (Durable.db t) in
      Durable.close t;
      let r1 = Durable.open_exn dir in
      let d1 = Db.digest (Durable.db r1) in
      (match Durable.last_replay r1 with
      | Some rep ->
          Alcotest.(check int) "replayed txns" 3 rep.Wal.stats.Wal.applied_txns
      | None -> Alcotest.fail "no replay report");
      Durable.close r1;
      let r2 = Durable.open_exn dir in
      let d2 = Db.digest (Durable.db r2) in
      Durable.close r2;
      Alcotest.(check bool) "recovery matches live content" true
        (Db.digest (Durable.db r2) = live_fp);
      Alcotest.(check bool) "double recovery identical" true (d1 = d2);
      (* the recovered store answers queries *)
      let r3 = Durable.open_exn dir in
      Alcotest.(check bool) "query works" true
        (Db.lookup_string (Durable.db r3) "one" <> []);
      Durable.close r3)

let test_durable_rejects_validation_errors () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let t = Durable.create ~dir db in
      (match Durable.insert_xml t ~parent:Store.document "<unclosed" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad fragment accepted");
      (match Durable.delete_subtree t Store.document with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "deleted the document root");
      (* neither failure may have logged anything *)
      Alcotest.(check int) "wal untouched" (String.length Wal.magic)
        (Durable.stats t).Durable.wal_bytes;
      Durable.close t)

(* The review-found recovery-bricking scenario: an Insert whose parent
   is invalid must be rejected *before* its records reach the log — a
   durably committed record that fails to apply would make every later
   open of the directory fail. *)
let test_insert_parent_validated () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let store = Db.store db in
      let texts = Store.text_nodes store in
      let t = Durable.create ~dir db in
      let header = String.length Wal.magic in
      (match Durable.insert_xml t ~parent:999_999 "<x/>" with
      | exception Invalid_argument _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "out-of-range parent accepted");
      (match Durable.insert_xml t ~parent:texts.(0) "<x/>" with
      | exception Invalid_argument _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "text node accepted as parent");
      Alcotest.(check int) "nothing logged for rejected inserts" header
        (Durable.stats t).Durable.wal_bytes;
      (* delete <a>, then try to insert under the tombstoned element *)
      let a_elt =
        match Store.parent store texts.(0) with
        | Some p -> p
        | None -> Alcotest.fail "text node has no parent"
      in
      Durable.delete_subtree t a_elt;
      let after_delete = (Durable.stats t).Durable.wal_bytes in
      (match Durable.insert_xml t ~parent:a_elt "<x/>" with
      | exception Invalid_argument _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "deleted parent accepted");
      (match Durable.delete_subtree t a_elt with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "double delete accepted");
      Alcotest.(check int) "nothing logged past the legitimate delete"
        after_delete
        (Durable.stats t).Durable.wal_bytes;
      let live_fp = Db.digest (Durable.db t) in
      Durable.close t;
      (* the log replays cleanly: no doomed record ever got in *)
      let r = Durable.open_exn dir in
      Alcotest.(check bool) "recovery intact" true
        (Db.digest (Durable.db r) = live_fp);
      Durable.close r)

(* Structural deletes bypass the Txn version table; the commit-time
   kind re-check must turn the doomed write into a conflict before the
   durability hook logs anything. *)
let test_delete_bypass_is_conflict () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let store = Db.store db in
      let texts = Store.text_nodes store in
      let t = Durable.create ~dir db in
      let tx = Txn.begin_ (Durable.manager t) in
      (match Txn.update_text tx texts.(0) "doomed" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "update_text rejected a live text node");
      let a_elt =
        match Store.parent store texts.(0) with
        | Some p -> p
        | None -> Alcotest.fail "text node has no parent"
      in
      Durable.delete_subtree t a_elt;
      let wal_after_delete = (Durable.stats t).Durable.wal_bytes in
      (match Txn.commit tx with
      | Error c ->
          Alcotest.(check int) "conflict names the deleted node" texts.(0)
            c.Txn.node
      | Ok () -> Alcotest.fail "commit applied a write to a deleted node");
      Alcotest.(check int) "conflicted commit logged nothing" wal_after_delete
        (Durable.stats t).Durable.wal_bytes;
      let live_fp = Db.digest (Durable.db t) in
      Durable.close t;
      let r = Durable.open_exn dir in
      Alcotest.(check bool) "recovery intact after conflict" true
        (Db.digest (Durable.db r) = live_fp);
      Durable.close r)

let test_create_refuses_existing () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      Durable.close (Durable.create ~dir db);
      (match Durable.create ~dir (Db.of_xml_exn "<other/>") with
      | exception Invalid_argument _ -> ()
      | t ->
          Durable.close t;
          Alcotest.fail "create silently overwrote a durable directory");
      (* the data survived the refused attempt *)
      let r = Durable.open_exn dir in
      Alcotest.(check bool) "original store intact" true
        (Db.lookup_string (Durable.db r) "alpha" <> []);
      Durable.close r;
      let t = Durable.create ~force:true ~dir (Db.of_xml_exn "<other/>") in
      Durable.close t;
      let r = Durable.open_exn dir in
      Alcotest.(check bool) "force overwrote" true
        (Db.lookup_string (Durable.db r) "alpha" = []);
      Durable.close r)

(* An aged-out group window is flushed by the first record of the next
   transaction, so a deferred commit's durability lag is bounded by the
   next activity (or an explicit sync/close) rather than only by
   close. *)
let test_group_window_flush_on_append () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let texts = Store.text_nodes (Db.store db) in
      let t = Durable.create ~sync_mode:(Wal.Group 0.005) ~dir db in
      (match Durable.update_text t texts.(0) "one" with
      | Ok () -> ()
      | Error c -> Alcotest.failf "conflict: %s" c.Txn.reason);
      Alcotest.(check int) "first commit deferred, no fsync yet" 0
        (Durable.stats t).Durable.writer.Wal.Writer.syncs;
      Unix.sleepf 0.02;
      (match Durable.update_text t texts.(1) "two" with
      | Ok () -> ()
      | Error c -> Alcotest.failf "conflict: %s" c.Txn.reason);
      Alcotest.(check int) "expired window flushed by next txn's append" 1
        (Durable.stats t).Durable.writer.Wal.Writer.syncs;
      Durable.close t)

let test_group_commit_observable () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let texts = Store.text_nodes (Db.store db) in
      (* a very wide window: every commit inside it is deferred *)
      let t = Durable.create ~sync_mode:(Wal.Group 60.0) ~dir db in
      for i = 1 to 5 do
        match Durable.update_text t texts.(i mod 3) (string_of_int i) with
        | Ok () -> ()
        | Error c -> Alcotest.failf "conflict: %s" c.Txn.reason
      done;
      let st = Txn.stats (Durable.manager t) in
      Alcotest.(check int) "commits" 5 st.Txn.committed;
      Alcotest.(check int) "all deferred" 5 st.Txn.wal_deferred;
      Alcotest.(check int) "none synced inline" 0 st.Txn.wal_synced;
      let w = (Durable.stats t).Durable.writer in
      Alcotest.(check int) "one batched fsync at most" 0 w.Wal.Writer.syncs;
      Durable.sync t;
      let w = (Durable.stats t).Durable.writer in
      Alcotest.(check int) "explicit sync flushed the window" 1
        w.Wal.Writer.syncs;
      Durable.close t;
      (* Always: every commit syncs inline *)
      let dir2 = Filename.concat dir "always" in
      let db2 = Db.of_xml_exn small_xml in
      let texts2 = Store.text_nodes (Db.store db2) in
      let t2 = Durable.create ~sync_mode:Wal.Always ~dir:dir2 db2 in
      for i = 1 to 3 do
        match Durable.update_text t2 texts2.(0) (string_of_int i) with
        | Ok () -> ()
        | Error c -> Alcotest.failf "conflict: %s" c.Txn.reason
      done;
      let st2 = Txn.stats (Durable.manager t2) in
      Alcotest.(check int) "all synced" 3 st2.Txn.wal_synced;
      Alcotest.(check int) "none deferred" 0 st2.Txn.wal_deferred;
      Durable.close t2;
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir2 e) with Sys_error _ -> ())
        (Sys.readdir dir2);
      Unix.rmdir dir2)

let test_checkpoint_truncates () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let texts = Store.text_nodes (Db.store db) in
      let t = Durable.create ~dir db in
      for i = 1 to 10 do
        match Durable.update_text t texts.(0) (string_of_int i) with
        | Ok () -> ()
        | Error c -> Alcotest.failf "conflict: %s" c.Txn.reason
      done;
      let before = (Durable.stats t).Durable.wal_bytes in
      Durable.checkpoint t;
      let st = Durable.stats t in
      Alcotest.(check bool) "log shrank" true (st.Durable.wal_bytes < before);
      Alcotest.(check bool) "checkpoint lsn advanced" true
        (st.Durable.last_checkpoint_lsn > 0);
      let lsn_before = st.Durable.next_lsn in
      Durable.close t;
      (* recovery after a checkpoint applies nothing and keeps state *)
      let r = Durable.open_exn dir in
      (match Durable.last_replay r with
      | Some rep ->
          Alcotest.(check int) "nothing replayed" 0
            rep.Wal.stats.Wal.applied_txns;
          Alcotest.(check int) "nothing skipped" 0
            rep.Wal.stats.Wal.skipped_txns
      | None -> Alcotest.fail "no replay report");
      Alcotest.(check string) "state preserved" "10"
        (Store.text (Db.store (Durable.db r)) texts.(0));
      (* LSNs never restart, even across checkpoint truncation *)
      Alcotest.(check bool) "lsn monotonic across reopen" true
        ((Durable.stats r).Durable.next_lsn >= lsn_before);
      Durable.close r)

let test_auto_checkpoint () =
  with_dir (fun dir ->
      let db = Db.of_xml_exn small_xml in
      let texts = Store.text_nodes (Db.store db) in
      let t = Durable.create ~auto_checkpoint_bytes:256 ~dir db in
      for i = 1 to 50 do
        match
          Durable.update_text t texts.(0)
            (Printf.sprintf "padding padding padding %d" i)
        with
        | Ok () -> ()
        | Error c -> Alcotest.failf "conflict: %s" c.Txn.reason
      done;
      let st = Durable.stats t in
      Alcotest.(check bool) "auto-checkpoint fired" true
        (st.Durable.last_checkpoint_lsn > 0);
      Alcotest.(check bool) "log stayed bounded" true
        (st.Durable.wal_bytes < 4096);
      Durable.close t;
      let r = Durable.open_exn dir in
      Alcotest.(check string) "state survives auto-checkpoints" "padding padding padding 50"
        (Store.text (Db.store (Durable.db r)) texts.(0));
      Durable.close r)

let test_open_missing_and_damaged () =
  with_dir (fun dir ->
      (match Durable.open_ (Filename.concat dir "nowhere") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "opened a missing directory");
      let db = Db.of_xml_exn small_xml in
      let t = Durable.create ~dir db in
      Durable.close t;
      Alcotest.(check bool) "is_durable_dir" true (Durable.is_durable_dir dir);
      (* damaged snapshot: open must fail cleanly *)
      let snap = Filename.concat dir "snapshot.xvi" in
      let bytes = read_file snap in
      write_file snap (String.sub bytes 0 (String.length bytes / 2));
      match Durable.open_ dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "opened over a torn snapshot")

(* --- the full crash-point sweep --- *)

let test_wal_sweep () =
  let db = Db.of_xml_exn small_xml in
  let texts = Store.text_nodes (Db.store db) in
  let batches =
    [
      [ (texts.(0), "sweep one") ];
      [ (texts.(1), "sweep two"); (texts.(2), "sweep three") ];
      [ (texts.(0), "sweep four") ];
    ]
  in
  match Fault.wal_sweep db batches with
  | Error m -> Alcotest.fail m
  | Ok r ->
      Alcotest.(check int) "commits" 5 r.Fault.commits;
      Alcotest.(check bool) "swept every byte" true (r.Fault.crash_points > 100);
      Alcotest.(check bool) "flipped bytes" true (r.Fault.wal_flips > 50)

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "every torn prefix" `Quick
            test_decode_every_torn_prefix;
          Alcotest.test_case "sync-mode strings" `Quick test_sync_mode_strings;
        ] );
      ( "scan",
        [
          Alcotest.test_case "committed prefix" `Quick
            test_scan_committed_prefix;
          Alcotest.test_case "non-monotonic lsn" `Quick
            test_scan_rejects_non_monotonic;
          Alcotest.test_case "bad magic" `Quick test_scan_bad_magic;
          Alcotest.test_case "tail streams committed groups" `Quick
            test_tail_stream;
          Alcotest.test_case "tail awaits on torn tail" `Quick
            test_tail_torn_tail_awaits;
          Alcotest.test_case "tail detects checkpoint truncation" `Quick
            test_tail_checkpoint_truncation;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_torn_tail_every_offset;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "lsn roundtrip" `Quick test_snapshot_lsn_roundtrip ] );
      ( "durable",
        [
          Alcotest.test_case "recovery idempotent" `Quick
            test_durable_recovery_idempotent;
          Alcotest.test_case "validation before logging" `Quick
            test_durable_rejects_validation_errors;
          Alcotest.test_case "insert parent validated" `Quick
            test_insert_parent_validated;
          Alcotest.test_case "structural delete conflicts txn" `Quick
            test_delete_bypass_is_conflict;
          Alcotest.test_case "create refuses existing" `Quick
            test_create_refuses_existing;
          Alcotest.test_case "expired group window flushes" `Quick
            test_group_window_flush_on_append;
          Alcotest.test_case "group commit observable" `Quick
            test_group_commit_observable;
          Alcotest.test_case "checkpoint truncates" `Quick
            test_checkpoint_truncates;
          Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint;
          Alcotest.test_case "missing and damaged" `Quick
            test_open_missing_and_damaged;
        ] );
      ( "crash sweep",
        [ Alcotest.test_case "every crash point" `Quick test_wal_sweep ] );
    ]
