(* Snapshot persistence tests: save/load round-trips preserve every
   index, reloaded databases accept updates, corrupt or other-version
   files are rejected cleanly, a section with damaged bytes and a
   re-stamped digest never loads as an inconsistent database, and a
   committed v5 file (written by another build) still loads and saves
   back byte for byte. *)

module Db = Xvi_core.Db
module Snapshot = Xvi_core.Snapshot
module Store = Xvi_xml.Store

let with_temp f =
  let path = Filename.temp_file "xvi_test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_roundtrip () =
  with_temp (fun path ->
      let xml = Xvi_workload.Xmark.generate ~seed:31 ~factor:0.01 () in
      let db =
        Db.of_xml_exn
          ~config:{ Db.Config.default with Db.Config.substring = true }
          xml
      in
      Snapshot.save db path;
      Alcotest.(check bool) "is_snapshot" true (Snapshot.is_snapshot path);
      let db2 = Snapshot.load_exn path in
      (match Db.validate db2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reloaded validate: %s" e);
      (* queries agree between original and reloaded *)
      List.iter
        (fun probe ->
          Alcotest.(check (list int))
            (Printf.sprintf "lookup %S" probe)
            (Db.lookup_string db probe) (Db.lookup_string db2 probe))
        [ "Creditcard"; "male"; "Arthur Dent" ];
      Alcotest.(check (list int)) "range agrees"
        (Db.lookup_double db (Db.Range.between 10.0 20.0))
        (Db.lookup_double db2 (Db.Range.between 10.0 20.0));
      Alcotest.(check (list int)) "contains agrees"
        (Db.lookup_contains db "ship")
        (Db.lookup_contains db2 "ship"))

let test_reloaded_updates () =
  with_temp (fun path ->
      let db = Db.of_xml_exn "<a><b>old value</b><c>7.5</c></a>" in
      Snapshot.save db path;
      let db2 = Snapshot.load_exn path in
      let store = Store.text_nodes (Db.store db2) in
      Db.update_text db2 store.(0) "new value";
      Db.update_text db2 store.(1) "8.5";
      (match Db.validate db2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate: %s" e);
      (* the text node and its <b> parent both have that string value *)
      Alcotest.(check int) "string moved" 2
        (List.length (Db.lookup_string db2 "new value"));
      Alcotest.(check int) "double moved" 2
        (List.length (Db.lookup_double db2 (Db.Range.between 8.5 8.5))))

let test_rejects_garbage () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "<xml>not a snapshot</xml>";
      close_out oc;
      Alcotest.(check bool) "not a snapshot" false (Snapshot.is_snapshot path);
      match Snapshot.load path with
      | Error Snapshot.Not_a_snapshot -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.fail "garbage loaded")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let test_rejects_unknown_version () =
  with_temp (fun path ->
      let db = Db.of_xml_exn "<a>x</a>" in
      Snapshot.save db path;
      (* the version digit of "XVI-SNAPSHOT-5\n", as v4 and v6 *)
      let pos = String.length "XVI-SNAPSHOT-" in
      List.iter
        (fun (digit, v) ->
          let mutated = Bytes.of_string (read_file path) in
          Alcotest.(check char) "version digit" '5' (Bytes.get mutated pos);
          Bytes.set mutated pos digit;
          let copy = path ^ ".v" in
          write_file copy (Bytes.to_string mutated);
          Fun.protect
            ~finally:(fun () -> Sys.remove copy)
            (fun () ->
              Alcotest.(check bool) "still a snapshot" true
                (Snapshot.is_snapshot copy);
              match Snapshot.load copy with
              | Error (Snapshot.Unsupported_version got) ->
                  Alcotest.(check int) "version" v got
              | Error e ->
                  Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
              | Ok _ -> Alcotest.fail "unknown version loaded"))
        [ ('4', 4); ('6', 6) ])

(* --- damaged sections with re-stamped digests ---

   The section digests catch accidental damage; this takes them out of
   the way to test the decoders themselves. Each variant changes bytes
   inside one section's payload and writes that payload's new MD5 into
   the section table, so only decoding can reject it. Load must return
   [Corrupted], or a database that equals a rebuild of its own store —
   and must never raise. *)

let magic_len = String.length "XVI-SNAPSHOT-5\n"
let entry_bytes = 25

(* (table offset of the entry, payload offset, payload length) *)
let sections file =
  let count = Char.code file.[magic_len] in
  let start = ref (magic_len + 1 + (entry_bytes * count)) in
  List.init count (fun i ->
      let entry = magic_len + 1 + (entry_bytes * i) in
      let len = Int64.to_int (String.get_int64_le file (entry + 1)) in
      let s = (entry, !start, len) in
      start := !start + len;
      s)

let restamp file (entry, off, len) damage =
  let b = Bytes.of_string file in
  damage b;
  Bytes.blit_string (Digest.subbytes b off len) 0 b (entry + 9) 16;
  Bytes.to_string b

let check_damaged ~what path contents =
  write_file path contents;
  match Snapshot.load path with
  | Error (Snapshot.Corrupted _) -> `Rejected
  | Error e -> Alcotest.failf "%s: wrong error: %s" what (Snapshot.error_to_string e)
  | Ok db -> (
      match Db.validate db with
      | Ok () -> `Loaded
      | Error e -> Alcotest.failf "%s: loaded an inconsistent database: %s" what e)
  | exception e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)

let damage_sweep ~seed ~per_section db =
  with_temp (fun path ->
      Snapshot.save db path;
      let file = read_file path in
      let rng = Xvi_util.Prng.create seed in
      let rejected = ref 0 and loaded = ref 0 in
      List.iteri
        (fun i ((entry, off, len) as sec) ->
          for k = 1 to per_section do
            let pos = off + Xvi_util.Prng.int rng len in
            (* a flipped bit, or a byte replaced by a random value *)
            let v =
              if k land 1 = 0 then Char.code file.[pos] lxor (1 lsl Xvi_util.Prng.int rng 8)
              else Xvi_util.Prng.int rng 256
            in
            let damaged = restamp file sec (fun b -> Bytes.set b pos (Char.chr v)) in
            match
              check_damaged
                ~what:(Printf.sprintf "section %d, byte %d := %d" i (pos - off) v)
                path damaged
            with
            | `Rejected -> incr rejected
            | `Loaded -> incr loaded
          done;
          (* and a payload cut short by one byte, length re-stamped too *)
          let cut =
            let b = Buffer.create (String.length file) in
            Buffer.add_string b (String.sub file 0 (off + len - 1));
            Buffer.add_string b (String.sub file (off + len) (String.length file - off - len));
            let s = Bytes.of_string (Buffer.contents b) in
            Bytes.set_int64_le s (entry + 1) (Int64.of_int (len - 1));
            Bytes.to_string s
          in
          ignore
            (check_damaged ~what:(Printf.sprintf "section %d cut short" i) path
               (restamp cut (entry, off, len - 1) ignore)))
        (sections file);
      Alcotest.(check bool) "some damage rejected" true (!rejected > 0))

let edited_xmark () =
  let db =
    Db.of_xml_exn (Xvi_workload.Xmark.generate ~seed:5 ~factor:0.002 ())
  in
  let store = Db.store db in
  let texts = Store.text_nodes store in
  let parent n = Option.get (Store.parent store n) in
  Db.update_text db texts.(3) "17.25";
  Db.delete_subtree db (parent texts.(40));
  (match
     Db.insert_xml db ~parent:(List.hd (Store.children store Store.document))
       "<x a=\"2001-01-01T00:00:00Z\">5e2<!-- c --></x>"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Xvi_xml.Parser.error_to_string e));
  db

let test_damaged_sections () =
  List.iter
    (fun seed -> damage_sweep ~seed ~per_section:60 (edited_xmark ()))
    [ 1; 2; 3 ]

(* --- the committed golden snapshot ---

   golden/v5.snap was written by another build from golden/v5.xml and
   the edit script golden/v5.edits. Loading it pins that a v5 file
   outlives the binary that wrote it; saving it again pins the format
   and its determinism byte for byte. To rewrite it after a deliberate
   format change (with a new version number), from the test directory:
   XVI_WRITE_GOLDEN=golden/v5.snap ../_build/default/test/test_snapshot.exe *)

let apply_edits db script =
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line with
        | "set" :: node :: words ->
            Db.update_text db (int_of_string node) (String.concat " " words)
        | [ "delete"; node ] -> Db.delete_subtree db (int_of_string node)
        | "insert" :: parent :: words -> (
            match
              Db.insert_xml db ~parent:(int_of_string parent)
                (String.concat " " words)
            with
            | Ok _ -> ()
            | Error e -> failwith (Xvi_xml.Parser.error_to_string e))
        | _ -> failwith ("bad edit line: " ^ line))
    (String.split_on_char '\n' script)

let golden_db () =
  let db = Db.of_xml_exn (read_file "golden/v5.xml") in
  apply_edits db (read_file "golden/v5.edits");
  db

let test_golden () =
  let golden = read_file "golden/v5.snap" in
  let expected = golden_db () in
  match Snapshot.load "golden/v5.snap" with
  | Error e -> Alcotest.failf "golden: %s" (Snapshot.error_to_string e)
  | Ok db ->
      Alcotest.(check string) "digest of the in-process build"
        (Digest.to_hex (Db.digest expected)) (Digest.to_hex (Db.digest db));
      (match Db.validate db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "golden validate: %s" e);
      with_temp (fun path ->
          Snapshot.save db path;
          Alcotest.(check bool) "loaded file saves back byte for byte" true
            (String.equal golden (read_file path));
          Snapshot.save expected path;
          Alcotest.(check bool) "in-process build saves the same bytes" true
            (String.equal golden (read_file path)))

let test_missing_file () =
  match Snapshot.load "/nonexistent/path/db.snap" with
  | Error (Snapshot.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "loaded from nowhere"

let () =
  Option.iter (Snapshot.save (golden_db ())) (Sys.getenv_opt "XVI_WRITE_GOLDEN");
  Alcotest.run "snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "reloaded updates" `Quick test_reloaded_updates;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "rejects unknown version" `Quick test_rejects_unknown_version;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "damaged sections never load inconsistent" `Quick
            test_damaged_sections;
          Alcotest.test_case "golden v5 file from another build" `Quick test_golden;
        ] );
    ]
