(* Serving-layer tests: protocol codec and framing, Engine epoch
   semantics (memory and durable), Session lifecycle, a real
   server/client round trip over a Unix socket, the concurrent-reader
   harness and the multi-session group-commit crash sweep. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Txn = Xvi_txn.Txn
module Engine = Xvi_serve.Engine
module Session = Xvi_serve.Session
module Protocol = Xvi_serve.Protocol
module Server = Xvi_serve.Server
module Client = Xvi_serve.Client
module Range = Xvi_query.Range
module Runner = Xvi_check.Runner
module Fault = Xvi_check.Fault

let small_xml = "<doc><a>alpha</a><b>beta</b><c n=\"7\">gamma</c></doc>"

let nodes = Alcotest.(list int)

let with_dir f =
  let dir = Filename.temp_file "xvi_serve_test" "" in
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

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Engine.error_to_string e)

let with_mem_engine ?publish_period xml f =
  let engine =
    ok_exn "open memory engine"
      (Engine.open_ ?publish_period (Engine.Memory (Db.of_xml_exn xml)))
  in
  Fun.protect ~finally:(fun () -> Engine.close engine) (fun () -> f engine)

let texts_of db = Store.text_nodes (Db.store db)

let first_text db =
  let texts = texts_of db in
  if Array.length texts = 0 then Alcotest.fail "no text nodes";
  texts.(0)

(* --- protocol codec ------------------------------------------------ *)

let nasty_strings =
  [
    "";
    "plain";
    "two words";
    "percent % sign";
    "newline\nand\ttab";
    "control \x01\x02 bytes";
    "del \x7f char";
    "trailing space ";
    " leading";
    "utf-8 \xc3\xa9\xe2\x82\xac";
    "%41 looks pre-escaped";
  ]

let test_escape_roundtrip () =
  List.iter
    (fun s ->
      match Protocol.unescape (Protocol.escape s) with
      | Ok s' -> Alcotest.(check string) (Printf.sprintf "escape %S" s) s s'
      | Error m -> Alcotest.failf "unescape (escape %S) failed: %s" s m)
    nasty_strings;
  (* the escaped form must be a single space-free token *)
  List.iter
    (fun s ->
      let e = Protocol.escape s in
      if String.exists (fun c -> c <= ' ' || c = '\x7f') e then
        Alcotest.failf "escape %S left raw separator bytes in %S" s e)
    nasty_strings

let test_unescape_rejects () =
  List.iter
    (fun bad ->
      match Protocol.unescape bad with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "unescape %S = Ok %S, wanted Error" bad v)
    [ "%"; "%4"; "%zz"; "a%G0b" ]

let requests_for_roundtrip =
  [
    Protocol.Hello;
    Protocol.Pin;
    Protocol.Lookup_string "two words";
    Protocol.Lookup_contains "needle\n%";
    Protocol.Lookup_element_contains "";
    Protocol.Lookup_named "entry";
    Protocol.Lookup_typed ("xs:double", None, None);
    Protocol.Lookup_typed ("xs:double", Some (-0.5), None);
    Protocol.Lookup_typed ("xs:dateTime", None, Some 1e12);
    Protocol.Lookup_typed ("t", Some 1.25, Some 3.75);
    Protocol.Value 0;
    Protocol.Begin;
    Protocol.Set (42, "a value with spaces");
    Protocol.Commit;
    Protocol.Commit_deferred;
    Protocol.Abort;
    Protocol.Insert (7, "<a b=\"c\">text &amp; more</a>");
    Protocol.Delete 9;
    Protocol.Stats;
    Protocol.Sync;
    Protocol.Quit;
    Protocol.Shutdown;
    Protocol.Repl_info;
    Protocol.Repl_snapshot 0;
    Protocol.Repl_snapshot 1048576;
    Protocol.Repl_pull { from_lsn = 1; max_bytes = 65536 };
    Protocol.Repl_digest { anchor = 1; lsn = 42 };
    Protocol.Promote;
  ]

let test_request_roundtrip () =
  List.iteri
    (fun i req ->
      let line = Protocol.encode_request req in
      match Protocol.decode_request line with
      | Ok req' ->
          if req <> req' then
            Alcotest.failf "request %d changed across codec: %S" i line
      | Error m -> Alcotest.failf "decode_request %S: %s" line m)
    requests_for_roundtrip

let responses_for_roundtrip =
  [
    Protocol.Ok_;
    Protocol.Epoch { epoch = 3; lsn = 17; commits = 5 };
    Protocol.Nodes [];
    Protocol.Nodes [ 1; 2; 300 ];
    Protocol.Nodes_lsn ([ 4; 5 ], 99);
    Protocol.Nodes_lsn ([], 0);
    Protocol.Value_r "string value\nwith newline";
    Protocol.Lsn 123456;
    Protocol.Stats_r [ ("epoch", "4"); ("note", "two words") ];
    Protocol.Stats_r [];
    Protocol.Conflict_r { node = 12; reason = "lost to txn 3" };
    Protocol.Err "something % broke";
    Protocol.Bye;
    Protocol.Repl_info_r
      {
        role = "follower";
        last_lsn = 40;
        durable_lsn = 40;
        checkpoint_lsn = 12;
        applied_lsn = 38;
        leader_lsn = 41;
      };
    Protocol.Chunk { total = 0; data = "" };
    Protocol.Chunk { total = 9; data = "raw\x00%\nbytes" };
    Protocol.Frames_r { durable_lsn = 17; data = "" };
    Protocol.Frames_r { durable_lsn = 17; data = "\x01\x02 frame % bytes" };
    Protocol.Digest_r None;
    Protocol.Digest_r (Some "d41d8cd98f00b204e9800998ecf8427e");
    Protocol.Snapshot_needed_r 23;
  ]

let test_response_roundtrip () =
  List.iteri
    (fun i resp ->
      let line = Protocol.encode_response resp in
      match Protocol.decode_response line with
      | Ok resp' ->
          if resp <> resp' then
            Alcotest.failf "response %d changed across codec: %S" i line
      | Error m -> Alcotest.failf "decode_response %S: %s" line m)
    responses_for_roundtrip

let test_decode_rejects_garbage () =
  List.iter
    (fun bad ->
      match Protocol.decode_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decode_request %S succeeded" bad)
    [
      "";
      "bogus";
      "set";
      "set notanint v";
      "set 3";
      "value -";
      "lookup-typed xs:double nope _";
      "hello extra";
      "insert 3";
      (* only the integers the encoder writes *)
      "value 0x10";
      "value +5";
      "value 1_000";
      "value 0b11";
      "value 0u5";
      "value 0o7";
      "value 007";
      "value -0";
      "value 99999999999999999999";
      "value 4611686018427387904";
      "delete -4611686018427387905";
      "repl-pull 1 -";
      "value ";
      "set  5 v";
      "lookup-typed t 1_0 _";
      "lookup-typed t 0x1p3 _";
      "lookup-typed t 1.59999999999999999999 _";
    ];
  List.iter
    (fun bad ->
      match Protocol.decode_response bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decode_response %S succeeded" bad)
    [
      "";
      "what";
      "nodes";
      "nodes two";
      "epoch 1 2";
      "lsn x";
      "nodes 1 0x10";
      "nodes 1 +5";
      "nodes 1 1_000";
      "lsn 0b11";
      "lsn 0u5";
      "lsn 99999999999999999999";
      "nodes 99999999999999999999";
      "nodes 1 99999999999999999999";
      "nodes 2 1";
      "nodes 1 1 2";
      "nodes -1";
      "nodes-lsn 5 1";
      "value";
      "stats a=b=c";
      "stats a";
      "epoch 1 2 3 4";
    ]

let test_framing () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let payloads = [ "hello"; ""; "with\nnewline"; String.make 4096 'x' ] in
      List.iter (fun p -> Protocol.write_frame w p) payloads;
      List.iter
        (fun p ->
          match Protocol.read_frame r with
          | Ok got -> Alcotest.(check string) "frame payload" p got
          | Error `Closed -> Alcotest.fail "premature close"
          | Error (`Malformed m) -> Alcotest.failf "malformed: %s" m)
        payloads;
      Unix.close w;
      (match Protocol.read_frame r with
      | Error `Closed -> ()
      | Ok p -> Alcotest.failf "read %S after close" p
      | Error (`Malformed m) -> Alcotest.failf "malformed at EOF: %s" m))

let test_framing_malformed () =
  let check_bad raw =
    let r, w = Unix.pipe () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close r with Unix.Unix_error _ -> ());
        try Unix.close w with Unix.Unix_error _ -> ())
      (fun () ->
        let n = Unix.write_substring w raw 0 (String.length raw) in
        Alcotest.(check int) "wrote all" (String.length raw) n;
        Unix.close w;
        match Protocol.read_frame r with
        | Error (`Malformed _) -> ()
        | Error `Closed -> Alcotest.failf "%S read as clean close" raw
        | Ok p -> Alcotest.failf "%S read as frame %S" raw p)
  in
  check_bad "notalength\npayload";
  check_bad "-3\nxxx";
  (* a length beyond [max_frame] must be refused before allocation *)
  check_bad (string_of_int (Protocol.max_frame + 1) ^ "\n");
  (* truncated payload: length promises more bytes than arrive *)
  check_bad "10\nshort";
  (* only the lengths [write_frame] writes *)
  check_bad "0x10\n0123456789abcdef";
  check_bad "+5\nhello";
  check_bad "1_0\n0123456789";
  check_bad "0b11\nabc";
  check_bad "0u5\nhello";
  check_bad "05\nhello";
  check_bad "00\n";
  check_bad "-0\n";
  check_bad "\nhello";
  check_bad "99999999999999999999\n"

(* --- wire bytes ---------------------------------------------------- *)

(* Every constructor's exact bytes, as the codec before the in-place
   writer and cursor produced them: peers of other builds depend on
   every one. *)
let all_bytes = String.init 256 Char.chr

let golden_requests =
  [
    (Protocol.Hello, "hello");
    (Protocol.Pin, "pin");
    (Protocol.Lookup_string "two words", "lookup-string two%20words");
    (Protocol.Lookup_contains "needle\n%", "lookup-contains needle%0A%25");
    (Protocol.Lookup_element_contains "", "lookup-element-contains ");
    (Protocol.Lookup_named "k=v", "lookup-named k%3Dv");
    ( Protocol.Lookup_typed ("xs:double", Some (-0.5), None),
      "lookup-typed xs:double -0.5 _" );
    ( Protocol.Lookup_typed ("xs:dateTime", Some 0.1, Some 1e300),
      "lookup-typed xs:dateTime 0.10000000000000001 1.0000000000000001e+300" );
    (Protocol.Value max_int, "value 4611686018427387903");
    (Protocol.Value (-42), "value -42");
    (Protocol.Begin, "begin");
    ( Protocol.Set (0, "a value with spaces"),
      "set 0 a%20value%20with%20spaces" );
    (Protocol.Commit, "commit");
    (Protocol.Commit_deferred, "commit-deferred");
    (Protocol.Abort, "abort");
    ( Protocol.Insert (7, "<a b=\"c\">t &amp; u</a>"),
      "insert 7 <a%20b%3D\"c\">t%20&amp;%20u</a>" );
    (Protocol.Delete min_int, "delete -4611686018427387904");
    (Protocol.Stats, "stats");
    (Protocol.Sync, "sync");
    (Protocol.Quit, "quit");
    (Protocol.Shutdown, "shutdown");
    (Protocol.Repl_info, "repl-info");
    (Protocol.Repl_snapshot 1048576, "repl-snapshot 1048576");
    ( Protocol.Repl_pull { from_lsn = 1; max_bytes = max_int },
      "repl-pull 1 4611686018427387903" );
    (Protocol.Repl_digest { anchor = -1; lsn = 42 }, "repl-digest -1 42");
    (Protocol.Promote, "promote");
  ]

let golden_responses =
  [
    (Protocol.Ok_, "ok");
    ( Protocol.Epoch { epoch = 3; lsn = max_int; commits = 0 },
      "epoch 3 4611686018427387903 0" );
    (Protocol.Nodes [], "nodes 0");
    (Protocol.Nodes [ 1; 2; 300 ], "nodes 3 1 2 300");
    ( Protocol.Nodes [ -7; min_int; max_int; 0 ],
      "nodes 4 -7 -4611686018427387904 4611686018427387903 0" );
    (Protocol.Nodes_lsn ([ 4; 5 ], 99), "nodes-lsn 99 2 4 5");
    (Protocol.Nodes_lsn ([], -1), "nodes-lsn -1 0");
    ( Protocol.Value_r "string value\nwith newline",
      "value string%20value%0Awith%20newline" );
    (Protocol.Value_r "", "value ");
    (Protocol.Lsn 123456, "lsn 123456");
    ( Protocol.Stats_r [ ("epoch", "4"); ("a=b", "two words"); ("", "") ],
      "stats epoch=4 a%3Db=two%20words =" );
    (Protocol.Stats_r [], "stats");
    ( Protocol.Conflict_r { node = -3; reason = "lost to txn 3" },
      "conflict -3 lost%20to%20txn%203" );
    (Protocol.Err "something % broke", "err something%20%25%20broke");
    (Protocol.Bye, "bye");
    ( Protocol.Repl_info_r { role = "follower"; last_lsn = 10; durable_lsn = 9; checkpoint_lsn = 0; applied_lsn = 8; leader_lsn = max_int },
      "repl-info follower 10 9 0 8 4611686018427387903" );
    (Protocol.Chunk { total = 0; data = "" }, "chunk 0 ");
    ( Protocol.Chunk { total = 256; data = all_bytes },
      "chunk 256 %00%01%02%03%04%05%06%07%08%09%0A%0B%0C%0D%0E%0F%10%11%12%\
       13%14%15%16%17%18%19%1A%1B%1C%1D%1E%1F%20!\"#$%25&'()*+,-./0123456789:\
       ;<%3D>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}\
       ~%7F\128\129\130\131\132\133\134\135\136\137\138\139\140\141\142\143\
       \144\145\146\147\148\149\150\151\152\153\154\155\156\157\158\159\160\
       \161\162\163\164\165\166\167\168\169\170\171\172\173\174\175\176\177\
       \178\179\180\181\182\183\184\185\186\187\188\189\190\191\192\193\194\
       \195\196\197\198\199\200\201\202\203\204\205\206\207\208\209\210\211\
       \212\213\214\215\216\217\218\219\220\221\222\223\224\225\226\227\228\
       \229\230\231\232\233\234\235\236\237\238\239\240\241\242\243\244\245\
       \246\247\248\249\250\251\252\253\254\255" );
    ( Protocol.Frames_r { durable_lsn = 17; data = "\x01\x02 frame % bytes" },
      "frames 17 %01%02%20frame%20%25%20bytes" );
    (Protocol.Digest_r None, "digest _");
    ( Protocol.Digest_r (Some "d41d8cd98f00b204e9800998ecf8427e"),
      "digest d41d8cd98f00b204e9800998ecf8427e" );
    (Protocol.Snapshot_needed_r 23, "snapshot-needed 23");
  ]

(* 4,000 ids: a wide range reply, pinned by length and digest *)
let many_ids = List.init 4000 (fun i -> 100_000 + (i * 7919))

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
  in
  go ()

(* what [write] puts on a pipe; [write] must fit the pipe's buffer *)
let pipe_bytes write =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> write w);
      read_all r)

let test_wire_golden () =
  let check what encode decode (v, bytes) =
    Alcotest.(check string) what bytes (encode v);
    match decode bytes with
    | Ok v' when v' = v -> ()
    | Ok _ -> Alcotest.failf "%s %S decodes to another value" what bytes
    | Error m -> Alcotest.failf "%s %S rejected: %s" what bytes m
  in
  List.iter
    (check "request" Protocol.encode_request Protocol.decode_request)
    golden_requests;
  List.iter
    (check "response" Protocol.encode_response Protocol.decode_response)
    golden_responses;
  let digest s = Digest.to_hex (Digest.string s) in
  let big = Protocol.encode_response (Protocol.Nodes many_ids) in
  Alcotest.(check int) "4,000-id reply length" 34645 (String.length big);
  Alcotest.(check string) "4,000-id reply digest"
    "c53c45f0c6b97ee3f5f0d6c22992c2e8" (digest big);
  Alcotest.(check string) "4,000-id reply head" "nodes 4000 100000 107919 "
    (String.sub big 0 25);
  (match Protocol.decode_response big with
  | Ok (Protocol.Nodes l) when l = many_ids -> ()
  | _ -> Alcotest.fail "4,000-id reply does not decode to its ids");
  (* framed: "<len>\n" then the payload, from both frame writers *)
  Alcotest.(check string) "empty frame" "0\n"
    (pipe_bytes (fun w -> Protocol.write_frame w ""));
  Alcotest.(check string) "small frame" "5\nhello"
    (pipe_bytes (fun w -> Protocol.write_frame w "hello"));
  List.iter
    (fun (what, write) ->
      let frame = pipe_bytes write in
      Alcotest.(check string) what "276b0a3560121d321568f86d68a96211"
        (digest frame);
      Alcotest.(check string) what ("34645\n" ^ big) frame)
    [
      ("write_frame", fun w -> Protocol.write_frame w big);
      ( "write_response",
        fun w -> Protocol.write_response w (Protocol.Nodes many_ids) );
    ]

(* the escaping rule, spelled with Printf: uppercase %XX *)
let reference_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      let b = Char.code c in
      if b < 0x21 || b = 0x7f || c = '%' || c = '=' then
        Buffer.add_string buf (Printf.sprintf "%%%02X" b)
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let test_escape_every_byte () =
  for b = 0 to 255 do
    let s = Printf.sprintf "a%cb" (Char.chr b) in
    Alcotest.(check string)
      (Printf.sprintf "escape byte %d" b)
      (reference_escape s) (Protocol.escape s)
  done;
  (* a replication chunk's worth of binary data *)
  let rng = Random.State.make [| 15 |] in
  let blob = String.init (1 lsl 20) (fun _ -> Char.chr (Random.State.int rng 256)) in
  Alcotest.(check string) "1 MiB blob" (reference_escape blob)
    (Protocol.escape blob)

(* Back-to-back frames whose payloads sit on header-digit boundaries and
   across the 64 KiB Unix buffer: each [read_frame] must return exactly
   its own payload, so none may read into the next frame. *)
let frame_sizes = [ 0; 1; 9; 10; 99; 100; 9_999; 10_000; 70_000 ]

let frame_payload k n = String.init n (fun i -> Char.chr (33 + ((i + k) mod 90)))

let check_frames_through (r, w) ~dribble =
  let payloads = List.mapi frame_payload frame_sizes in
  (* one byte per [write] when dribbling, so every read comes up short *)
  let send p =
    if not dribble then Protocol.write_frame w p
    else
      let frame = string_of_int (String.length p) ^ "\n" ^ p in
      for i = 0 to String.length frame - 1 do
        ignore (Unix.write_substring w frame i 1 : int)
      done
  in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> List.iter send payloads))
  in
  (* on failure, closing [r] fails the blocked writer with EPIPE *)
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      match Domain.join writer with
      | () -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ())
    (fun () ->
      List.iter
        (fun p ->
          match Protocol.read_frame r with
          | Ok got ->
              if not (String.equal got p) then
                Alcotest.failf "frame of %d bytes read back as %d bytes"
                  (String.length p) (String.length got)
          | Error `Closed -> Alcotest.fail "premature close"
          | Error (`Malformed m) -> Alcotest.failf "malformed: %s" m)
        payloads;
      match Protocol.read_frame r with
      | Error `Closed -> ()
      | Ok p -> Alcotest.failf "read %d bytes past the last frame" (String.length p)
      | Error (`Malformed m) -> Alcotest.failf "malformed at EOF: %s" m)

let test_framing_no_overread () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socketpair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter
    (fun (make, dribble) -> check_frames_through (make ()) ~dribble)
    [
      ((fun () -> Unix.pipe ()), false);
      (socketpair, false);
      ((fun () -> Unix.pipe ()), true);
      (socketpair, true);
    ]

(* --- protocol codec properties ------------------------------------- *)

(* Arbitrary byte strings — empty, '%', separators, control bytes,
   non-ASCII — everything the escaper must make wire-safe. *)
let gen_bytes =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 48))

(* Finite floats that [%.17g] renders exactly; NaN is excluded because
   structural equality on it is false, not because the codec loses it. *)
let gen_float =
  QCheck2.Gen.(
    map
      (fun (m, e) -> Float.ldexp (float_of_int m) e)
      (pair (int_range (-1_000_000) 1_000_000) (int_range (-40) 40)))

let gen_nat = QCheck2.Gen.int_bound 1_000_000
let gen_hex = QCheck2.Gen.map Digest.to_hex (QCheck2.Gen.map Digest.string gen_bytes)

let gen_request =
  let open QCheck2.Gen in
  let bytes = gen_bytes and fo = option gen_float in
  oneof
    [
      return Protocol.Hello;
      return Protocol.Pin;
      map (fun s -> Protocol.Lookup_string s) bytes;
      map (fun s -> Protocol.Lookup_contains s) bytes;
      map (fun s -> Protocol.Lookup_element_contains s) bytes;
      map (fun s -> Protocol.Lookup_named s) bytes;
      map
        (fun ((t, lo), hi) -> Protocol.Lookup_typed (t, lo, hi))
        (pair (pair bytes fo) fo);
      map (fun n -> Protocol.Value n) gen_nat;
      return Protocol.Begin;
      map (fun (n, s) -> Protocol.Set (n, s)) (pair gen_nat bytes);
      return Protocol.Commit;
      return Protocol.Commit_deferred;
      return Protocol.Abort;
      map (fun (n, s) -> Protocol.Insert (n, s)) (pair gen_nat bytes);
      map (fun n -> Protocol.Delete n) gen_nat;
      return Protocol.Stats;
      return Protocol.Sync;
      return Protocol.Quit;
      return Protocol.Shutdown;
      return Protocol.Repl_info;
      map (fun n -> Protocol.Repl_snapshot n) gen_nat;
      map
        (fun (from_lsn, max_bytes) -> Protocol.Repl_pull { from_lsn; max_bytes })
        (pair gen_nat gen_nat);
      map
        (fun (anchor, lsn) -> Protocol.Repl_digest { anchor; lsn })
        (pair gen_nat gen_nat);
      return Protocol.Promote;
    ]

let gen_response =
  let open QCheck2.Gen in
  let bytes = gen_bytes in
  (* up to a wide range reply, over every id width *)
  let ids =
    list_size (int_bound 5000)
      (oneof [ int_bound 9; int_bound 1_000_000; int_bound max_int ])
  in
  oneof
    [
      return Protocol.Ok_;
      map
        (fun ((epoch, lsn), commits) -> Protocol.Epoch { epoch; lsn; commits })
        (pair (pair gen_nat gen_nat) gen_nat);
      map (fun l -> Protocol.Nodes l) ids;
      map (fun (l, lsn) -> Protocol.Nodes_lsn (l, lsn)) (pair ids gen_nat);
      map (fun s -> Protocol.Value_r s) bytes;
      map (fun n -> Protocol.Lsn n) gen_nat;
      (* keys are escaped like any token, so arbitrary bytes are fair *)
      map
        (fun kvs -> Protocol.Stats_r kvs)
        (list_size (int_bound 6) (pair bytes bytes));
      map
        (fun (node, reason) -> Protocol.Conflict_r { node; reason })
        (pair gen_nat bytes);
      map (fun m -> Protocol.Err m) bytes;
      return Protocol.Bye;
      map
        (fun
          (((role, last_lsn), (durable_lsn, checkpoint_lsn)),
           (applied_lsn, leader_lsn))
        ->
          Protocol.Repl_info_r
            {
              role;
              last_lsn;
              durable_lsn;
              checkpoint_lsn;
              applied_lsn;
              leader_lsn;
            })
        (pair
           (pair (pair bytes gen_nat) (pair gen_nat gen_nat))
           (pair gen_nat gen_nat));
      map
        (fun (total, data) -> Protocol.Chunk { total; data })
        (pair gen_nat bytes);
      map
        (fun (durable_lsn, data) -> Protocol.Frames_r { durable_lsn; data })
        (pair gen_nat bytes);
      (* hex digests only: the wire spells [None] as the token "_", so a
         Some-digest must never itself be that token — real chain
         digests are 32 hex chars and cannot collide with it *)
      map (fun h -> Protocol.Digest_r (Some h)) gen_hex;
      return (Protocol.Digest_r None);
      map (fun n -> Protocol.Snapshot_needed_r n) gen_nat;
    ]

let prop_escape_roundtrip =
  QCheck2.Test.make ~name:"unescape (escape s) = s" ~count:2000 gen_bytes
    (fun s ->
      match Protocol.unescape (Protocol.escape s) with
      | Ok s' -> String.equal s s'
      | Error _ -> false)

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"decode (encode request) = request" ~count:2000
    gen_request (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"decode (encode response) = response" ~count:2000
    gen_response (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp' -> resp = resp'
      | Error _ -> false)

(* The decoders are total: no input makes them raise. *)
let decodes_quietly s =
  (match Protocol.decode_request s with Ok _ | Error _ -> ());
  match Protocol.decode_response s with Ok _ | Error _ -> ()

(* bytes shaped like payloads — verbs, digits, signs, spaces, escapes —
   reach further into the decoders than uniform noise *)
let gen_payload_like =
  let open QCheck2.Gen in
  let verbs =
    [ "nodes"; "nodes-lsn"; "value"; "stats"; "epoch"; "lookup-typed"; "set"; "repl-info"; "digest" ]
  in
  let token =
    oneof
      [
        string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '%'; '='; 'A'; '_'; '.'; 'e' ]) (int_bound 24);
        map string_of_int int;
        return "99999999999999999999";
      ]
  in
  map2
    (fun verb toks -> String.concat " " (verb :: toks))
    (oneofl verbs)
    (list_size (int_bound 6) token)

let prop_decode_total =
  QCheck2.Test.make ~name:"decoders never raise" ~count:2000
    QCheck2.Gen.(oneof [ gen_bytes; gen_payload_like ])
    (fun s ->
      decodes_quietly s;
      true)

(* One byte-level slip of a valid encoding: a digit turned to 'x', a
   space dropped or doubled, or overflow digits appended. *)
let mutate s (kind, pick) =
  let positions p =
    List.filter (fun i -> p s.[i]) (List.init (String.length s) Fun.id)
  in
  let at p f =
    match positions p with
    | [] -> s ^ "99999999999999999999"
    | l -> f (List.nth l (pick mod List.length l))
  in
  let splice i ~drop ins =
    String.sub s 0 i ^ ins ^ String.sub s (i + drop) (String.length s - i - drop)
  in
  match kind with
  | 0 -> at (fun c -> c >= '0' && c <= '9') (fun i -> splice i ~drop:1 "x")
  | 1 -> at (Char.equal ' ') (fun i -> splice i ~drop:1 "")
  | 2 -> at (Char.equal ' ') (fun i -> splice i ~drop:0 " ")
  | _ -> s ^ "99999999999999999999"

let gen_mutant =
  let open QCheck2.Gen in
  map2 mutate
    (oneof
       [
         map Protocol.encode_request gen_request;
         map Protocol.encode_response gen_response;
       ])
    (pair (int_bound 3) (int_bound 1_000_000))

(* The decoders take only what the encoders write: a slipped payload is
   an [Error], or decodes to a value whose encoding is that payload. *)
let prop_mutants =
  QCheck2.Test.make ~name:"mutants fail or re-encode" ~count:2000 gen_mutant
    (fun m ->
      (match Protocol.decode_request m with
      | Ok req -> String.equal (Protocol.encode_request req) m
      | Error _ -> true)
      &&
      match Protocol.decode_response m with
      | Ok resp -> String.equal (Protocol.encode_response resp) m
      | Error _ -> true)

(* --- engine: memory ------------------------------------------------ *)

let test_engine_pin_immutable () =
  with_mem_engine small_xml (fun engine ->
      let pin0 = Engine.pin engine in
      let t0 = first_text pin0.Engine.db in
      let lsn =
        ok_exn "update" (Engine.update_texts engine [ (t0, "replaced") ])
      in
      let pin1 = Engine.pin engine in
      (* the old pin still answers from its own epoch. lookup_string
         matches by XDM string value, so the text node's parent element
         matches too — assert membership, not the exact hit list *)
      if not (List.mem t0 (Db.lookup_string pin0.Engine.db "alpha")) then
        Alcotest.fail "old epoch lost alpha";
      Alcotest.(check nodes) "old epoch has no replaced" []
        (Db.lookup_string pin0.Engine.db "replaced");
      (* the new pin sees the commit (publish_period defaults to 0) *)
      if not (List.mem t0 (Db.lookup_string pin1.Engine.db "replaced")) then
        Alcotest.fail "new epoch missing the committed value";
      if pin1.Engine.epoch <= pin0.Engine.epoch then
        Alcotest.failf "epoch did not advance: %d -> %d" pin0.Engine.epoch
          pin1.Engine.epoch;
      Alcotest.(check int) "commit counted" (pin0.Engine.commits + 1)
        pin1.Engine.commits;
      if pin1.Engine.lsn < lsn then
        Alcotest.failf "pin lsn %d below committed lsn %d" pin1.Engine.lsn lsn)

let test_engine_conflict () =
  with_mem_engine small_xml (fun engine ->
      let t0 = first_text (Engine.snapshot engine) in
      let tx1 = Engine.begin_ engine in
      let tx2 = Engine.begin_ engine in
      (match Txn.update_text tx1 t0 "first" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "stage tx1 refused");
      (match Txn.update_text tx2 t0 "second" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "stage tx2 refused");
      ignore (ok_exn "first committer" (Engine.submit engine tx1) : int);
      (match Engine.submit engine tx2 with
      | Error (Engine.Conflict _) -> ()
      | Error e ->
          Alcotest.failf "wanted Conflict, got %s" (Engine.error_to_string e)
      | Ok _ -> Alcotest.fail "second committer won");
      (* the loser's value never became visible *)
      let db = Engine.snapshot engine in
      if not (List.mem t0 (Db.lookup_string db "first")) then
        Alcotest.fail "winner's value missing";
      Alcotest.(check nodes) "loser's value invisible" []
        (Db.lookup_string db "second"))

let test_engine_empty_commit () =
  with_mem_engine small_xml (fun engine ->
      let before = Engine.stats engine in
      let tx = Engine.begin_ engine in
      let lsn = ok_exn "empty submit" (Engine.submit engine tx) in
      let after = Engine.stats engine in
      Alcotest.(check int) "no LSN consumed" before.Engine.last_lsn lsn;
      Alcotest.(check int) "no commit counted" before.Engine.commits
        after.Engine.commits)

(* A commit right after an epoch publication clones only the column
   pages it writes (and their directories), read through the
   process-wide counter the [stats] verb reports. With 32 KiB chunks
   the same 4-write commit on XMark x0.1 cloned ~0.5 MB. *)
let test_engine_commit_clones_pages () =
  let xml = Xvi_workload.Xmark.generate ~seed:3 ~factor:0.1 () in
  with_mem_engine xml (fun engine ->
      let texts = texts_of (Engine.snapshot engine) in
      let pick k = texts.(k * (Array.length texts - 1) / 4) in
      (* the first commit publishes an epoch that shares every page *)
      ignore (ok_exn "warm-up" (Engine.update_texts engine [ (pick 0, "warm") ]) : int);
      let before = Engine.stats engine in
      ignore
        (ok_exn "4-write commit"
           (Engine.update_texts engine
              [ (pick 1, "cow-a"); (pick 2, "17.5"); (pick 3, "cow-b"); (pick 4, "-3") ])
          : int);
      let after = Engine.stats engine in
      let bytes = after.Engine.cow_bytes - before.Engine.cow_bytes in
      if after.Engine.cow_pages <= before.Engine.cow_pages then
        Alcotest.fail "a commit under a published epoch cloned no page";
      if bytes > 64 * 1024 then
        Alcotest.failf "4-write commit cloned %d bytes (> 64 KiB)" bytes)

let test_engine_invalid_target () =
  with_mem_engine small_xml (fun engine ->
      let elem =
        List.hd (Db.elements_named (Engine.snapshot engine) "a")
      in
      (match Engine.update_texts engine [ (elem, "x") ] with
      | Error (Engine.Invalid _) -> ()
      | Error e ->
          Alcotest.failf "wanted Invalid, got %s" (Engine.error_to_string e)
      | Ok _ -> Alcotest.fail "element accepted as text target");
      match Engine.insert_xml engine ~parent:elem "<open>" with
      | Error (Engine.Parse _) -> ()
      | Error e ->
          Alcotest.failf "wanted Parse, got %s" (Engine.error_to_string e)
      | Ok _ -> Alcotest.fail "unbalanced fragment accepted)")

let test_engine_structural () =
  with_mem_engine small_xml (fun engine ->
      let elem = List.hd (Db.elements_named (Engine.snapshot engine) "b") in
      let roots, _lsn =
        ok_exn "insert" (Engine.insert_xml engine ~parent:elem "<d>delta</d>")
      in
      if roots = [] then Alcotest.fail "insert returned no roots";
      let db1 = Engine.snapshot engine in
      Alcotest.(check int) "inserted element findable" 1
        (List.length (Db.elements_named db1 "d"));
      let delta_hits = Db.lookup_string db1 "delta" in
      if delta_hits = [] then Alcotest.fail "inserted text not indexed";
      ignore
        (ok_exn "delete" (Engine.delete_subtree engine (List.hd roots)) : int);
      let db2 = Engine.snapshot engine in
      Alcotest.(check nodes) "deleted subtree gone" []
        (Db.lookup_string db2 "delta");
      (* the pre-delete epoch still holds it *)
      Alcotest.(check nodes) "old epoch unaffected" delta_hits
        (Db.lookup_string db1 "delta"))

(* A fragment that fails to parse must leave no node behind: the
   digest is unchanged and every index still validates, both on a bare
   database and through the engine's in-memory backend (where stray
   nodes in the master would surface in the next published epoch). *)
let test_rejected_insert_atomic () =
  let bad = "<c>x</c><d>" in
  let check_db what db digest =
    Alcotest.(check string) (what ^ ": digest unchanged") digest (Db.digest db);
    match Db.validate db with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: validate: %s" what e
  in
  let db = Db.of_xml_exn small_xml in
  let a = List.hd (Db.elements_named db "a") in
  let before = Db.digest db in
  (match Db.insert_xml db ~parent:a bad with
  | Error e ->
      Alcotest.(check string) "error" "1:12: unexpected end of input"
        (Xvi_xml.Parser.error_to_string e)
  | Ok _ -> Alcotest.fail "Db accepted an unterminated fragment");
  check_db "Db" db before;
  (* the engine: reject, then commit a good insert; the published epoch
     must equal a database that only ever saw the good one *)
  let reference = Db.of_xml_exn small_xml in
  ignore (Db.insert_xml reference ~parent:a "<ok/>" : _ result);
  with_mem_engine small_xml (fun engine ->
      (match Engine.insert_xml engine ~parent:a bad with
      | Error (Engine.Parse _) -> ()
      | Error e ->
          Alcotest.failf "wanted Parse, got %s" (Engine.error_to_string e)
      | Ok _ -> Alcotest.fail "Engine accepted an unterminated fragment");
      check_db "Engine after reject" (Engine.snapshot engine) before;
      ignore
        (ok_exn "good insert" (Engine.insert_xml engine ~parent:a "<ok/>")
          : Store.node list * int);
      check_db "Engine after next commit" (Engine.snapshot engine)
        (Db.digest reference))

let test_engine_closed () =
  let engine =
    ok_exn "open" (Engine.open_ (Engine.Memory (Db.of_xml_exn small_xml)))
  in
  let t0 = first_text (Engine.snapshot engine) in
  Engine.close engine;
  Engine.close engine;
  (* idempotent *)
  match Engine.update_texts engine [ (t0, "ghost") ] with
  | Error Engine.Closed -> ()
  | Error e -> Alcotest.failf "wanted Closed, got %s" (Engine.error_to_string e)
  | Ok _ -> Alcotest.fail "write accepted after close"

(* --- engine: durable ----------------------------------------------- *)

let test_engine_durable_roundtrip () =
  with_dir (fun root ->
      let dir = Filename.concat root "store" in
      let engine =
        ok_exn "init"
          (Engine.init ~dir (Db.of_xml_exn small_xml))
      in
      let t0 = first_text (Engine.snapshot engine) in
      ignore (ok_exn "update" (Engine.update_texts engine [ (t0, "durable") ]) : int);
      (* a second init without force must refuse the populated dir *)
      (match Engine.init ~dir (Db.of_xml_exn small_xml) with
      | Error (Engine.Invalid _) -> ()
      | Error e ->
          Alcotest.failf "wanted Invalid, got %s" (Engine.error_to_string e)
      | Ok t ->
          Engine.close t;
          Alcotest.fail "init overwrote an existing durable dir");
      Engine.close engine;
      let engine2 = ok_exn "reopen" (Engine.open_ (Engine.Dir dir)) in
      Fun.protect
        ~finally:(fun () -> Engine.close engine2)
        (fun () ->
          Alcotest.(check bool) "durable" true (Engine.is_durable engine2);
          Alcotest.(check (option string)) "dir" (Some dir) (Engine.dir engine2);
          if Engine.last_replay engine2 = None then
            Alcotest.fail "reopen reported no replay";
          if
            not
              (List.mem t0 (Db.lookup_string (Engine.snapshot engine2) "durable"))
          then Alcotest.fail "recovered commit not visible";
          (* checkpoint folds the log into the snapshot *)
          let wal_bytes () =
            match (Engine.stats engine2).Engine.durable with
            | Some d -> d.Xvi_wal.Durable.wal_bytes
            | None -> Alcotest.fail "durable stats missing"
          in
          ignore
            (ok_exn "post-reopen update"
               (Engine.update_texts engine2 [ (t0, "again" ) ]) : int);
          let before = wal_bytes () in
          ok_exn "checkpoint" (Engine.checkpoint engine2);
          if wal_bytes () >= before then
            Alcotest.failf "checkpoint did not truncate: %d -> %d" before
              (wal_bytes ())))

let test_engine_memory_checkpoint_invalid () =
  with_mem_engine small_xml (fun engine ->
      match Engine.checkpoint engine with
      | Error (Engine.Invalid _) -> ()
      | Error e ->
          Alcotest.failf "wanted Invalid, got %s" (Engine.error_to_string e)
      | Ok () -> Alcotest.fail "memory engine accepted checkpoint")

(* --- sessions ------------------------------------------------------ *)

let test_session_lifecycle () =
  with_mem_engine small_xml (fun engine ->
      let s = Session.create engine in
      Fun.protect
        ~finally:(fun () -> Session.close s)
        (fun () ->
          let db = Session.db s in
          Alcotest.(check nodes) "reads answer from the pin"
            (Db.lookup_string db "beta")
            (Session.lookup_string s "beta");
          let t0 = first_text db in
          (match Session.stage s t0 "early" with
          | Error (Engine.Invalid _) -> ()
          | _ -> Alcotest.fail "stage without begin accepted");
          (match Session.commit s with
          | Error (Engine.Invalid _) -> ()
          | _ -> Alcotest.fail "commit without begin accepted");
          ok_exn "begin" (Session.begin_ s);
          Alcotest.(check bool) "in_txn" true (Session.in_txn s);
          (match Session.begin_ s with
          | Error (Engine.Invalid _) -> ()
          | _ -> Alcotest.fail "double begin accepted");
          ok_exn "stage" (Session.stage s t0 "committed-by-session");
          (* structural ops are single-op transactions *)
          (match Session.insert_xml s ~parent:t0 "<x/>" with
          | Error (Engine.Invalid _) -> ()
          | _ -> Alcotest.fail "insert inside open txn accepted");
          let lsn = ok_exn "commit" (Session.commit ~durable:true s) in
          if lsn < 0 then Alcotest.failf "bad lsn %d" lsn;
          Alcotest.(check bool) "txn closed by commit" false (Session.in_txn s);
          (* read-your-writes: commit repinned the session *)
          if not (List.mem t0 (Session.lookup_string s "committed-by-session"))
          then Alcotest.fail "session does not see its own write";
          (match Session.string_value s t0 with
          | Ok v -> Alcotest.(check string) "string_value" "committed-by-session" v
          | Error e -> Alcotest.failf "string_value: %s" (Engine.error_to_string e));
          (match Session.string_value s 999_999 with
          | Error (Engine.Invalid _) -> ()
          | _ -> Alcotest.fail "out-of-range node accepted");
          match Session.lookup_typed s "xs:no-such-type" Range.any with
          | Error (Engine.Read _) -> ()
          | Error e ->
              Alcotest.failf "wanted Read error, got %s"
                (Engine.error_to_string e)
          | Ok _ -> Alcotest.fail "unknown type accepted"))

let test_session_abort_and_conflict () =
  with_mem_engine small_xml (fun engine ->
      let s1 = Session.create engine and s2 = Session.create engine in
      Fun.protect
        ~finally:(fun () ->
          Session.close s1;
          Session.close s2)
        (fun () ->
          let t0 = first_text (Session.db s1) in
          (* abort drops the staged write *)
          ok_exn "begin s1" (Session.begin_ s1);
          ok_exn "stage s1" (Session.stage s1 t0 "aborted");
          Session.abort s1;
          Alcotest.(check bool) "txn gone" false (Session.in_txn s1);
          ignore (Session.refresh s1 : Engine.pinned);
          Alcotest.(check nodes) "aborted write invisible" []
            (Session.lookup_string s1 "aborted");
          (* two sessions racing for one node: first committer wins *)
          ok_exn "begin s1" (Session.begin_ s1);
          ok_exn "begin s2" (Session.begin_ s2);
          ok_exn "stage s1" (Session.stage s1 t0 "winner");
          ok_exn "stage s2" (Session.stage s2 t0 "loser");
          ignore (ok_exn "commit s1" (Session.commit s1) : int);
          (match Session.commit s2 with
          | Error (Engine.Conflict _) -> ()
          | Error e ->
              Alcotest.failf "wanted Conflict, got %s"
                (Engine.error_to_string e)
          | Ok _ -> Alcotest.fail "second committer won");
          ignore (Session.refresh s2 : Engine.pinned);
          if not (List.mem t0 (Session.lookup_string s2 "winner")) then
            Alcotest.fail "winner not visible to loser after refresh"))

(* --- server and client over a real socket -------------------------- *)

(* Every socket test gets its own fresh directory for its socket path
   (AF_UNIX paths are length-limited to ~107 bytes, so mkdtemp under
   the system temp dir keeps them short), and the test asserts the
   server left it empty — a leaked socket file is a failure, not
   something the next test silently trips over. *)
let with_socket_dir f =
  let dir = Filename.temp_file "xvi-sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun e ->
            try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir (Filename.concat dir "xvi.sock"))

let assert_socket_dir_clean dir =
  Alcotest.(check (list string))
    "server unlinked its socket; directory left clean" []
    (Array.to_list (Sys.readdir dir))

let with_server xml f =
  with_mem_engine xml (fun engine ->
      with_socket_dir (fun dir socket ->
          let server =
            match Server.create ~engine ~socket () with
            | Ok s -> s
            | Error m -> Alcotest.failf "server create: %s" m
          in
          let dom = Domain.spawn (fun () -> Server.run server) in
          Fun.protect
            ~finally:(fun () ->
              Server.request_stop server;
              Domain.join dom)
            (fun () -> f engine socket);
          assert_socket_dir_clean dir))

let connect_exn socket =
  match Client.connect ~socket () with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let cli what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let test_server_roundtrip () =
  with_server small_xml (fun engine socket ->
      let c = connect_exn socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let epoch0, _lsn0, commits0 = cli "hello" (Client.hello c) in
          let db = Engine.snapshot engine in
          let t0 = first_text db in
          (* reads over the wire match direct reads on the snapshot *)
          Alcotest.(check nodes) "lookup-string"
            (Db.lookup_string db "alpha")
            (cli "lookup" (Client.lookup_string c "alpha"));
          Alcotest.(check nodes) "lookup-named"
            (Db.elements_named db "b")
            (cli "named" (Client.lookup_named c "b"));
          Alcotest.(check string) "value" "alpha"
            (cli "value" (Client.value c t0));
          (match Client.value c 999_999 with
          | Error _ -> ()
          | Ok v -> Alcotest.failf "bogus node answered %S" v);
          (* a write round trip: begin / set / commit, then repin *)
          cli "begin" (Client.begin_ c);
          cli "set" (Client.set c t0 "served value");
          let lsn = cli "commit" (Client.commit c) in
          if lsn < 0 then Alcotest.failf "bad lsn %d" lsn;
          let epoch1, _, commits1 = cli "pin" (Client.pin c) in
          if epoch1 <= epoch0 then
            Alcotest.failf "epoch did not advance over the wire: %d -> %d"
              epoch0 epoch1;
          Alcotest.(check int) "one more commit" (commits0 + 1) commits1;
          if
            not
              (List.mem t0 (cli "lookup2" (Client.lookup_string c "served value")))
          then Alcotest.fail "committed value not visible over the wire";
          (* typed lookup with open bounds *)
          Alcotest.(check nodes) "typed"
            (Db.lookup_typed db "xs:double" Range.any)
            (cli "typed" (Client.lookup_typed c "xs:double" None None));
          (* structural ops *)
          let parent = List.hd (Db.elements_named db "c") in
          let roots, _ =
            cli "insert" (Client.insert c ~parent "<z>zeta</z>")
          in
          if roots = [] then Alcotest.fail "insert returned no roots";
          if cli "find zeta" (Client.lookup_string c "zeta") = [] then
            Alcotest.fail "inserted text not served";
          ignore (cli "delete" (Client.delete c (List.hd roots)) : int);
          ignore (cli "pin" (Client.pin c) : int * int * int);
          Alcotest.(check nodes) "deleted over the wire" []
            (cli "find gone" (Client.lookup_string c "zeta"));
          (* stats and sync *)
          let st = cli "stats" (Client.stats c) in
          Alcotest.(check (option string)) "memory engine stats" (Some "no")
            (List.assoc_opt "durable" st);
          if List.assoc_opt "commits" st = None then
            Alcotest.fail "stats missing commits";
          cli "sync" (Client.sync c)))

(* begin, a [set] refused as not a text node, commit: the commit is
   empty, so the [stats] verb's transaction counter and the engine's
   commit counter must both stay where they were. *)
let test_server_empty_commit_counters () =
  with_server small_xml (fun _engine socket ->
      let c = connect_exn socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          cli "begin" (Client.begin_ c);
          (match Client.set c Store.document "x" with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "set on the document node accepted");
          ignore (cli "commit" (Client.commit c) : int);
          let st = cli "stats" (Client.stats c) in
          let get k =
            match List.assoc_opt k st with
            | Some v -> int_of_string v
            | None -> Alcotest.failf "stats missing %s" k
          in
          Alcotest.(check int) "no commit" 0 (get "commits");
          Alcotest.(check int) "txn_committed = commits" (get "commits")
            (get "txn_committed");
          Alcotest.(check int) "one empty commit" 1 (get "txn_empty")))

let test_server_conflict_and_quit () =
  with_server small_xml (fun engine socket ->
      let c1 = connect_exn socket in
      let c2 = connect_exn socket in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2)
        (fun () ->
          let t0 = first_text (Engine.snapshot engine) in
          cli "begin c1" (Client.begin_ c1);
          cli "begin c2" (Client.begin_ c2);
          cli "set c1" (Client.set c1 t0 "c1 wins");
          cli "set c2" (Client.set c2 t0 "c2 loses");
          ignore (cli "commit c1" (Client.commit c1) : int);
          (match Client.commit c2 with
          | Error _ -> ()
          | Ok lsn -> Alcotest.failf "conflicting commit acked at lsn %d" lsn);
          cli "abort c2" (Client.abort c2);
          (* both connections keep serving after the conflict; c2 must
             repin — its session still reads its pre-conflict epoch *)
          ignore (cli "pin c2" (Client.pin c2) : int * int * int);
          if not (List.mem t0 (cli "c2 reread" (Client.lookup_string c2 "c1 wins")))
          then Alcotest.fail "c2 cannot see the winner after repinning";
          cli "quit c1" (Client.quit c1)))

let test_server_shutdown_request () =
  with_mem_engine small_xml (fun engine ->
      with_socket_dir (fun dir socket ->
          let server =
            match Server.create ~engine ~socket () with
            | Ok s -> s
            | Error m -> Alcotest.failf "server create: %s" m
          in
          let dom = Domain.spawn (fun () -> Server.run server) in
          let c = connect_exn socket in
          cli "shutdown" (Client.shutdown c);
          (* run must return on its own — no request_stop from this side *)
          Domain.join dom;
          Alcotest.(check bool) "socket file removed" false
            (Sys.file_exists socket);
          assert_socket_dir_clean dir))

(* --- the concurrency harness and the serve crash sweep ------------- *)

let test_concurrent_readers () =
  match Runner.run_concurrent ~seed:7 ~readers:2 ~commits:8 () with
  | Ok o ->
      Alcotest.(check int) "readers" 2 o.Runner.readers;
      Alcotest.(check int) "commits" 8 o.Runner.commits;
      if o.Runner.reads < 2 then
        Alcotest.failf "suspiciously few cross-checked reads: %d"
          o.Runner.reads;
      if o.Runner.epochs < 1 then Alcotest.fail "no epochs observed"
  | Error m -> Alcotest.fail m

let qcheck_concurrent =
  QCheck.Test.make ~count:2 ~name:"concurrent readers bit-identical"
    QCheck.(make Gen.(int_bound 1000))
    (fun seed ->
      match Runner.run_concurrent ~seed ~readers:2 ~commits:6 () with
      | Ok o -> o.Runner.reads > 0
      | Error m -> QCheck.Test.fail_report m)

let test_serve_sweep () =
  let db = Db.of_xml_exn small_xml in
  let texts = texts_of db in
  let t i = texts.(i) in
  let batches =
    [
      [ (t 0, "round1-a") ];
      [ (t 1, "round1-b") ];
      [ (t 2, "round1-c") ];
      [ (t 0, "round2-a"); (t 1, "round2-b") ];
      [ (t 2, "round2-c") ];
      [ (t 0, "round3-a") ];
    ]
  in
  match Fault.serve_sweep ~crash_points:60 ~sessions:3 db batches with
  | Ok r ->
      Alcotest.(check int) "commits" 6 r.Fault.serve_commits;
      Alcotest.(check int) "sessions" 3 r.Fault.sessions;
      (* six batches over three texts pack into three disjoint rounds *)
      Alcotest.(check int) "shared syncs" 3 r.Fault.syncs;
      if r.Fault.serve_crash_points < 10 then
        Alcotest.failf "suspiciously few crash points: %d"
          r.Fault.serve_crash_points
  | Error m -> Alcotest.fail m

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "escape round trip" `Quick test_escape_roundtrip;
          Alcotest.test_case "unescape rejects" `Quick test_unescape_rejects;
          Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick
            test_decode_rejects_garbage;
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "framing rejects malformed" `Quick
            test_framing_malformed;
          QCheck_alcotest.to_alcotest prop_escape_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "wire golden bytes" `Quick test_wire_golden;
          Alcotest.test_case "escape every byte" `Quick test_escape_every_byte;
          Alcotest.test_case "framing never over-reads" `Quick
            test_framing_no_overread;
          QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_mutants;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pins are immutable epochs" `Quick
            test_engine_pin_immutable;
          Alcotest.test_case "first committer wins" `Quick test_engine_conflict;
          Alcotest.test_case "empty commit is a no-op" `Quick
            test_engine_empty_commit;
          Alcotest.test_case "invalid targets rejected" `Quick
            test_engine_invalid_target;
          Alcotest.test_case "commit after publication clones pages" `Quick
            test_engine_commit_clones_pages;
          Alcotest.test_case "rejected insert leaves no trace" `Quick
            test_rejected_insert_atomic;
          Alcotest.test_case "insert and delete publish" `Quick
            test_engine_structural;
          Alcotest.test_case "closed engine refuses writes" `Quick
            test_engine_closed;
          Alcotest.test_case "durable init, reopen, checkpoint" `Quick
            test_engine_durable_roundtrip;
          Alcotest.test_case "memory checkpoint invalid" `Quick
            test_engine_memory_checkpoint_invalid;
        ] );
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "abort and conflict" `Quick
            test_session_abort_and_conflict;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket round trip" `Quick test_server_roundtrip;
          Alcotest.test_case "empty commit counters agree" `Quick
            test_server_empty_commit_counters;
          Alcotest.test_case "conflict across connections" `Quick
            test_server_conflict_and_quit;
          Alcotest.test_case "shutdown request" `Quick
            test_server_shutdown_request;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "readers race the writer" `Quick
            test_concurrent_readers;
          QCheck_alcotest.to_alcotest qcheck_concurrent;
        ] );
      ( "crash sweep",
        [ Alcotest.test_case "group commit across sessions" `Quick test_serve_sweep ] );
    ]
