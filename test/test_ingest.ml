(* Streaming ingest tests: SAX event stream vs. the whole-document
   parser (chunk invariance, exact error positions, serializer
   round-trips), the bounded-memory builder's bit-identity with
   [Db.of_store], the B+tree bulk-load streaming entry points, and a
   quick crash-point sweep over the durable ingest path. *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Sax = Xvi_xml.Sax
module Serializer = Xvi_xml.Serializer
module Db = Xvi_core.Db
module Ingest = Xvi_ingest.Ingest
module BT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_key)

(* a source that yields the document in fixed-size chunks *)
let chunked n doc =
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length doc then None
    else begin
      let len = min n (String.length doc - !pos) in
      let b = Bytes.of_string (String.sub doc !pos len) in
      pos := !pos + len;
      Some b
    end

let events_of ?strip_ws source =
  let t = Sax.make ?strip_ws source in
  let rec go acc =
    match Sax.next t with
    | Ok (Some ep) -> go (ep :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let events_exn ?strip_ws source =
  match events_of ?strip_ws source with
  | Ok evs -> evs
  | Error e -> Alcotest.failf "sax error: %s" (Parser.error_to_string e)

let show_event : Sax.event -> string = function
  | Sax.Start_element { name; attrs } ->
      Printf.sprintf "<%s %s>" name
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
  | Sax.End_element n -> Printf.sprintf "</%s>" n
  | Sax.Text s -> Printf.sprintf "text(%S)" s
  | Sax.Cdata s -> Printf.sprintf "cdata(%S)" s
  | Sax.Comment s -> Printf.sprintf "comment(%S)" s
  | Sax.Pi { target; body } -> Printf.sprintf "pi(%s,%S)" target body

let show_ev_pos (e, (p : Sax.position)) =
  Printf.sprintf "%s@%d:%d+%d" (show_event e) p.Sax.line p.Sax.col p.Sax.offset

let tricky_doc =
  "<?xml version=\"1.0\"?>\n\
   <!-- prolog -->\n\
   <?marker here?>\n\
   <root a=\"1\" b='two &amp; three'>\n\
  \  <item>plain &lt;text&gt;</item>\n\
   mixed &#65;&#x42;\n\
  \  <empty/>\n\
  \  <![CDATA[raw <stuff> &amp; unparsed]]>\n\
  \  <deep><deeper>x</deeper></deep>\n\
   </root>\n\
   <!-- trailing -->"

(* The same bytes through any chunking must produce the same events at
   the same positions — chunk boundaries are invisible. *)
let test_chunk_invariance () =
  let whole = events_exn (Sax.of_string tricky_doc) in
  List.iter
    (fun n ->
      let evs = events_exn (chunked n tricky_doc) in
      Alcotest.(check (list string))
        (Printf.sprintf "chunk size %d" n)
        (List.map show_ev_pos whole) (List.map show_ev_pos evs))
    [ 1; 2; 3; 7; 64; 100000 ]

(* Every event's reported offset must point at the byte its token
   starts on, and line/col must agree with a naive scan to that
   offset. *)
let test_positions_consistent () =
  List.iter
    (fun (e, (p : Sax.position)) ->
      let line = ref 1 and col = ref 1 in
      String.iteri
        (fun i c ->
          if i < p.Sax.offset then
            if c = '\n' then begin
              incr line;
              col := 1
            end
            else incr col)
        tricky_doc;
      let what = show_event e in
      Alcotest.(check int) (what ^ " line") !line p.Sax.line;
      Alcotest.(check int) (what ^ " col") !col p.Sax.col;
      (match e with
      | Sax.Start_element _ | Sax.End_element _ | Sax.Comment _ | Sax.Pi _
      | Sax.Cdata _ ->
          Alcotest.(check char) (what ^ " starts on '<'") '<'
            tricky_doc.[p.Sax.offset]
      | Sax.Text _ -> ()))
    (events_exn (Sax.of_string tricky_doc))

(* Exact failure positions, and [Parser]/[Sax] must agree bit for bit
   on them — same line, same column, same absolute byte offset, same
   message — regardless of how the bytes were chunked. *)
let test_error_positions () =
  let sax_error n doc =
    match events_of (chunked n doc) with
    | Ok _ -> Alcotest.failf "sax accepted %S" doc
    | Error e -> e
  in
  let cases =
    [
      ("<a>\n  <b>x</c>\n</a>", 2, 10, 13, "mismatched end tag </c> for <b>");
      ("<a><b>hi</b>", 1, 13, 12, "unexpected end of input");
      ("<a>&unknown;</a>", 1, 13, 12, "unknown entity &unknown;");
      ("<a x=1></a>", 1, 7, 6, "expected quoted attribute value");
      ("no markup", 1, 1, 0, "expected root element");
      ("<a>ok</a>trailing<b/>", 1, 10, 9, "content after the root element");
    ]
  in
  List.iter
    (fun (doc, line, col, offset, message) ->
      let pe =
        match Parser.parse doc with
        | Ok _ -> Alcotest.failf "parser accepted %S" doc
        | Error e -> e
      in
      Alcotest.(check int) (doc ^ " parser line") line pe.Parser.line;
      Alcotest.(check int) (doc ^ " parser col") col pe.Parser.col;
      Alcotest.(check int) (doc ^ " parser offset") offset pe.Parser.offset;
      Alcotest.(check string) (doc ^ " parser message") message pe.Parser.message;
      List.iter
        (fun n ->
          let se = sax_error n doc in
          Alcotest.(check int) (doc ^ " sax line") pe.Parser.line se.Parser.line;
          Alcotest.(check int) (doc ^ " sax col") pe.Parser.col se.Parser.col;
          Alcotest.(check int)
            (doc ^ " sax offset")
            pe.Parser.offset se.Parser.offset;
          Alcotest.(check string)
            (doc ^ " sax message")
            pe.Parser.message se.Parser.message)
        [ 1; 5; 100000 ])
    cases;
  (* fragments: [Parser.parse_fragment] and the [Sax.fragment] lexer *)
  let fragment_cases =
    [
      ("<a/>\n</x>", 2, 1, 5, "unexpected end-tag in fragment");
      ("text\n<a><b>x</b>", 2, 12, 16, "unexpected end of input");
      ("<a>\n  x &bogus; y</a>", 2, 12, 15, "unknown entity &bogus;");
      ("<a><!DOCTYPE a></a>", 1, 5, 4, "expected a name");
    ]
  in
  List.iter
    (fun (frag, line, col, offset, message) ->
      let store = Store.create () in
      let check who (e : Parser.error) =
        Alcotest.(check int) (frag ^ who ^ " line") line e.Parser.line;
        Alcotest.(check int) (frag ^ who ^ " col") col e.Parser.col;
        Alcotest.(check int) (frag ^ who ^ " offset") offset e.Parser.offset;
        Alcotest.(check string) (frag ^ who ^ " message") message
          e.Parser.message
      in
      (match Parser.parse_fragment store ~parent:Store.document frag with
      | Ok _ -> Alcotest.failf "parser accepted fragment %S" frag
      | Error e -> check " parser" e);
      Alcotest.(check int) (frag ^ " store untouched") 1
        (Store.node_range store);
      List.iter
        (fun n ->
          let t = Sax.fragment (chunked n frag) in
          let rec drain () =
            match Sax.next t with
            | Ok (Some _) -> drain ()
            | Ok None -> Alcotest.failf "sax accepted fragment %S" frag
            | Error e -> check (Printf.sprintf " sax/%d" n) e
          in
          drain ())
        [ 1; 5; 100000 ])
    fragment_cases

let whole_db ?(config = Db.Config.default) doc =
  match Parser.parse doc with
  | Error e -> Alcotest.failf "parse: %s" (Parser.error_to_string e)
  | Ok store -> Db.of_store ~config:{ config with Db.Config.jobs = 1 } store

let streamed_db ?config ?batch_rows source =
  match Ingest.load ?config ?batch_rows source with
  | Ok db -> db
  | Error e -> Alcotest.failf "ingest: %s" (Parser.error_to_string e)

let test_streamed_identity_fixed () =
  let oracle = Db.digest (whole_db tricky_doc) in
  List.iter
    (fun (chunk, batch_rows) ->
      let db = streamed_db ~batch_rows (chunked chunk tricky_doc) in
      Alcotest.(check string)
        (Printf.sprintf "chunk=%d batch_rows=%d" chunk batch_rows)
        oracle (Db.digest db))
    [ (1, 1); (1, 100000); (7, 3); (4096, 8); (100000, 100000) ]

(* the qcheck property: any generated document, any chunking, any batch
   budget — the streamed build is digest-identical to the serial
   whole-document build *)
let streamed_identity_prop =
  QCheck.Test.make ~count:25 ~name:"streamed ingest = whole-document build"
    QCheck.(triple small_int (int_range 1 64) (int_range 1 2000))
    (fun (seed, chunk, batch_rows) ->
      let doc = Xvi_check.Gen.document (Xvi_util.Prng.create seed) in
      let oracle = Db.digest (whole_db doc) in
      let db = streamed_db ~batch_rows (chunked chunk doc) in
      String.equal oracle (Db.digest db))

(* serializer round-trip: canonical bytes -> 1-byte-chunked SAX ingest
   -> serializer must reproduce the canonical bytes exactly *)
let serializer_roundtrip_prop =
  QCheck.Test.make ~count:25 ~name:"sax ingest round-trips through serializer"
    QCheck.small_int
    (fun seed ->
      let doc = Xvi_check.Gen.document (Xvi_util.Prng.create seed) in
      let canonical =
        Serializer.document_to_string (Parser.parse_exn doc)
      in
      let db = streamed_db (chunked 1 canonical) in
      String.equal canonical
        (Serializer.document_to_string (Db.store db)))

let test_builder_manual_batches () =
  let t = Sax.make (Sax.of_string tricky_doc) in
  let b = Ingest.Builder.create Db.Config.default in
  let rec drive () =
    match Sax.next t with
    | Error e -> Alcotest.failf "sax: %s" (Parser.error_to_string e)
    | Ok None -> ()
    | Ok (Some (ev, _)) ->
        Ingest.Builder.feed b ev;
        (* cut a batch after every single event — the most hostile
           batching possible *)
        Ingest.Builder.flush_batch b;
        drive ()
  in
  drive ();
  Alcotest.(check bool) "batches counted" true (Ingest.Builder.batches b > 0);
  Alcotest.(check int) "nothing pending" 0 (Ingest.Builder.pending_rows b);
  let db = Ingest.Builder.finish b in
  Alcotest.(check string) "bit-identical"
    (Db.digest (whole_db tricky_doc))
    (Db.digest db)

(* --- B+tree streaming bulk load --- *)

let test_btree_of_sorted_seq () =
  let n = 1000 in
  let arr = Array.init n (fun i -> ((i * 3) + 1, i * i)) in
  let reference = BT.of_sorted_array ~order:8 arr in
  let pos = ref 0 in
  let gen () =
    let p = arr.(!pos) in
    incr pos;
    p
  in
  let t = BT.of_sorted_seq ~order:8 ~len:n gen in
  (match BT.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e);
  Alcotest.(check int) "length" n (BT.length t);
  Alcotest.(check (list (pair int int)))
    "same bindings" (BT.range reference) (BT.range t);
  (* digest-level identity with the array loader *)
  Alcotest.(check string) "identical tree"
    (Digest.string (Marshal.to_string reference []))
    (Digest.string (Marshal.to_string t []));
  (* ascent violations must be caught *)
  let bad = [| (5, 0); (5, 1) |] in
  let pos = ref 0 in
  let gen () =
    let p = bad.(!pos) in
    incr pos;
    p
  in
  Alcotest.check_raises "duplicate key rejected"
    (Invalid_argument "Btree.of_sorted_seq: keys not strictly ascending")
    (fun () -> ignore (BT.of_sorted_seq ~len:2 gen))

let test_btree_iter_raw () =
  let t = BT.create ~order:4 () in
  for i = 0 to 99 do
    BT.insert t (i * 2) i
  done;
  let collect ?lo ?hi () =
    let out = ref [] in
    BT.iter_raw ?lo ?hi
      (fun keys off len ->
        for i = off to off + len - 1 do
          out := keys.(i) :: !out
        done)
      t;
    List.rev !out
  in
  let expect ?lo ?hi () = List.map fst (BT.range ?lo ?hi t) in
  Alcotest.(check (list int)) "full" (expect ()) (collect ());
  Alcotest.(check (list int)) "mid"
    (expect ~lo:10 ~hi:30 ())
    (collect ~lo:10 ~hi:30 ());
  Alcotest.(check (list int)) "between keys"
    (expect ~lo:9 ~hi:31 ())
    (collect ~lo:9 ~hi:31 ());
  Alcotest.(check (list int)) "open lo" (expect ~hi:8 ()) (collect ~hi:8 ());
  Alcotest.(check (list int)) "open hi"
    (expect ~lo:190 ())
    (collect ~lo:190 ())

(* --- durable ingest: quick crash-point sweep --- *)

let test_ingest_sweep_quick () =
  let doc = Xvi_check.Gen.document (Xvi_util.Prng.create 7) in
  match
    Xvi_check.Fault.ingest_sweep ~crash_points:20 ~ingest_flips:8
      ~batch_rows:8 doc
  with
  | Ok r ->
      Alcotest.(check bool) "several batches" true (r.Xvi_check.Fault.ingest_batches >= 2);
      Alcotest.(check bool) "crash points" true
        (r.Xvi_check.Fault.ingest_crash_points > 0)
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "ingest"
    [
      ( "sax",
        [
          Alcotest.test_case "chunk invariance" `Quick test_chunk_invariance;
          Alcotest.test_case "positions consistent" `Quick
            test_positions_consistent;
          Alcotest.test_case "error positions exact" `Quick
            test_error_positions;
        ] );
      ( "builder",
        [
          Alcotest.test_case "fixed-doc identity" `Quick
            test_streamed_identity_fixed;
          Alcotest.test_case "hostile manual batches" `Quick
            test_builder_manual_batches;
          QCheck_alcotest.to_alcotest streamed_identity_prop;
          QCheck_alcotest.to_alcotest serializer_roundtrip_prop;
        ] );
      ( "btree",
        [
          Alcotest.test_case "of_sorted_seq" `Quick test_btree_of_sorted_seq;
          Alcotest.test_case "iter_raw" `Quick test_btree_iter_raw;
        ] );
      ( "durable",
        [
          Alcotest.test_case "crash sweep (quick)" `Quick
            test_ingest_sweep_quick;
        ] );
    ]
