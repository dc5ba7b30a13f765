(* Bounded slice of the differential oracle + fault-injection harness
   (the open-ended version lives behind the @fuzz alias and the
   `xvi fuzz` subcommand). Everything here must stay well under ten
   seconds so `dune runtest` keeps its edit-compile-test rhythm. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Lexical_types = Xvi_core.Lexical_types
module Oracle = Xvi_check.Oracle
module Runner = Xvi_check.Runner
module Fault = Xvi_check.Fault

let nodes = Alcotest.(list int)

(* --- differential slice -------------------------------------------- *)

let test_differential_slice () =
  match Runner.run ~seed:11 ~docs:8 ~ops_per_doc:60 () with
  | Ok o ->
      Alcotest.(check int) "documents" 8 o.Runner.docs;
      Alcotest.(check int) "operations" 480 o.Runner.ops;
      if o.Runner.checks < 1000 then
        Alcotest.failf "suspiciously few checks: %d" o.Runner.checks
  | Error f -> Alcotest.fail (Runner.render_trace f)

(* --- Db.Range edge cases against both index and oracle ------------- *)

let range_doc =
  "<doc><a>1</a><b>-0</b><c>0</c><d>42</d><e>nan-ish</e><f>  2.5 \
   </f><g>1e2</g><h/></doc>"

let with_range_db f =
  let db = Db.of_xml_exn range_doc in
  f db (Db.store db)

let double_spec = Lexical_types.double ()

let check_range db store msg range =
  let got = Db.lookup_double db range in
  let want = Oracle.lookup_typed store double_spec range in
  Alcotest.(check nodes) msg want got

let test_range_inverted () =
  with_range_db (fun db store ->
      check_range db store "lo > hi matches nothing" (Db.Range.between 43. 42.);
      Alcotest.(check nodes)
        "inverted range is empty" []
        (Db.lookup_double db (Db.Range.between 1. 0.)))

let test_range_nan_bounds () =
  with_range_db (fun db store ->
      List.iter
        (fun (msg, range) ->
          Alcotest.(check nodes) (msg ^ " is empty") [] (Db.lookup_double db range);
          check_range db store (msg ^ " agrees with oracle") range)
        [
          ("nan lower bound", Db.Range.at_least Float.nan);
          ("nan upper bound", Db.Range.at_most Float.nan);
          ("nan both bounds", Db.Range.between Float.nan Float.nan);
          ("nan lower, real upper", Db.Range.between Float.nan 100.);
        ])

let test_range_signed_zero () =
  with_range_db (fun db store ->
      (* -0. and 0. are the same key and the same bound (IEEE equality),
         so "-0" and "0" land in every zero-shaped range together — each
         as a text node and as its enclosing element's string value *)
      let zeros = Db.lookup_double db (Db.Range.between (-0.) 0.) in
      Alcotest.(check int) "four zero-valued nodes" 4 (List.length zeros);
      List.iter
        (fun (msg, range) -> check_range db store msg range)
        [
          ("between -0. 0.", Db.Range.between (-0.) 0.);
          ("between 0. -0.", Db.Range.between 0. (-0.));
          ("at_most -0.", Db.Range.at_most (-0.));
          ("at_least -0.", Db.Range.at_least (-0.));
        ];
      Alcotest.(check nodes)
        "at_most -0. = at_most 0."
        (Db.lookup_double db (Db.Range.at_most 0.))
        (Db.lookup_double db (Db.Range.at_most (-0.))))

let test_range_inclusive_bounds () =
  with_range_db (fun db store ->
      (* <d>42</d>: the text node and the element both value 42 *)
      let hits = Db.lookup_double db (Db.Range.between 42. 42.) in
      Alcotest.(check int) "closed singleton range hits 42" 2 (List.length hits);
      List.iter
        (fun (msg, range) -> check_range db store msg range)
        [
          ("both endpoints included", Db.Range.between 1. 42.);
          ("at_least includes endpoint", Db.Range.at_least 42.);
          ("at_most includes endpoint", Db.Range.at_most 1.);
          ("any", Db.Range.any);
          ("infinite bounds", Db.Range.between Float.neg_infinity Float.infinity);
        ];
      (* 1, -0, 0, 42, 2.5, 1e2 parse; "nan-ish", "", and the elements'
         concatenated values do not all — count what the oracle counts *)
      Alcotest.(check nodes) "any agrees with oracle"
        (Oracle.lookup_typed store double_spec Db.Range.any)
        (Db.lookup_double db Db.Range.any))

(* --- the paper's mixed-content example ----------------------------- *)

let find_text store value =
  let found = ref None in
  Store.iter_pre store (fun n ->
      if
        !found = None
        && Store.kind store n = Store.Text
        && String.equal (Store.text store n) value
      then found := Some n);
  match !found with
  | Some n -> n
  | None -> Alcotest.failf "no text node %S" value

let test_mixed_content_regression () =
  (* Figure 1 of the paper: the string value of <age> interleaves child
     element text and bare text — "4" ^ "2" with an empty <years/> *)
  let db = Db.of_xml_exn "<doc><age><decades>4</decades>2<years/></age></doc>" in
  let store = Db.store db in
  let age = match Oracle.elements_named store "age" with
    | [ n ] -> n
    | l -> Alcotest.failf "expected one <age>, got %d" (List.length l)
  in
  let hits = Db.lookup_string db "42" in
  if not (List.mem age hits) then
    Alcotest.fail "lookup_string \"42\" misses the mixed-content element";
  Alcotest.(check nodes) "string lookup agrees with oracle"
    (Oracle.lookup_string store "42") hits;
  let dhits = Db.lookup_double db (Db.Range.between 42. 42.) in
  if not (List.mem age dhits) then
    Alcotest.fail "lookup_double misses the mixed-content element";
  (* updating the bare text run re-derives the element value: 4^7 = 47 *)
  Db.update_text db (find_text store "2") "7";
  Alcotest.(check nodes) "after update, 47 via index"
    (Oracle.lookup_string store "47") (Db.lookup_string db "47");
  if not (List.mem age (Db.lookup_double db (Db.Range.between 47. 47.))) then
    Alcotest.fail "lookup_double misses the updated mixed-content element";
  Alcotest.(check nodes) "stale 42 gone" [] (Db.lookup_string db "42");
  Alcotest.(check (result unit string)) "indices validate" (Ok ())
    (Db.validate db)

(* --- fault injection ----------------------------------------------- *)

let small_config = { Db.Config.default with Db.Config.types = []; substring = false }

let test_fault_sweep_exhaustive () =
  (* with no SCT tables the snapshot is a few KiB: every truncation
     length and every byte flip fits in the tier-1 budget *)
  let db =
    Db.of_xml_exn ~config:small_config
      "<doc><a k=\"v\">alpha</a><b>42</b><c><d>nested</d> tail</c></doc>"
  in
  match Fault.sweep ~all_offsets:true db with
  | Error m -> Alcotest.fail m
  | Ok r ->
      if r.Fault.truncations < 100 then
        Alcotest.failf "only %d truncation lengths" r.Fault.truncations;
      if r.Fault.flips < 100 then
        Alcotest.failf "only %d byte flips" r.Fault.flips

let test_fault_sweep_default_config () =
  (* the realistic snapshot (double + datetime indices) with the
     truncation sweep sampled down to tier-1 size: the document is large
     enough that its snapshot exceeds the 512 sampled lengths *)
  let db =
    Db.of_xml_exn
      ("<doc>"
      ^ String.concat ""
          (List.init 8 (fun i ->
               Printf.sprintf
                 "<a ts=\"2009-03-%02dT12:00:00Z\">1.%d</a><b>two %d</b>"
                 (i + 10) i i))
      ^ "</doc>")
  in
  match Fault.sweep ~truncations:512 ~flips:256 db with
  | Error m -> Alcotest.fail m
  | Ok r ->
      if r.Fault.truncations < 500 then
        Alcotest.failf "only %d truncation lengths" r.Fault.truncations;
      if r.Fault.flips < 256 then Alcotest.failf "only %d byte flips" r.Fault.flips

let () =
  Alcotest.run "differential"
    [
      ( "differential",
        [
          Alcotest.test_case "random traces vs oracle" `Quick
            test_differential_slice;
        ] );
      ( "range-edge-cases",
        [
          Alcotest.test_case "inverted bounds" `Quick test_range_inverted;
          Alcotest.test_case "NaN bounds" `Quick test_range_nan_bounds;
          Alcotest.test_case "signed zero" `Quick test_range_signed_zero;
          Alcotest.test_case "inclusive bounds" `Quick
            test_range_inclusive_bounds;
        ] );
      ( "mixed-content",
        [
          Alcotest.test_case "age/decades/years" `Quick
            test_mixed_content_regression;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "exhaustive on small snapshot" `Quick
            test_fault_sweep_exhaustive;
          Alcotest.test_case "sampled on default config" `Quick
            test_fault_sweep_default_config;
        ] );
    ]
