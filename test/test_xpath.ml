(* XPath subset tests: parser unit cases, print round-trips, evaluation
   against hand-checked documents, and the naive = indexed equivalence
   property over generated data sets. *)

module Xpath = Xvi_xpath.Xpath
module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Db = Xvi_core.Db

let site_doc =
  "<site><people>\
   <person id=\"p1\"><name><first>Arthur</first><family>Dent</family></name>\
   <age><decades>4</decades>2<years/></age><income>1000.50</income></person>\
   <person id=\"p2\"><name><first>Ford</first></name><age>41</age>\
   <income>2000</income></person>\
   <person id=\"p3\"><name><first>Zaphod</first></name><age>200</age></person>\
   </people>\
   <items><item code=\"a\"><price>49.99</price></item>\
   <item code=\"b\"><price>15</price></item>\
   <item code=\"c\"><price>60</price></item></items></site>"

let db = lazy (Db.of_xml_exn site_doc)

let eval_names expr =
  let d = Lazy.force db in
  let store = Db.store d in
  let t = Xpath.parse_exn expr in
  let naive = Xpath.eval store t in
  let indexed = Xpath.eval_indexed d t in
  Alcotest.(check bool)
    (Printf.sprintf "naive = indexed for %s" expr)
    true (naive = indexed);
  List.map
    (fun n ->
      match Store.kind store n with
      | Store.Element -> Store.name store n
      | Store.Attribute -> "@" ^ Store.name store n
      | Store.Text -> "#text:" ^ Store.text store n
      | _ -> "?")
    naive

let check expr expected () =
  Alcotest.(check (list string)) expr expected (eval_names expr)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Xpath.parse src with
      | Ok _ -> Alcotest.failf "expected parse error for %S" src
      | Error _ -> ())
    [ ""; "//"; "//person["; "//person[age = ]"; "//person]"; "//person[@]";
      "//item[price >< 3]" ]

let test_print_roundtrip () =
  List.iter
    (fun src ->
      let t = Xpath.parse_exn src in
      let printed = Xpath.to_string t in
      let t2 = Xpath.parse_exn printed in
      Alcotest.(check string)
        (Printf.sprintf "stable print of %s" src)
        printed (Xpath.to_string t2))
    [
      "//person[.//age = 42]";
      "/site/people/person/@id";
      "//*[fn:data(name) = \"ArthurDent\"]";
      "//item[price >= 40 and price < 60]";
      "//a/b//c[text() = 'x'][d]";
    ]

let test_eval_indexed_uses_indices () =
  let d = Lazy.force db in
  let t = Xpath.parse_exn "//person[.//age = 42]" in
  let _, plan = Xpath.eval_with_plan d t in
  Alcotest.(check int) "double index probed" 1 plan.Xpath.used_double_index;
  let t = Xpath.parse_exn "//person[name/first = \"Ford\"]" in
  let _, plan = Xpath.eval_with_plan d t in
  Alcotest.(check int) "string index probed" 1 plan.Xpath.used_string_index

(* the paper's motivating queries *)
let test_age_42 = check "//person[.//age = 42]" [ "person" ]
let test_first_arthur = check "//person[name/first/text() = \"Arthur\"]" [ "person" ]
let test_fn_data = check "//*[fn:data(name) = \"ArthurDent\"]" [ "person" ]

let test_ranges =
  check "//item[price >= 40 and price < 60]" [ "item" ] (* only 49.99 *)

let test_attr_axis = check "/site/people/person/@id" [ "@id"; "@id"; "@id" ]
let test_attr_pred = check "//item[@code = \"b\"]/price" [ "price" ]
let test_text_step = check "//person/name/first/text()" [ "#text:Arthur"; "#text:Ford"; "#text:Zaphod" ]
let test_wildcard = check "//person[age > 100]/name/*" [ "first" ]
let test_or = check "//person[age = 41 or age = 200]" [ "person"; "person" ]
let test_neq = check "//item[price != 15]" [ "item"; "item" ]
let test_exists = check "//person[income]" [ "person"; "person" ]
let test_self_cmp = check "//age[. = 41]" [ "age" ]
let test_descendant_middle = check "/site//first" [ "first"; "first"; "first" ]
let test_string_lt = check "//person[name/first < \"Bzz\"]" [ "person" ]

(* fast-path coverage: eligible chains, merged range bounds, and shapes
   that must fall back (predicate on a middle step, top-level or) *)
let test_fastpath_child_chain =
  check "/site/people/person[name/first = \"Zaphod\"]" [ "person" ]

let test_fastpath_two_pred_lists = check "//item[price >= 40][price < 60]" [ "item" ]
let test_fallback_middle_pred = check "//person[age = 200]/name" [ "name" ]

let test_fallback_or =
  check "//person[age > 100 or income = 2000]" [ "person"; "person" ]

let test_fastpath_deep_operand =
  check "//person[.//first = \"Arthur\"]" [ "person" ]

(* no indexable value predicate: the element-name index seeds the
   candidates *)
let test_name_driven_no_pred = check "//price" [ "price"; "price"; "price" ]
let test_name_driven_exists = check "//person[income]" [ "person"; "person" ]
let test_name_driven_chain = check "/site/items/item" [ "item"; "item"; "item" ]

let test_name_index_counter () =
  let d = Lazy.force db in
  let t = Xpath.parse_exn "//person[income]" in
  let _, plan = Xpath.eval_with_plan d t in
  Alcotest.(check int) "name index used" 1 plan.Xpath.used_name_index

let test_doc_order () =
  let d = Lazy.force db in
  let store = Db.store d in
  let t = Xpath.parse_exn "//price" in
  let result = Xpath.eval store t in
  let values = List.map (fun n -> Store.string_value store n) result in
  Alcotest.(check (list string)) "document order" [ "49.99"; "15"; "60" ] values

(* equivalence property over generated documents *)
let test_equivalence_on_datasets () =
  let queries =
    [
      "//person[profile/age = 42]";
      "//item[quantity = 2]";
      "//open_auction[initial >= 100 and initial < 150]";
      "//person[name = \"Arthur Dent\"]";
      "//closed_auction[price < 10]";
      "//mail[from = to]"; (* Exists-style comparisons don't parse; skip *)
    ]
  in
  let xml = Xvi_workload.Xmark.generate ~seed:5 ~factor:0.03 () in
  let d = Db.of_xml_exn xml in
  let store = Db.store d in
  List.iter
    (fun q ->
      match Xpath.parse q with
      | Error _ -> () (* some probes intentionally unsupported *)
      | Ok t ->
          let naive = Xpath.eval store t in
          let indexed = Xpath.eval_indexed d t in
          Alcotest.(check bool)
            (Printf.sprintf "equiv %s (%d hits)" q (List.length naive))
            true (naive = indexed))
    queries

let () =
  Alcotest.run "xpath"
    [
      ( "parser",
        [
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "print roundtrip" `Quick test_print_roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "age 42 (paper)" `Quick test_age_42;
          Alcotest.test_case "first Arthur (paper)" `Quick test_first_arthur;
          Alcotest.test_case "fn:data (paper)" `Quick test_fn_data;
          Alcotest.test_case "numeric ranges" `Quick test_ranges;
          Alcotest.test_case "attribute axis" `Quick test_attr_axis;
          Alcotest.test_case "attribute predicate" `Quick test_attr_pred;
          Alcotest.test_case "text() step" `Quick test_text_step;
          Alcotest.test_case "wildcard" `Quick test_wildcard;
          Alcotest.test_case "or" `Quick test_or;
          Alcotest.test_case "neq" `Quick test_neq;
          Alcotest.test_case "existence" `Quick test_exists;
          Alcotest.test_case "self comparison" `Quick test_self_cmp;
          Alcotest.test_case "descendant step" `Quick test_descendant_middle;
          Alcotest.test_case "string less-than" `Quick test_string_lt;
          Alcotest.test_case "document order" `Quick test_doc_order;
          Alcotest.test_case "plan counters" `Quick test_eval_indexed_uses_indices;
          Alcotest.test_case "fast path: child chain" `Quick test_fastpath_child_chain;
          Alcotest.test_case "fast path: merged bounds" `Quick test_fastpath_two_pred_lists;
          Alcotest.test_case "fallback: middle predicate" `Quick test_fallback_middle_pred;
          Alcotest.test_case "fallback: or" `Quick test_fallback_or;
          Alcotest.test_case "fast path: deep operand" `Quick test_fastpath_deep_operand;
          Alcotest.test_case "name-driven: no predicate" `Quick test_name_driven_no_pred;
          Alcotest.test_case "name-driven: exists" `Quick test_name_driven_exists;
          Alcotest.test_case "name-driven: child chain" `Quick test_name_driven_chain;
          Alcotest.test_case "name index counter" `Quick test_name_index_counter;
        ] );
      ( "equivalence",
        [ Alcotest.test_case "on XMark data" `Quick test_equivalence_on_datasets ] );
    ]
