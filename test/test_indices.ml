(* End-to-end tests for the string equality index, the typed range
   indices (both reconstruction modes), and the Db bundle — including
   the paper's own example queries and randomised update/delete/insert
   maintenance checked against from-scratch rebuilds. *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module SI = Xvi_core.String_index
module TI = Xvi_core.Typed_index
module Db = Xvi_core.Db
module LT = Xvi_core.Lexical_types
module Prng = Xvi_util.Prng

let person_doc =
  "<person><name><first>Arthur</first><family>Dent</family></name>\
   <birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age>\
   <weight><kilos>78</kilos>.<grams>230</grams></weight></person>"

let ok_or_fail what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let names store nodes =
  List.filter_map
    (fun n ->
      match Store.kind store n with
      | Store.Element -> Some (Store.name store n)
      | _ -> None)
    nodes

(* --- string index --- *)

let test_string_lookup_basics () =
  let store = Parser.parse_exn person_doc in
  let idx = SI.create store in
  ok_or_fail "validate" (SI.validate idx store);
  (* text node lookup *)
  let hits = SI.lookup idx store "Arthur" in
  Alcotest.(check int) "Arthur hits" 2 (List.length hits) (* text + <first> *);
  Alcotest.(check (list string)) "element hit" [ "first" ] (names store hits);
  (* element string value, the paper's fn:data example *)
  Alcotest.(check (list string)) "ArthurDent" [ "name" ]
    (names store (SI.lookup idx store "ArthurDent"));
  (* whole-person value *)
  Alcotest.(check (list string)) "person" [ "person" ]
    (names store (SI.lookup idx store "ArthurDent1966-09-264278.230"));
  (* mixed content *)
  Alcotest.(check (list string)) "42 is the age element" [ "age" ]
    (names store (SI.lookup idx store "42"));
  (* empty element: its string value is "" *)
  let empties = SI.lookup idx store "" in
  Alcotest.(check bool) "years found among empties" true
    (List.mem "years" (names store empties));
  (* miss *)
  Alcotest.(check (list int)) "miss" [] (SI.lookup idx store "Zaphod")

let test_string_attribute_lookup () =
  let store = Parser.parse_exn "<a><b id=\"x1\">x1</b><c id=\"x2\"/></a>" in
  let idx = SI.create store in
  let hits = SI.lookup idx store "x1" in
  (* the attribute, the text node, <b> — and <a> and the document node,
     whose concatenated string values are also "x1" since <c> is empty *)
  Alcotest.(check int) "five hits" 5 (List.length hits);
  let kinds = List.map (Store.kind store) hits in
  Alcotest.(check bool) "attr among hits" true (List.mem Store.Attribute kinds)

let test_string_collision_filtering () =
  (* engineered colliding strings must not cross-contaminate lookups *)
  let rng = Prng.create 5 in
  let tg = Xvi_workload.Text_gen.create rng in
  let urls = Xvi_workload.Text_gen.colliding_urls tg 4 in
  let doc =
    "<d>" ^ String.concat "" (List.map (fun u -> "<u>" ^ u ^ "</u>") urls) ^ "</d>"
  in
  let store = Parser.parse_exn doc in
  let idx = SI.create store in
  (* all four hash equal *)
  let h = Xvi_core.Hash.hash (List.hd urls) in
  List.iter
    (fun u ->
      Alcotest.(check bool) "same hash" true
        (Xvi_core.Hash.equal h (Xvi_core.Hash.hash u)))
    urls;
  (* candidates see all, verified lookup sees exactly one text + one <u> *)
  let u0 = List.hd urls in
  Alcotest.(check bool) "candidates >= 8" true
    (List.length (SI.lookup_candidates idx store u0) >= 8);
  Alcotest.(check int) "verified = 2" 2 (List.length (SI.lookup idx store u0))

let test_string_update_maintenance () =
  let store = Parser.parse_exn person_doc in
  let idx = SI.create store in
  let texts = Store.text_nodes store in
  Store.set_text store texts.(1) "Prefect";
  SI.update_texts idx store [ texts.(1) ];
  ok_or_fail "validate after update" (SI.validate idx store);
  Alcotest.(check (list string)) "new name" [ "name" ]
    (names store (SI.lookup idx store "ArthurPrefect"));
  Alcotest.(check (list int)) "old gone" []
    (SI.lookup idx store "ArthurDent")

let test_string_entry_count_and_storage () =
  let store = Parser.parse_exn person_doc in
  let idx = SI.create store in
  (* document + 10 elements + 8 texts = 19 indexable nodes *)
  Alcotest.(check int) "entries" 20 (SI.entry_count idx);
  Alcotest.(check bool) "storage positive" true (SI.storage_bytes idx > 0)

(* --- typed index --- *)

let test_typed_basics () =
  let store = Parser.parse_exn person_doc in
  let ti = TI.create (LT.double ()) store in
  ok_or_fail "validate" (TI.validate ti store);
  (* 42 matches only the <age> element (the texts are "4" and "2") *)
  let hits = TI.equals ti 42.0 in
  Alcotest.(check (list string)) "age" [ "age" ] (names store hits);
  (* weight assembles to 78.230 *)
  let w = TI.range ~lo:78.0 ~hi:79.0 ti in
  Alcotest.(check int) "78-79 hits" 3 (List.length w)
  (* kilos text "78", <kilos>, and <weight> 78.230 *);
  (* open-ended ranges *)
  Alcotest.(check bool) "lo only" true (List.length (TI.range ~lo:100.0 ti) >= 2)
  (* birthday? no — 1966-09-26 is not a double; 230 and grams *);
  Alcotest.(check int) "everything"
    (TI.entry_count ti)
    (List.length (TI.range ti))

let test_typed_states () =
  let store = Parser.parse_exn person_doc in
  let ti = TI.create (LT.double ()) store in
  let texts = Store.text_nodes store in
  (* "." (weight's middle text) is viable but not complete *)
  let dot = texts.(6) in
  Alcotest.(check string) "dot text" "." (Store.text store dot);
  Alcotest.(check bool) "viable" true (TI.is_viable ti dot);
  Alcotest.(check bool) "not complete" false (TI.is_complete ti dot);
  (* "Arthur" is rejected *)
  Alcotest.(check bool) "Arthur rejected" false (TI.is_viable ti texts.(0));
  (* values *)
  let weight =
    List.nth (Store.children store (Option.get (Store.first_child store Store.document))) 3
  in
  Alcotest.(check (option (float 1e-9))) "weight value" (Some 78.230)
    (TI.value_of ti weight)

let test_typed_datetime () =
  let store =
    Parser.parse_exn
      "<log><e><t>2004-07-15T08:30:00Z</t></e><e><t>2005-01-01T00:00:00Z</t></e>\
       <e><t>not a date</t></e></log>"
  in
  let ti = TI.create (LT.datetime ()) store in
  ok_or_fail "validate" (TI.validate ti store);
  let spec = LT.datetime () in
  let lo = Option.get (spec.LT.parse "2004-01-01T00:00:00Z") in
  let hi = Option.get (spec.LT.parse "2004-12-31T23:59:59Z") in
  let hits = TI.range ~lo ~hi ti in
  (* the text, its <t> element, and the <e> wrapper whose string value
     is the same timestamp *)
  Alcotest.(check int) "2004 hits" 3 (List.length hits)

let test_typed_semantically_invalid () =
  (* shaped like a dateTime, but not a value of the type: stays viable,
     gets no value entry, and nothing crashes *)
  let store =
    Parser.parse_exn "<log><t>0000-13-99T99:99:99</t><t>2004-07-15T08:30:00Z</t></log>"
  in
  let ti = TI.create (LT.datetime ()) store in
  ok_or_fail "validate" (TI.validate ti store);
  Alcotest.(check int) "only the real timestamp indexed" 2 (TI.entry_count ti);
  let texts = Store.text_nodes store in
  Alcotest.(check bool) "shape-valid node keeps a state" true
    (TI.is_viable ti texts.(0));
  Alcotest.(check bool) "but no value" false (TI.is_complete ti texts.(0));
  (* and updates through it keep working *)
  Store.set_text store texts.(0) "1999-01-01T00:00:00Z";
  TI.update_texts ti store [ texts.(0) ];
  ok_or_fail "validate after repair" (TI.validate ti store);
  Alcotest.(check int) "now indexed" 4 (TI.entry_count ti)

let test_typed_stats () =
  let store = Parser.parse_exn person_doc in
  let ti = TI.create (LT.double ()) store in
  let st = TI.stats ti store in
  (* complete texts: 4, 2, 78, 230 *)
  Alcotest.(check int) "complete texts" 4 st.TI.complete_text_nodes;
  (* non-leaf completes: <age> (42) and <weight> (78.230) *)
  Alcotest.(check int) "complete non-leaves" 2 st.TI.complete_non_leaves;
  Alcotest.(check bool) "viable >= complete" true
    (st.TI.viable_nodes >= st.TI.complete_nodes)

let test_typed_update_moves_value () =
  let store = Parser.parse_exn person_doc in
  let ti = TI.create (LT.double ()) store in
  let texts = Store.text_nodes store in
  (* kilos "78" -> "80": same SCT state, new values everywhere above *)
  Store.set_text store texts.(5) "80";
  TI.update_texts ti store [ texts.(5) ];
  ok_or_fail "validate" (TI.validate ti store);
  Alcotest.(check int) "no hits at 78.230" 0 (List.length (TI.equals ti 78.230));
  Alcotest.(check int) "weight now 80.230" 1 (List.length (TI.equals ti 80.230));
  (* make it non-numeric: states change, entries vanish *)
  Store.set_text store texts.(5) "heavy";
  TI.update_texts ti store [ texts.(5) ];
  ok_or_fail "validate 2" (TI.validate ti store);
  Alcotest.(check int) "no weight value" 0 (List.length (TI.equals ti 80.230));
  (* back to numeric *)
  Store.set_text store texts.(5) "81";
  TI.update_texts ti store [ texts.(5) ];
  ok_or_fail "validate 3" (TI.validate ti store);
  Alcotest.(check int) "weight 81.230" 1 (List.length (TI.equals ti 81.230))

let test_fragment_mode () =
  let store = Parser.parse_exn person_doc in
  let ti = TI.create ~reconstruct:`Fragment (LT.double ()) store in
  ok_or_fail "validate fragment mode" (TI.validate ti store);
  let texts = Store.text_nodes store in
  Store.set_text store texts.(5) "80";
  TI.update_texts ti store [ texts.(5) ];
  ok_or_fail "validate after update" (TI.validate ti store);
  Alcotest.(check int) "weight 80.230" 1 (List.length (TI.equals ti 80.230));
  (* fragment storage costs more than document mode *)
  let doc_mode = TI.create (LT.double ()) store in
  Alcotest.(check bool) "fragment storage >= document storage" true
    (TI.storage_bytes ti >= TI.storage_bytes doc_mode)

(* --- Db bundle with random workloads --- *)

let random_db seed =
  let factor = 0.02 +. (0.01 *. float_of_int (seed mod 3)) in
  let xml = Xvi_workload.Xmark.generate ~seed ~factor () in
  Db.of_xml_exn xml

let test_db_random_update_storm () =
  let db = random_db 11 in
  let store = Db.store db in
  for round = 1 to 5 do
    let updates =
      Xvi_workload.Update_workload.random_text_updates ~seed:(100 + round) store
        ~count:50
    in
    Db.update_texts db updates
  done;
  ok_or_fail "validate after storms" (Db.validate db)

let test_db_delete_insert_cycle () =
  let db = random_db 12 in
  let store = Db.store db in
  let rng = Prng.create 999 in
  (* delete a handful of random elements *)
  for _ = 1 to 8 do
    let candidates = ref [] in
    Store.iter_pre store (fun n ->
        if Store.kind store n = Store.Element && Store.level store n >= 3 then
          candidates := n :: !candidates);
    match !candidates with
    | [] -> ()
    | l -> Db.delete_subtree db (List.nth l (Prng.int rng (List.length l)))
  done;
  ok_or_fail "validate after deletes" (Db.validate db);
  (* insert fragments *)
  let root = Option.get (Store.first_child store Store.document) in
  (match
     Db.insert_xml db ~parent:root
       "<injected><price>123.45</price><note>hello world</note></injected>"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert: %s" (Parser.error_to_string e));
  ok_or_fail "validate after insert" (Db.validate db);
  Alcotest.(check bool) "price findable" true
    (List.length (Db.lookup_double db (Db.Range.between 123.45 123.45)) >= 1);
  Alcotest.(check bool) "note findable" true
    (List.length (Db.lookup_string db "hello world") >= 1)

let test_db_lookup_equals_scan () =
  (* index lookups must equal a naive scan over string values *)
  let db = random_db 13 in
  let store = Db.store db in
  let probe = [ "Creditcard"; "Yes"; "male"; "nonexistent-value-xyz" ] in
  List.iter
    (fun s ->
      let expected = ref [] in
      Store.iter_pre store (fun n ->
          match Store.kind store n with
          | Store.Element | Store.Text | Store.Attribute | Store.Document ->
              if String.equal (Store.string_value store n) s then
                expected := n :: !expected
          | _ -> ());
      let got = Db.lookup_string db s in
      Alcotest.(check (list int))
        (Printf.sprintf "lookup %S = scan" s)
        (List.sort compare !expected) (List.sort compare got))
    probe

let test_db_range_equals_scan () =
  let db = random_db 14 in
  let store = Db.store db in
  let spec = LT.double () in
  let ranges = [ (10.0, 20.0); (0.0, 1.0); (500.0, 10_000.0) ] in
  List.iter
    (fun (lo, hi) ->
      let expected = ref [] in
      Store.iter_pre store (fun n ->
          match Store.kind store n with
          | Store.Element | Store.Text | Store.Attribute | Store.Document -> (
              let sv = Store.string_value store n in
              let sct = spec.LT.sct in
              if Xvi_core.Sct.is_accepting sct (Xvi_core.Sct.of_string sct sv)
              then
                match spec.LT.parse sv with
                | Some v when v >= lo && v <= hi -> expected := n :: !expected
                | _ -> ())
          | _ -> ());
      let got = Db.lookup_double db (Db.Range.between lo hi) in
      Alcotest.(check (list int))
        (Printf.sprintf "range [%g,%g] = scan" lo hi)
        (List.sort compare !expected) (List.sort compare got))
    ranges

(* The logical digest must see a single posting move: rebuilding the
   string index from the same sorted postings reproduces the digest,
   and flipping one hash bit of one posting changes it. *)
let test_db_digest_flipped_posting () =
  let db = Db.of_xml_exn person_doc in
  let store = Db.store db in
  let si = Db.string_index db in
  let keys = ref [] in
  Store.iter_pre store (fun n ->
      match Store.kind store n with
      | Store.Element | Store.Text | Store.Attribute | Store.Document ->
          keys := SI.pack_key (SI.hash_of si n) n :: !keys
      | Store.Comment | Store.Pi | Store.Deleted -> ());
  let keys = Array.of_list !keys in
  Array.sort Int.compare keys;
  let digest_with keys =
    let pos = ref 0 in
    let strings =
      SI.of_key_seq
        (Xvi_core.Indexer.create Xvi_core.Indexer.hash_ops store)
        ~count:(Array.length keys)
        (fun () ->
          let k = keys.(!pos) in
          incr pos;
          k)
    in
    Db.digest
      (Db.assemble ~config:(Db.config db) ~store ~strings
         ~typed:(Db.typed_indices db))
  in
  Alcotest.(check string) "same postings, same digest" (Db.digest db)
    (digest_with keys);
  let flipped = Array.copy keys in
  let i = Array.length keys / 2 in
  flipped.(i) <- flipped.(i) lxor (1 lsl 30);
  Array.sort Int.compare flipped;
  Alcotest.(check bool) "one flipped posting changes the digest" false
    (String.equal (Db.digest db) (digest_with flipped))

(* [Db.copy] shares chunks and tree nodes, yet neither side may see the
   other's writes — value updates, inserts and deletes alike. *)
(* [Db.insert_xml] under a parent that cannot take children is an
   [Error] raised by the parent check itself, before the fragment is
   lexed, and the database is unchanged. *)
let test_db_insert_dead_parent () =
  let db =
    match Db.of_xml "<a><b><c/></b>t</a>" with
    | Ok db -> db
    | Error e -> Alcotest.failf "parse: %s" (Parser.error_to_string e)
  in
  (* ids: 0 document, 1 <a>, 2 <b>, 3 <c>, 4 the text "t" *)
  Db.delete_subtree db 2;
  let before = Db.digest db in
  List.iter
    (fun (what, parent) ->
      (match Db.insert_xml db ~parent "<x>1</x>" with
      | Ok _ -> Alcotest.failf "%s parent %d accepted" what parent
      | Error e ->
          let msg = Printf.sprintf "insert parent %d " parent in
          if
            not
              (String.length e.Parser.message >= String.length msg
              && String.sub e.Parser.message 0 (String.length msg) = msg)
          then
            Alcotest.failf "%s parent %d: not refused at the parent: %s" what
              parent (Parser.error_to_string e));
      Alcotest.(check string) (what ^ ": digest unchanged") before (Db.digest db))
    [
      ("deleted-ancestor", 3);
      ("deleted", 2);
      ("out-of-range", 99);
      ("negative", -1);
      ("text-node", 4);
    ];
  match Db.insert_xml db ~parent:1 "<x>1</x>" with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "a live parent still takes the fragment"

let test_db_copy_independent () =
  let db = Db.of_xml_exn person_doc in
  ignore (Db.plane db : Xvi_xml.Pre_plane.t);
  let before = Db.digest db in
  let c = Db.copy db in
  Alcotest.(check string) "copy digests like the original" before (Db.digest c);
  let texts = Store.text_nodes (Db.store db) in
  Db.update_text db texts.(0) "Ford";
  Db.update_text db texts.(4) "12.5";
  (match Db.insert_xml db ~parent:Store.document "<extra><n>7</n></extra>" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert: %s" (Parser.error_to_string e));
  Db.delete_subtree db texts.(1);
  Alcotest.(check string) "copy unchanged by writes to the original" before
    (Db.digest c);
  ok_or_fail "copy validates" (Db.validate c);
  ok_or_fail "original validates" (Db.validate db);
  Alcotest.(check (list int)) "copy answers as before"
    (List.sort Int.compare [ texts.(0); 3 ])
    (List.sort Int.compare (Db.lookup_string c "Arthur"));
  Alcotest.(check int) "no <extra> in the copy" 0
    (List.length (Db.elements_named c "extra"));
  Alcotest.(check int) "one <extra> in the original" 1
    (List.length (Db.elements_named db "extra"));
  (* and the other way round *)
  let mid = Db.digest db in
  Db.update_text c texts.(2) "x";
  Alcotest.(check string) "original unchanged by writes to the copy" mid
    (Db.digest db)

let test_db_boolean_integer_indices () =
  let xml = "<flags><f>true</f><f>false</f><f>1</f><f>maybe</f><n>42</n><n>1.5</n></flags>" in
  let config =
    { Db.Config.default with Db.Config.types = [ LT.boolean (); LT.integer () ] }
  in
  let db = Db.of_xml_exn ~config xml in
  Alcotest.(check int) "true nodes" 4
    (List.length (Db.lookup_typed db "xs:boolean" (Db.Range.between 1.0 1.0)))
  (* "true" text + element, "1" text + element *);
  Alcotest.(check int) "integers" 2
    (List.length (Db.lookup_typed db "xs:integer" (Db.Range.between 42.0 42.0)));
  Alcotest.(check int) "1.5 not an integer" 0
    (List.length (Db.lookup_typed db "xs:integer" (Db.Range.between 1.5 1.5)));
  Alcotest.(check bool) "no double index" true (Db.typed_index db "xs:double" = None)

let base_suites =
    [
      ( "string",
        [
          Alcotest.test_case "lookup basics" `Quick test_string_lookup_basics;
          Alcotest.test_case "attribute lookup" `Quick test_string_attribute_lookup;
          Alcotest.test_case "collision filtering" `Quick test_string_collision_filtering;
          Alcotest.test_case "update maintenance" `Quick test_string_update_maintenance;
          Alcotest.test_case "entries and storage" `Quick test_string_entry_count_and_storage;
        ] );
      ( "typed",
        [
          Alcotest.test_case "basics" `Quick test_typed_basics;
          Alcotest.test_case "states" `Quick test_typed_states;
          Alcotest.test_case "datetime" `Quick test_typed_datetime;
          Alcotest.test_case "semantically invalid values" `Quick
            test_typed_semantically_invalid;
          Alcotest.test_case "stats" `Quick test_typed_stats;
          Alcotest.test_case "update moves values" `Quick test_typed_update_moves_value;
          Alcotest.test_case "fragment mode" `Quick test_fragment_mode;
        ] );
      ( "db",
        [
          Alcotest.test_case "random update storm" `Quick test_db_random_update_storm;
          Alcotest.test_case "delete/insert cycle" `Quick test_db_delete_insert_cycle;
          Alcotest.test_case "lookup equals scan" `Quick test_db_lookup_equals_scan;
          Alcotest.test_case "range equals scan" `Quick test_db_range_equals_scan;
          Alcotest.test_case "boolean/integer indices" `Quick test_db_boolean_integer_indices;
          Alcotest.test_case "digest sees one flipped posting" `Quick
            test_db_digest_flipped_posting;
          Alcotest.test_case "copy is independent" `Quick test_db_copy_independent;
          Alcotest.test_case "insert under a dead parent" `Quick
            test_db_insert_dead_parent;
        ] );
    ]

(* --- substring index (the paper's future-work extension) --- *)

module SubI = Xvi_core.Substring_index

let naive_contains store pattern =
  let hit s =
    let m = String.length pattern and n = String.length s in
    let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
    let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
    m = 0 || go 0
  in
  let acc = ref [] in
  Store.iter_pre store (fun n ->
      match Store.kind store n with
      | Store.Text | Store.Attribute ->
          if hit (Store.text store n) then acc := n :: !acc
      | _ -> ());
  List.sort compare !acc

let naive_element_contains store pattern =
  let hit s =
    let m = String.length pattern and n = String.length s in
    let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
    let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
    m = 0 || go 0
  in
  let acc = ref [] in
  Store.iter_pre store (fun n ->
      match Store.kind store n with
      | Store.Element | Store.Document ->
          if hit (Store.string_value store n) then acc := n :: !acc
      | _ -> ());
  List.sort compare !acc

let test_substring_basics () =
  let store = Parser.parse_exn person_doc in
  let si = SubI.create store in
  ok_or_fail "validate" (SubI.validate si store);
  List.iter
    (fun pattern ->
      Alcotest.(check (list int))
        (Printf.sprintf "contains %S" pattern)
        (naive_contains store pattern)
        (SubI.contains si store pattern))
    [ "rth"; "Arthur"; "Dent"; "966-09"; "23"; "zz"; "ur"; "." ];
  (* short patterns fall back to a scan, same answers *)
  Alcotest.(check (list int)) "short pattern" (naive_contains store "D")
    (SubI.contains si store "D")

let test_substring_element_contains () =
  let store = Parser.parse_exn person_doc in
  let si = SubI.create store in
  List.iter
    (fun pattern ->
      Alcotest.(check (list int))
        (Printf.sprintf "element_contains %S" pattern)
        (naive_element_contains store pattern)
        (SubI.element_contains si store pattern))
    [
      "Arthur"; "ArthurDent" (* spans first/family *);
      "78.230" (* spans kilos/./grams *); "t1966" (* Dent + birthday *);
      "42" (* decades + "2" *); "absent";
    ]

let test_substring_random_docs () =
  for seed = 1 to 8 do
    let xml = Xvi_workload.Xmark.generate ~seed ~factor:0.005 () in
    let store = Parser.parse_exn xml in
    let si = SubI.create store in
    ok_or_fail "validate" (SubI.validate si store);
    List.iter
      (fun pattern ->
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d contains %S" seed pattern)
          (naive_contains store pattern)
          (SubI.contains si store pattern))
      [ "ship"; "Credit"; "Arthur"; "99"; "xyzzy" ]
  done

let test_substring_maintenance () =
  let db =
    Db.of_xml_exn ~config:{ Db.Config.default with Db.Config.substring = true }
      "<a><b>hello world</b><c>numbers 123</c><d att=\"needle here\"/></a>"
  in
  let store = Db.store db in
  Alcotest.(check int) "needle found" 1
    (List.length (Db.lookup_contains db "needle"));
  (* update removes old grams and adds new ones *)
  let b_text = (Store.text_nodes store).(0) in
  Db.update_text db b_text "goodbye planet";
  ok_or_fail "validate after update" (Db.validate db);
  Alcotest.(check int) "hello gone" 0 (List.length (Db.lookup_contains db "hello"));
  Alcotest.(check int) "planet found" 1
    (List.length (Db.lookup_contains db "planet"));
  (* delete drops postings *)
  let c =
    List.find
      (fun n -> Store.kind store n = Store.Element && Store.name store n = "c")
      (Store.children store (Option.get (Store.first_child store Store.document)))
  in
  Db.delete_subtree db c;
  ok_or_fail "validate after delete" (Db.validate db);
  Alcotest.(check int) "numbers gone" 0
    (List.length (Db.lookup_contains db "numbers"));
  (* insert adds postings *)
  (match
     Db.insert_xml db
       ~parent:(Option.get (Store.first_child store Store.document))
       "<e>freshly inserted content</e>"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert: %s" (Parser.error_to_string e));
  ok_or_fail "validate after insert" (Db.validate db);
  Alcotest.(check int) "freshly found" 1
    (List.length (Db.lookup_contains db "freshly"))

let test_xpath_contains () =
  let xml =
    "<lib><book><title>The Hitchhiker</title></book>\
     <book><title>Mostly Harmless</title></book>\
     <book><title>Dirk Gently</title></book></lib>"
  in
  let db =
    Db.of_xml_exn ~config:{ Db.Config.default with Db.Config.substring = true } xml
  in
  let store = Db.store db in
  let q = Xvi_xpath.Xpath.parse_exn "//book[contains(title, \"Harm\")]" in
  let naive = Xvi_xpath.Xpath.eval store q in
  let fast = Xvi_xpath.Xpath.eval_indexed db q in
  Alcotest.(check bool) "naive = indexed" true (naive = fast);
  Alcotest.(check int) "one book" 1 (List.length naive);
  (* without the substring index the indexed evaluator falls back *)
  let db2 = Db.of_xml_exn xml in
  let fast2 = Xvi_xpath.Xpath.eval_indexed db2 q in
  Alcotest.(check bool) "fallback agrees" true (naive = fast2)

let extra_suites =
  [
    ( "substring",
      [
        Alcotest.test_case "basics" `Quick test_substring_basics;
        Alcotest.test_case "element contains" `Quick test_substring_element_contains;
        Alcotest.test_case "random docs" `Quick test_substring_random_docs;
        Alcotest.test_case "maintenance" `Quick test_substring_maintenance;
        Alcotest.test_case "xpath contains()" `Quick test_xpath_contains;
      ] );
  ]

(* --- element-name index --- *)

module NI = Xvi_core.Name_index

let test_name_index_basics () =
  let store = Parser.parse_exn person_doc in
  let ni = NI.create store in
  ok_or_fail "validate" (NI.validate ni store);
  Alcotest.(check int) "person" 1 (List.length (NI.nodes ni store "person"));
  Alcotest.(check int) "first" 1 (NI.count ni store "first");
  Alcotest.(check (list int)) "unknown" [] (NI.nodes ni store "nope")

let test_name_index_maintenance () =
  let db = Db.of_xml_exn "<a><b>x</b><b>y</b><c/></a>" in
  let ni = Db.name_index db in
  let store = Db.store db in
  Alcotest.(check int) "two b" 2 (NI.count ni store "b");
  (* lazy deletion *)
  Db.delete_subtree db (List.hd (Db.elements_named db "b"));
  Alcotest.(check int) "one b" 1 (NI.count ni store "b");
  ok_or_fail "validate after delete" (NI.validate ni store);
  (* insert registers fresh elements *)
  let root = Option.get (Store.first_child store Store.document) in
  (match Db.insert_xml db ~parent:root "<b>z</b><d><b>w</b></d>" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert: %s" (Parser.error_to_string e));
  Alcotest.(check int) "three b" 3 (NI.count ni store "b");
  Alcotest.(check int) "one d" 1 (NI.count ni store "d");
  ok_or_fail "validate after insert" (NI.validate ni store);
  ok_or_fail "db validate" (Db.validate db)

let () =
  Alcotest.run "indices"
    (base_suites @ extra_suites
    @ [
        ( "name-index",
          [
            Alcotest.test_case "basics" `Quick test_name_index_basics;
            Alcotest.test_case "maintenance" `Quick test_name_index_maintenance;
          ] );
      ])
