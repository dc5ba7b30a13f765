(* XML substrate tests: parser, store navigation, XDM string values,
   updates, tombstones, pre/size/level snapshots, serialisation
   round-trips (including a property over generated random documents). *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Ser = Xvi_xml.Serializer
module Prng = Xvi_util.Prng

let parse = Parser.parse_exn

let person_doc =
  "<person><name><first>Arthur</first><family>Dent</family></name>\
   <birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age>\
   <weight><kilos>78</kilos>.<grams>230</grams></weight></person>"

let root store =
  match
    List.find_opt
      (fun n -> Store.kind store n = Store.Element)
      (Store.children store Store.document)
  with
  | Some r -> r
  | None -> Alcotest.fail "no root element"

(* --- parser --- *)

let test_parse_basic () =
  let s = parse "<a><b>hi</b><c x=\"1\" y='2'/></a>" in
  let a = root s in
  Alcotest.(check string) "root name" "a" (Store.name s a);
  match Store.children s a with
  | [ b; c ] ->
      Alcotest.(check string) "b" "b" (Store.name s b);
      Alcotest.(check string) "b text" "hi" (Store.string_value s b);
      Alcotest.(check int) "c attrs" 2 (List.length (Store.attributes s c));
      let x = List.hd (Store.attributes s c) in
      Alcotest.(check string) "attr name" "x" (Store.name s x);
      Alcotest.(check string) "attr value" "1" (Store.text s x)
  | l -> Alcotest.failf "expected 2 children, got %d" (List.length l)

let test_parse_entities () =
  let s = parse "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>" in
  Alcotest.(check string) "decoded" "<x> & \"y\" 'z' AB"
    (Store.string_value s (root s))

let test_parse_numeric_refs_utf8 () =
  let s = parse "<a>&#955;&#28450;&#128512;</a>" in
  (* λ (2 bytes), 漢 (3 bytes), 😀 (4 bytes) *)
  Alcotest.(check string) "utf8" "\xce\xbb\xe6\xbc\xa2\xf0\x9f\x98\x80"
    (Store.string_value s (root s))

let test_parse_cdata () =
  let s = parse "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.(check string) "cdata" "<raw> & stuff" (Store.string_value s (root s))

let test_parse_comments_pis () =
  let s = parse "<?xml version=\"1.0\"?><!-- top --><a><!-- in --><?proc data?>x</a>" in
  Alcotest.(check string) "string value ignores comments/PIs" "x"
    (Store.string_value s (root s));
  let kinds = List.map (Store.kind s) (Store.children s (root s)) in
  Alcotest.(check int) "children" 3 (List.length kinds);
  Alcotest.(check int) "comment count" 2 (Store.count_of_kind s Store.Comment);
  Alcotest.(check int) "pi count" 1 (Store.count_of_kind s Store.Pi)

let test_parse_doctype () =
  let s = parse "<!DOCTYPE doc [ <!ELEMENT doc (#PCDATA)> ]><doc>ok</doc>" in
  Alcotest.(check string) "after doctype" "ok" (Store.string_value s (root s))

let test_parse_whitespace_strip () =
  let s = parse "<a>\n  <b>x</b>\n  <c>y</c>\n</a>" in
  Alcotest.(check int) "ws text dropped" 2 (Store.count_of_kind s Store.Text);
  let s2 = Parser.parse_exn ~strip_ws:false "<a>\n  <b>x</b>\n</a>" in
  Alcotest.(check int) "ws kept" 3 (Store.count_of_kind s2 Store.Text)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let expect_error src fragment =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error e ->
      let msg = Parser.error_to_string e in
      if not (contains ~needle:fragment msg) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_parse_errors () =
  expect_error "<a><b></a>" "mismatched";
  expect_error "<a>" "unexpected end";
  expect_error "<a></a><b></b>" "after the root";
  expect_error "<a x=1></a>" "quoted";
  expect_error "<a>&unknown;</a>" "unknown entity";
  expect_error "" "expected root";
  expect_error "<a><b attr=\"x\"</a>" "name"

(* --- store navigation and values --- *)

let test_navigation () =
  let s = parse person_doc in
  let person = root s in
  let kids = Store.children s person in
  Alcotest.(check int) "4 children" 4 (List.length kids);
  let name = List.nth kids 0 and age = List.nth kids 2 in
  Alcotest.(check string) "name" "name" (Store.name s name);
  Alcotest.(check (option int)) "parent" (Some person) (Store.parent s name);
  Alcotest.(check bool) "ancestor" true
    (Store.is_ancestor s ~ancestor:person (List.hd (Store.children s name)));
  Alcotest.(check bool) "not self-ancestor" false
    (Store.is_ancestor s ~ancestor:person person);
  Alcotest.(check int) "level of person" 1 (Store.level s person);
  let first = List.hd (Store.children s name) in
  Alcotest.(check int) "level of first" 4
    (Store.level s (List.hd (Store.children s first)));
  Alcotest.(check (option int)) "prev sibling" (Some name)
    (Store.prev_sibling s (List.nth kids 1));
  Alcotest.(check (option int)) "last child" (Some (List.nth kids 3))
    (Store.last_child s person);
  Alcotest.(check int) "subtree size of age" 5 (Store.subtree_size s age)

let test_string_values () =
  let s = parse person_doc in
  let person = root s in
  Alcotest.(check string) "person" "ArthurDent1966-09-264278.230"
    (Store.string_value s person);
  let weight = List.nth (Store.children s person) 3 in
  Alcotest.(check string) "weight" "78.230" (Store.string_value s weight);
  let age = List.nth (Store.children s person) 2 in
  Alcotest.(check string) "age mixed content" "42" (Store.string_value s age);
  Alcotest.(check string) "document" "ArthurDent1966-09-264278.230"
    (Store.string_value s Store.document)

let test_text_nodes_order () =
  let s = parse person_doc in
  let texts = Store.text_nodes s in
  let values = Array.to_list (Array.map (Store.text s) texts) in
  Alcotest.(check (list string)) "doc order"
    [ "Arthur"; "Dent"; "1966-09-26"; "4"; "2"; "78"; "."; "230" ]
    values

let test_iter_pre_attributes_first () =
  let s = parse "<a x=\"1\"><b y=\"2\">t</b></a>" in
  let order = ref [] in
  Store.iter_pre s (fun n -> order := n :: !order);
  let kinds = List.rev_map (Store.kind s) !order in
  Alcotest.(check bool) "doc first" true (List.hd kinds = Store.Document);
  (* a, @x, b, @y, text *)
  Alcotest.(check int) "count" 6 (List.length kinds)

let test_set_text () =
  let s = parse person_doc in
  let texts = Store.text_nodes s in
  Store.set_text s texts.(1) "Prefect";
  Alcotest.(check string) "updated" "ArthurPrefect1966-09-264278.230"
    (Store.string_value s (root s));
  Alcotest.check_raises "element refuses set_text"
    (Invalid_argument "Store.set_text: node 1 has the wrong kind") (fun () ->
      Store.set_text s (root s) "x")

let test_delete_subtree () =
  let s = parse person_doc in
  let person = root s in
  let before = Store.live_count s in
  let age = List.nth (Store.children s person) 2 in
  Store.delete_subtree s age;
  Alcotest.(check int) "live count drops by 5" (before - 5) (Store.live_count s);
  Alcotest.(check int) "3 children left" 3 (List.length (Store.children s person));
  Alcotest.(check string) "string value excludes deleted"
    "ArthurDent1966-09-2678.230"
    (Store.string_value s person);
  Alcotest.(check bool) "tombstoned" false (Store.is_live s age);
  (* node ids of survivors unchanged *)
  Alcotest.(check string) "survivor intact" "weight"
    (Store.name s (List.nth (Store.children s person) 2))

let test_insert () =
  let s = parse "<a><b/><d/></a>" in
  let a = root s in
  let d = List.nth (Store.children s a) 1 in
  let c = Store.insert_element s ~parent:a ~before:d "c" in
  let names = List.map (Store.name s) (Store.children s a) in
  Alcotest.(check (list string)) "order" [ "b"; "c"; "d" ] names;
  let t = Store.insert_text s ~parent:c "mid" in
  Alcotest.(check string) "text" "mid" (Store.text s t);
  Alcotest.(check string) "value" "mid" (Store.string_value s a)

let test_parse_fragment () =
  let s = parse "<a><b/></a>" in
  let a = root s in
  (match Parser.parse_fragment s ~parent:a "<c>x</c><d/>" with
  | Ok roots -> Alcotest.(check int) "two roots" 2 (List.length roots)
  | Error e -> Alcotest.failf "fragment: %s" (Parser.error_to_string e));
  Alcotest.(check (list string)) "children" [ "b"; "c"; "d" ]
    (List.map (Store.name s) (Store.children s a))

let test_pre_size_level () =
  let s = parse "<a x=\"1\"><b><c>t</c></b><d/></a>" in
  let psl = Store.pre_size_level s in
  (* document, a, @x, b, c, text, d *)
  Alcotest.(check int) "entries" 7 (Array.length psl);
  let _, doc_size, doc_level = psl.(0) in
  Alcotest.(check int) "doc size" 6 doc_size;
  Alcotest.(check int) "doc level" 0 doc_level;
  let _, a_size, a_level = psl.(1) in
  Alcotest.(check int) "a size" 5 a_size;
  Alcotest.(check int) "a level" 1 a_level;
  (* sizes are consistent: node at pre p spans the next size entries *)
  let _, b_size, _ = psl.(3) in
  Alcotest.(check int) "b size" 2 b_size

let test_compare_order () =
  let s = parse "<a x=\"1\" y=\"2\"><b>t1</b><c><d/>t2</c></a>" in
  (* collect in document order via iter_pre, then check compare_order
     agrees pairwise *)
  let order = ref [] in
  Store.iter_pre s (fun n -> order := n :: !order);
  let order = Array.of_list (List.rev !order) in
  let n = Array.length order in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = Store.compare_order s order.(i) order.(j) in
      let expect = compare i j in
      if (c < 0) <> (expect < 0) || (c = 0) <> (expect = 0) then
        Alcotest.failf "compare_order(%d, %d) = %d, expected sign of %d"
          order.(i) order.(j) c expect
    done
  done

let test_counts_bytes () =
  let s = parse person_doc in
  Alcotest.(check int) "elements" 11 (Store.count_of_kind s Store.Element);
  Alcotest.(check int) "texts" 8 (Store.count_of_kind s Store.Text);
  Alcotest.(check int) "live = range" (Store.node_range s) (Store.live_count s);
  Alcotest.(check bool) "storage positive" true (Store.storage_bytes s > 0);
  Alcotest.(check int) "text bytes"
    (String.length "ArthurDent1966-09-264278.230")
    (Store.text_bytes s)

let test_compact () =
  let s = parse person_doc in
  let person = root s in
  let age = List.nth (Store.children s person) 2 in
  Store.delete_subtree s age;
  ignore (Store.insert_element s ~parent:person "appendix");
  let fresh, map = Store.compact s in
  (* same live content, dense ids *)
  Alcotest.(check int) "live counts" (Store.live_count s) (Store.live_count fresh);
  Alcotest.(check int) "no slack" (Store.node_range fresh) (Store.live_count fresh);
  Alcotest.(check string) "same document"
    (Ser.document_to_string ~decl:false s)
    (Ser.document_to_string ~decl:false fresh);
  (* the mapping relates equal subtrees and drops tombstones *)
  Alcotest.(check (option int)) "deleted unmapped" None (map age);
  Store.iter_pre s (fun n ->
      match map n with
      | None -> Alcotest.failf "live node %d unmapped" n
      | Some n' ->
          Alcotest.(check string)
            (Printf.sprintf "string value of %d preserved" n)
            (Store.string_value s n)
            (Store.string_value fresh n'));
  Alcotest.(check (option int)) "out of range" None (map 99_999)

let test_db_compact () =
  let db = Xvi_core.Db.of_xml_exn person_doc in
  let store = Xvi_core.Db.store db in
  let person =
    Option.get (Store.first_child store Store.document)
  in
  Xvi_core.Db.delete_subtree db (List.nth (Store.children store person) 2);
  let db', map = Xvi_core.Db.compact db in
  (match Xvi_core.Db.validate db' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compacted validate: %s" e);
  Alcotest.(check int) "lookup still works" 1
    (List.length (Xvi_core.Db.lookup_string db' "ArthurDent"));
  (* mapped node answers the same lookup *)
  let name_old = List.hd (Xvi_core.Db.lookup_string db "ArthurDent") in
  Alcotest.(check (list int)) "mapping consistent"
    [ Option.get (map name_old) ]
    (Xvi_core.Db.lookup_string db' "ArthurDent")

(* --- serialisation round-trip --- *)

let test_roundtrip_exact () =
  List.iter
    (fun doc ->
      let s = parse doc in
      Alcotest.(check string) "roundtrip" doc (Ser.to_string s (root s)))
    [
      person_doc;
      "<a x=\"1\" y=\"2\"><b/>text<c>more</c></a>";
      "<r>&amp;&lt;&gt;</r>";
    ]

let test_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Ser.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "a&amp;b&lt;c&quot;d" (Ser.escape_attr "a&b<c\"d")

(* Random document generator (direct store construction), then
   serialise-parse-serialise must be a fixed point. *)
let random_store seed =
  let rng = Prng.create seed in
  let s = Store.create () in
  let words = [| "alpha"; "beta"; "42"; "3.14"; " x "; "a&b"; "<t>"; "" |] in
  let fresh_text () = words.(Prng.int rng (Array.length words)) in
  let rec build parent depth budget =
    if !budget > 0 then begin
      let n_children = Prng.int rng (if depth > 4 then 2 else 4) in
      for _ = 1 to n_children do
        if !budget > 0 then begin
          decr budget;
          match Prng.int rng 10 with
          | 0 | 1 | 2 | 3 ->
              let txt = fresh_text () in
              if txt <> "" then ignore (Store.append_text s ~parent txt)
          | 4 ->
              if Store.kind s parent = Store.Element then
                ignore
                  (Store.append_attribute s ~element:parent
                     ~name:(Printf.sprintf "a%d" (Prng.int rng 5))
                     ~value:(fresh_text ()))
          | 5 -> ignore (Store.append_comment s ~parent "note")
          | _ ->
              let e =
                Store.append_element s ~parent
                  (Printf.sprintf "e%d" (Prng.int rng 8))
              in
              build e (depth + 1) budget
        end
      done
    end
  in
  let root = Store.append_element s ~parent:Store.document "root" in
  let budget = ref (20 + Prng.int rng 150) in
  build root 0 budget;
  s

let test_compare_order_random () =
  for seed = 1 to 20 do
    let s = random_store (900 + seed) in
    let order = ref [] in
    Store.iter_pre s (fun n -> order := n :: !order);
    let order = Array.of_list (List.rev !order) in
    let sorted = Array.copy order in
    (* shuffle then re-sort with compare_order *)
    let rng = Prng.create seed in
    Prng.shuffle rng sorted;
    Array.sort (Store.compare_order s) sorted;
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (sorted = order)
  done

let test_roundtrip_random () =
  for seed = 1 to 50 do
    let s = random_store seed in
    let rendered = Ser.document_to_string ~decl:false s in
    let reparsed = Parser.parse_exn ~strip_ws:false rendered in
    let rendered2 = Ser.document_to_string ~decl:false reparsed in
    Alcotest.(check string) (Printf.sprintf "fixpoint seed %d" seed) rendered rendered2;
    Alcotest.(check string)
      (Printf.sprintf "string value preserved seed %d" seed)
      (Store.string_value s Store.document)
      (Store.string_value reparsed Store.document)
  done


(* --- golden parse table ---

   Shredding results pinned as values: MD5s of the serialisation and of
   the database digest for a fixed document set under both whitespace
   modes, and the exact outcome of a handful of fragment inserts.  Any
   change to the lexer's entity, whitespace, CDATA, prolog or
   trailing-misc rules moves a row. *)

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

let golden_docs () =
  (("tricky", tricky_doc)
   :: List.map
        (fun seed ->
          ( Printf.sprintf "xmark-%d" seed,
            Xvi_workload.Xmark.generate ~seed ~factor:0.01 () ))
        [ 1; 2; 3 ])
  @ List.init 50 (fun seed ->
        ( Printf.sprintf "gen-%d" seed,
          Xvi_check.Gen.document (Prng.create seed) ))

(* (document, serialisation MD5 stripped / kept, digest MD5 stripped /
   kept) *)
let golden_row (label, doc) =
  let md5 s = Digest.to_hex (Digest.string s) in
  let shred strip_ws =
    let store = Parser.parse_exn ~strip_ws doc in
    (md5 (Ser.document_to_string store), store)
  in
  let ser_s, store_s = shred true and ser_k, store_k = shred false in
  let dig store = md5 (Xvi_core.Db.digest (Xvi_core.Db.of_store store)) in
  (label, ser_s, ser_k, dig store_s, dig store_k)

(* (fragment, strip_ws, parent is the document node, returned roots,
   serialisation of the document after the insert) *)
let golden_fragment (src, strip_ws, at_document) =
  let s = parse "<a><b/></a>" in
  let parent = if at_document then Store.document else root s in
  match Parser.parse_fragment ~strip_ws s ~parent src with
  | Ok roots ->
      ( String.concat "," (List.map string_of_int roots),
        Ser.document_to_string ~decl:false s )
  | Error e -> Alcotest.failf "fragment %S: %s" src (Parser.error_to_string e)

let golden_table =
  [
    ("tricky",
     "74be470b1701f0e336e9fc3f1513b6a9", "e08aabdc53d5d0d313ac02912b743916",
     "2b075123f8309bd65a784b1174513474", "9d30e23adb99b3293babac708c193bbb");
    ("xmark-1",
     "57d231898007bbb31099d2869c3b1acb", "57d231898007bbb31099d2869c3b1acb",
     "7973a41dc8dcd4b33947312f796a477e", "7973a41dc8dcd4b33947312f796a477e");
    ("xmark-2",
     "6c1da60b8d2ae5a07b0339dd82b8bf47", "6c1da60b8d2ae5a07b0339dd82b8bf47",
     "c95e2453e32b12563215948e2c590b62", "c95e2453e32b12563215948e2c590b62");
    ("xmark-3",
     "1cfc41dca0d2612cc1e715d89c6140cf", "1cfc41dca0d2612cc1e715d89c6140cf",
     "dc8a3867b809f1a9e0efa71b9d8a90a8", "dc8a3867b809f1a9e0efa71b9d8a90a8");
    ("gen-0",
     "2a2c3f470c02e48f29c464b9190413a3", "2a2c3f470c02e48f29c464b9190413a3",
     "f60c88b476bcf8c4208b00d13b6f2b0a", "f60c88b476bcf8c4208b00d13b6f2b0a");
    ("gen-1",
     "a8b2180d86ca26e4abc483570c7510e9", "a8b2180d86ca26e4abc483570c7510e9",
     "8fd488e0e08116b288c9249451adeb06", "8fd488e0e08116b288c9249451adeb06");
    ("gen-2",
     "393a2c412b823fcb1c5399cbd6e0c008", "393a2c412b823fcb1c5399cbd6e0c008",
     "671e4f61566d0bbb7597b337becb1499", "671e4f61566d0bbb7597b337becb1499");
    ("gen-3",
     "661d8145393d89260a5ea96ceb2ba6dc", "661d8145393d89260a5ea96ceb2ba6dc",
     "c31b2d163230c1104343fcf0ce7e84f1", "c31b2d163230c1104343fcf0ce7e84f1");
    ("gen-4",
     "1b4f2a02864823ddc3f51663b4bd9912", "1b4f2a02864823ddc3f51663b4bd9912",
     "342452af9262f892b9d3e44d4b15d214", "342452af9262f892b9d3e44d4b15d214");
    ("gen-5",
     "6aa51a3e5a58005e36deb188eb751eae", "6aa51a3e5a58005e36deb188eb751eae",
     "71d343824ca1aca652c91ce892ff0c5f", "71d343824ca1aca652c91ce892ff0c5f");
    ("gen-6",
     "a152cd45ac9ac17c12bee75d21f2d2ca", "a152cd45ac9ac17c12bee75d21f2d2ca",
     "a82060926aa0e4e375e8585742d220a7", "a82060926aa0e4e375e8585742d220a7");
    ("gen-7",
     "414cba48fbf33de531ee6748a0115619", "414cba48fbf33de531ee6748a0115619",
     "fdc9815d0952d3100e16b500f8f467e6", "fdc9815d0952d3100e16b500f8f467e6");
    ("gen-8",
     "2d6b94508e368933c6d7961e0e3737fa", "2d6b94508e368933c6d7961e0e3737fa",
     "1730c4453d26645f0c2d25ea14fd3133", "1730c4453d26645f0c2d25ea14fd3133");
    ("gen-9",
     "d1c64c82966f185d31eabd7b50e562d9", "d1c64c82966f185d31eabd7b50e562d9",
     "e9f3be386ad548408e0d13c1d0ba690d", "e9f3be386ad548408e0d13c1d0ba690d");
    ("gen-10",
     "07d80546b50821bfda7967efc1ecc248", "07d80546b50821bfda7967efc1ecc248",
     "a471c7ca5aec431b4ea16cac07e59b84", "a471c7ca5aec431b4ea16cac07e59b84");
    ("gen-11",
     "ac321148892e81b52ae10dc3d9f81704", "ac321148892e81b52ae10dc3d9f81704",
     "8e43c34c4b5aac4a4357c6ee8242f546", "8e43c34c4b5aac4a4357c6ee8242f546");
    ("gen-12",
     "1a59c2445e391e7d7fb53485651da72c", "1a59c2445e391e7d7fb53485651da72c",
     "a9ecdd0759ae8022ce00c4b41266b90f", "a9ecdd0759ae8022ce00c4b41266b90f");
    ("gen-13",
     "2c023e21a4138bd2967655c442230745", "2c023e21a4138bd2967655c442230745",
     "3bd99a14968a993cd49668de29c25bf8", "3bd99a14968a993cd49668de29c25bf8");
    ("gen-14",
     "9f0325f210606e88ab00f596dfd49057", "9f0325f210606e88ab00f596dfd49057",
     "7c4c05aea75d8a6a26c1ca60a5d7f60a", "7c4c05aea75d8a6a26c1ca60a5d7f60a");
    ("gen-15",
     "bde1616087d1b4ddf7839e03a025ae8b", "bde1616087d1b4ddf7839e03a025ae8b",
     "be80d78830b7616b9ba70e62326b8c93", "be80d78830b7616b9ba70e62326b8c93");
    ("gen-16",
     "6d57dcfb30e45d6c02ea25219b029508", "6d57dcfb30e45d6c02ea25219b029508",
     "6cc0fe2ea3e90197f4bb7f5bc2e42a08", "6cc0fe2ea3e90197f4bb7f5bc2e42a08");
    ("gen-17",
     "413c5640d3f701bca6af76f302c010f3", "413c5640d3f701bca6af76f302c010f3",
     "1820ad8d442291997359575571e234b7", "1820ad8d442291997359575571e234b7");
    ("gen-18",
     "055a87397dcedea0ab5f5f355af33004", "055a87397dcedea0ab5f5f355af33004",
     "ab83f6629fc7eb8b1acc15bfc1d9d554", "ab83f6629fc7eb8b1acc15bfc1d9d554");
    ("gen-19",
     "b195edd1c4ab6531935a020fa2d62945", "b195edd1c4ab6531935a020fa2d62945",
     "ccae92feabe36307314110dd552b6576", "ccae92feabe36307314110dd552b6576");
    ("gen-20",
     "6a2c26875be66d82d8216eac7c0cd9d6", "6a2c26875be66d82d8216eac7c0cd9d6",
     "6cb0e57aa8a4748f7670ccd55905626d", "6cb0e57aa8a4748f7670ccd55905626d");
    ("gen-21",
     "25fd4895cc3e5412bd78ea969182f993", "25fd4895cc3e5412bd78ea969182f993",
     "24d0dd9473e0961a6efeea2d33f35ec0", "24d0dd9473e0961a6efeea2d33f35ec0");
    ("gen-22",
     "99e41a468423a108718c0b831ef8f407", "99e41a468423a108718c0b831ef8f407",
     "160c17eea7059b1d42b386a52d8280ea", "160c17eea7059b1d42b386a52d8280ea");
    ("gen-23",
     "c489d1312600d2d5f65a87b7bf7c8886", "c489d1312600d2d5f65a87b7bf7c8886",
     "4c18f73ad007d39cb75a02ecfa7bfe1e", "4c18f73ad007d39cb75a02ecfa7bfe1e");
    ("gen-24",
     "4ea0d01a090b90e89647aefa9e669ad7", "4ea0d01a090b90e89647aefa9e669ad7",
     "91af91770b9c593cda658a394a41b6ec", "91af91770b9c593cda658a394a41b6ec");
    ("gen-25",
     "5d6b6f79aed5155056768f02710cf6c7", "5d6b6f79aed5155056768f02710cf6c7",
     "6afbdd9d1612671febc417acbcac17f2", "6afbdd9d1612671febc417acbcac17f2");
    ("gen-26",
     "eee042b6d5ce51de60df04024dc37196", "eee042b6d5ce51de60df04024dc37196",
     "e0eb88f321413dcf6066659bf2bb76dd", "e0eb88f321413dcf6066659bf2bb76dd");
    ("gen-27",
     "0a5e1988250c17416cbd9e63d3ffe811", "0a5e1988250c17416cbd9e63d3ffe811",
     "9b3e231ae3798529b1f75056140d8727", "9b3e231ae3798529b1f75056140d8727");
    ("gen-28",
     "7c303e0f6eeadbd3ae0a09e3fecf23f7", "7c303e0f6eeadbd3ae0a09e3fecf23f7",
     "d08e7c26b3a4c564c44e8216c567f313", "d08e7c26b3a4c564c44e8216c567f313");
    ("gen-29",
     "bca3601fcba1c21c4e3cb134d8286c59", "bca3601fcba1c21c4e3cb134d8286c59",
     "c5c504127db8ae0af4243d604d3ccd27", "c5c504127db8ae0af4243d604d3ccd27");
    ("gen-30",
     "b68772368aa23df918fc7cbbf15a1111", "b68772368aa23df918fc7cbbf15a1111",
     "c7a271de7e5c06d1d91520bf5fcb4ef4", "c7a271de7e5c06d1d91520bf5fcb4ef4");
    ("gen-31",
     "4bd6ba9f13c043f0327ccc84a3723b62", "4bd6ba9f13c043f0327ccc84a3723b62",
     "8c8f01d4627b38d36d04365298cd3bfa", "8c8f01d4627b38d36d04365298cd3bfa");
    ("gen-32",
     "b8751c55b9a62cc05025fe44f259c7dc", "b8751c55b9a62cc05025fe44f259c7dc",
     "b6fc6d47f8ef6d1bbc941f9fb4aac73a", "b6fc6d47f8ef6d1bbc941f9fb4aac73a");
    ("gen-33",
     "f2050e39af036e64bbf227c7547580c5", "f2050e39af036e64bbf227c7547580c5",
     "ceb7e8b430b05b78ecd2e9ae8aa30d0b", "ceb7e8b430b05b78ecd2e9ae8aa30d0b");
    ("gen-34",
     "9dd3fe067127d31395e1f9e2951e8bd1", "9dd3fe067127d31395e1f9e2951e8bd1",
     "b4fbb78cc16fad2bf961518cd6862bde", "b4fbb78cc16fad2bf961518cd6862bde");
    ("gen-35",
     "16d1b8f53cc0d330bd19bfc4cc00a5dd", "16d1b8f53cc0d330bd19bfc4cc00a5dd",
     "31450a1040689878327467183d374e7f", "31450a1040689878327467183d374e7f");
    ("gen-36",
     "1e1562cd7d19e204e19ee31e019d1e12", "1e1562cd7d19e204e19ee31e019d1e12",
     "e5057864cba53085d3d072c23a01e173", "e5057864cba53085d3d072c23a01e173");
    ("gen-37",
     "cb6589d79f5d3a55030162aec5800185", "cb6589d79f5d3a55030162aec5800185",
     "0f192e8e40190f486080cb6f2c7f0761", "0f192e8e40190f486080cb6f2c7f0761");
    ("gen-38",
     "9c686372fbcbc7fedccf94d016e2e349", "9c686372fbcbc7fedccf94d016e2e349",
     "84ec0586f9fef72c440929638a512bac", "84ec0586f9fef72c440929638a512bac");
    ("gen-39",
     "507b2024c4ca5f97ec6d8297330757d7", "507b2024c4ca5f97ec6d8297330757d7",
     "a2bed22feaabe8846e0d103381e9d275", "a2bed22feaabe8846e0d103381e9d275");
    ("gen-40",
     "4a266c2065f0c17e013278d454ae5326", "4a266c2065f0c17e013278d454ae5326",
     "609a1421c1ffacd9fe9c00c826d23a61", "609a1421c1ffacd9fe9c00c826d23a61");
    ("gen-41",
     "ad700f8683de52ce60985f37eb67f19d", "ad700f8683de52ce60985f37eb67f19d",
     "f6f372e5329e6d08e6364b35b353020c", "f6f372e5329e6d08e6364b35b353020c");
    ("gen-42",
     "42a26cb7163e51446523a0585323aed5", "42a26cb7163e51446523a0585323aed5",
     "2dd148e2e00ef270a63e8ef645c6deb0", "2dd148e2e00ef270a63e8ef645c6deb0");
    ("gen-43",
     "311a0a2792efed22a984acf6def276af", "311a0a2792efed22a984acf6def276af",
     "950a45aec00681f814c325cf927f7c93", "950a45aec00681f814c325cf927f7c93");
    ("gen-44",
     "983ed7da4edb92b7387a6a982b00eb0c", "983ed7da4edb92b7387a6a982b00eb0c",
     "3938a825bd9e84901a84c55c0959360d", "3938a825bd9e84901a84c55c0959360d");
    ("gen-45",
     "cefbf91bbfe2f1bc22d61653cc73e796", "cefbf91bbfe2f1bc22d61653cc73e796",
     "658ee047319f686bfaf34e33d704874c", "658ee047319f686bfaf34e33d704874c");
    ("gen-46",
     "dd26f1606e28428e05b502897b41cbae", "dd26f1606e28428e05b502897b41cbae",
     "6fea8dc01440374a7816b53b36cedc31", "6fea8dc01440374a7816b53b36cedc31");
    ("gen-47",
     "12af523887aa76c0248f06e2412eea40", "12af523887aa76c0248f06e2412eea40",
     "d74b6f3b4fae0b260d9f13b416ccbd21", "d74b6f3b4fae0b260d9f13b416ccbd21");
    ("gen-48",
     "f2ac1dd0904107ce3723b62bd191d7ba", "f2ac1dd0904107ce3723b62bd191d7ba",
     "751a517ed3d49fb81e972d89eedf576e", "751a517ed3d49fb81e972d89eedf576e");
    ("gen-49",
     "d83bdaee9585ae4597630eb812459be4", "d83bdaee9585ae4597630eb812459be4",
     "b82fa6a532162d747b878d04e3573058", "b82fa6a532162d747b878d04e3573058");
  ]

let golden_fragments =
  [
    (("bare text", true, false),
     ("3", "<a><b/>bare text</a>\n"));
    (("<![CDATA[x < y & z]]>", true, false),
     ("3", "<a><b/>x &lt; y &amp; z</a>\n"));
    (("<?pi some body?>", true, false),
     ("3", "<a><b/><?pi some body?></a>\n"));
    (("<!-- lead --><c>x</c>", true, false),
     ("3,4", "<a><b/><!-- lead --><c>x</c></a>\n"));
    (("<c>x</c><d/>", true, false),
     ("3,5", "<a><b/><c>x</c><d/></a>\n"));
    (("  <c/>  ", true, false),
     ("3", "<a><b/><c/></a>\n"));
    (("  <c/>  ", false, false),
     ("3,4,5", "<a><b/>  <c/>  </a>\n"));
    (("t&amp;u<c k='1' j=\"&#65;\">&#x42;</c>tail", true, false),
     ("3,4,8", "<a><b/>t&amp;u<c k=\"1\" j=\"A\">B</c>tail</a>\n"));
    (("", true, false),
     ("", "<a><b/></a>\n"));
    (("<![CDATA[]]>", true, false),
     ("", "<a><b/></a>\n"));
    (("<!-- after -->", true, true),
     ("3", "<a><b/></a><!-- after -->\n"));
  ]

let test_golden_parse_table () =
  let docs = golden_docs () in
  Alcotest.(check int) "rows" (List.length golden_table) (List.length docs);
  List.iter2
    (fun doc (label, ser_s, ser_k, dig_s, dig_k) ->
      let label', ser_s', ser_k', dig_s', dig_k' = golden_row doc in
      Alcotest.(check string) "label" label label';
      Alcotest.(check string) (label ^ " serialisation, stripped") ser_s ser_s';
      Alcotest.(check string) (label ^ " serialisation, kept") ser_k ser_k';
      Alcotest.(check string) (label ^ " digest, stripped") dig_s dig_s';
      Alcotest.(check string) (label ^ " digest, kept") dig_k dig_k')
    docs golden_table

let test_golden_fragments () =
  List.iter
    (fun (((src, _, _) as input), (roots, rendered)) ->
      let roots', rendered' = golden_fragment input in
      Alcotest.(check string) (src ^ " roots") roots roots';
      Alcotest.(check string) (src ^ " document") rendered rendered')
    golden_fragments

let () =
  Alcotest.run "xml"
    [
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "numeric refs utf8" `Quick test_parse_numeric_refs_utf8;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments and PIs" `Quick test_parse_comments_pis;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "whitespace strip" `Quick test_parse_whitespace_strip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "fragment" `Quick test_parse_fragment;
          Alcotest.test_case "golden parse table" `Quick test_golden_parse_table;
          Alcotest.test_case "golden fragments" `Quick test_golden_fragments;
        ] );
      ( "store",
        [
          Alcotest.test_case "navigation" `Quick test_navigation;
          Alcotest.test_case "string values" `Quick test_string_values;
          Alcotest.test_case "text nodes order" `Quick test_text_nodes_order;
          Alcotest.test_case "iter_pre" `Quick test_iter_pre_attributes_first;
          Alcotest.test_case "set_text" `Quick test_set_text;
          Alcotest.test_case "delete subtree" `Quick test_delete_subtree;
          Alcotest.test_case "insert" `Quick test_insert;
          Alcotest.test_case "pre/size/level" `Quick test_pre_size_level;
          Alcotest.test_case "compare_order" `Quick test_compare_order;
          Alcotest.test_case "compare_order random" `Quick test_compare_order_random;
          Alcotest.test_case "counts and bytes" `Quick test_counts_bytes;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "db compact" `Quick test_db_compact;
        ] );
      ( "serialiser",
        [
          Alcotest.test_case "roundtrip exact" `Quick test_roundtrip_exact;
          Alcotest.test_case "escaping" `Quick test_escape;
          Alcotest.test_case "roundtrip random" `Quick test_roundtrip_random;
        ] );
    ]
