(* Tests for the creation (Section 5's one pass) and update (Figure 8)
   skeleton algorithms: the single descending-id creation pass must
   agree with the obviously-correct recursive definition on arbitrary
   documents, and updates must leave fields identical to a from-scratch
   rebuild. *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Indexer = Xvi_core.Indexer
module Hash = Xvi_core.Hash
module Prng = Xvi_util.Prng

let person_doc =
  "<person><name><first>Arthur</first><family>Dent</family></name>\
   <birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age>\
   <weight><kilos>78</kilos>.<grams>230</grams></weight></person>"

let fields_agree ops store a b =
  Store.iter_pre store (fun n ->
      if not (ops.Indexer.equal (Indexer.get a n) (Indexer.get b n)) then
        Alcotest.failf "field mismatch at node %d" n)

let test_create_person () =
  let store = Parser.parse_exn person_doc in
  let fields = Indexer.create Indexer.hash_ops store in
  (* every element's field equals the hash of its XDM string value *)
  Store.iter_pre store (fun n ->
      match Store.kind store n with
      | Store.Element | Store.Document | Store.Text | Store.Attribute ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d hash = H(string value)" n)
            true
            (Hash.equal (Indexer.get fields n)
               (Hash.hash (Store.string_value store n)))
      | _ -> ())

let test_create_empty_document () =
  let store = Parser.parse_exn "<a/>" in
  let fields = Indexer.create Indexer.hash_ops store in
  Alcotest.(check bool) "root field is identity" true
    (Hash.equal (Indexer.get fields Store.document) Hash.empty)

let test_create_no_text_subtrees () =
  let store = Parser.parse_exn "<a><b><c/><d/></b><e>x</e></a>" in
  let fields = Indexer.create Indexer.hash_ops store in
  let reference = Indexer.create_reference Indexer.hash_ops store in
  fields_agree Indexer.hash_ops store fields reference

(* Random document builder with plenty of nasty shapes: empty elements,
   mixed content, attribute-only elements, comments, deep chains. *)
let random_doc rng =
  let buf = Buffer.create 512 in
  let texts =
    [| "alpha"; "42"; "3.14"; "."; "E+9"; "-"; "x y"; "0"; "left right" |]
  in
  let rec element depth =
    let name = Printf.sprintf "n%d" (Prng.int rng 6) in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    if Prng.int rng 4 = 0 then
      Buffer.add_string buf
        (Printf.sprintf " a%d=\"%s\"" (Prng.int rng 3)
           texts.(Prng.int rng (Array.length texts)));
    if Prng.int rng 6 = 0 then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      let children = Prng.int rng (if depth > 5 then 2 else 4) in
      for _ = 1 to children do
        match Prng.int rng 5 with
        | 0 | 1 ->
            Buffer.add_string buf
              (Xvi_xml.Serializer.escape_text texts.(Prng.int rng (Array.length texts)));
            (* avoid adjacent text nodes merging ambiguity by a comment *)
            Buffer.add_string buf "<!--sep-->"
        | _ -> element (depth + 1)
      done;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end
  in
  element 0;
  Buffer.contents buf

let test_create_matches_reference_random () =
  for seed = 1 to 80 do
    let rng = Prng.create seed in
    let store = Parser.parse_exn ~strip_ws:false (random_doc rng) in
    let fast = Indexer.create Indexer.hash_ops store in
    let reference = Indexer.create_reference Indexer.hash_ops store in
    fields_agree Indexer.hash_ops store fast reference;
    (* same for the double SCT ops *)
    let ops = Indexer.sct_ops (Xvi_core.Lexical_types.double ()).Xvi_core.Lexical_types.sct in
    let fast = Indexer.create ops store in
    let reference = Indexer.create_reference ops store in
    fields_agree ops store fast reference
  done

let test_shared_pass_matches_individual () =
  (* one shared pass (paper Section 5) computes the same fields as
     separate passes, for machines of different field types *)
  for seed = 1 to 30 do
    let rng = Prng.create (500 + seed) in
    let store = Parser.parse_exn ~strip_ws:false (random_doc rng) in
    let spec = Xvi_core.Lexical_types.double () in
    let sct_ops = Indexer.sct_ops spec.Xvi_core.Lexical_types.sct in
    let hash_fields = Indexer.empty_fields Indexer.hash_ops in
    let state_fields = Indexer.empty_fields sct_ops in
    Indexer.fill store
      [ Indexer.Packed (Indexer.hash_ops, hash_fields);
        Indexer.Packed (sct_ops, state_fields) ];
    fields_agree Indexer.hash_ops store hash_fields
      (Indexer.create Indexer.hash_ops store);
    fields_agree sct_ops store state_fields (Indexer.create sct_ops store)
  done

let test_update_equals_rebuild () =
  for seed = 1 to 40 do
    let rng = Prng.create (1000 + seed) in
    let store = Parser.parse_exn ~strip_ws:false (random_doc rng) in
    let fields = Indexer.create Indexer.hash_ops store in
    let texts = Store.text_nodes store in
    if Array.length texts > 0 then begin
      (* update a random subset of text nodes *)
      let k = 1 + Prng.int rng (Array.length texts) in
      let picks = Prng.sample_distinct rng k (Array.length texts) in
      let victims = Array.to_list (Array.map (fun i -> texts.(i)) picks) in
      List.iter
        (fun n -> Store.set_text store n (Printf.sprintf "new%d" (Prng.int rng 100)))
        victims;
      let result = Indexer.update Indexer.hash_ops store fields ~texts:victims () in
      let rebuilt = Indexer.create_reference Indexer.hash_ops store in
      fields_agree Indexer.hash_ops store fields rebuilt;
      (* change records must be deepest-first and accurate *)
      let rec check_desc = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "deepest first" true
              (a.Indexer.level >= b.Indexer.level);
            check_desc rest
        | _ -> ()
      in
      check_desc result.Indexer.changes;
      List.iter
        (fun c ->
          Alcotest.(check bool) "new field recorded" true
            (Hash.equal c.Indexer.new_field (Indexer.get fields c.Indexer.node)))
        result.Indexer.changes
    end
  done

(* --- Figure 8 over one shared frontier, for all three field machines ---

   A seeded trace of text, attribute and structural writes runs through
   a [Db] (whose indices share one frontier per write set) and, over the
   same store, through standalone fields of each machine maintained with
   [Indexer.maintain]. After every step the fields must equal
   [create_reference], the change records must be exact, and the [Db]
   must validate and digest like a from-scratch rebuild. *)

module Db = Xvi_core.Db
module LT = Xvi_core.Lexical_types

let wide = 320

(* Wide parents: [<d>] holds digit texts (their concatenation is a
   viable xs:double, so the SCT cutoff meets live states, not reject),
   [<w>] holds word texts (the hash delta on a long sibling list), [<e>]
   holds elements, and [<a>] carries attributes. Texts under one parent are kept apart by
   comments so they stay distinct nodes. *)
let wide_doc rng =
  let b = Buffer.create 65536 in
  let texts name gen =
    Buffer.add_string b (Printf.sprintf "<%s>" name);
    for i = 0 to wide - 1 do
      if i > 0 then Buffer.add_string b "<!--s-->";
      Buffer.add_string b (gen i)
    done;
    Buffer.add_string b (Printf.sprintf "</%s>" name)
  in
  Buffer.add_string b "<r>";
  texts "d" (fun i -> string_of_int (i mod 10));
  texts "w" (fun i -> Printf.sprintf "w%d" i);
  Buffer.add_string b "<e>";
  for i = 0 to wide - 1 do
    Buffer.add_string b (Printf.sprintf "<v>%d.%d</v>" i (Prng.int rng 10))
  done;
  Buffer.add_string b "</e>";
  Buffer.add_string b
    "<a x=\"12\" y=\"abc\" t=\"2009-03-24T10:00:00\"><m>2009-03-24T10:00:00</m></a>";
  Buffer.add_string b (random_doc rng);
  Buffer.add_string b "</r>";
  Buffer.contents b

type step =
  | Texts of (Store.node * string) list
  | Insert of Store.node * string
  | Delete of Store.node

let machines store =
  let sct spec =
    let ops = Indexer.sct_ops spec.LT.sct in
    Indexer.Packed (ops, Indexer.create ops store)
  in
  [
    Indexer.Packed (Indexer.hash_ops, Indexer.create Indexer.hash_ops store);
    sct (LT.double ());
    sct (LT.datetime ());
  ]

let rec ancestors_or_self store n =
  n
  :: (match Store.parent store n with
     | Some p -> ancestors_or_self store p
     | None -> [])

let check_result (type f) (ops : f Indexer.ops) store ~(before : f Indexer.fields)
    (fields : f Indexer.fields) ~written (res : f Indexer.update_result) =
  let what = ops.Indexer.field_name in
  fields_agree ops store fields (Indexer.create_reference ops store);
  (* the snapshot loader's one-pass fill agrees after every edit *)
  let filled = Indexer.empty_fields ops in
  Indexer.fill store [ Indexer.Packed (ops, filled) ];
  fields_agree ops store fields filled;
  let rec desc = function
    | a :: (b :: _ as rest) ->
        if a < b then Alcotest.failf "%s: levels not deepest first" what;
        desc rest
    | _ -> ()
  in
  desc (List.map (fun c -> c.Indexer.level) res.Indexer.changes);
  desc (List.map snd res.Indexer.touched);
  (* each change is stored, real, and the only way a field moved *)
  let changed = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let n = c.Indexer.node in
      if Hashtbl.mem changed n then Alcotest.failf "%s: node %d twice" what n;
      Hashtbl.add changed n ();
      if not (ops.Indexer.equal c.Indexer.new_field (Indexer.get fields n)) then
        Alcotest.failf "%s: new field of %d not stored" what n;
      if not (ops.Indexer.equal c.Indexer.old_field (Indexer.get before n)) then
        Alcotest.failf "%s: old field of %d misreported" what n;
      if ops.Indexer.equal c.Indexer.old_field c.Indexer.new_field then
        Alcotest.failf "%s: unchanged node %d reported" what n;
      if c.Indexer.level <> Store.level store n then
        Alcotest.failf "%s: level of %d" what n)
    res.Indexer.changes;
  Store.iter_pre store (fun n ->
      if
        (not (Hashtbl.mem changed n))
        && not (ops.Indexer.equal (Indexer.get before n) (Indexer.get fields n))
      then Alcotest.failf "%s: node %d changed without a record" what n);
  (* the touched rule: every written node and ancestor whose field is
     not the absorbing element both before and after *)
  let touched = Hashtbl.create 16 in
  List.iter (fun (n, _) -> Hashtbl.replace touched n ()) res.Indexer.touched;
  List.iter
    (fun w ->
      let chain =
        if Store.kind store w = Store.Attribute then [ w ]
        else ancestors_or_self store w
      in
      List.iter
        (fun n ->
          let inert =
            match ops.Indexer.absorbing with
            | Some z ->
                ops.Indexer.equal (Indexer.get before n) z
                && ops.Indexer.equal (Indexer.get fields n) z
            | None -> false
          in
          if (not inert) && not (Hashtbl.mem touched n) then
            Alcotest.failf "%s: node %d missing from touched" what n)
        chain)
    written

let apply_step db packs step =
  let store = Db.store db in
  let written, structural, fresh =
    match step with
    | Texts updates ->
        Db.update_texts db updates;
        (List.map fst updates, [], [])
    | Insert (parent, src) -> (
        match Db.insert_xml db ~parent src with
        | Ok roots -> ([], [ parent ], roots)
        | Error e -> Alcotest.failf "insert: %s" (Parser.error_to_string e))
    | Delete n ->
        let parent = Option.get (Store.parent store n) in
        Db.delete_subtree db n;
        ([], [ parent ], [])
  in
  let fr = Indexer.frontier store ~texts:written ~structural () in
  List.iter
    (fun (Indexer.Packed (ops, fields)) ->
      List.iter (Indexer.compute_subtree ops store fields) fresh;
      let before = Indexer.snapshot fields in
      let res = Indexer.maintain ops store fields fr in
      check_result ops store ~before fields ~written:(written @ structural) res)
    packs;
  (match Db.validate db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Db.validate: %s" e);
  Alcotest.(check string)
    "digest = rebuild" (Db.digest (Db.of_store (Store.snapshot store)))
    (Db.digest db)

let element_named store name =
  List.find
    (fun n -> Store.kind store n = Store.Element && Store.name store n = name)
    (Store.children store (Option.get (Store.first_child store Store.document)))

let child_texts store e =
  Array.of_list
    (List.filter (fun c -> Store.kind store c = Store.Text) (Store.children store e))

let test_update_property () =
  for seed = 1 to 4 do
    let rng = Prng.create (3000 + seed) in
    let db =
      match Db.of_xml (wide_doc rng) with
      | Ok db -> db
      | Error e -> Alcotest.failf "parse: %s" (Parser.error_to_string e)
    in
    let store = Db.store db in
    let packs = machines store in
    let d = child_texts store (element_named store "d") in
    let w = child_texts store (element_named store "w") in
    let e = element_named store "e" in
    let vs = Array.of_list (Store.children store e) in
    let attrs = Array.of_list (Store.attributes store (element_named store "a")) in
    let last = wide - 1 and mid = wide / 2 in
    let v i = Option.get (Store.first_child store vs.(i)) in
    let same_mod_27 s = s ^ String.make 27 'q' in
    let steps =
      [
        (* one changed child, first / middle / last *)
        Texts [ (d.(0), "7") ];
        Texts [ (d.(mid), "3") ];
        Texts [ (d.(last), "9") ];
        Texts [ (w.(0), "first") ];
        Texts [ (w.(mid + 1), "middle") ];
        Texts [ (w.(last), "last") ];
        Texts [ (v 0, "1.5") ];
        Texts [ (v mid, "2.5") ];
        Texts [ (v last, "3.5") ];
        (* two changed children under one parent *)
        Texts [ (d.(1), "4"); (d.(last - 1), "2") ];
        Texts [ (w.(3), "x"); (w.(mid), "y") ];
        (* a rewrite to the same text, and a same-length-mod-27 value *)
        Texts [ (w.(7), Store.text store w.(7)) ];
        Texts [ (d.(5), Store.text store d.(5)) ];
        Texts [ (w.(9), same_mod_27 (Store.text store w.(9))) ];
        (* castability flips both ways *)
        Texts [ (d.(mid), "x") ];
        Texts [ (d.(mid), "8") ];
        Texts [ (v 3, "2009-03-24T10:00:00") ];
        Texts [ (v 3, "12.75") ];
        (* attribute writes *)
        Texts [ (attrs.(0), "abc") ];
        Texts [ (attrs.(1), "12") ];
        Texts [ (attrs.(2), "2010-01-01T00:00:00"); (w.(11), "both") ];
        (* structural insert and delete parents *)
        Insert (e, "<v>42</v><v>4.2<z>x</z></v>");
        Insert (element_named store "d", "17");
        Delete vs.(mid);
        Delete vs.(0);
      ]
    in
    List.iter (apply_step db packs) steps;
    (* and a random multi-write trace over the whole document *)
    for _ = 1 to 8 do
      let texts = Store.text_nodes store in
      let k = 1 + Prng.int rng 12 in
      let picks = Prng.sample_distinct rng k (Array.length texts) in
      apply_step db packs
        (Texts
           (Array.to_list
              (Array.map
                 (fun i ->
                   ( texts.(i),
                     match Prng.int rng 4 with
                     | 0 -> string_of_int (Prng.int rng 100)
                     | 1 -> "2009-03-24T10:00:00"
                     | 2 -> Store.text store texts.(i)
                     | _ -> Printf.sprintf "t%d" (Prng.int rng 1000) ))
                 picks)))
    done
  done

let test_update_attribute_no_propagation () =
  let store = Parser.parse_exn "<a x=\"old\"><b>t</b></a>" in
  let fields = Indexer.create Indexer.hash_ops store in
  let a = Option.get (Store.first_child store Store.document) in
  let attr = List.hd (Store.attributes store a) in
  let root_before = Indexer.get fields a in
  Store.set_text store attr "new";
  let result = Indexer.update Indexer.hash_ops store fields ~texts:[ attr ] () in
  Alcotest.(check int) "only the attribute changed" 1
    (List.length result.Indexer.changes);
  Alcotest.(check bool) "element hash untouched" true
    (Hash.equal root_before (Indexer.get fields a));
  Alcotest.(check bool) "attribute hash correct" true
    (Hash.equal (Hash.hash "new") (Indexer.get fields attr))

let test_update_touched_includes_unchanged_states () =
  (* "78" -> "80" keeps the SCT state; the touched list must still cover
     the node and its ancestors *)
  let store = Parser.parse_exn "<w><k>78</k>.<g>230</g></w>" in
  let spec = Xvi_core.Lexical_types.double () in
  let ops = Indexer.sct_ops spec.Xvi_core.Lexical_types.sct in
  let fields = Indexer.create ops store in
  let texts = Store.text_nodes store in
  Store.set_text store texts.(0) "80";
  let result = Indexer.update ops store fields ~texts:[ texts.(0) ] () in
  Alcotest.(check int) "no state changes" 0 (List.length result.Indexer.changes);
  (* touched: the text, <k>, <w>, document *)
  Alcotest.(check int) "touched count" 4 (List.length result.Indexer.touched);
  let levels = List.map snd result.Indexer.touched in
  Alcotest.(check (list int)) "deepest first" [ 3; 2; 1; 0 ] levels

let test_structural_update () =
  let store = Parser.parse_exn "<a><b>x</b><c>y</c></a>" in
  let fields = Indexer.create Indexer.hash_ops store in
  let a = Option.get (Store.first_child store Store.document) in
  let b = List.hd (Store.children store a) in
  Store.delete_subtree store b;
  let result =
    Indexer.update Indexer.hash_ops store fields ~texts:[] ~structural:[ a ] ()
  in
  ignore result;
  Alcotest.(check bool) "root hash reflects deletion" true
    (Hash.equal (Hash.hash "y") (Indexer.get fields a))

let test_compute_subtree () =
  let store = Parser.parse_exn "<a><b>x</b></a>" in
  let fields = Indexer.create Indexer.hash_ops store in
  let a = Option.get (Store.first_child store Store.document) in
  (match Parser.parse_fragment store ~parent:a "<c>new<d>stuff</d></c>" with
  | Ok [ c ] ->
      Indexer.compute_subtree Indexer.hash_ops store fields c;
      Alcotest.(check bool) "subtree root" true
        (Hash.equal (Hash.hash "newstuff") (Indexer.get fields c));
      let result =
        Indexer.update Indexer.hash_ops store fields ~texts:[] ~structural:[ a ] ()
      in
      ignore result;
      Alcotest.(check bool) "parent recombined" true
        (Hash.equal (Hash.hash "xnewstuff") (Indexer.get fields a))
  | Ok _ -> Alcotest.fail "expected one root"
  | Error e -> Alcotest.failf "fragment: %s" (Xvi_xml.Parser.error_to_string e))

let () =
  Alcotest.run "indexer"
    [
      ( "create",
        [
          Alcotest.test_case "person document" `Quick test_create_person;
          Alcotest.test_case "empty document" `Quick test_create_empty_document;
          Alcotest.test_case "textless subtrees" `Quick test_create_no_text_subtrees;
          Alcotest.test_case "matches reference (random)" `Quick
            test_create_matches_reference_random;
          Alcotest.test_case "shared pass = individual passes" `Quick
            test_shared_pass_matches_individual;
        ] );
      ( "update",
        [
          Alcotest.test_case "equals rebuild (random)" `Quick test_update_equals_rebuild;
          Alcotest.test_case "shared frontier, three machines (property)" `Quick
            test_update_property;
          Alcotest.test_case "attribute no propagation" `Quick
            test_update_attribute_no_propagation;
          Alcotest.test_case "touched covers state-stable value changes" `Quick
            test_update_touched_includes_unchanged_states;
          Alcotest.test_case "structural" `Quick test_structural_update;
          Alcotest.test_case "compute subtree" `Quick test_compute_subtree;
        ] );
    ]
