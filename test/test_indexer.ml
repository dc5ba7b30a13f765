(* Tests for the creation (Figure 7) and update (Figure 8) skeleton
   algorithms: the single-pass stack-driven creation must agree with the
   obviously-correct recursive definition on arbitrary documents, and
   updates must leave fields identical to a from-scratch rebuild. *)

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

let test_create_multi_matches_individual () =
  (* one shared pass (paper Section 5) computes the same fields as
     separate passes, for machines of different field types *)
  for seed = 1 to 30 do
    let rng = Prng.create (500 + seed) in
    let store = Parser.parse_exn ~strip_ws:false (random_doc rng) in
    let spec = Xvi_core.Lexical_types.double () in
    let sct_ops = Indexer.sct_ops spec.Xvi_core.Lexical_types.sct in
    let hash_fields = Indexer.empty_fields Indexer.hash_ops in
    let state_fields = Indexer.empty_fields sct_ops in
    Indexer.create_multi store
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
            test_create_multi_matches_individual;
        ] );
      ( "update",
        [
          Alcotest.test_case "equals rebuild (random)" `Quick test_update_equals_rebuild;
          Alcotest.test_case "attribute no propagation" `Quick
            test_update_attribute_no_propagation;
          Alcotest.test_case "touched covers state-stable value changes" `Quick
            test_update_touched_includes_unchanged_states;
          Alcotest.test_case "structural" `Quick test_structural_update;
          Alcotest.test_case "compute subtree" `Quick test_compute_subtree;
        ] );
    ]
