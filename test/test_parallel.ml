(* Parallel index construction: a Db built on 1, 2, 4 or 8 domains
   (posting and typed-value collection per node-id slice, after the one
   serial field pass) must digest identically, with every field equal
   to the reference recursive definition, for any document — pinned
   down by a qcheck property over generated documents. Also covers the
   Pool primitive itself, Db.Config-driven parallel builds followed by
   updates, and the deprecated legacy wrappers. *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Indexer = Xvi_core.Indexer
module Hash = Xvi_core.Hash
module Db = Xvi_core.Db
module Pool = Xvi_util.Pool
module Prng = Xvi_util.Prng

let double_sct = (Xvi_core.Lexical_types.double ()).Xvi_core.Lexical_types.sct

let datetime_sct =
  (Xvi_core.Lexical_types.datetime ()).Xvi_core.Lexical_types.sct

(* --- document generation: plenty of nasty shapes --- *)

(* Mixed content, empty elements, attribute-only elements, comments,
   deep chains; text pulled from lexical fragments of xs:double so the
   SCT machines see viable and rejected content alike. *)
let random_doc rng =
  let buf = Buffer.create 512 in
  let texts =
    [| "alpha"; "42"; "3.14"; "."; "E+9"; "-"; "x y"; "0"; "left right";
       "2004-07-15T08:30:00Z"; "" |]
  in
  let rec element depth =
    let name = Printf.sprintf "n%d" (Prng.int rng 6) in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    if Prng.int rng 4 = 0 then
      Buffer.add_string buf
        (Printf.sprintf " a%d=\"%s\"" (Prng.int rng 3)
           texts.(Prng.int rng (Array.length texts - 2)));
    if Prng.int rng 6 = 0 then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      let children = Prng.int rng (if depth > 5 then 2 else 4) in
      for _ = 1 to children do
        match Prng.int rng 5 with
        | 0 | 1 ->
            Buffer.add_string buf
              (Xvi_xml.Serializer.escape_text
                 texts.(Prng.int rng (Array.length texts)));
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

let store_of_seed seed =
  (* every fifth document is a small XMark instance, the rest are
     adversarial random shapes *)
  if seed mod 5 = 0 then
    Parser.parse_exn (Xvi_workload.Xmark.generate ~seed ~factor:0.002 ())
  else Parser.parse_exn ~strip_ws:false (random_doc (Prng.create seed))

(* --- the bit-identity property --- *)

(* Build the Db at each job count: every digest must equal the serial
   one, and every node's hash and both SCT states must equal the
   reference fields, bitwise (fields are ints in every machine, so [=]
   is bit equality). *)
let check_parallel_build store jobs_list =
  let config jobs =
    {
      Db.Config.default with
      Db.Config.types = Xvi_core.Lexical_types.[ double (); datetime () ];
      jobs;
    }
  in
  let serial = Db.digest (Db.of_store ~config:(config 1) store) in
  let hash_ref = Indexer.create_reference Indexer.hash_ops store in
  let d_ref = Indexer.create_reference (Indexer.sct_ops double_sct) store in
  let t_ref = Indexer.create_reference (Indexer.sct_ops datetime_sct) store in
  List.for_all
    (fun jobs ->
      let db = Db.of_store ~config:(config jobs) store in
      let si = Db.string_index db in
      let state name n =
        Xvi_core.Typed_index.state_of (Option.get (Db.typed_index db name)) n
      in
      let ok = ref (String.equal serial (Db.digest db)) in
      Store.iter_pre store (fun n ->
          if
            Hash.to_int (Xvi_core.String_index.hash_of si n)
            <> Hash.to_int (Indexer.get hash_ref n)
            || state "xs:double" n <> Indexer.get d_ref n
            || state "xs:dateTime" n <> Indexer.get t_ref n
          then ok := false);
      !ok)
    jobs_list

let qcheck_parallel_identical =
  QCheck.Test.make ~count:60
    ~name:"parallel Db.of_store bit-identical to reference (jobs 1/2/4/8)"
    QCheck.(int_range 1 10_000)
    (fun seed -> check_parallel_build (store_of_seed seed) [ 1; 2; 4; 8 ])

(* --- edge-case documents, checked deterministically --- *)

let test_parallel_edge_docs () =
  List.iter
    (fun doc ->
      let store = Parser.parse_exn ~strip_ws:false doc in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d jobs" doc jobs)
            true
            (check_parallel_build store [ jobs ]))
        [ 1; 2; 3; 4; 8; 17 ])
    [
      "<a/>";
      "<a x=\"1\"/>";
      "<a><b/><c/><d/></a>";
      "<a>42</a>";
      "<person><name><first>Arthur</first><family>Dent</family></name>\
       <birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age>\
       <weight><kilos>78</kilos>.<grams>230</grams></weight></person>";
      (* more chunks than texts *)
      "<r><a>1</a><b>2</b></r>";
    ]

(* --- Db-level parallel build: indices + postings, then updates --- *)

let test_db_parallel_build_and_update () =
  let xml = Xvi_workload.Xmark.generate ~seed:77 ~factor:0.01 () in
  let serial = Db.of_xml_exn xml in
  List.iter
    (fun jobs ->
      let config = { Db.Config.default with Db.Config.jobs } in
      let db = Db.of_xml_exn ~config xml in
      let store = Db.store db in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d stored config" jobs)
        jobs
        (Db.config db).Db.Config.jobs;
      (* same lookup answers as the serial database *)
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d string lookup" jobs)
        (Db.lookup_string serial "Creditcard")
        (Db.lookup_string db "Creditcard");
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d double range" jobs)
        (Db.lookup_double serial (Db.Range.between 0.0 100.0))
        (Db.lookup_double db (Db.Range.between 0.0 100.0));
      (match Db.validate db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "jobs=%d validate: %s" jobs e);
      (* the parallel-built database takes incremental updates cleanly *)
      let updates =
        Xvi_workload.Update_workload.random_text_updates ~seed:jobs store
          ~count:50
      in
      Db.update_texts db updates;
      match Db.validate db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "jobs=%d validate after updates: %s" jobs e)
    [ 2; 4 ]

let test_range_constructors () =
  let xml = "<r><a>1</a><b>5</b><c>9</c></r>" in
  let db = Db.of_xml_exn xml in
  let count r = List.length (Db.lookup_double db r) in
  (* each value hits a text node and its element parent; <r> and the
     document node concatenate to "159", itself a complete double *)
  Alcotest.(check int) "any" 8 (count Db.Range.any);
  Alcotest.(check int) "between" 2 (count (Db.Range.between 5.0 5.0));
  Alcotest.(check int) "at_least" 6 (count (Db.Range.at_least 5.0));
  Alcotest.(check int) "at_most" 4 (count (Db.Range.at_most 5.0));
  Alcotest.(check (option (float 0.0))) "lo" (Some 5.0)
    (Db.Range.lo (Db.Range.at_least 5.0));
  Alcotest.(check (option (float 0.0))) "hi" None
    (Db.Range.hi (Db.Range.at_least 5.0))

(* --- the pool primitive --- *)

let test_pool_map_deterministic () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for n = 0 to 40 do
        let got = Pool.map pool (fun i -> i * i) n in
        Alcotest.(check (array int))
          (Printf.sprintf "map %d" n)
          (Array.init n (fun i -> i * i))
          got
      done;
      (* reusable across calls *)
      Alcotest.(check (array int)) "reuse" [| 0; 1; 2 |]
        (Pool.map pool (fun i -> i) 3))

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.check_raises "task failure re-raised" (Failure "task 5")
        (fun () ->
          ignore
            (Pool.map pool
               (fun i -> if i = 5 then failwith "task 5" else i)
               8));
      (* the pool survives a failed batch *)
      Alcotest.(check (array int)) "pool still works" [| 0; 1 |]
        (Pool.map pool (fun i -> i) 2))

let test_pool_slices () =
  List.iter
    (fun (n, k) ->
      let s = Pool.slices n k in
      Alcotest.(check int) "slice count" (max k 1) (Array.length s);
      let covered = ref 0 in
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "ordered" true (lo <= hi);
          if i = 0 then Alcotest.(check int) "starts at 0" 0 lo
          else Alcotest.(check int) "contiguous" (snd s.(i - 1)) lo;
          covered := !covered + (hi - lo))
        s;
      Alcotest.(check int) (Printf.sprintf "covers [0,%d)" n) n !covered)
    [ (0, 1); (0, 4); (1, 4); (10, 3); (100, 7); (5, 5); (3, 8) ]

(* --- the Config record drives construction like the defaults do --- *)

let test_config_construction () =
  let xml = "<r><a>1.5</a><b>hello</b><c at=\"7\">x</c></r>" in
  let db = Db.of_xml_exn xml in
  let custom =
    Db.of_xml_exn
      ~config:{ Db.Config.default with Db.Config.substring = true }
      xml
  in
  Alcotest.(check (list int))
    "custom-config lookup_double = default"
    (Db.lookup_double db (Db.Range.between 1.0 2.0))
    (Db.lookup_double custom (Db.Range.between 1.0 2.0));
  Alcotest.(check (list int))
    "custom-config lookup_typed = default"
    (Db.lookup_typed db "xs:double" Db.Range.any)
    (Db.lookup_typed custom "xs:double" Db.Range.any);
  Alcotest.(check bool) "substring flag built the index" true
    (Db.substring_index custom <> None);
  match Db.validate custom with
  | Ok () -> ()
  | Error e -> Alcotest.failf "custom-config validate: %s" e

(* --- snapshot reload with a config rebuild --- *)

let test_snapshot_load_with_config () =
  let xml = Xvi_workload.Xmark.generate ~seed:5 ~factor:0.005 () in
  let db = Db.of_xml_exn xml in
  let path = Filename.temp_file "xvi_parallel" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xvi_core.Snapshot.save db path;
      let config =
        { Db.Config.default with Db.Config.substring = true; jobs = 4 }
      in
      let db2 = Xvi_core.Snapshot.load_exn ~config path in
      Alcotest.(check bool) "substring index built on reload" true
        (Db.substring_index db2 <> None);
      Alcotest.(check (list int))
        "reloaded answers agree"
        (Db.lookup_string db "Creditcard")
        (Db.lookup_string db2 "Creditcard");
      match Db.validate db2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reloaded validate: %s" e)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map is deterministic" `Quick
            test_pool_map_deterministic;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "slices partition" `Quick test_pool_slices;
        ] );
      ( "bit-identity",
        [
          QCheck_alcotest.to_alcotest qcheck_parallel_identical;
          Alcotest.test_case "edge documents" `Quick test_parallel_edge_docs;
        ] );
      ( "db",
        [
          Alcotest.test_case "parallel build + updates" `Quick
            test_db_parallel_build_and_update;
          Alcotest.test_case "Range constructors" `Quick test_range_constructors;
          Alcotest.test_case "config construction" `Quick
            test_config_construction;
          Alcotest.test_case "snapshot reload with config" `Quick
            test_snapshot_load_with_config;
        ] );
    ]
