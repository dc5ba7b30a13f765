(* xvi-lint over the fixture corpus: every rule has one fixture that
   must fire (with the exact rule ids and line numbers asserted) and
   one that must stay quiet, plus the A0 meta-rule on a reasonless
   allow.  Fixtures live in [lint_fixtures/] as data (never compiled),
   so a fixture deliberately full of violations cannot break the
   build.  The deep (Typedtree) fixtures under [lint_fixtures/deep/]
   go through [Deep.analyze_sources], which typechecks them in-process
   — they stub the project modules (Bigvec, Engine, Wal, Unix) locally
   so the checker's name-based classification pairs them up exactly
   like the real tree. *)

module Lint = Xvi_lint_lib.Lint
module Deep = Xvi_lint_deep.Deep

let fixture name = Filename.concat "lint_fixtures" name

(* (rule id, 1-based line) pairs, sorted, so a test failure prints the
   complete delta rather than the first mismatch. *)
let findings_of name =
  match Lint.lint_file ~in_lib:true (fixture name) with
  | Error e -> Alcotest.failf "fixture %s failed to parse: %s" name e
  | Ok fs ->
      List.sort compare
        (List.map (fun f -> (Lint.rule_id f.Lint.rule, f.Lint.line)) fs)

let check name expected () =
  Alcotest.(check (list (pair string int)))
    name (List.sort compare expected) (findings_of name)

let fires name expected = Alcotest.test_case (name ^ " fires") `Quick (check name expected)
let quiet name = Alcotest.test_case (name ^ " quiet") `Quick (check name [])

(* -- deep stage ---------------------------------------------------- *)

let deep_fixture name = Filename.concat (fixture "deep") name

let deep_findings name =
  match Deep.analyze_sources [ deep_fixture name ] with
  | Error e -> Alcotest.failf "deep fixture %s failed to typecheck: %s" name e
  | Ok fs -> fs

let deep_check name expected () =
  Alcotest.(check (list (pair string int)))
    name
    (List.sort compare expected)
    (List.sort compare
       (List.map
          (fun f -> (Lint.rule_id f.Lint.rule, f.Lint.line))
          (deep_findings name)))

let deep_fires name expected =
  Alcotest.test_case (name ^ " fires") `Quick (deep_check name expected)

let deep_quiet name =
  Alcotest.test_case (name ^ " quiet") `Quick (deep_check name [])

(* The witness chain is the analysis' evidence: assert its endpoints —
   the entry point it starts from and the primitive-effect site it ends
   at — for one finding per rule. *)
let deep_witness name ~rule ~line ~first ~last =
  Alcotest.test_case
    (Printf.sprintf "%s witness %s:%d" name rule line)
    `Quick
    (fun () ->
      match
        List.find_opt
          (fun f -> Lint.rule_id f.Lint.rule = rule && f.Lint.line = line)
          (deep_findings name)
      with
      | None -> Alcotest.failf "no %s finding at line %d" rule line
      | Some f -> (
          match f.Lint.witness with
          | [] -> Alcotest.fail "finding carries no witness"
          | w ->
              let fn (n, _, _) = n in
              Alcotest.(check string) "chain head" first (fn (List.hd w));
              Alcotest.(check string)
                "chain tail" last
                (fn (List.nth w (List.length w - 1)))))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          fires "r1_fire.ml" [ ("R1", 4); ("R1", 8) ];
          quiet "r1_quiet.ml";
          fires "r2_fire.ml" [ ("R2", 2); ("R2", 3); ("R2", 4) ];
          quiet "r2_quiet.ml";
          fires "r3_fire.ml" [ ("R3", 2); ("R3", 3) ];
          quiet "r3_quiet.ml";
          fires "r4_fire.ml" [ ("R4", 3) ];
          quiet "r4_quiet.ml";
          fires "r5_fire.ml" [ ("R5", 2) ];
          quiet "r5_quiet.ml";
          fires "r6_fire.ml" [ ("R6", 2); ("R6", 3) ];
          quiet "r6_quiet.ml";
        ] );
      ( "allow",
        [
          fires "allow_reasonless.ml" [ ("A0", 3); ("R2", 3) ];
          Alcotest.test_case "allow carries reason through to_string" `Quick
            (fun () ->
              match Lint.lint_file ~in_lib:true (fixture "r2_fire.ml") with
              | Error e -> Alcotest.failf "parse: %s" e
              | Ok (f :: _) ->
                  let s = Lint.to_string f in
                  Alcotest.(check bool)
                    "rendered finding names its rule" true
                    (String.length s > 0
                    && String.sub s 0 (String.length (fixture "r2_fire.ml"))
                       = fixture "r2_fire.ml")
              | Ok [] -> Alcotest.fail "r2_fire.ml produced no findings");
        ] );
      ( "deep rules",
        [
          deep_fires "d1_fire.ml" [ ("D1", 14); ("D1", 17); ("D1", 20) ];
          deep_witness "d1_fire.ml" ~rule:"D1" ~line:17 ~first:"D1_fire.insert"
            ~last:"Bigvec.set";
          deep_quiet "d1_quiet.ml";
          deep_fires "d2_fire.ml" [ ("D2", 22); ("D2", 29) ];
          deep_witness "d2_fire.ml" ~rule:"D2" ~line:22
            ~first:"D2_fire.publish_then_touch" ~last:"Bigvec.set";
          deep_quiet "d2_quiet.ml";
          deep_fires "d2_tree_fire.ml" [ ("D2", 23); ("D2", 29) ];
          deep_witness "d2_tree_fire.ml" ~rule:"D2" ~line:23
            ~first:"D2_tree_fire.publish_then_insert" ~last:"Btree.insert";
          deep_quiet "d2_tree_quiet.ml";
          deep_fires "d3_fire.ml" [ ("D3", 11); ("D3", 17); ("D3", 20) ];
          deep_witness "d3_fire.ml" ~rule:"D3" ~line:11
            ~first:"D3_fire.commit_no_fsync" ~last:"D3_fire.replica_apply";
          deep_quiet "d3_quiet.ml";
          deep_fires "d4_fire.ml" [ ("D4", 15) ];
          deep_witness "d4_fire.ml" ~rule:"D4" ~line:15
            ~first:"D4_fire.Wal.encode" ~last:"D4_fire.Wal.parse_payload";
          deep_quiet "d4_quiet.ml";
          (* a reasoned allow suppresses; a reasonless one is A0 and
             suppresses nothing *)
          deep_fires "d1_allowed.ml" [ ("A0", 15); ("D1", 15) ];
        ] );
      ( "historical shapes",
        [
          deep_fires "hist_flusher_publish.ml" [ ("D1", 20) ];
          deep_fires "hist_cow_publish.ml" [ ("D2", 20) ];
          deep_fires "hist_group_ack.ml" [ ("D3", 14) ];
          deep_fires "hist_wal_tag8.ml" [ ("D4", 28) ];
          deep_witness "hist_wal_tag8.ml" ~rule:"D4" ~line:28
            ~first:"Hist_wal_tag8.Wal.encode"
            ~last:"Hist_wal_tag8.Wal.parse_payload";
        ] );
    ]
