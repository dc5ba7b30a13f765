(* Transaction layer tests (paper Section 5.1): the commutative-commit
   property — any commit order of disjoint transactions produces the
   same indices — plus conflict detection and bookkeeping. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Txn = Xvi_txn.Txn
module Prng = Xvi_util.Prng

let fresh_db seed =
  Db.of_xml_exn (Xvi_workload.Xmark.generate ~seed ~factor:0.01 ())

let ok = function
  | Ok () -> ()
  | Error (c : Txn.conflict) -> Alcotest.failf "unexpected conflict: %s" c.Txn.reason

(* update_text returns a result since the stats/lifecycle redesign *)
let write t n v =
  match Txn.update_text t n v with
  | Ok () -> ()
  | Error `Finished -> Alcotest.fail "write: transaction already finished"
  | Error `Not_text -> Alcotest.fail "write: not a text or attribute node"

(* A canonical fingerprint of index contents: every node's string-index
   hash and double-index state/value. *)
let fingerprint db =
  let store = Db.store db in
  let si = Db.string_index db in
  let ti = Option.get (Db.typed_index db "xs:double") in
  let buf = Buffer.create 4096 in
  Store.iter_pre store (fun n ->
      match Store.kind store n with
      | Store.Element | Store.Text | Store.Attribute | Store.Document ->
          Buffer.add_string buf
            (Printf.sprintf "%d:%d:%d:%s;" n
               (Xvi_core.Hash.to_int (Xvi_core.String_index.hash_of si n))
               (Xvi_core.Typed_index.state_of ti n)
               (match Xvi_core.Typed_index.value_of ti n with
               | Some v -> Printf.sprintf "%h" v
               | None -> "-"))
      | _ -> ());
  Digest.string (Buffer.contents buf)

let test_basic_commit () =
  let db = fresh_db 21 in
  let mgr = Txn.manager db in
  let store = Db.store db in
  let texts = Store.text_nodes store in
  let t = Txn.begin_ mgr in
  write t texts.(0) "updated value";
  Alcotest.(check int) "write set" 1 (List.length (Txn.write_set t));
  ok (Txn.commit t);
  Alcotest.(check string) "applied" "updated value" (Store.text store texts.(0));
  (match Db.validate db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  let st = Txn.stats mgr in
  Alcotest.(check int) "committed" 1 st.Txn.committed;
  Alcotest.(check int) "no conflicts" 0 st.Txn.conflicts

let test_write_write_conflict () =
  let db = fresh_db 22 in
  let mgr = Txn.manager db in
  let texts = Store.text_nodes (Db.store db) in
  let t1 = Txn.begin_ mgr and t2 = Txn.begin_ mgr in
  write t1 texts.(5) "one";
  write t2 texts.(5) "two";
  ok (Txn.commit t1);
  (match Txn.commit t2 with
  | Ok () -> Alcotest.fail "expected a conflict"
  | Error c -> Alcotest.(check int) "conflicting node" texts.(5) c.Txn.node);
  let st = Txn.stats mgr in
  Alcotest.(check int) "aborted" 1 st.Txn.aborted;
  Alcotest.(check int) "conflicts" 1 st.Txn.conflicts;
  Alcotest.(check string) "first committer wins" "one"
    (Store.text (Db.store db) texts.(5))

let test_no_conflict_on_shared_ancestors () =
  (* two transactions updating different children of the same parent —
     both touch the same ancestors, neither conflicts (the paper's
     no-ancestor-locks claim) *)
  let db = Db.of_xml_exn "<a><b>x</b><c>y</c></a>" in
  let mgr = Txn.manager db in
  let texts = Store.text_nodes (Db.store db) in
  let t1 = Txn.begin_ mgr and t2 = Txn.begin_ mgr in
  write t1 texts.(0) "X";
  write t2 texts.(1) "Y";
  ok (Txn.commit t1);
  ok (Txn.commit t2);
  Alcotest.(check string) "root value" "XY"
    (Store.string_value (Db.store db)
       (Option.get (Store.first_child (Db.store db) Store.document)));
  match Db.validate db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e

let test_commutativity () =
  (* same transactions, four different commit orders, identical indices *)
  let fingerprints =
    List.map
      (fun perm ->
        let db = fresh_db 23 in
        let mgr = Txn.manager db in
        let texts = Store.text_nodes (Db.store db) in
        let mk lo =
          let t = Txn.begin_ mgr in
          for i = lo to lo + 9 do
            write t texts.(i * 3) (Printf.sprintf "v%d" i)
          done;
          t
        in
        let ts = [| mk 0; mk 10; mk 20 |] in
        List.iter (fun i -> ok (Txn.commit ts.(i))) perm;
        (match Db.validate db with
        | Ok () -> ()
        | Error e -> Alcotest.failf "validate: %s" e);
        fingerprint db)
      [ [ 0; 1; 2 ]; [ 2; 1; 0 ]; [ 1; 0; 2 ]; [ 0; 2; 1 ] ]
  in
  match fingerprints with
  | f :: rest ->
      List.iteri
        (fun i f' ->
          Alcotest.(check string) (Printf.sprintf "order %d agrees" i) f f')
        rest
  | [] -> Alcotest.fail "no fingerprints"

let test_random_interleavings () =
  (* many small transactions over random disjoint victim sets, committed
     in a random order, always equal a serial replay *)
  for seed = 1 to 10 do
    let rng = Prng.create (400 + seed) in
    let db = fresh_db 24 in
    let store = Db.store db in
    let texts = Store.text_nodes store in
    let n_txns = 6 in
    let victims =
      Prng.sample_distinct rng (n_txns * 5) (Array.length texts)
    in
    let mgr = Txn.manager db in
    let txns =
      Array.init n_txns (fun t ->
          let txn = Txn.begin_ mgr in
          for i = 0 to 4 do
            write txn
              texts.(victims.((t * 5) + i))
              (Printf.sprintf "s%d-t%d-%d" seed t i)
          done;
          txn)
    in
    let order = Array.init n_txns (fun i -> i) in
    Prng.shuffle rng order;
    Array.iter (fun i -> ok (Txn.commit txns.(i))) order;
    (match Db.validate db with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d validate: %s" seed e)
  done

let test_abort_and_finished_txns () =
  let db = fresh_db 25 in
  let mgr = Txn.manager db in
  let texts = Store.text_nodes (Db.store db) in
  let t = Txn.begin_ mgr in
  let old = Store.text (Db.store db) texts.(0) in
  write t texts.(0) "never applied";
  Txn.abort t;
  Alcotest.(check string) "abort leaves store untouched" old
    (Store.text (Db.store db) texts.(0));
  Alcotest.check_raises "commit after abort"
    (Invalid_argument "Txn.commit: transaction is finished") (fun () ->
      ignore (Txn.commit t));
  (match Txn.update_text t texts.(0) "x" with
  | Error `Finished -> ()
  | _ -> Alcotest.fail "write after abort should report `Finished");
  let t2 = Txn.begin_ mgr in
  (match Txn.update_text t2 Store.document "x" with
  | Error `Not_text -> ()
  | _ -> Alcotest.fail "element write should report `Not_text");
  let st = Txn.stats mgr in
  Alcotest.(check int) "explicit abort counted" 1 st.Txn.aborted;
  Alcotest.(check int) "explicit abort is not a conflict" 0 st.Txn.conflicts

(* A commit whose only write was refused leaves an empty write set:
   it is counted apart from the commits that reached the indices. *)
let test_empty_commit_counted_apart () =
  let db = fresh_db 27 in
  let mgr = Txn.manager db in
  let before = Db.digest db in
  let t = Txn.begin_ mgr in
  (match Txn.update_text t Store.document "x" with
  | Error `Not_text -> ()
  | _ -> Alcotest.fail "element write should report `Not_text");
  ok (Txn.commit t);
  let st = Txn.stats mgr in
  Alcotest.(check int) "not a commit" 0 st.Txn.committed;
  Alcotest.(check int) "an empty commit" 1 st.Txn.empty;
  Alcotest.(check int) "not an abort" 0 st.Txn.aborted;
  Alcotest.(check string) "nothing applied" before (Db.digest db)

let test_structural_delete_conflicts () =
  (* Db.delete_subtree bypasses the version table; the commit-time kind
     re-check must catch a write whose node was tombstoned after
     update_text validated it *)
  let db = Db.of_xml_exn "<a><b>x</b><c>y</c></a>" in
  let mgr = Txn.manager db in
  let store = Db.store db in
  let texts = Store.text_nodes store in
  let t = Txn.begin_ mgr in
  write t texts.(0) "doomed";
  Db.delete_subtree db (Option.get (Store.parent store texts.(0)));
  (match Txn.commit t with
  | Ok () -> Alcotest.fail "committed a write to a deleted node"
  | Error c -> Alcotest.(check int) "conflicting node" texts.(0) c.Txn.node);
  let st = Txn.stats mgr in
  Alcotest.(check int) "counted as conflict" 1 st.Txn.conflicts;
  Alcotest.(check int) "counted as abort" 1 st.Txn.aborted;
  match Db.validate db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e

(* Drive many random interleavings and require the manager's counters to
   reconcile exactly with what the driver observed: every begun
   transaction ends up committed or aborted, and [conflicts] counts
   precisely the commits lost to first-committer-wins (never explicit
   aborts). *)
let test_stats_reconcile () =
  for round = 0 to 19 do
    let rng = Prng.create (900 + round) in
    let db = fresh_db 26 in
    let store = Db.store db in
    let texts = Store.text_nodes store in
    let mgr = Txn.manager db in
    let n_txns = 2 + Prng.int rng 5 in
    let txns =
      Array.init n_txns (fun _ ->
          let t = Txn.begin_ mgr in
          for _ = 0 to Prng.int rng 3 do
            (* a small victim pool so overlap is common *)
            write t texts.(Prng.int rng 5) (string_of_int (Prng.int rng 100))
          done;
          t)
    in
    let committed = ref 0 and aborted = ref 0 and conflicts = ref 0 in
    Array.iter
      (fun t ->
        if Prng.int rng 4 = 0 then begin
          Txn.abort t;
          incr aborted
        end
        else
          match Txn.commit t with
          | Ok () -> incr committed
          | Error _ ->
              incr aborted;
              incr conflicts)
      txns;
    let st = Txn.stats mgr in
    Alcotest.(check int) "committed" !committed st.Txn.committed;
    Alcotest.(check int) "aborted" !aborted st.Txn.aborted;
    Alcotest.(check int) "conflicts" !conflicts st.Txn.conflicts;
    Alcotest.(check int) "every transaction accounted for" n_txns
      (st.Txn.committed + st.Txn.empty + st.Txn.aborted);
    (* the finished transactions must refuse further writes *)
    Array.iter
      (fun t ->
        match Txn.update_text t texts.(0) "late" with
        | Error `Finished -> ()
        | _ -> Alcotest.fail "write after commit/abort should report `Finished")
      txns;
    Alcotest.(check (result unit string)) "indices validate" (Ok ())
      (Db.validate db)
  done

let () =
  Alcotest.run "txn"
    [
      ( "txn",
        [
          Alcotest.test_case "basic commit" `Quick test_basic_commit;
          Alcotest.test_case "write-write conflict" `Quick test_write_write_conflict;
          Alcotest.test_case "shared ancestors ok" `Quick test_no_conflict_on_shared_ancestors;
          Alcotest.test_case "commutativity" `Quick test_commutativity;
          Alcotest.test_case "random interleavings" `Quick test_random_interleavings;
          Alcotest.test_case "abort and lifecycle" `Quick test_abort_and_finished_txns;
          Alcotest.test_case "structural delete conflicts" `Quick
            test_structural_delete_conflicts;
          Alcotest.test_case "stats reconcile" `Quick test_stats_reconcile;
          Alcotest.test_case "empty commit counted apart" `Quick
            test_empty_commit_counted_apart;
        ] );
    ]
