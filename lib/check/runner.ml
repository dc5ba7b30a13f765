module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Snapshot = Xvi_core.Snapshot
module Lexical_types = Xvi_core.Lexical_types
module Txn = Xvi_txn.Txn
module Prng = Xvi_util.Prng

type outcome = { docs : int; ops : int; checks : int }

type failure = {
  seed : int;
  doc_index : int;
  doc : string;
  ops : Gen.op list;
  message : string;
}

let default_config =
  { Db.Config.default with Db.Config.substring = true }

(* --- selector resolution (documented in Gen: node-id order, mod) --- *)

let eligible store pred =
  let acc = ref [] in
  Store.iter_pre store (fun n -> if pred n then acc := n :: !acc);
  Array.of_list (List.rev !acc)

let leaves store =
  eligible store (fun n ->
      match Store.kind store n with
      | Store.Text | Store.Attribute -> true
      | _ -> false)

let deletable store = eligible store (fun n -> n <> Store.document)

let insert_parents store =
  eligible store (fun n ->
      n = Store.document || Store.kind store n = Store.Element)

let resolve arr k = if Array.length arr = 0 then None else Some arr.(k mod Array.length arr)

let resolve_writes store ws =
  let ls = leaves store in
  if Array.length ls = 0 then []
  else List.map (fun (k, v) -> (ls.(k mod Array.length ls), v)) ws

module Iset = Set.Make (Int)

(* --- one operation, through the public APIs only --- *)

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

let apply_txn db (s : Gen.txn_script) =
  let store = Db.store db in
  let wa = resolve_writes store s.Gen.writes_a
  and wb = resolve_writes store s.Gen.writes_b in
  if wa = [] && wb = [] then ()
  else begin
    let mgr = Txn.manager db in
    let a = Txn.begin_ mgr and b = Txn.begin_ mgr in
    let write t (n, v) =
      match Txn.update_text t n v with
      | Ok () -> ()
      | Error `Finished -> failf "txn write refused: `Finished on live txn"
      | Error `Not_text -> failf "txn write refused: `Not_text on node %d" n
    in
    (* interleave the two write streams a, b, a, b, ... *)
    let rec zip t t' xs ys =
      match xs with
      | [] -> List.iter (write t') ys
      | x :: xs ->
          write t x;
          zip t' t ys xs
    in
    zip a b wa wb;
    let set_of ws = Iset.of_list (List.map fst ws) in
    let overlap = not (Iset.disjoint (set_of wa) (set_of wb)) in
    let a_committed =
      if s.Gen.abort_a || wa = [] then begin
        Txn.abort a;
        false
      end
      else
        match Txn.commit a with
        | Ok () -> true
        | Error c ->
            failf "txn a conflicted on a fresh manager: %s" c.Txn.reason
    in
    (* a is finished either way: further writes must say so *)
    (match (if wa = [] then wb else wa) with
    | [] -> failf "apply_txn: both write sets empty past the emptiness guard"
    | (probe, _) :: _ -> (
        match Txn.update_text a probe "x" with
        | Error `Finished -> ()
        | Ok () -> failf "write accepted after txn a finished"
        | Error `Not_text ->
            failf "`Not_text instead of `Finished after txn a finished"));
    let expect_conflict = a_committed && overlap && wb <> [] in
    let b_committed =
      if s.Gen.abort_b || wb = [] then begin
        Txn.abort b;
        false
      end
      else
        match (Txn.commit b, expect_conflict) with
        | Ok (), false -> true
        | Ok (), true -> failf "txn b committed but overlapped txn a's writes"
        | Error _, true -> false
        | Error c, false ->
            failf "txn b conflicted without overlap: %s" c.Txn.reason
    in
    (* first-committer-wins bookkeeping must reconcile exactly *)
    let st = Txn.stats mgr in
    let committed = (if a_committed then 1 else 0) + if b_committed then 1 else 0
    and conflicts = if expect_conflict && not (s.Gen.abort_b || wb = []) then 1 else 0 in
    let aborted = 2 - committed in
    if st.Txn.committed <> committed || st.Txn.aborted <> aborted
       || st.Txn.conflicts <> conflicts
       || st.Txn.committed + st.Txn.empty + st.Txn.aborted <> 2
    then
      failf
        "txn stats {c=%d;e=%d;a=%d;x=%d} do not reconcile with \
         {c=%d;e=0;a=%d;x=%d}"
        st.Txn.committed st.Txn.empty st.Txn.aborted st.Txn.conflicts committed
        aborted conflicts
  end

(* An ill-formed insert must fail, and — like the oracle, which does
   nothing — leave the logical state where it was. *)
let insert_rejected db ~parent frag =
  let before = Db.digest db in
  match Db.insert_xml db ~parent frag with
  | Ok _ -> failf "ill-formed fragment %S accepted" frag
  | Error _ ->
      if not (String.equal before (Db.digest db)) then
        failf "rejected fragment %S changed the database" frag

let apply_op db op =
  let store = Db.store db in
  match (op : Gen.op) with
  | Gen.Update_text (k, v) ->
      (match resolve (leaves store) k with
      | None -> db
      | Some n ->
          Db.update_text db n v;
          db)
  | Gen.Update_texts ws ->
      Db.update_texts db (resolve_writes store ws);
      db
  | Gen.Delete_subtree k ->
      (match resolve (deletable store) k with
      | None -> db
      | Some n ->
          Db.delete_subtree db n;
          db)
  | Gen.Insert_xml (k, frag) ->
      (match resolve (insert_parents store) k with
      | None -> db
      | Some parent ->
          (match Db.insert_xml db ~parent frag with
          | Ok _ -> ()
          | Error e ->
              failf "generated fragment %S rejected: %s" frag
                (Xvi_xml.Parser.error_to_string e));
          db)
  | Gen.Insert_rejected (k, frag) ->
      (match resolve (insert_parents store) k with
      | None -> ()
      | Some parent -> insert_rejected db ~parent frag);
      db
  | Gen.Compact -> fst (Db.compact db)
  | Gen.Snapshot_roundtrip ->
      let path = Filename.temp_file "xvi_diff" ".snap" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Snapshot.save db path;
          match Snapshot.load path with
          | Ok db' ->
              if not (String.equal (Db.digest db) (Db.digest db')) then
                failf "snapshot roundtrip changed the logical state";
              db'
          | Error e ->
              failf "snapshot roundtrip failed: %s" (Snapshot.error_to_string e))
  | Gen.Txn s ->
      apply_txn db s;
      db

(* --- cross-checking every query family against the oracle --- *)

let show_nodes ns =
  let shown = List.filteri (fun i _ -> i < 20) ns in
  Printf.sprintf "[%s]%s"
    (String.concat ";" (List.map string_of_int shown))
    (if List.length ns > 20 then Printf.sprintf "…(%d)" (List.length ns) else "")

let compare_lists ~what expected actual =
  if expected <> actual then
    failf "%s diverged: oracle %s vs index %s" what (show_nodes expected)
      (show_nodes actual)

let show_range r =
  let s = function None -> "_" | Some v -> Printf.sprintf "%h" v in
  Printf.sprintf "[%s,%s]" (s (Db.Range.lo r)) (s (Db.Range.hi r))

let sample_values rng store =
  (* string values of a few random live nodes, as equality probes *)
  let pool = eligible store (fun n ->
      match Store.kind store n with
      | Store.Element | Store.Text | Store.Attribute -> true
      | _ -> false)
  in
  if Array.length pool = 0 then []
  else
    List.init 3 (fun _ ->
        Oracle.string_value store (Prng.choose rng pool))

let sample_doubles rng store =
  let double = Lexical_types.double () in
  let ls = leaves store in
  let vals = ref [] in
  for _ = 1 to 8 do
    if Array.length ls > 0 then
      match double.Lexical_types.parse (Store.text store (Prng.choose rng ls)) with
      | Some v -> vals := v :: !vals
      | None -> ()
  done;
  !vals

let sample_pattern rng store =
  let ls = leaves store in
  if Array.length ls = 0 then "x"
  else
    let s = Store.text store (Prng.choose rng ls) in
    if String.length s = 0 then "x"
    else
      let start = Prng.int rng (String.length s) in
      let len = min (1 + Prng.int rng 5) (String.length s - start) in
      String.sub s start len

(* A generated spec becomes a concrete IR term against the current
   store: [S_within] selectors resolve over the live elements + the
   document node (the same pool as insert parents); an unresolvable
   scope drops the wrapper rather than the whole tree. *)
let rec resolve_ir store (s : Gen.ir_spec) : Db.Ir.t =
  let range_of lo hi =
    match (lo, hi) with
    | None, None -> Db.Range.any
    | Some lo, None -> Db.Range.at_least lo
    | None, Some hi -> Db.Range.at_most hi
    | Some lo, Some hi -> Db.Range.between lo hi
  in
  match s with
  | Gen.S_eq v -> Db.Ir.string_eq v
  | Gen.S_range (ty, lo, hi) -> Db.Ir.typed_range ty (range_of lo hi)
  | Gen.S_contains p -> Db.Ir.contains p
  | Gen.S_el_contains p -> Db.Ir.element_contains p
  | Gen.S_named nm -> Db.Ir.named nm
  | Gen.S_within (k, inner) -> (
      let inner = resolve_ir store inner in
      match resolve (insert_parents store) k with
      | Some scope -> Db.Ir.within ~scope inner
      | None -> inner)
  | Gen.S_and ss -> Db.Ir.conj (List.map (resolve_ir store) ss)
  | Gen.S_or ss -> Db.Ir.disj (List.map (resolve_ir store) ss)
  | Gen.S_not s -> Db.Ir.neg (resolve_ir store s)

let check ~config ~step db counter =
  let store = Db.store db in
  let rng = Prng.create (0x5EED + (7919 * step)) in
  let tick () = incr counter in
  (* string equality *)
  let probes =
    ("" :: "\xe2\x89\x8b absent \xe2\x89\x8b" :: sample_values rng store)
  in
  List.iter
    (fun s ->
      tick ();
      compare_lists
        ~what:(Printf.sprintf "lookup_string %S" s)
        (Oracle.lookup_string store s)
        (Db.lookup_string db s))
    probes;
  (* double ranges *)
  let double = Lexical_types.double () in
  let ranges =
    Db.Range.
      [
        any; between 0. 100.; between 43. 42.; between nan 1.;
        at_most infinity; at_least (-0.);
      ]
    @ List.concat_map
        (fun v ->
          Db.Range.
            [ between v v; at_least v; between (v -. 1.5) (v +. 0.5) ])
        (sample_doubles rng store)
  in
  List.iter
    (fun r ->
      tick ();
      compare_lists
        ~what:(Printf.sprintf "lookup_double %s" (show_range r))
        (Oracle.lookup_typed store double r)
        (Db.lookup_double db r))
    ranges;
  (* datetime, through the by-name entry point *)
  let datetime = Lexical_types.datetime () in
  tick ();
  compare_lists ~what:"lookup_typed xs:dateTime any"
    (Oracle.lookup_typed store datetime Db.Range.any)
    (Db.lookup_typed db "xs:dateTime" Db.Range.any);
  (* containment *)
  if config.Db.Config.substring then begin
    List.iter
      (fun pat ->
        tick ();
        compare_lists
          ~what:(Printf.sprintf "lookup_contains %S" pat)
          (Oracle.lookup_contains store pat)
          (Db.lookup_contains db pat);
        tick ();
        compare_lists
          ~what:(Printf.sprintf "lookup_element_contains %S" pat)
          (Oracle.lookup_element_contains store pat)
          (Db.lookup_element_contains db pat))
      [ sample_pattern rng store; ""; "zz\xc2\xac" ]
  end;
  (* element names *)
  let name_probes =
    let named = eligible store (fun n -> Store.kind store n = Store.Element) in
    Prng.choose rng Gen.names
    :: "nonexistent"
    :: (if Array.length named = 0 then []
        else [ Store.name store (Prng.choose rng named) ])
  in
  List.iter
    (fun nm ->
      tick ();
      compare_lists
        ~what:(Printf.sprintf "elements_named %S" nm)
        (Oracle.elements_named store nm)
        (Db.elements_named db nm))
    name_probes;
  (* scoped lookups *)
  let scopes = insert_parents store in
  if Array.length scopes > 0 then begin
    let scope = Prng.choose rng scopes in
    let s =
      (List.nth probes (2 mod List.length probes)
      [@xvi.lint.allow
        "R2: probes opens with two literal conses, so (2 mod length) is a \
         valid index"])
    in
    tick ();
    compare_lists
      ~what:(Printf.sprintf "lookup_string_within scope=%d %S" scope s)
      (Oracle.lookup_string_within store ~scope s)
      (Db.lookup_string_within db ~scope s);
    let r =
      (List.hd ranges
      [@xvi.lint.allow "R2: ranges starts with a literal six-element list"])
    in
    tick ();
    compare_lists
      ~what:(Printf.sprintf "lookup_double_within scope=%d %s" scope (show_range r))
      (Oracle.lookup_typed_within store double ~scope r)
      (Db.lookup_double_within db ~scope r)
  end;
  (* compositional IR queries: random conjunction/disjunction/negation/
     scope trees through the planner vs the oracle's per-node truth
     test *)
  List.iter
    (fun spec ->
      let ir = resolve_ir store spec in
      tick ();
      compare_lists
        ~what:(Printf.sprintf "query %s" (Db.Ir.to_string ir))
        (Oracle.eval_ir store ir)
        (Db.query db ir))
    (List.init 3 (fun _ -> Gen.ir rng));
  (* periodically, the heavyweight check: every index vs a rebuild *)
  if step mod 7 = 0 then begin
    tick ();
    match Db.validate db with
    | Ok () -> ()
    | Error e -> failf "Db.validate: %s" e
  end

let run_doc ?(config = default_config) ~doc ~ops () =
  let counter = ref 0 in
  try
    let db =
      match Db.of_xml ~config doc with
      | Ok db -> db
      | Error e ->
          failf "document rejected by parser: %s"
            (Xvi_xml.Parser.error_to_string e)
    in
    check ~config ~step:0 db counter;
    let _db =
      List.fold_left
        (fun (db, i) op ->
          let db =
            try apply_op db op
            with Check_failed m -> failf "step %d (%s): %s" i (Gen.op_to_ocaml op) m
          in
          (try check ~config ~step:i db counter
           with Check_failed m -> failf "after step %d (%s): %s" i (Gen.op_to_ocaml op) m);
          (db, i + 1))
        (db, 1) ops
    in
    Ok !counter
  with
  | Check_failed m -> Error m
  | e ->
      Error
        (Printf.sprintf "escaped exception: %s" (Printexc.to_string e))

(* --- shrinking: ddmin-lite over the op list --- *)

let remove_slice i size ops =
  List.filteri (fun j _ -> j < i || j >= i + size) ops

let shrink ~config ~doc ops =
  let budget = ref 300 in
  let fails ops =
    if !budget <= 0 then false
    else begin
      decr budget;
      Result.is_error (run_doc ~config ~doc ~ops ())
    end
  in
  let rec pass size ops =
    if size < 1 then ops
    else begin
      let rec try_at i ops =
        if i >= List.length ops then ops
        else begin
          let cand = remove_slice i size ops in
          if List.length cand < List.length ops && fails cand then try_at i cand
          else try_at (i + size) ops
        end
      in
      pass (size / 2) (try_at 0 ops)
    end
  in
  pass (max 1 (List.length ops / 2)) ops

(* --- the fleet loop --- *)

let run ?(config = default_config) ?(log = fun _ -> ()) ~seed ~docs ~ops_per_doc
    () =
  let master = Prng.create seed in
  let total_ops = ref 0 and total_checks = ref 0 in
  let rec loop i =
    if i >= docs then Ok { docs; ops = !total_ops; checks = !total_checks }
    else begin
      let rng = Prng.split master in
      let doc = Gen.document rng in
      let ops = List.init ops_per_doc (fun _ -> Gen.op rng) in
      match run_doc ~config ~doc ~ops () with
      | Ok checks ->
          total_ops := !total_ops + ops_per_doc;
          total_checks := !total_checks + checks;
          log
            (Printf.sprintf "doc %d/%d ok: %d ops, %d checks" (i + 1) docs
               ops_per_doc checks);
          loop (i + 1)
      | Error _ ->
          log (Printf.sprintf "doc %d/%d FAILED, shrinking..." (i + 1) docs);
          let ops = shrink ~config ~doc ops in
          let message =
            match run_doc ~config ~doc ~ops () with
            | Error m -> m
            | Ok _ -> "(divergence vanished during shrinking — flaky trace)"
          in
          Error { seed; doc_index = i; doc; ops; message }
    end
  in
  loop 0

(* --- concurrent readers against a single writer ---------------------

   Readers pin epochs from a serving {!Xvi_serve.Engine} while the
   writer commits a scripted sequence of text batches. Every pin is
   checked two ways:

   - identity: the pinned database's logical digest ({!Db.digest})
     must equal that of an oracle replica that replayed exactly the
     first [pin.commits] scripted batches through the same Txn path —
     an epoch is the whole committed prefix, never a torn or partial
     state;
   - self-consistency: query families answered on the pinned database
     are compared against {!Oracle} over its own store.

   Midway, the writer stalls inside a commit — holding the writer lock —
   until every reader has made further progress, which is the lock-free
   read claim asserted rather than assumed. *)

module Engine = Xvi_serve.Engine

type concurrent_op =
  | C_texts of (Store.node * string) list
  | C_insert of {
      parent : Store.node;
      bad : string; (* tried first; must fail and change nothing *)
      fragment : string;
      roots : Store.node list;
    }
  | C_delete of Store.node

type concurrent_outcome = {
  readers : int;
  reads : int;
  commits : int;
  epochs : int;
}


let run_concurrent ?(config = default_config) ?(log = fun (_ : string) -> ())
    ~seed ~readers ~commits () =
  try
    (* Tiny column pages (2^4 entries, 2^4 pages per directory) so the
       scripted writes append and mutate across many page and directory
       boundaries: the run then exercises the columns' copy-on-write —
       shared pages and directories cloned on first write, fresh pages
       and directories appended past the boundary — not just the heap
       indexes' isolation. The sizes travel with each vector, so every
       copy, epoch, and oracle replica in the run agrees. *)
    Xvi_util.Bigvec.with_chunk_log_for_testing 4 @@ fun () ->
    if readers < 1 then failf "run_concurrent: need at least one reader";
    if commits < 1 then failf "run_concurrent: need at least one commit";
    let rng = Prng.create seed in
    (* a generated document with at least one writable leaf *)
    let rec pick tries =
      if tries = 0 then
        failf "run_concurrent: no generated document had a writable leaf"
      else
        match Db.of_xml ~config (Gen.document rng) with
        | Error _ -> pick (tries - 1)
        | Ok db ->
            if Array.length (leaves (Db.store db)) = 0 then pick (tries - 1)
            else db
    in
    let master = pick 50 in
    let replica = Db.copy master in
    let ls = leaves (Db.store master) in
    (* elements of the generated document: insert parents and scopes;
       only inserted subtrees are ever deleted, so these stay live *)
    let elements =
      eligible (Db.store master) (fun n ->
          Store.kind (Db.store master) n = Store.Element)
    in
    (* The whole write script is fixed before any domain starts, by
       replaying it on the replica through the same public paths the
       engine's writer takes (Txn for text batches, Db for structure):
       every fourth commit is structural, alternating an insert with the
       delete of the newest inserted subtree. Oracle digests for every
       commit prefix are taken along the way. *)
    let expected = Array.make (commits + 1) "" in
    expected.(0) <- Db.digest replica;
    let omgr = Txn.manager replica in
    let inserted = ref [] in
    let script = ref [] in
    for k = 0 to commits - 1 do
      let op =
        if k mod 4 <> 3 then begin
          let width = 1 + Prng.int rng 3 in
          let writes =
            List.init width (fun j ->
                let n = ls.(Prng.int rng (Array.length ls)) in
                let v =
                  if (k + j) mod 3 = 0 then Printf.sprintf "%d.%d" k j
                  else Printf.sprintf "c%d-w%d" k j
                in
                (n, v))
          in
          let tx = Txn.begin_ omgr in
          List.iter
            (fun (n, v) ->
              match Txn.update_text tx n v with
              | Ok () -> ()
              | Error _ -> failf "run_concurrent: oracle stage rejected")
            writes;
          (match Txn.commit tx with
          | Ok () -> ()
          | Error _ -> failf "run_concurrent: oracle commit conflicted");
          C_texts writes
        end
        else
          match !inserted with
          | root :: rest when k mod 8 = 7 ->
              Db.delete_subtree replica root;
              inserted := rest;
              C_delete root
          | _ -> (
              let parent =
                if Array.length elements = 0 then Store.document
                else Prng.choose rng elements
              in
              let bad = Gen.bad_fragment rng in
              insert_rejected replica ~parent bad;
              let fragment = Gen.fragment rng in
              match Db.insert_xml replica ~parent fragment with
              | Ok roots ->
                  inserted := List.rev_append roots !inserted;
                  C_insert { parent; bad; fragment; roots }
              | Error _ -> failf "run_concurrent: oracle insert rejected")
      in
      script := op :: !script;
      expected.(k + 1) <- Db.digest replica
    done;
    let script = List.rev !script in
    let engine =
      match Engine.open_ (Engine.Memory master) with
      | Ok e -> e
      | Error e -> failf "run_concurrent: %s" (Engine.error_to_string e)
    in
    (* Pin the pre-write epoch and hold it across the whole run: with
       copy-on-write columns and trees the writer mutates pages and
       nodes this pin shares, so after every commit has landed its
       digest must still be the 0-commit prefix, and its answers —
       named elements, lookups, and scoped queries through the plane —
       exactly those it gave at pin time. *)
    let pin0 = Engine.pin engine in
    let pin0_digest = Db.digest pin0.Engine.db in
    if pin0_digest <> expected.(pin0.Engine.commits) then
      failf "pre-write pin is not the %d-commit prefix" pin0.Engine.commits;
    let probes =
      List.filteri (fun i _ -> i < 3)
        (List.map (Store.text (Db.store master)) (Array.to_list ls))
    in
    let scopes = List.filteri (fun i _ -> i < 3) (Array.to_list elements) in
    let answers db =
      List.map (Db.elements_named db) (Array.to_list Gen.names)
      @ List.map (Db.lookup_string db) probes
      @ List.concat_map
          (fun scope ->
            Db.lookup_double_within db ~scope Db.Range.any
            :: Db.query db (Db.Ir.within ~scope (Db.Ir.named Gen.names.(0)))
            :: List.map (Db.lookup_string_within db ~scope) probes)
          scopes
    in
    let pin0_answers = answers pin0.Engine.db in
    let total_reads = Atomic.make 0 in
    let writer_done = Atomic.make false in
    let reader idx =
      let rng = Prng.create (seed + (7919 * (idx + 1))) in
      let last_epoch = ref (-1) and last_commits = ref (-1) in
      let seen = ref Iset.empty in
      let my_reads = ref 0 in
      let check_pin (pin : Engine.pinned) =
        if pin.Engine.epoch < !last_epoch then
          failf "reader %d: epoch went backwards (%d after %d)" idx
            pin.Engine.epoch !last_epoch;
        if pin.Engine.commits < !last_commits then
          failf "reader %d: commit count went backwards (%d after %d)" idx
            pin.Engine.commits !last_commits;
        last_epoch := pin.Engine.epoch;
        last_commits := pin.Engine.commits;
        seen := Iset.add pin.Engine.epoch !seen;
        if pin.Engine.commits < 0 || pin.Engine.commits > commits then
          failf "reader %d: pinned %d commits of a %d-commit script" idx
            pin.Engine.commits commits;
        let d =
          Db.digest pin.Engine.db
        in
        if d <> expected.(pin.Engine.commits) then
          failf "reader %d: epoch %d is not the scripted %d-commit prefix" idx
            pin.Engine.epoch pin.Engine.commits;
        let db = pin.Engine.db in
        let store = Db.store db in
        let pls = leaves store in
        if Array.length pls > 0 then begin
          let probe = Store.text store (Prng.choose rng pls) in
          compare_lists
            ~what:(Printf.sprintf "reader %d lookup_string %S" idx probe)
            (Oracle.lookup_string store probe)
            (Db.lookup_string db probe)
        end;
        let nm = Prng.choose rng Gen.names in
        compare_lists
          ~what:(Printf.sprintf "reader %d elements_named %S" idx nm)
          (Oracle.elements_named store nm)
          (Db.elements_named db nm);
        (* scoped reads go through the epoch's plane, which it shares
           with the master until a structural commit *)
        let scopes =
          eligible store (fun n -> Store.kind store n = Store.Element)
        in
        if Array.length scopes > 0 && Array.length pls > 0 then begin
          let scope = Prng.choose rng scopes in
          let probe = Store.text store (Prng.choose rng pls) in
          compare_lists
            ~what:
              (Printf.sprintf "reader %d lookup_string_within %d %S" idx scope
                 probe)
            (Oracle.lookup_string_within store ~scope probe)
            (Db.lookup_string_within db ~scope probe)
        end;
        compare_lists
          ~what:(Printf.sprintf "reader %d lookup_double any" idx)
          (Oracle.lookup_typed store (Lexical_types.double ()) Db.Range.any)
          (Db.lookup_double db Db.Range.any);
        incr my_reads;
        Atomic.incr total_reads
      in
      let rec loop () =
        let pin = Engine.pin engine in
        check_pin pin;
        if not (Atomic.get writer_done) then loop ()
      in
      match
        loop ();
        (* one last pin so the final epoch is covered too *)
        check_pin (Engine.pin engine)
      with
      | () -> Ok (!my_reads, !seen)
      | exception Check_failed m -> Error m
      | exception e ->
          Error
            (Printf.sprintf "reader %d escaped exception: %s" idx
               (Printexc.to_string e))
    in
    let doms = List.init readers (fun idx -> Domain.spawn (fun () -> reader idx)) in
    let stall_failed = ref false in
    (* the stall hook fires inside a text commit; never pick a
       structural slot for it *)
    let stall_at =
      let k = commits / 2 in
      if k mod 4 = 3 then k - 1 else k
    in
    let rejected k e =
      failf "writer: commit %d rejected: %s" k (Engine.error_to_string e)
    in
    let writer_commit k = function
      | C_texts writes -> (
          let tx = Engine.begin_ engine in
          List.iter
            (fun (n, v) ->
              match Txn.update_text tx n v with
              | Ok () -> ()
              | Error _ -> failf "writer: stage of commit %d rejected" k)
            writes;
          match Engine.submit engine tx with
          | Ok _ -> ()
          | Error e -> rejected k e)
      | C_insert { parent; bad; fragment; roots } -> (
          (* a stray node left by the rejected insert would surface in
             the next epoch's digest, checked by every reader *)
          (match Engine.insert_xml engine ~parent bad with
          | Error (Engine.Parse _) -> ()
          | Error e -> rejected k e
          | Ok _ ->
              failf "writer: ill-formed fragment %S accepted at commit %d" bad
                k);
          match Engine.insert_xml engine ~parent fragment with
          | Ok (got, _) ->
              if got <> roots then
                failf "writer: insert %d made roots %s, the oracle %s" k
                  (show_nodes got) (show_nodes roots)
          | Error e -> rejected k e)
      | C_delete root -> (
          match Engine.delete_subtree engine root with
          | Ok _ -> ()
          | Error e -> rejected k e)
    in
    let werr = ref None in
    (try
       List.iteri
         (fun k op ->
           if k = stall_at then
             Engine.set_commit_stall engine
               (Some
                  (fun () ->
                    (* the writer now holds the commit lock; every reader
                       must still make progress before it lets go *)
                    let target = Atomic.get total_reads + (2 * readers) in
                    let deadline = Xvi_util.Timing.now_s () +. 30.0 in
                    let rec wait () =
                      if Atomic.get total_reads >= target then ()
                      else if Xvi_util.Timing.now_s () > deadline then
                        stall_failed := true
                      else begin
                        Unix.sleepf 0.001;
                        wait ()
                      end
                    in
                    wait ()));
           writer_commit k op;
           if k = stall_at then Engine.set_commit_stall engine None
           else Unix.sleepf 0.0002)
         script
     with Check_failed m -> werr := Some m);
    Atomic.set writer_done true;
    let results = List.map Domain.join doms in
    if Db.digest pin0.Engine.db <> pin0_digest then
      failf
        "pinned pre-write epoch changed under the writer — a copy-on-write \
         page or tree node was mutated while shared";
    if answers pin0.Engine.db <> pin0_answers then
      failf
        "pinned pre-write epoch answers differently after the structural \
         commits — its plane or name index moved under it";
    Engine.close engine;
    match !werr with
    | Some m -> Error m
    | None ->
        if !stall_failed then
          Error
            "readers made no progress while the writer was stalled \
             mid-commit — a read blocked on the writer"
        else begin
          let rec collect reads seen = function
            | [] ->
                let out =
                  { readers; reads; commits; epochs = Iset.cardinal seen }
                in
                log
                  (Printf.sprintf
                     "%d readers made %d checked reads over %d epochs while \
                      %d commits landed"
                     out.readers out.reads out.epochs out.commits);
                Ok out
            | Error m :: _ -> Error m
            | Ok (r, s) :: rest -> collect (reads + r) (Iset.union seen s) rest
          in
          collect 0 Iset.empty results
        end
  with
  | Check_failed m -> Error m
  | e -> Error (Printf.sprintf "escaped exception: %s" (Printexc.to_string e))

(* --- replayable trace rendering --- *)

let doc_literal doc =
  (* a quoted-string literal keeps the XML readable; fall back to %S if
     the closing delimiter happens to occur in the text *)
  let closer = "|xvi}" in
  let contains_closer =
    let m = String.length closer and n = String.length doc in
    let rec at i j = j = m || (doc.[i + j] = closer.[j] && at i (j + 1)) in
    let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
    go 0
  in
  if contains_closer then Printf.sprintf "%S" doc
  else Printf.sprintf "{xvi|%s|xvi}" doc

let render_trace f =
  let ops =
    String.concat ";\n    " (List.map Gen.op_to_ocaml f.ops)
  in
  String.concat "\n"
    [
      Printf.sprintf
        "(* xvi differential harness: minimal failing trace (seed %d, doc %d).\n\
        \   Divergence: %s *)"
        f.seed f.doc_index f.message;
      Printf.sprintf "let doc = %s" (doc_literal f.doc);
      "let ops =";
      Printf.sprintf "  Xvi_check.Gen.[\n    %s;\n  ]" ops;
      "let () =";
      "  match Xvi_check.Runner.run_doc ~doc ~ops () with";
      "  | Ok n -> Printf.printf \"trace no longer fails (%d checks)\\n\" n";
      "  | Error m -> prerr_endline m; exit 1";
      "";
    ]
