(* B+tree tests: unit cases plus model checking against Stdlib.Map under
   random insert/remove/lookup workloads, at several node orders. *)

module BT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_key)
module IM = Map.Make (Int)

let check_inv t =
  match BT.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

let test_empty () =
  let t : int BT.t = BT.create () in
  Alcotest.(check int) "length" 0 (BT.length t);
  Alcotest.(check bool) "is_empty" true (BT.is_empty t);
  Alcotest.(check (option int)) "find" None (BT.find t 1);
  Alcotest.(check bool) "remove" false (BT.remove t 1);
  Alcotest.(check (option (pair int int))) "min" None (BT.min_binding t);
  Alcotest.(check int) "height" 0 (BT.height t);
  check_inv t

let test_insert_find () =
  let t = BT.create ~order:4 () in
  for i = 0 to 499 do
    BT.insert t ((i * 37) mod 501) i
  done;
  check_inv t;
  for i = 0 to 499 do
    let k = (i * 37) mod 501 in
    Alcotest.(check (option int)) "find" (Some i) (BT.find t k)
  done;
  Alcotest.(check int) "length" 500 (BT.length t)

let test_replace () =
  let t = BT.create () in
  BT.insert t 1 "a";
  BT.insert t 1 "b";
  Alcotest.(check int) "length" 1 (BT.length t);
  Alcotest.(check (option string)) "value" (Some "b") (BT.find t 1)

let test_iteration_sorted () =
  let t = BT.create ~order:6 () in
  let keys = List.init 300 (fun i -> (i * 7919) mod 1000) in
  List.iter (fun k -> BT.insert t k k) keys;
  let collected = BT.fold (fun k _ acc -> k :: acc) t [] in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check (list int)) "ascending" sorted (List.rev collected)

let test_range () =
  let t = BT.create ~order:4 () in
  for i = 0 to 99 do
    BT.insert t (i * 2) i (* even keys 0..198 *)
  done;
  let keys lo hi = List.map fst (BT.range ?lo ?hi t) in
  Alcotest.(check (list int)) "mid" [ 10; 12; 14 ] (keys (Some 10) (Some 14));
  Alcotest.(check (list int)) "between keys" [ 10; 12; 14 ]
    (keys (Some 9) (Some 15));
  Alcotest.(check (list int)) "open lo" [ 0; 2; 4 ] (keys None (Some 4));
  Alcotest.(check (list int)) "open hi" [ 196; 198 ] (keys (Some 195) None);
  Alcotest.(check int) "full" 100 (List.length (keys None None));
  Alcotest.(check (list int)) "empty range" [] (keys (Some 15) (Some 15));
  Alcotest.(check (list int)) "singleton" [ 16 ] (keys (Some 16) (Some 16))

let test_min_max () =
  let t = BT.create ~order:4 () in
  List.iter (fun k -> BT.insert t k (string_of_int k)) [ 42; 7; 99; 13 ];
  Alcotest.(check (option (pair int string))) "min" (Some (7, "7")) (BT.min_binding t);
  Alcotest.(check (option (pair int string))) "max" (Some (99, "99")) (BT.max_binding t)

let test_delete_all () =
  let t = BT.create ~order:4 () in
  let n = 1000 in
  for i = 0 to n - 1 do
    BT.insert t i i
  done;
  (* delete in a scrambled order, checking invariants as we go *)
  for i = 0 to n - 1 do
    let k = (i * 271) mod n in
    Alcotest.(check bool) "removed" true (BT.remove t k);
    if i mod 97 = 0 then check_inv t
  done;
  check_inv t;
  Alcotest.(check int) "empty" 0 (BT.length t);
  Alcotest.(check int) "height" 0 (BT.height t)

let test_duplicate_logical_keys () =
  (* posting-list style: composite (hash, node) keys *)
  let module PT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_pair_key) in
  let t = PT.create ~order:8 () in
  for node = 0 to 199 do
    PT.insert t (node mod 5, node) ()
  done;
  let posting h =
    List.map
      (fun ((_, n), ()) -> n)
      (PT.range ~lo:(h, min_int) ~hi:(h, max_int) t)
  in
  Alcotest.(check int) "posting size" 40 (List.length (posting 3));
  List.iter
    (fun n -> Alcotest.(check int) "right bucket" 3 (n mod 5))
    (posting 3);
  (match PT.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pair tree: %s" e)

let test_float_key_nan () =
  let module FT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Float_pair_key) in
  let t = FT.create () in
  FT.insert t (Float.nan, 1) "nan";
  FT.insert t (1.0, 2) "one";
  FT.insert t (Float.neg_infinity, 3) "ninf";
  Alcotest.(check int) "all inserted" 3 (FT.length t);
  (* NaN sorts last; a real-valued range must not see it *)
  let reals = FT.range ~lo:(Float.neg_infinity, min_int) ~hi:(Float.infinity, max_int) t in
  Alcotest.(check int) "range excludes NaN" 2 (List.length reals)

(* Model check vs Map: random ops, seeded, several orders. *)
let model_check ~order ~ops ~key_space seed =
  let rng = Xvi_util.Prng.create seed in
  let t = BT.create ~order () in
  let model = ref IM.empty in
  for step = 1 to ops do
    let k = Xvi_util.Prng.int rng key_space in
    (match Xvi_util.Prng.int rng 100 with
    | r when r < 55 ->
        BT.insert t k step;
        model := IM.add k step !model
    | r when r < 85 ->
        let removed = BT.remove t k in
        Alcotest.(check bool)
          (Printf.sprintf "remove agrees at step %d" step)
          (IM.mem k !model) removed;
        model := IM.remove k !model
    | _ ->
        Alcotest.(check (option int))
          (Printf.sprintf "find agrees at step %d" step)
          (IM.find_opt k !model) (BT.find t k));
    if step mod 500 = 0 then begin
      (match BT.check_invariants t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invariant after %d ops (order %d): %s" step order e);
      Alcotest.(check int) "length agrees" (IM.cardinal !model) (BT.length t)
    end
  done;
  (* final: full contents agree, in order *)
  let tree_list = List.rev (BT.fold (fun k v acc -> (k, v) :: acc) t []) in
  let model_list = IM.bindings !model in
  Alcotest.(check (list (pair int int))) "final contents" model_list tree_list

let test_model_small_order () = model_check ~order:4 ~ops:5_000 ~key_space:300 1
let test_model_default_order () = model_check ~order:32 ~ops:8_000 ~key_space:2_000 2
let test_model_dense_keys () = model_check ~order:8 ~ops:6_000 ~key_space:50 3

let test_model_range_consistency () =
  let rng = Xvi_util.Prng.create 17 in
  let t = BT.create ~order:4 () in
  let model = ref IM.empty in
  for step = 1 to 2_000 do
    let k = Xvi_util.Prng.int rng 500 in
    if Xvi_util.Prng.bool rng then begin
      BT.insert t k step;
      model := IM.add k step !model
    end
    else begin
      ignore (BT.remove t k);
      model := IM.remove k !model
    end;
    if step mod 100 = 0 then begin
      let lo = Xvi_util.Prng.int rng 500 in
      let hi = lo + Xvi_util.Prng.int rng 100 in
      let tree = List.map fst (BT.range ~lo ~hi t) in
      let expected =
        IM.bindings !model
        |> List.filter (fun (k, _) -> k >= lo && k <= hi)
        |> List.map fst
      in
      Alcotest.(check (list int)) "range agrees" expected tree
    end
  done

let test_bulk_load () =
  (* of_sorted_array must produce valid trees at many sizes and orders *)
  List.iter
    (fun order ->
      List.iter
        (fun n ->
          let arr = Array.init n (fun i -> (i * 3, i)) in
          let t = BT.of_sorted_array ~order arr in
          (match BT.check_invariants t with
          | Ok () -> ()
          | Error e -> Alcotest.failf "bulk n=%d order=%d: %s" n order e);
          Alcotest.(check int) "length" n (BT.length t);
          (* contents and iteration order *)
          let listed = List.rev (BT.fold (fun k v acc -> (k, v) :: acc) t []) in
          Alcotest.(check bool) "contents" true (listed = Array.to_list arr);
          (* random point lookups *)
          if n > 0 then begin
            Alcotest.(check (option int)) "first" (Some 0) (BT.find t 0);
            Alcotest.(check (option int)) "last" (Some (n - 1)) (BT.find t ((n - 1) * 3));
            Alcotest.(check (option int)) "miss" None (BT.find t 1)
          end)
        [ 0; 1; 2; 5; 31; 32; 33; 63; 100; 1000; 4097 ])
    [ 4; 8; 32 ];
  (* a bulk-loaded tree keeps working under mutation *)
  let arr = Array.init 500 (fun i -> (i * 2, i)) in
  let t = BT.of_sorted_array ~order:8 arr in
  for i = 0 to 499 do
    BT.insert t ((i * 2) + 1) (-i)
  done;
  (match BT.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "after inserts: %s" e);
  Alcotest.(check int) "grown" 1000 (BT.length t);
  for i = 0 to 499 do
    ignore (BT.remove t (i * 2))
  done;
  (match BT.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "after removes: %s" e);
  Alcotest.(check int) "shrunk" 500 (BT.length t)

let test_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.of_sorted_array: keys not strictly ascending")
    (fun () -> ignore (BT.of_sorted_array [| (2, 0); (1, 0) |]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Btree.of_sorted_array: keys not strictly ascending")
    (fun () -> ignore (BT.of_sorted_array [| (1, 0); (1, 1) |]))

let test_memory_accounting () =
  let t = BT.create () in
  let empty = BT.memory_bytes ~value_bytes:8 t in
  for i = 0 to 9_999 do
    BT.insert t i i
  done;
  let full = BT.memory_bytes ~value_bytes:8 t in
  Alcotest.(check bool) "grows" true (full > empty);
  (* at least 16 bytes per binding must be accounted *)
  Alcotest.(check bool) "plausible lower bound" true (full > 10_000 * 16);
  Alcotest.(check bool) "node count sane" true (BT.node_count t > 10_000 / 33)

(* --- Copy-on-write snapshots ---

   Model check of [snapshot] against [Stdlib.Map]: random insert/remove
   runs, at order 4 so splits, borrows and merges all happen, on any of
   several live trees that snapshot each other. After every step, every
   live tree must still equal its own model and pass its invariants — a
   write through one tree that leaks into a node another tree shares
   shows up as a model mismatch on the other tree. *)

type cow_op = Ins of int * int | Del of int | Snap

let gen_cow_ops =
  QCheck2.Gen.(
    list_size (int_range 50 300)
      (pair (int_bound 7)
         (frequency
            [
              (6, map2 (fun k v -> Ins (k, v)) (int_bound 150) (int_bound 1000));
              (4, map (fun k -> Del k) (int_bound 150));
              (1, return Snap);
            ])))

let model_agrees t m =
  BT.check_invariants t = Ok ()
  && BT.length t = IM.cardinal m
  && BT.range t = IM.bindings m
  && List.of_seq (BT.to_seq_range ~lo:40 ~hi:90 t)
     = List.filter (fun (k, _) -> k >= 40 && k <= 90) (IM.bindings m)
  && BT.count_range ~lo:40 ~hi:90 t
     = IM.cardinal (IM.filter (fun k _ -> k >= 40 && k <= 90) m)

let prop_cow_snapshots =
  QCheck2.Test.make ~name:"snapshots stay equal to their models" ~count:200
    gen_cow_ops (fun ops ->
      (* live trees, newest first; each with its model *)
      let live = ref [ (BT.create ~order:4 (), IM.empty) ] in
      List.for_all
        (fun (pick, op) ->
          let trees = Array.of_list !live in
          let i = pick mod Array.length trees in
          let t, m = trees.(i) in
          (match op with
          | Ins (k, v) ->
              BT.insert t k v;
              trees.(i) <- (t, IM.add k v m)
          | Del k ->
              let removed = BT.remove t k in
              if removed <> IM.mem k m then
                QCheck2.Test.fail_reportf "remove %d returned %b" k removed;
              trees.(i) <- (t, IM.remove k m)
          | Snap -> ());
          let trees = Array.to_list trees in
          let trees =
            match op with
            | Snap -> (BT.snapshot t, snd (List.nth trees i)) :: trees
            | Ins _ | Del _ -> trees
          in
          (* keep at most six trees alive *)
          live := List.filteri (fun j _ -> j < 6) trees;
          List.for_all (fun (t, m) -> model_agrees t m) !live)
        ops)

(* The owner-token trap: a token that survived a Marshal round trip
   must never match a token minted afterwards, or a write would mutate
   a node the snapshot still shares. *)
let test_cow_after_reload () =
  let t = BT.create ~order:4 () in
  for i = 0 to 299 do
    BT.insert t ((i * 37) mod 301) i
  done;
  (* a burst of unrelated snapshots so any token counter moves on *)
  for _ = 1 to 50 do
    ignore (BT.snapshot (BT.create ()) : int BT.t)
  done;
  let reloaded : int BT.t = Marshal.from_string (Marshal.to_string t []) 0 in
  let before = BT.range reloaded in
  let snap = BT.snapshot reloaded in
  for i = 0 to 299 do
    if i mod 2 = 0 then ignore (BT.remove reloaded ((i * 37) mod 301) : bool)
    else BT.insert reloaded ((i * 37) mod 301) (-i)
  done;
  for i = 400 to 499 do
    BT.insert reloaded i i
  done;
  check_inv reloaded;
  check_inv snap;
  Alcotest.(check (list (pair int int))) "snapshot unchanged" before (BT.range snap);
  (* and the other way round: writing the snapshot leaves the reloaded
     tree alone *)
  let after = BT.range reloaded in
  for i = 0 to 300 do
    ignore (BT.remove snap i : bool)
  done;
  check_inv snap;
  Alcotest.(check int) "snapshot drained" 0 (BT.length snap);
  Alcotest.(check (list (pair int int))) "reloaded unchanged" after
    (BT.range reloaded);
  (* the unshared original was never touched by either *)
  Alcotest.(check (list (pair int int))) "original unchanged" before (BT.range t)

(* --- Order-preserving byte encodings (Encoding) ---

   The whole contract of the byte-key tree is one property: encoding
   must turn value order into byte order. Each property below drives a
   key codomain through its adversarial corners — int bounds, negative
   zero, NaN, subnormals, infinities, NUL bytes and prefix pairs. *)

module Enc = Xvi_btree.Encoding

let sign c = compare c 0

let gen_int =
  QCheck2.Gen.(
    oneof
      [
        int;
        oneofl [ min_int; max_int; 0; 1; -1; min_int + 1; max_int - 1 ];
        map (fun b -> if b then 1 lsl 62 else -(1 lsl 62)) bool;
      ])

let prop_int_order =
  QCheck2.Test.make ~name:"int_key preserves order" ~count:5000
    QCheck2.Gen.(pair gen_int gen_int)
    (fun (a, b) ->
      sign (String.compare (Enc.int_key a) (Enc.int_key b))
      = sign (Int.compare a b))

let prop_int_roundtrip =
  QCheck2.Test.make ~name:"int_key roundtrips" ~count:5000 gen_int (fun a ->
      Enc.decode_int (Enc.int_key a) 0 = a)

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        float;
        oneofl
          [
            0.0; -0.0; 1.0; -1.0; Float.infinity; Float.neg_infinity;
            Float.min_float; -.Float.min_float; Float.max_float;
            -.Float.max_float; 4.9e-324; -4.9e-324; epsilon_float;
          ];
      ])

let prop_float_order =
  QCheck2.Test.make ~name:"float_key preserves order (non-NaN)" ~count:5000
    QCheck2.Gen.(pair gen_float gen_float)
    (fun (a, b) ->
      sign (String.compare (Enc.float_key a) (Enc.float_key b))
      = sign (Float.compare (a +. 0.) (b +. 0.)))

let prop_float_nan_last =
  QCheck2.Test.make ~name:"NaN sorts after every float" ~count:1000 gen_float
    (fun a -> String.compare (Enc.float_key Float.nan) (Enc.float_key a) >= 0)

let prop_float_roundtrip =
  QCheck2.Test.make ~name:"float_key roundtrips (bit-exact after -0 -> +0)"
    ~count:5000 gen_float (fun a ->
      Int64.equal
        (Int64.bits_of_float (Enc.decode_float (Enc.float_key a) 0))
        (Int64.bits_of_float (a +. 0.)))

(* strings with NUL bytes and deliberate prefix pairs *)
let gen_raw_string =
  QCheck2.Gen.(
    string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 24))

let gen_string_pair =
  QCheck2.Gen.(
    oneof
      [
        pair gen_raw_string gen_raw_string;
        (* prefix pairs: the terminator must keep "ab" < "ab\x00..." *)
        map (fun (s, t) -> (s, s ^ t)) (pair gen_raw_string gen_raw_string);
      ])

let prop_string_order =
  QCheck2.Test.make ~name:"string_key preserves order" ~count:5000
    gen_string_pair (fun (a, b) ->
      sign (String.compare (Enc.string_key a) (Enc.string_key b))
      = sign (String.compare a b))

let prop_composite_order =
  QCheck2.Test.make ~name:"float_int_key orders by (value, node)" ~count:5000
    QCheck2.Gen.(pair (pair gen_float gen_int) (pair gen_float gen_int))
    (fun ((v1, n1), (v2, n2)) ->
      let expected =
        match Float.compare (v1 +. 0.) (v2 +. 0.) with
        | 0 -> Int.compare n1 n2
        | c -> c
      in
      sign (String.compare (Enc.float_int_key v1 n1) (Enc.float_int_key v2 n2))
      = sign expected)

(* The Bytes tree over encoded keys iterates in exactly the value order
   the encodings promise. *)
let test_bytes_tree_value_order () =
  let module BK = Xvi_btree.Btree.Bytes in
  let prng = Xvi_util.Prng.create 3 in
  let pairs =
    List.init 2000 (fun i ->
        ((float_of_int (Xvi_util.Prng.in_range prng (-500) 500) /. 8.0), i))
  in
  let t = BK.create () in
  List.iter (fun (v, n) -> BK.insert t (Enc.float_int_key v n) ()) pairs;
  let got = ref [] in
  BK.iter (fun k () -> got := (Enc.decode_float k 0, Enc.decode_int k 8) :: !got) t;
  let expected =
    List.sort
      (fun (v1, n1) (v2, n2) ->
        match Float.compare v1 v2 with 0 -> Int.compare n1 n2 | c -> c)
      pairs
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "iteration is (value, node) order" expected (List.rev !got);
  match BK.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "btree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "sorted iteration" `Quick test_iteration_sorted;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "delete all" `Quick test_delete_all;
          Alcotest.test_case "duplicates via pairs" `Quick test_duplicate_logical_keys;
          Alcotest.test_case "bulk load" `Quick test_bulk_load;
          Alcotest.test_case "bulk load rejects unsorted" `Quick
            test_bulk_load_rejects_unsorted;
          Alcotest.test_case "float keys and NaN" `Quick test_float_key_nan;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
        ] );
      ( "model",
        [
          Alcotest.test_case "order 4" `Quick test_model_small_order;
          Alcotest.test_case "order 32" `Quick test_model_default_order;
          Alcotest.test_case "dense keys" `Quick test_model_dense_keys;
          Alcotest.test_case "ranges" `Quick test_model_range_consistency;
        ] );
      ( "cow",
        Alcotest.test_case "snapshot after marshal reload" `Quick
          test_cow_after_reload
        :: qcheck [ prop_cow_snapshots ] );
      ( "encoding",
        Alcotest.test_case "bytes tree in value order" `Quick
          test_bytes_tree_value_order
        :: qcheck
             [
               prop_int_order;
               prop_int_roundtrip;
               prop_float_order;
               prop_float_nan_last;
               prop_float_roundtrip;
               prop_string_order;
               prop_composite_order;
             ] );
    ]
