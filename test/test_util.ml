(* Unit and property tests for the xvi_util substrate. *)

module Prng = Xvi_util.Prng
module Vec = Xvi_util.Vec
module Table = Xvi_util.Table

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 a = Prng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_bounds () =
  let rng = Prng.create 99 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1_000 do
    let v = Prng.in_range rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_prng_uniformish () =
  let rng = Prng.create 7 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d has %d, expected about %d" i c expected)
    counts

let test_sample_distinct () =
  let rng = Prng.create 3 in
  (* sparse and dense paths *)
  List.iter
    (fun (k, n) ->
      let s = Prng.sample_distinct rng k n in
      Alcotest.(check int) "length" k (Array.length s);
      let set = Hashtbl.create k in
      Array.iter
        (fun v ->
          Alcotest.(check bool) "in range" true (v >= 0 && v < n);
          Alcotest.(check bool) "distinct" false (Hashtbl.mem set v);
          Hashtbl.replace set v ())
        s)
    [ (10, 1000); (900, 1000); (0, 5); (5, 5) ]

let test_choose_weighted () =
  let rng = Prng.create 11 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let v = Prng.choose_weighted rng [| (1, "a"); (2, "b"); (7, "c") |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check bool) "c most frequent" true (get "c" > get "b" && get "b" > get "a");
  Alcotest.(check bool) "roughly 70%" true (abs (get "c" - 21_000) < 2_000)

let test_vec_int_basics () =
  let v = Vec.Int.create () in
  for i = 0 to 999 do
    Vec.Int.push v (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Vec.Int.length v);
  Alcotest.(check int) "get" 500 (Vec.Int.get v 250);
  Vec.Int.set v 250 (-1);
  Alcotest.(check int) "set" (-1) (Vec.Int.get v 250);
  Alcotest.(check int) "pop" 1998 (Vec.Int.pop v);
  Alcotest.(check int) "popped length" 999 (Vec.Int.length v);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.Int.get: index 999 out of [0,999)") (fun () ->
      ignore (Vec.Int.get v 999))

let test_vec_int_fold_iter () =
  let v = Vec.Int.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold" 10 (Vec.Int.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.Int.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int)))
    "iteri" [ (0, 1); (1, 2); (2, 3); (3, 4) ] (List.rev !acc);
  Alcotest.(check bool) "to_array" true (Vec.Int.to_array v = [| 1; 2; 3; 4 |])

let test_vec_poly () =
  let v = Vec.Poly.create ~dummy:"" () in
  for i = 0 to 99 do
    Vec.Poly.push v (string_of_int i)
  done;
  Alcotest.(check string) "get" "42" (Vec.Poly.get v 42);
  Vec.Poly.set v 42 "changed";
  Alcotest.(check string) "set" "changed" (Vec.Poly.get v 42);
  Alcotest.(check int) "length" 100 (Vec.Poly.length v)

(* --- Bigvec: chunked off-heap vectors with COW snapshots --- *)

module Bigvec = Xvi_util.Bigvec

let marshal_digest (v : Bigvec.Int.t) =
  Digest.to_hex (Digest.string (Marshal.to_string v []))

let test_bigvec_basics () =
  (* chunk = 16 elements, so 1000 pushes cross 62 boundaries *)
  Bigvec.with_chunk_log_for_testing 4 @@ fun () ->
  let v = Bigvec.Int.create () in
  for i = 0 to 999 do
    Bigvec.Int.push v (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Bigvec.Int.length v);
  Alcotest.(check int) "get" 500 (Bigvec.Int.get v 250);
  Bigvec.Int.set v 250 (-1);
  Alcotest.(check int) "set" (-1) (Bigvec.Int.get v 250);
  Alcotest.(check int) "fold" (List.init 1000 (fun i -> i * 2) |> List.fold_left ( + ) 0)
    (Bigvec.Int.fold_left ( + ) 0 v + 501);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Bigvec.get: index 1000 out of [0,1000)") (fun () ->
      ignore (Bigvec.Int.get v 1000));
  let a = Bigvec.Int.to_array v in
  Alcotest.(check int) "to_array length" 1000 (Array.length a);
  Alcotest.(check bool) "of_array round-trip" true
    (Bigvec.Int.to_array (Bigvec.Int.of_array a) = a)

let test_bigvec_cow_snapshot () =
  Bigvec.with_chunk_log_for_testing 4 @@ fun () ->
  let v = Bigvec.Int.create () in
  for i = 0 to 99 do
    Bigvec.Int.push v i
  done;
  let snap = Bigvec.Int.snapshot v in
  let frozen = Bigvec.Int.to_array snap in
  let d0 = marshal_digest snap in
  (* mutate a shared chunk and append past several chunk boundaries *)
  Bigvec.Int.set v 0 (-42);
  Bigvec.Int.set v 99 (-43);
  for i = 100 to 299 do
    Bigvec.Int.push v i
  done;
  Alcotest.(check bool) "snapshot contents untouched" true
    (Bigvec.Int.to_array snap = frozen);
  Alcotest.(check string) "snapshot marshals bit-identically" d0
    (marshal_digest snap);
  Alcotest.(check int) "writer sees its own set" (-42) (Bigvec.Int.get v 0);
  Alcotest.(check int) "writer sees its append" 299 (Bigvec.Int.get v 299);
  (* the snapshot side clones on write too: the parent is unaffected *)
  Bigvec.Int.set snap 1 777;
  Alcotest.(check int) "parent unaffected by snapshot write" 1
    (Bigvec.Int.get v 1);
  (* two snapshots of the same logical state marshal identically *)
  let w = Bigvec.Int.create () in
  for i = 0 to 99 do
    Bigvec.Int.push w i
  done;
  Alcotest.(check string) "equal-history snapshots agree" d0
    (marshal_digest (Bigvec.Int.snapshot w))

let test_bigvec_byte_arena () =
  Bigvec.with_chunk_log_for_testing 4 @@ fun () ->
  let b = Bigvec.Byte.create () in
  let o1 = Bigvec.Byte.append_string b "hello, " in
  let o2 = Bigvec.Byte.append_string b (String.make 40 'x') in
  let o3 = Bigvec.Byte.append_string b "world" in
  Alcotest.(check int) "first offset" 0 o1;
  Alcotest.(check int) "second offset" 7 o2;
  Alcotest.(check int) "third offset" 47 o3;
  Alcotest.(check string) "sub across chunks" (String.make 40 'x')
    (Bigvec.Byte.sub_string b o2 40);
  Alcotest.(check string) "tail" "world" (Bigvec.Byte.sub_string b o3 5);
  let snap = Bigvec.Byte.snapshot b in
  ignore (Bigvec.Byte.append_string b "more");
  Alcotest.(check int) "snapshot length frozen" 52 (Bigvec.Byte.length snap);
  Alcotest.(check string) "snapshot bytes frozen" "world"
    (Bigvec.Byte.sub_string snap o3 5)

(* Model check of the paged copy-on-write vectors: random interleavings
   of appends, sets and snapshots over up to six live versions, each
   against its own reference array. Any version may be written,
   snapshot products included, so a write through one version that
   lands in a page or directory another still shares shows up as a
   mismatch on the other. Runs at the default page and directory sizes
   (with bulk appends long enough to cross a directory) and at 16-element
   pages in 16-page directories. Replaying the same history a second
   time must marshal every live version to the same bytes. *)

type bv_op = Append of int list | Bulk of int | Set of int * int | Snap

type 'v bv_ops = {
  create : unit -> 'v;
  length : 'v -> int;
  get : 'v -> int -> int;
  set : 'v -> int -> int -> unit;
  append : 'v -> int array -> unit;
  snapshot : 'v -> 'v;
  norm : int -> int; (* the values the element type represents *)
}

let int_ops =
  {
    create = (fun () -> Bigvec.Int.create ());
    length = Bigvec.Int.length;
    get = Bigvec.Int.get;
    set = Bigvec.Int.set;
    append = (fun v a -> Array.iter (Bigvec.Int.push v) a);
    snapshot = Bigvec.Int.snapshot;
    norm = Fun.id;
  }

let float_ops =
  {
    create = (fun () -> Bigvec.Float.create ());
    length = Bigvec.Float.length;
    get = (fun v i -> int_of_float (Bigvec.Float.get v i));
    set = (fun v i x -> Bigvec.Float.set v i (float_of_int x));
    append = (fun v a -> Array.iter (fun x -> Bigvec.Float.push v (float_of_int x)) a);
    snapshot = Bigvec.Float.snapshot;
    norm = Fun.id;
  }

let byte_ops =
  {
    create = (fun () -> Bigvec.Byte.create ());
    length = Bigvec.Byte.length;
    get = (fun v i -> Char.code (Bigvec.Byte.get v i));
    set = (fun v i x -> Bigvec.Byte.set v i (Char.chr x));
    (* whole runs go through [append_string], single bytes through [push] *)
    append =
      (fun v a ->
        if Array.length a = 1 then Bigvec.Byte.push v (Char.chr a.(0))
        else
          ignore
            (Bigvec.Byte.append_string v
               (String.init (Array.length a) (fun i -> Char.chr a.(i)))
              : int));
    snapshot = Bigvec.Byte.snapshot;
    norm = (fun x -> x land 255);
  }

let gen_bv_ops ~bulk =
  QCheck2.Gen.(
    list_size (int_range 20 120)
      (pair (int_bound 5)
         (frequency
            [
              (4, map (fun l -> Append l) (list_size (int_range 1 40) (int_bound 1000)));
              (1, map (fun n -> Bulk n) (int_bound bulk));
              (6, map2 (fun i x -> Set (i, x)) (int_bound 1_000_000) (int_bound 1000));
              (2, return Snap);
            ])))

(* Replay [ops]; returns the live versions (newest first) with models,
   failing on the first version that disagrees with its model. *)
let replay_bv ops script =
  let live = ref [ (ops.create (), [||]) ] in
  let agree (v, m) =
    let n = Array.length m in
    let rec from i = i = n || (ops.get v i = m.(i) && from (i + 1)) in
    ops.length v = n && from 0
  in
  List.iteri
    (fun step (pick, op) ->
      let vs = Array.of_list !live in
      let i = pick mod Array.length vs in
      let v, m = vs.(i) in
      (match op with
      | Append l ->
          let a = Array.of_list (List.map ops.norm l) in
          ops.append v a;
          vs.(i) <- (v, Array.append m a)
      | Bulk n ->
          let a = Array.init n (fun j -> ops.norm (j * 7919)) in
          ops.append v a;
          vs.(i) <- (v, Array.append m a)
      | Set (j, x) when Array.length m > 0 ->
          let j = j mod Array.length m and x = ops.norm x in
          ops.set v j x;
          let m = Array.copy m in
          m.(j) <- x;
          vs.(i) <- (v, m)
      | Set _ | Snap -> ());
      let vs = Array.to_list vs in
      let vs = match op with Snap -> (ops.snapshot v, snd (List.nth vs i)) :: vs | _ -> vs in
      live := List.filteri (fun k _ -> k < 6) vs;
      if step mod 16 = 0 && not (List.for_all agree !live) then
        QCheck2.Test.fail_reportf "a version diverged from its model at step %d" step)
    script;
  if not (List.for_all agree !live) then
    QCheck2.Test.fail_report "a version diverged from its model at the end";
  !live

let prop_bigvec_model name ops ~log ~bulk ~count =
  QCheck2.Test.make ~name ~count (gen_bv_ops ~bulk) (fun script ->
      let run () =
        match log with
        | None -> replay_bv ops script
        | Some log -> Bigvec.with_chunk_log_for_testing log (fun () -> replay_bv ops script)
      in
      let digests live = List.map (fun (v, _) -> Digest.string (Marshal.to_string v [])) live in
      List.equal String.equal (digests (run ())) (digests (run ())))

let bigvec_model_tests =
  List.concat_map
    (fun (kind, test) -> test kind)
    [
      ("int", fun k ->
          [ prop_bigvec_model (k ^ " model, 16-element pages") int_ops ~log:(Some 4) ~bulk:600 ~count:100;
            prop_bigvec_model (k ^ " model, default pages") int_ops ~log:None ~bulk:20_000 ~count:8 ]);
      ("float", fun k ->
          [ prop_bigvec_model (k ^ " model, 16-element pages") float_ops ~log:(Some 4) ~bulk:600 ~count:100;
            prop_bigvec_model (k ^ " model, default pages") float_ops ~log:None ~bulk:20_000 ~count:8 ]);
      ("byte", fun k ->
          [ prop_bigvec_model (k ^ " model, 128-byte pages") byte_ops ~log:(Some 4) ~bulk:4000 ~count:100;
            prop_bigvec_model (k ^ " model, default pages") byte_ops ~log:None ~bulk:150_000 ~count:8 ]);
    ]

(* Pushes and the bulk paths build the same tables: a vector filled by
   [init]/[of_array] or [append_string] marshals like one filled an
   element at a time. *)
let test_bigvec_bulk_paths () =
  Bigvec.with_chunk_log_for_testing 4 @@ fun () ->
  let n = 16 * 16 * 3 + 5 in
  let a = Array.init n (fun i -> i * 3) in
  let pushed = Bigvec.Int.create () in
  Array.iter (Bigvec.Int.push pushed) a;
  let m v = Digest.string (Marshal.to_string v []) in
  Alcotest.(check string) "init = pushes" (m pushed) (m (Bigvec.Int.init n (fun i -> a.(i))));
  Alcotest.(check string) "of_array = pushes" (m pushed) (m (Bigvec.Int.of_array a));
  Alcotest.(check bool) "to_array" true (Bigvec.Int.to_array pushed = a);
  let s = String.init 1000 (fun i -> Char.chr (i land 255)) in
  let b1 = Bigvec.Byte.create () and b2 = Bigvec.Byte.create () in
  String.iter (Bigvec.Byte.push b1) s;
  ignore (Bigvec.Byte.append_substring b2 ("xx" ^ s ^ "yy") 2 1000 : int);
  Alcotest.(check string) "append_substring = pushes" (m b1) (m b2);
  Alcotest.(check string) "sub_string across pages" (String.sub s 100 700)
    (Bigvec.Byte.sub_string b2 100 700);
  Alcotest.check_raises "append_substring bounds"
    (Invalid_argument "Bigvec.Byte.append_substring") (fun () ->
      ignore (Bigvec.Byte.append_substring b2 s 990 11 : int))

let test_table_formats () =
  Alcotest.(check string) "int" "4,690,640" (Table.fmt_int 4690640);
  Alcotest.(check string) "small int" "42" (Table.fmt_int 42);
  Alcotest.(check string) "neg int" "-1,234" (Table.fmt_int (-1234));
  Alcotest.(check string) "bytes mb" "12.3 MB" (Table.fmt_bytes 12_300_000);
  Alcotest.(check string) "pct" "7.4%" (Table.fmt_pct 7.4)

let test_table_render () =
  let s =
    Table.render ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check bool) "separator" true
    (String.length (List.nth lines 1) > 0 && (List.nth lines 1).[0] = '-')

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_prng_uniformish;
          Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
          Alcotest.test_case "choose_weighted" `Quick test_choose_weighted;
        ] );
      ( "vec",
        [
          Alcotest.test_case "int basics" `Quick test_vec_int_basics;
          Alcotest.test_case "int fold/iter" `Quick test_vec_int_fold_iter;
          Alcotest.test_case "poly" `Quick test_vec_poly;
        ] );
      ( "bigvec",
        [
          Alcotest.test_case "basics" `Quick test_bigvec_basics;
          Alcotest.test_case "copy-on-write snapshot" `Quick
            test_bigvec_cow_snapshot;
          Alcotest.test_case "byte arena" `Quick test_bigvec_byte_arena;
          Alcotest.test_case "bulk paths match pushes" `Quick
            test_bigvec_bulk_paths;
        ] );
      ("bigvec model", List.map QCheck_alcotest.to_alcotest bigvec_model_tests);
      ( "table",
        [
          Alcotest.test_case "formats" `Quick test_table_formats;
          Alcotest.test_case "render" `Quick test_table_render;
        ] );
    ]
