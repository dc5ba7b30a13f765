(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the regenerated data-set suite, plus
   component micro-benchmarks and design ablations.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table1 fig10 -- selected experiments
     dune exec bench/main.exe -- --scale=0.02 -- larger documents

   Experiment ids: table1, fig9, fig10, fig11, micro, ablation, substr,
   baseline, queries, query, parallel, wal, serve, repl, storage, ingest.
   --scale=F sets the fraction of the paper's document sizes to generate
   (default 0.01, i.e. the 2 GB Wiki becomes ~20 MB); --reps=N the
   repetitions for timed runs (paper: 3 for creation, 20 for updates;
   default here 3); --quick shrinks the query experiment to a CI smoke
   run (small document, one rep). *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module SI = Xvi_core.String_index
module TI = Xvi_core.Typed_index
module LT = Xvi_core.Lexical_types
module Indexer = Xvi_core.Indexer
module Hash = Xvi_core.Hash
module Sct = Xvi_core.Sct
module Datasets = Xvi_workload.Datasets
module UW = Xvi_workload.Update_workload
module Table = Xvi_util.Table
module Timing = Xvi_util.Timing
module Prng = Xvi_util.Prng

let scale = ref 0.01
let reps = ref 3

(* --- paper reference numbers (Table 1 and Figure 9) for side-by-side
       printing; times in ms, sizes in MB --- *)

type paper_row = {
  p_total : int;
  p_text_pct : int;
  p_dbl_pct : float;
  p_nonleaf : int;
  p_shred_ms : float;
  p_str_ms : float;
  p_dbl_ms : float;
  p_db_mb : float;
  p_str_mb : float;
  p_dbl_mb : float;
}

let paper : (string * paper_row) list =
  [
    ("XMark1", { p_total = 4_690_640; p_text_pct = 64; p_dbl_pct = 8.0; p_nonleaf = 0;
                 p_shred_ms = 6842.; p_str_ms = 508.; p_dbl_ms = 153.;
                 p_db_mb = 130.1; p_str_mb = 17.8; p_dbl_mb = 3.4 });
    ("XMark2", { p_total = 9_394_467; p_text_pct = 64; p_dbl_pct = 8.0; p_nonleaf = 0;
                 p_shred_ms = 14877.; p_str_ms = 1030.; p_dbl_ms = 326.;
                 p_db_mb = 242.4; p_str_mb = 35.8; p_dbl_mb = 6.6 });
    ("XMark4", { p_total = 18_827_157; p_text_pct = 64; p_dbl_pct = 8.0; p_nonleaf = 0;
                 p_shred_ms = 28079.; p_str_ms = 2104.; p_dbl_ms = 660.;
                 p_db_mb = 450.1; p_str_mb = 71.8; p_dbl_mb = 13.4 });
    ("XMark8", { p_total = 37_642_301; p_text_pct = 64; p_dbl_pct = 8.0; p_nonleaf = 0;
                 p_shred_ms = 55680.; p_str_ms = 4260.; p_dbl_ms = 1345.;
                 p_db_mb = 832.1; p_str_mb = 143.5; p_dbl_mb = 26.7 });
    ("EPAGeo", { p_total = 6_558_707; p_text_pct = 66; p_dbl_pct = 7.0; p_nonleaf = 0;
                 p_shred_ms = 7838.; p_str_ms = 497.; p_dbl_ms = 154.;
                 p_db_mb = 106.5; p_str_mb = 25.0; p_dbl_mb = 4.8 });
    ("DBLP", { p_total = 34_799_707; p_text_pct = 66; p_dbl_pct = 10.0; p_nonleaf = 21;
               p_shred_ms = 51347.; p_str_ms = 2261.; p_dbl_ms = 1088.;
               p_db_mb = 739.5; p_str_mb = 132.7; p_dbl_mb = 35.6 });
    ("PSD", { p_total = 58_445_809; p_text_pct = 63; p_dbl_pct = 4.0; p_nonleaf = 902;
              p_shred_ms = 62510.; p_str_ms = 3088.; p_dbl_ms = 1445.;
              p_db_mb = 944.0; p_str_mb = 222.9; p_dbl_mb = 30.0 });
    ("Wiki", { p_total = 94_672_619; p_text_pct = 56; p_dbl_pct = 0.1; p_nonleaf = 0;
               p_shred_ms = 213875.; p_str_ms = 8968.; p_dbl_ms = 2623.;
               p_db_mb = 2702.2; p_str_mb = 361.1; p_dbl_mb = 1.0 });
  ]

let paper_row name = List.assoc name paper

(* --- shared data: the generated suite and its shredded stores --- *)

let suite = ref []
let stores : (string, Store.t) Hashtbl.t = Hashtbl.create 8

let load_suite () =
  if !suite = [] then begin
    Printf.printf
      "generating the 8-document suite at scale %.3f of the paper's sizes...\n%!"
      !scale;
    let (), ms = Timing.time_ms (fun () -> suite := Datasets.suite ~scale:!scale ()) in
    let total =
      List.fold_left (fun acc e -> acc + String.length e.Datasets.xml) 0 !suite
    in
    Printf.printf "generated %s of XML in %s\n\n%!" (Table.fmt_bytes total)
      (Table.fmt_ms ms)
  end

let store_of entry =
  match Hashtbl.find_opt stores entry.Datasets.name with
  | Some s -> s
  | None ->
      let s = Parser.parse_exn entry.Datasets.xml in
      Hashtbl.add stores entry.Datasets.name s;
      s

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

(* ====================================================== Table 1 ===== *)

let table1 () =
  load_suite ();
  print_endline "== Table 1: statistics about the data sets ==";
  print_endline
    "   (measured on the regenerated suite; 'paper' columns show the original)";
  let rows =
    List.map
      (fun e ->
        let store = store_of e in
        let ti = TI.create (LT.double ()) store in
        let st = TI.stats ti store in
        let total = Store.live_count store - 1 in
        let texts = Store.count_of_kind store Store.Text in
        let p = paper_row e.Datasets.name in
        [
          e.Datasets.name;
          Printf.sprintf "%.1f" (float_of_int (String.length e.Datasets.xml) /. 1e6);
          Table.fmt_int total;
          Table.fmt_int texts;
          Printf.sprintf "%.0f%% (%d%%)" (pct texts total) p.p_text_pct;
          Table.fmt_int st.TI.complete_text_nodes;
          Printf.sprintf "%.1f%% (%.1f%%)" (pct st.TI.complete_text_nodes total) p.p_dbl_pct;
          Printf.sprintf "%d (%d)" st.TI.complete_non_leaves p.p_nonleaf;
        ])
      !suite
  in
  Table.print
    ~header:
      [ "data"; "size MB"; "total nodes"; "text nodes"; "text% (paper)";
        "double values"; "dbl% (paper)"; "non-leaf (paper)" ]
    rows;
  print_newline ()

(* ====================================================== Figure 9 ===== *)

let fig9 () =
  load_suite ();
  print_endline "== Figure 9 (top): shredding time vs index creation time ==";
  print_endline
    "   (paper ratios in parentheses; our shredder is CPU-only and much faster\n\
    \    than MonetDB's disk-bound shredding -- see EXPERIMENTS.md)";
  let time_rows = ref [] and space_rows = ref [] in
  List.iter
    (fun e ->
      let name = e.Datasets.name in
      let p = paper_row name in
      let shred_ms =
        Timing.repeat_ms !reps (fun () -> ignore (Parser.parse_exn e.Datasets.xml : Store.t))
      in
      let store = store_of e in
      let str_ms = Timing.repeat_ms !reps (fun () -> ignore (SI.create store : SI.t)) in
      let dbl_ms =
        Timing.repeat_ms !reps (fun () -> ignore (TI.create (LT.double ()) store : TI.t))
      in
      time_rows :=
        [
          name;
          Table.fmt_ms shred_ms;
          Table.fmt_ms str_ms;
          Printf.sprintf "%.0f%% (%.0f%%)" (100. *. str_ms /. shred_ms)
            (100. *. p.p_str_ms /. p.p_shred_ms);
          Table.fmt_ms dbl_ms;
          Printf.sprintf "%.0f%% (%.0f%%)" (100. *. dbl_ms /. shred_ms)
            (100. *. p.p_dbl_ms /. p.p_shred_ms);
        ]
        :: !time_rows;
      let si = SI.create store in
      let ti = TI.create (LT.double ()) store in
      let db_b = Store.storage_bytes store in
      let si_b = SI.storage_bytes si in
      let ti_b = TI.storage_bytes ti in
      space_rows :=
        [
          name;
          Table.fmt_bytes db_b;
          Table.fmt_bytes si_b;
          Printf.sprintf "%.0f%% (%.0f%%)"
            (100. *. float_of_int si_b /. float_of_int db_b)
            (100. *. p.p_str_mb /. p.p_db_mb);
          Table.fmt_bytes ti_b;
          Printf.sprintf "%.1f%% (%.1f%%)"
            (100. *. float_of_int ti_b /. float_of_int db_b)
            (100. *. p.p_dbl_mb /. p.p_db_mb);
        ]
        :: !space_rows)
    !suite;
  Table.print
    ~header:
      [ "data"; "shred"; "string idx"; "str/shred (paper)"; "double idx";
        "dbl/shred (paper)" ]
    (List.rev !time_rows);
  print_newline ();
  print_endline "== Figure 9 (bottom): index storage vs database storage ==";
  Table.print
    ~header:
      [ "data"; "DB size"; "string idx"; "str/DB (paper)"; "double idx";
        "dbl/DB (paper)" ]
    (List.rev !space_rows);
  print_newline ()

(* ====================================================== Figure 10 ===== *)

let fig10 () =
  load_suite ();
  print_endline "== Figure 10: update time vs number of updated text nodes ==";
  Printf.printf
    "   (index maintenance only, mean of %d runs; paper: < 400 ms at 10^6\n\
    \    updated nodes on 2 GB Wiki, < 50 ms for small updates)\n" !reps;
  let counts = [ 1; 10; 100; 1_000; 10_000; 100_000 ] in
  let header =
    "data" :: "index"
    :: List.map
         (fun c ->
           if c >= 1000 then Printf.sprintf "%dk" (c / 1000) else string_of_int c)
         counts
  in
  let rows = ref [] in
  List.iter
    (fun e ->
      let store = store_of e in
      let si = SI.create store in
      let ti = TI.create (LT.double ()) store in
      let n_texts = Array.length (Store.text_nodes store) in
      let str_cells = ref [] and dbl_cells = ref [] in
      List.iter
        (fun count ->
          if count > n_texts then begin
            str_cells := "-" :: !str_cells;
            dbl_cells := "-" :: !dbl_cells
          end
          else begin
            let str_total = ref 0.0 and dbl_total = ref 0.0 in
            for rep = 1 to !reps do
              let updates =
                UW.random_text_updates ~seed:((rep * 7919) + count) store ~count
              in
              List.iter (fun (n, v) -> Store.set_text store n v) updates;
              let nodes = List.map fst updates in
              let (), ms =
                Timing.time_ms (fun () -> SI.update_texts si store nodes)
              in
              str_total := !str_total +. ms;
              let (), ms =
                Timing.time_ms (fun () -> TI.update_texts ti store nodes)
              in
              dbl_total := !dbl_total +. ms
            done;
            str_cells :=
              Table.fmt_ms (!str_total /. float_of_int !reps) :: !str_cells;
            dbl_cells :=
              Table.fmt_ms (!dbl_total /. float_of_int !reps) :: !dbl_cells
          end)
        counts;
      (* the timed maintenance must have left what a rebuild builds *)
      let check what = function
        | Ok () -> ()
        | Error m ->
            Printf.eprintf "fig10: %s %s index diverged after the sweep: %s\n"
              e.Datasets.name what m;
            exit 1
      in
      check "string" (SI.validate si store);
      check "double" (TI.validate ti store);
      check "string"
        (if String.equal (SI.digest si store) (SI.digest (SI.create store) store)
         then Ok ()
         else Error "digest <> rebuild");
      check "double"
        (if
           String.equal (TI.digest ti store)
             (TI.digest (TI.create (LT.double ()) store) store)
         then Ok ()
         else Error "digest <> rebuild");
      rows := (e.Datasets.name :: "string" :: List.rev !str_cells) :: !rows;
      rows := ("" :: "double" :: List.rev !dbl_cells) :: !rows)
    !suite;
  Table.print ~header (List.rev !rows);
  print_newline ();
  (* the sweep mutated the cached stores; drop them so any experiment
     running afterwards sees pristine documents *)
  Hashtbl.reset stores

(* ====================================================== Figure 11 ===== *)

let fig11 () =
  load_suite ();
  print_endline "== Figure 11: hash stability ==";
  print_endline
    "   (number of hash values shared by k distinct text-node string values)";
  let histo store =
    let by_hash = Hashtbl.create 65536 in
    Store.iter_pre store (fun n ->
        if Store.kind store n = Store.Text then begin
          let s = Store.text store n in
          let h = Hash.to_int (Hash.hash s) in
          let set =
            match Hashtbl.find_opt by_hash h with
            | Some set -> set
            | None ->
                let set = Hashtbl.create 2 in
                Hashtbl.add by_hash h set;
                set
          in
          Hashtbl.replace set s ()
        end);
    let histogram = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ set ->
        let k = Hashtbl.length set in
        Hashtbl.replace histogram k
          (1 + Option.value ~default:0 (Hashtbl.find_opt histogram k)))
      by_hash;
    histogram
  in
  let histos = List.map (fun e -> (e.Datasets.name, histo (store_of e))) !suite in
  let max_k =
    List.fold_left
      (fun acc (_, h) -> Hashtbl.fold (fun k _ a -> max k a) h acc)
      1 histos
  in
  let header = "k distinct strings" :: List.map fst histos in
  let rows =
    List.init max_k (fun i ->
        let k = i + 1 in
        string_of_int k
        :: List.map
             (fun (_, h) ->
               match Hashtbl.find_opt h k with
               | Some c -> Table.fmt_int c
               | None -> ".")
             histos)
  in
  Table.print ~header rows;
  let rows =
    List.map
      (fun (name, h) ->
        let distinct = Hashtbl.fold (fun k c acc -> acc + (k * c)) h 0 in
        let colliding =
          Hashtbl.fold (fun k c acc -> if k > 1 then acc + (k * c) else acc) h 0
        in
        [
          name; Table.fmt_int distinct; Table.fmt_int colliding;
          Table.fmt_pct (pct colliding distinct);
        ])
      histos
  in
  print_newline ();
  Table.print ~header:[ "data"; "distinct strings"; "colliding"; "rate" ] rows;
  print_newline ()

(* ====================================================== micro ===== *)

let micro () =
  print_endline "== Micro-benchmarks (Bechamel, time per operation) ==";
  (* a large live heap (the generated suite) inflates per-sample GC
     costs; compact first for clean estimates *)
  Gc.compact ();
  let open Bechamel in
  let open Toolkit in
  let s10 = String.init 10 (fun i -> Char.chr (97 + (i mod 26))) in
  let s100 = String.init 100 (fun i -> Char.chr (97 + (i mod 26))) in
  let s1000 = String.init 1000 (fun i -> Char.chr (97 + (i mod 26))) in
  let h1 = Hash.hash s100 and h2 = Hash.hash s1000 in
  let dbl = (LT.double ()).LT.sct in
  let e1 = Sct.of_string dbl "42.5" and e2 = Sct.of_string dbl "E+93" in
  let module BT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_key) in
  let tree = BT.create () in
  let () =
    let rng = Prng.create 1 in
    for _ = 1 to 100_000 do
      BT.insert tree (Prng.int rng 10_000_000) 0
    done
  in
  let rng = Prng.create 2 in
  let tests =
    [
      Test.make ~name:"H(10 chars)" (Staged.stage (fun () -> Hash.hash s10));
      Test.make ~name:"H(100 chars)" (Staged.stage (fun () -> Hash.hash s100));
      Test.make ~name:"H(1000 chars)" (Staged.stage (fun () -> Hash.hash s1000));
      Test.make ~name:"C(h1,h2) combine" (Staged.stage (fun () -> Hash.combine h1 h2));
      Test.make ~name:"H(concat) instead of C"
        (Staged.stage (fun () -> Hash.hash (s100 ^ s1000)));
      Test.make ~name:"FSM run '42.5'"
        (Staged.stage (fun () -> Sct.of_string dbl "42.5"));
      Test.make ~name:"FSM run on prose"
        (Staged.stage (fun () -> Sct.of_string dbl "prose text of a sentence"));
      Test.make ~name:"SCT probe" (Staged.stage (fun () -> Sct.compose dbl e1 e2));
      Test.make ~name:"btree lookup (100k keys)"
        (Staged.stage (fun () -> BT.find tree (Prng.int rng 10_000_000)));
      Test.make ~name:"btree insert+remove"
        (Staged.stage (fun () ->
             let k = Prng.int rng 10_000_000 in
             BT.insert tree k 1;
             ignore (BT.remove tree k : bool)));
    ]
  in
  let test = Test.make_grouped ~name:"xvi" tests in
  let cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0)
      ~sampling:(`Geometric 1.05) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.1f ns" e
        | _ -> "?"
      in
      rows := [ name; est ] :: !rows)
    results;
  Table.print ~header:[ "operation"; "time/op" ]
    (List.sort (List.compare String.compare) !rows);
  print_newline ()

(* ====================================================== ablation ===== *)

let ablation () =
  load_suite ();
  print_endline
    "== Ablations (design choices; see DESIGN.md 'ablation candidates') ==";
  let e = List.hd !suite (* XMark1 *) in
  let store = store_of e in
  let si = SI.create store in

  (* (a) incremental Figure 8 maintenance vs full rebuild *)
  let count = 1_000 in
  let updates = UW.random_text_updates ~seed:99 store ~count in
  List.iter (fun (n, v) -> Store.set_text store n v) updates;
  let nodes = List.map fst updates in
  let (), inc_ms = Timing.time_ms (fun () -> SI.update_texts si store nodes) in
  let rebuild_ms = Timing.repeat_ms 3 (fun () -> ignore (SI.create store : SI.t)) in
  Table.print ~header:[ "string index maintenance (1000 updates)"; "time" ]
    [
      [ "incremental (Figure 8, C-recombination)"; Table.fmt_ms inc_ms ];
      [ "full rebuild (one fill pass)"; Table.fmt_ms rebuild_ms ];
      [ "speedup"; Printf.sprintf "%.0fx" (rebuild_ms /. inc_ms) ];
    ];
  print_newline ();

  (* (b) per-ancestor recombination: combine children fields vs re-hash
     the reconstructed string value *)
  let fields = Indexer.create Indexer.hash_ops store in
  let victims =
    let rng = Prng.create 4 in
    let acc = ref [] in
    Store.iter_pre store (fun n ->
        if Store.kind store n = Store.Element && Prng.int rng 100 = 0 then
          acc := n :: !acc);
    Array.of_list !acc
  in
  let fold_children n =
    List.fold_left
      (fun acc c -> Hash.combine acc (Indexer.get fields c))
      Hash.empty (Store.children store n)
  in
  let (), fold_ms =
    Timing.time_ms (fun () ->
        Array.iter (fun n -> ignore (fold_children n : Hash.t)) victims)
  in
  let (), rehash_ms =
    Timing.time_ms (fun () ->
        Array.iter
          (fun n -> ignore (Hash.hash (Store.string_value store n) : Hash.t))
          victims)
  in
  Table.print
    ~header:
      [ Printf.sprintf "recombining %d elements" (Array.length victims); "time" ]
    [
      [ "C over children hashes (paper)"; Table.fmt_ms fold_ms ];
      [ "re-hash reconstructed string value"; Table.fmt_ms rehash_ms ];
      [ "speedup"; Printf.sprintf "%.1fx" (rehash_ms /. fold_ms) ];
    ];
  print_newline ();

  (* (c) group-inverse delta update (extension) vs sibling re-fold *)
  let texts = Store.text_nodes store in
  let rng = Prng.create 5 in
  let sample = Prng.sample_distinct rng 2_000 (Array.length texts) in
  let (), refold_ms =
    Timing.time_ms (fun () ->
        Array.iter
          (fun i ->
            let n = texts.(i) in
            match Store.parent store n with
            | Some p -> ignore (fold_children p : Hash.t)
            | None -> ())
          sample)
  in
  let (), delta_ms =
    Timing.time_ms (fun () ->
        Array.iter
          (fun i ->
            let n = texts.(i) in
            match Store.parent store n with
            | Some p ->
                (* prefix = combined fields of the preceding siblings;
                   the suffix is never visited *)
                let prefix = ref Hash.empty in
                let rec scan c =
                  if c <> n then begin
                    prefix := Hash.combine !prefix (Indexer.get fields c);
                    match Store.next_sibling store c with
                    | Some next -> scan next
                    | None -> ()
                  end
                in
                (match Store.first_child store p with
                | Some c -> scan c
                | None -> ());
                ignore
                  (Hash.replace
                     ~old_child:(Indexer.get fields n)
                     ~new_child:(Hash.hash "replacement") ~prefix:!prefix
                     (Indexer.get fields p)
                    : Hash.t)
            | None -> ())
          sample)
  in
  Table.print
    ~header:[ "parent hash after one child update (2000 samples)"; "time" ]
    [
      [ "re-fold all children (paper Figure 8)"; Table.fmt_ms refold_ms ];
      [ "group-inverse delta (extension)"; Table.fmt_ms delta_ms ];
      [ "ratio"; Printf.sprintf "%.2fx" (refold_ms /. delta_ms) ];
    ];
  print_newline ();

  (* the delta's real advantage appears on wide nodes: updating an early
     child of a 10000-child element *)
  let wide = Store.create () in
  let wide_root = Store.append_element wide ~parent:Store.document "wide" in
  for i = 0 to 9_999 do
    let c = Store.append_element wide ~parent:wide_root "e" in
    ignore (Store.append_text wide ~parent:c (string_of_int i) : Store.node)
  done;
  let wfields = Indexer.create Indexer.hash_ops wide in
  let early = List.nth (Store.children wide wide_root) 10 in
  let iters = 1_000 in
  let (), wide_refold_ms =
    Timing.time_ms (fun () ->
        for _ = 1 to iters do
          ignore
            (List.fold_left
               (fun acc c -> Hash.combine acc (Indexer.get wfields c))
               Hash.empty (Store.children wide wide_root)
              : Hash.t)
        done)
  in
  let (), wide_delta_ms =
    Timing.time_ms (fun () ->
        for _ = 1 to iters do
          let prefix = ref Hash.empty in
          let rec scan c =
            if c <> early then begin
              prefix := Hash.combine !prefix (Indexer.get wfields c);
              match Store.next_sibling wide c with
              | Some next -> scan next
              | None -> ()
            end
          in
          (match Store.first_child wide wide_root with
          | Some c -> scan c
          | None -> ());
          ignore
            (Hash.replace
               ~old_child:(Indexer.get wfields early)
               ~new_child:(Hash.hash "x") ~prefix:!prefix
               (Indexer.get wfields wide_root)
              : Hash.t)
        done)
  in
  Table.print
    ~header:
      [ "same, on a 10000-child element (child #10 updated)"; "time/update" ]
    [
      [ "re-fold all children (paper Figure 8)";
        Table.fmt_ms (wide_refold_ms /. float_of_int iters) ];
      [ "group-inverse delta (extension)";
        Table.fmt_ms (wide_delta_ms /. float_of_int iters) ];
      [ "speedup"; Printf.sprintf "%.0fx" (wide_refold_ms /. wide_delta_ms) ];
    ];
  print_newline ();

  (* (d) one shared pass vs one pass per index (paper Section 5) *)
  let specs = [ LT.double (); LT.datetime () ] in
  let (), multi_ms =
    Timing.time_ms (fun () ->
        let packs =
          Indexer.Packed
            (Indexer.hash_ops, Indexer.empty_fields Indexer.hash_ops)
          :: List.map
               (fun spec ->
                 let ops = Indexer.sct_ops spec.LT.sct in
                 Indexer.Packed (ops, Indexer.empty_fields ops))
               specs
        in
        Indexer.fill store packs)
  in
  let (), separate_ms =
    Timing.time_ms (fun () ->
        ignore (Indexer.create Indexer.hash_ops store : Hash.t Indexer.fields);
        List.iter
          (fun spec ->
            ignore
              (Indexer.create (Indexer.sct_ops spec.LT.sct) store
                : int Indexer.fields))
          specs)
  in
  Table.print
    ~header:[ "field computation for 3 indices (string+double+dateTime)"; "time" ]
    [
      [ "one shared fill pass (paper Section 5)"; Table.fmt_ms multi_ms ];
      [ "one fill pass per index"; Table.fmt_ms separate_ms ];
      [ "speedup"; Printf.sprintf "%.2fx" (separate_ms /. multi_ms) ];
    ];
  print_newline ();

  (* (e) typed-index reconstruction modes *)
  let ti_doc, doc_ms =
    Timing.time_ms (fun () -> TI.create (LT.double ()) store)
  in
  let ti_frag, frag_ms =
    Timing.time_ms (fun () -> TI.create ~reconstruct:`Fragment (LT.double ()) store)
  in
  Table.print
    ~header:[ "typed index reconstruction mode"; "create"; "storage" ]
    [
      [ "`Document (re-read store on update)"; Table.fmt_ms doc_ms;
        Table.fmt_bytes (TI.storage_bytes ti_doc) ];
      [ "`Fragment (no document access)"; Table.fmt_ms frag_ms;
        Table.fmt_bytes (TI.storage_bytes ti_frag) ];
    ];
  print_newline ()

(* ====================================================== substr ===== *)

(* Extension experiment: the paper's §7 future work, substring indexing,
   measured in the same style as Figure 9/10 — build cost, storage, and
   query latency vs a full scan. *)
let substr () =
  load_suite ();
  print_endline "== Substring (3-gram) index: the paper's future-work extension ==";
  let e = List.nth !suite 7 (* Wiki: the text-heaviest set *) in
  let store = store_of e in
  let module SubI = Xvi_core.Substring_index in
  let si, build_ms = Timing.time_ms (fun () -> SubI.create store) in
  Printf.printf "built on %s (%s nodes) in %s; %s postings, %s (DB %s)

"
    e.Datasets.name
    (Table.fmt_int (Store.live_count store))
    (Table.fmt_ms build_ms)
    (Table.fmt_int (SubI.entry_count si))
    (Table.fmt_bytes (SubI.storage_bytes si))
    (Table.fmt_bytes (Store.storage_bytes store));
  let scan pattern =
    let acc = ref 0 in
    Store.iter_pre store (fun n ->
        match Store.kind store n with
        | Store.Text | Store.Attribute ->
            let s = Store.text store n in
            let m = String.length pattern and len = String.length s in
            let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
            let rec go i = i + m <= len && (at i 0 || go (i + 1)) in
            if go 0 then incr acc
        | _ -> ());
    !acc
  in
  let rows =
    List.map
      (fun pattern ->
        let hits, idx_ms =
          Timing.time_ms (fun () -> SubI.contains si store pattern)
        in
        let scan_hits, scan_ms = Timing.time_ms (fun () -> scan pattern) in
        assert (List.length hits = scan_hits);
        [
          Printf.sprintf "%S" pattern;
          Table.fmt_int (List.length hits);
          Table.fmt_ms idx_ms;
          Table.fmt_ms scan_ms;
          Printf.sprintf "%.0fx" (scan_ms /. idx_ms);
        ])
      [ "wikipedia"; "hitchhik"; "president"; "qqq"; "according" ]
  in
  Table.print ~header:[ "pattern"; "hits"; "gram index"; "full scan"; "speedup" ] rows;
  print_endline
    "   (gram indexes win on selective patterns; high-frequency patterns\n\
    \    degrade to scan speed because every posting must be verified)";
  print_newline ()

(* ====================================================== baseline ===== *)

(* Extension experiment: the DB2 PureXML-style path-specific index the
   paper's introduction argues against, vs the generic double index. *)
let baseline () =
  load_suite ();
  print_endline
    "== Baseline: DBA-configured path index (DB2 style) vs generic index ==";
  let e = List.nth !suite 2 (* XMark4 *) in
  let store = store_of e in
  let module PI = Xvi_core.Path_index in
  let generic, g_ms =
    Timing.time_ms (fun () -> TI.create (LT.double ()) store)
  in
  let path, p_ms =
    Timing.time_ms (fun () ->
        PI.create_exn ~pattern:"//open_auction/initial" (LT.double ()) store)
  in
  Table.print
    ~header:[ "index"; "create"; "storage"; "entries" ]
    [
      [ "generic xs:double (paper)"; Table.fmt_ms g_ms;
        Table.fmt_bytes (TI.storage_bytes generic);
        Table.fmt_int (TI.entry_count generic) ];
      [ "path //open_auction/initial (DB2 style)"; Table.fmt_ms p_ms;
        Table.fmt_bytes (PI.storage_bytes path);
        Table.fmt_int (PI.entry_count path) ];
    ];
  print_newline ();
  (* the declared path: both answer; any other path: only the generic *)
  let lo = 100.0 and hi = 120.0 in
  let p_hits, p_query =
    Timing.time_ms (fun () -> PI.range ~lo ~hi path)
  in
  let g_hits, g_query =
    Timing.time_ms (fun () ->
        List.filter
          (fun n ->
            Store.kind store n = Store.Element
            && Store.name store n = "initial")
          (TI.range ~lo ~hi generic))
  in
  Table.print
    ~header:[ "query"; "path index"; "generic index" ]
    [
      [ "initial in [100,120]";
        Printf.sprintf "%d hits, %s" (List.length p_hits) (Table.fmt_ms p_query);
        Printf.sprintf "%d hits, %s" (List.length g_hits) (Table.fmt_ms g_query) ];
      [ "price < 5 (undeclared path)";
        "cannot answer (needs DBA action)";
        Printf.sprintf "%d hits"
          (List.length
             (List.filter
                (fun n ->
                  Store.kind store n = Store.Element
                  && Store.name store n = "price")
                (TI.range ~hi:5.0 generic))) ];
      [ {|string lookup "Creditcard"|};
        "cannot answer (wrong type)";
        Printf.sprintf "%d hits"
          (List.length (SI.lookup (SI.create store) store "Creditcard")) ];
    ];
  print_endline
    "   (the paper's trade: the generic indices pay a constant storage factor
    \    to cover every path, every node and both comparison kinds at once)";
  print_newline ()

(* ====================================================== queries ===== *)

(* Extension experiment: end-to-end query acceleration — what the
   paper's indices are for. Naive tree-walking evaluation vs the
   index-driven evaluator, on schema-appropriate queries per data set. *)
let queries () =
  load_suite ();
  print_endline "== Query acceleration (extension): naive vs index-driven XPath ==";
  let module Xpath = Xvi_xpath.Xpath in
  let cases =
    [
      ( "XMark4",
        [
          "//person[profile/age = 42]";
          "//open_auction[initial >= 100 and initial < 110]";
          "//item[quantity = 2]";
          "//person[name = \"Arthur Dent\"]";
          "//closed_auction[price >= 700]";
        ] );
      ( "DBLP",
        [
          "//article[year = 1999]";
          "//article[author = \"Lefteris Sidirourgos\"]";
          "//inproceedings[year >= 2000 and year < 2003]";
        ] );
      ( "Wiki",
        [ "//doc[population > 1000000]"; "//doc[contains(comment, \"health\")]" ] );
    ]
  in
  List.iter
    (fun (name, qs) ->
      let e = List.find (fun e -> e.Datasets.name = name) !suite in
      let store = store_of e in
      let db, build_ms =
        Timing.time_ms (fun () ->
            Xvi_core.Db.of_store
              ~config:
                {
                  Xvi_core.Db.Config.default with
                  Xvi_core.Db.Config.substring = name = "Wiki";
                }
              store)
      in
      Printf.printf "%s (%s nodes; indices built in %s):\n" name
        (Table.fmt_int (Store.live_count store))
        (Table.fmt_ms build_ms);
      let rows =
        List.map
          (fun q ->
            let t = Xpath.parse_exn q in
            let naive, naive_ms = Timing.time_ms (fun () -> Xpath.eval store t) in
            (* warm run: the plane is cached by the Db *)
            ignore (Xpath.eval_indexed db t : Store.node list);
            let fast, fast_ms =
              Timing.time_ms (fun () -> Xpath.eval_indexed db t)
            in
            assert (naive = fast);
            [
              q;
              string_of_int (List.length naive);
              Table.fmt_ms naive_ms;
              Table.fmt_ms fast_ms;
              Printf.sprintf "%.0fx" (naive_ms /. fast_ms);
            ])
          qs
      in
      Table.print ~header:[ "query"; "hits"; "naive"; "indexed"; "speedup" ] rows;
      print_newline ())
    cases

(* ====================================================== query ===== *)

(* The compositional query layer: a conjunctive name + range (+ scope)
   predicate over XMark, answered by the planner's streaming cursor
   merges vs the pre-planner strategy — materialize every conjunct's
   full hit list, intersect through a hashtable, apply the scope by
   parent up-walks, sort. Results are asserted equal; timings and the
   speedup land in BENCH_query.json for trend tracking. *)
let quick = ref false

let query_bench () =
  print_endline "== Query planner: streaming merges vs naive intersection ==";
  let module Db = Xvi_core.Db in
  let module Ir = Db.Ir in
  let module Plane = Xvi_xml.Pre_plane in
  let factor = if !quick then 0.08 else !scale *. 40.0 in
  let reps = if !quick then 1 else !reps in
  let xml = Xvi_workload.Xmark.generate ~seed:42 ~factor () in
  let store = Parser.parse_exn xml in
  let db = Db.of_store store in
  Printf.printf "XMark factor %.2f: %s nodes\n%!" factor
    (Table.fmt_int (Store.live_count store));
  let scope =
    match Db.elements_named db "open_auctions" with
    | s :: _ -> s
    | [] -> failwith "XMark document without <open_auctions>"
  in
  let range = Db.Range.between 100.0 200.0 in
  let conj = Ir.conj [ Ir.named "initial"; Ir.typed_range "xs:double" range ] in
  let scoped = Ir.within ~scope conj in
  let naive_run ~use_scope () =
    (* the pre-planner shape: every conjunct — the scope included — as a
       materialized node list, intersected through hashtables, sorted *)
    let l1 = Db.elements_named db "initial" in
    let l2 = Db.lookup_double db range in
    let scope_set =
      if not use_scope then None
      else begin
        let set = Hashtbl.create 4096 in
        let rec add n =
          Hashtbl.replace set n ();
          List.iter add (Store.attributes store n);
          List.iter add (Store.children store n)
        in
        add scope;
        Some set
      end
    in
    let set = Hashtbl.create (List.length l1) in
    List.iter (fun n -> Hashtbl.replace set n ()) l1;
    let inter = List.filter (Hashtbl.mem set) l2 in
    let restricted =
      match scope_set with
      | None -> inter
      | Some s -> List.filter (Hashtbl.mem s) inter
    in
    Plane.sort_doc_order (Db.plane db) restricted
  in
  print_endline "plan for the scoped conjunction:";
  print_string (Db.explain db scoped);
  print_newline ();
  let rows = ref [] and json_cases = ref [] in
  List.iter
    (fun (label, ir, naive) ->
      let planned_hits = Db.query db ir in
      let naive_hits = naive () in
      assert (planned_hits = naive_hits);
      (* Alternate the two measurement blocks and keep each side's best:
         at tens of microseconds per query, scheduler jitter between two
         sequential blocks otherwise dominates the comparison. *)
      let planned_ms = ref infinity and naive_ms = ref infinity in
      for _ = 1 to 5 do
        let p = Timing.repeat_ms reps (fun () -> ignore (Db.query db ir : Store.node list))
        in
        let n = Timing.repeat_ms reps (fun () -> ignore (naive () : Store.node list)) in
        if p < !planned_ms then planned_ms := p;
        if n < !naive_ms then naive_ms := n
      done;
      let planned_ms = !planned_ms and naive_ms = !naive_ms in
      rows :=
        [
          label;
          Table.fmt_int (List.length planned_hits);
          Table.fmt_ms planned_ms;
          Table.fmt_ms naive_ms;
          Printf.sprintf "%.1fx" (naive_ms /. planned_ms);
        ]
        :: !rows;
      json_cases :=
        Printf.sprintf
          "    { \"query\": %S, \"hits\": %d, \"planned_ms\": %.4f, \
           \"naive_ms\": %.4f, \"speedup\": %.2f }"
          (Ir.to_string ir) (List.length planned_hits) planned_ms naive_ms
          (naive_ms /. planned_ms)
        :: !json_cases)
    [
      ("name + range", conj, naive_run ~use_scope:false);
      ("name + range within scope", scoped, naive_run ~use_scope:true);
    ];
  Table.print
    ~header:[ "query"; "hits"; "planned"; "naive intersect"; "speedup" ]
    (List.rev !rows);
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"query\",\n\
      \  \"xmark_factor\": %.3f,\n\
      \  \"nodes\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"cases\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      factor (Store.live_count store) reps
      (String.concat ",\n" (List.rev !json_cases))
  in
  let oc = open_out "BENCH_query.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_query.json";
  print_newline ()

(* ====================================================== parallel ===== *)

(* Extension experiment: domain-parallel index construction. Builds the
   full Db over an XMark document with 1, 2, 4 and 8 domains and reports
   the wall-clock speedup over the serial build. One serial
   [Indexer.fill] pass computes the field columns; what runs per domain
   is posting and typed-value collection over node-id slices, so the
   speedup saturates early and at the host's core count. Exits 1 when a
   parallel build's digest differs from the serial one or the jobs=4
   database fails validation. *)
let parallel () =
  print_endline "== Parallel index construction (jobs = 1/2/4/8) ==";
  Printf.printf "host recommends %d domain(s)\n"
    (Xvi_util.Pool.recommended_jobs ());
  let xml = Xvi_workload.Xmark.generate ~seed:42 ~factor:(!scale *. 40.0) () in
  let store = Parser.parse_exn xml in
  Printf.printf "XMark at scale %.3f: %s nodes\n%!" !scale
    (Table.fmt_int (Store.live_count store));
  let module Db = Xvi_core.Db in
  let build jobs =
    Db.of_store ~config:{ Db.Config.default with Db.Config.jobs } store
  in
  let serial_fp = ref "" and serial_ms = ref 0.0 and failed = ref false in
  let rows =
    List.map
      (fun jobs ->
        let ms =
          Timing.repeat_ms ~warmup:1 !reps (fun () -> ignore (build jobs : Db.t))
        in
        let fp = Db.digest (build jobs) in
        if jobs = 1 then begin
          serial_fp := fp;
          serial_ms := ms
        end;
        if fp <> !serial_fp then failed := true;
        [
          string_of_int jobs;
          Table.fmt_ms ms;
          Printf.sprintf "%.2fx" (!serial_ms /. ms);
          (if fp = !serial_fp then "bit-identical" else "MISMATCH");
        ])
      [ 1; 2; 4; 8 ]
  in
  Table.print ~header:[ "jobs"; "build"; "speedup"; "vs serial" ] rows;
  (match Db.validate (build 4) with
  | Ok () -> print_endline "jobs=4 database validates clean against a rebuild"
  | Error e ->
      failed := true;
      Printf.printf "VALIDATION FAILED: %s\n" e);
  print_newline ();
  if !failed then exit 1

(* ====================================================== wal ===== *)

(* Extension experiment: durable commit throughput under the three WAL
   sync policies. Every commit is one write-ahead-logged transaction;
   Always pays one fsync per commit, Group batches the commits of a
   2 ms window behind a single fsync, Never leaves flushing to the OS
   (the upper bound: pure logging cost). Runs in a directory under the
   current working tree, NOT /tmp — tmpfs grants free fsyncs and would
   fake the result. Each mode's run is crash-recovered and validated
   afterwards; throughputs land in BENCH_wal.json. *)
let wal_bench () =
  print_endline "== WAL group commit: durable commit throughput by sync policy ==";
  let module Db = Xvi_core.Db in
  let module Txn = Xvi_txn.Txn in
  let module Wal = Xvi_wal.Wal in
  let module Durable = Xvi_wal.Durable in
  let factor = if !quick then 0.02 else 0.1 in
  let commits = if !quick then 1000 else 2000 in
  let xml = Xvi_workload.Xmark.generate ~seed:42 ~factor () in
  let base = Filename.concat (Sys.getcwd ()) "_bench_wal.tmp" in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  rm_rf base;
  Unix.mkdir base 0o755;
  let modes =
    [ ("always", Wal.Always); ("group", Wal.Group 0.002); ("never", Wal.Never) ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (name, _) -> rm_rf (Filename.concat base name)) modes;
      rm_rf base)
    (fun () ->
      let results =
        List.map
          (fun (name, mode) ->
            let dir = Filename.concat base name in
            let db =
              match Db.of_xml xml with
              | Ok db -> db
              | Error e -> failwith (Parser.error_to_string e)
            in
            let texts = Store.text_nodes (Db.store db) in
            (* scratch dir: a leftover from an interrupted run is fair
               game to overwrite *)
            let t = Durable.create ~force:true ~sync_mode:mode ~dir db in
            let n = Array.length texts in
            let (), ms =
              Timing.time_ms (fun () ->
                  for i = 1 to commits do
                    match
                      Durable.update_text t
                        texts.(i mod n)
                        (Printf.sprintf "wal bench %d" i)
                    with
                    | Ok () -> ()
                    | Error (c : Txn.conflict) ->
                        failwith ("wal bench commit conflicted: " ^ c.Txn.reason)
                  done;
                  (* the tail of the last group window / Never backlog:
                     durability isn't reached until this fsync, so it
                     belongs inside the timed region *)
                  Durable.sync t)
            in
            let st = Txn.stats (Durable.manager t) in
            let w = (Durable.stats t).Durable.writer in
            Durable.close t;
            (* crash-recover the directory and make sure nothing was lost *)
            let r =
              match Durable.open_ dir with
              | Ok r -> r
              | Error m -> failwith (name ^ ": recovery failed: " ^ m)
            in
            let last =
              Store.text (Db.store (Durable.db r)) texts.(commits mod n)
            in
            if last <> Printf.sprintf "wal bench %d" commits then
              failwith (name ^ ": recovery lost the last committed update");
            (match Db.validate (Durable.db r) with
            | Ok () -> ()
            | Error e -> failwith (name ^ ": recovered db invalid: " ^ e));
            Durable.close r;
            let tps = float_of_int commits /. (ms /. 1000.) in
            (name, mode, ms, tps, st, w))
          modes
      in
      let tps_of name =
        let _, _, _, tps, _, _ =
          List.find (fun (n, _, _, _, _, _) -> n = name) results
        in
        tps
      in
      let speedup = tps_of "group" /. tps_of "always" in
      Table.print
        ~header:
          [ "sync mode"; "commits"; "total"; "commits/s"; "fsyncs"; "batched" ]
        (List.map
           (fun (name, mode, ms, tps, st, (w : Wal.Writer.stats)) ->
             ignore (mode : Wal.sync_mode);
             [
               name;
               string_of_int st.Txn.committed;
               Table.fmt_ms ms;
               Printf.sprintf "%.0f" tps;
               string_of_int w.Wal.Writer.syncs;
               string_of_int st.Txn.wal_deferred;
             ])
           results);
      Printf.printf "group commit speedup over per-commit fsync: %.1fx\n"
        speedup;
      let json =
        Printf.sprintf
          "{\n\
          \  \"experiment\": \"wal\",\n\
          \  \"xmark_factor\": %.3f,\n\
          \  \"commits\": %d,\n\
          \  \"group_vs_always_speedup\": %.2f,\n\
          \  \"modes\": [\n\
           %s\n\
          \  ]\n\
           }\n"
          factor commits speedup
          (String.concat ",\n"
             (List.map
                (fun (name, mode, ms, tps, st, (w : Wal.Writer.stats)) ->
                  Printf.sprintf
                    "    { \"mode\": %S, \"sync\": %S, \"total_ms\": %.3f, \
                     \"commits_per_s\": %.1f, \"fsyncs\": %d, \
                     \"synced_commits\": %d, \"deferred_commits\": %d }"
                    name
                    (Wal.sync_mode_to_string mode)
                    ms tps w.Wal.Writer.syncs st.Txn.wal_synced
                    st.Txn.wal_deferred)
                results))
      in
      let oc = open_out "BENCH_wal.json" in
      output_string oc json;
      close_out oc;
      print_endline "wrote BENCH_wal.json";
      print_newline ())

(* ==================================================== serve ===== *)

(* Serving-layer experiment: read QPS of snapshot-isolated reader
   domains against a live engine, and durable commit throughput of
   concurrent sessions under per-commit fsync vs cross-session group
   commit. Reader scaling is bounded by the machine's core count — the
   JSON records [cores] so a 1-core CI box reporting flat QPS is read
   as what it is, not as a serving-layer defect. The commit half runs
   in a directory under the working tree, NOT /tmp, for the same
   reason as the wal experiment: tmpfs fsyncs are free. Results land
   in BENCH_serve.json. *)
(* The tree this binary was built from, for BENCH provenance. *)
let git_rev () =
  let read cmd =
    match Unix.open_process_in cmd with
    | ic ->
        let line = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic : Unix.process_status);
        line
    | exception Unix.Unix_error _ -> ""
  in
  let rev = read "git rev-parse HEAD 2>/dev/null" in
  if rev = "" then "unknown"
  else if read "git status --porcelain --untracked-files=no 2>/dev/null" = ""
  then rev
  else rev ^ "-dirty"

let p50 samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Publication cost vs index size: what epoch publication costs the
   writer per value commit — [Db.copy] of the master plus the plane the
   epoch answers scoped reads from, exactly the two steps
   [Engine.publish_locked] takes — at three XMark sizes. The commit's own
   index maintenance ([Db.update_texts], 4 writes) is timed beside it,
   because copy-on-write moves part of the copy's cost into the next
   write. *)
let publication_curve () =
  let module Db = Xvi_core.Db in
  let factors = if !quick then [ 0.05; 0.1 ] else [ 0.25; 1.0; 4.0 ] in
  let commits = if !quick then 10 else 40 in
  List.map
    (fun factor ->
      let db =
        match Db.of_xml (Xvi_workload.Xmark.generate ~seed:42 ~factor ()) with
        | Ok db -> db
        | Error e -> failwith (Parser.error_to_string e)
      in
      let texts = Store.text_nodes (Db.store db) in
      let rng = Prng.create 7 in
      let update_ms = Array.make commits 0.0
      and publish_ms = Array.make commits 0.0 in
      ignore (Db.plane db : Xvi_xml.Pre_plane.t);
      for i = 0 to commits - 1 do
        let writes =
          List.init 4 (fun j ->
              ( texts.(Prng.int rng (Array.length texts)),
                Printf.sprintf "publication %d.%d" i j ))
        in
        let (), ums = Timing.time_ms (fun () -> Db.update_texts db writes) in
        let (), pms =
          Timing.time_ms (fun () ->
              ignore (Db.plane db : Xvi_xml.Pre_plane.t);
              let epoch = Db.copy db in
              ignore (Db.plane epoch : Xvi_xml.Pre_plane.t))
        in
        update_ms.(i) <- ums;
        publish_ms.(i) <- pms
      done;
      ( factor,
        Store.live_count (Db.store db),
        Db.index_storage_bytes db,
        p50 update_ms *. 1000.0,
        p50 publish_ms *. 1000.0 ))
    factors

(* The wire codec on the serve path's widest reply: encode and decode of
   a 4,000-id [nodes] reply (the xvibench wide range, 5-digit ids),
   [read_frame]'s read syscalls per frame when header and payload have
   arrived together, and [escape] of a 1 MiB snapshot slice, the
   replication [Chunk] size. Syscalls are the reading thread's [syscr]
   from /proc/thread-self/io (Linux), net of reading that file itself;
   -1 where it does not exist. *)
type codec = {
  reply_bytes : int;
  encode_us : float;
  decode_us : float;
  decode_minor_words : float;
  request_reads : float;
  reply_reads : float;
  chunk_escaped_bytes : int;
  escape_ms : float;
}

let codec_micro () =
  let module Protocol = Xvi_serve.Protocol in
  let rounds = if !quick then 50 else 1000 in
  let ids = List.init 4000 (fun i -> 20_000 + (i * 23)) in
  let reply = Protocol.Nodes ids in
  let payload = Protocol.encode_response reply in
  let decode () =
    match Protocol.decode_response payload with
    | Ok (Protocol.Nodes l) when List.length l = 4000 -> ()
    | _ -> failwith "codec: 4,000-id reply did not round-trip"
  in
  let encode_us =
    1000.0
    *. Timing.median_ms rounds (fun () ->
           ignore (Protocol.encode_response reply : string))
  in
  let decode_us = 1000.0 *. Timing.median_ms rounds decode in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    decode ()
  done;
  let decode_minor_words = (Gc.minor_words () -. w0) /. float_of_int rounds in
  let syscr () =
    match In_channel.with_open_bin "/proc/thread-self/io" In_channel.input_all with
    | text ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ "syscr"; n ] -> int_of_string (String.trim n)
            | _ -> acc)
          (-1) (String.split_on_char '\n' text)
    | exception Sys_error _ -> -1
  in
  let reads_per_frame frame_payload =
    let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close r;
        Unix.close w)
      (fun () ->
        let c0 = syscr () in
        let c1 = syscr () in
        let total = ref 0 in
        for _ = 1 to rounds do
          Protocol.write_frame w frame_payload;
          let before = syscr () in
          (match Protocol.read_frame r with
          | Ok p when String.length p = String.length frame_payload -> ()
          | _ -> failwith "codec: frame did not round-trip");
          total := !total + (syscr () - before - (c1 - c0))
        done;
        if c0 < 0 then -1.0 else float_of_int !total /. float_of_int rounds)
  in
  let request_reads =
    reads_per_frame (Protocol.encode_request (Protocol.Lookup_string "Arthur"))
  in
  let reply_reads = reads_per_frame payload in
  let chunk =
    let path = Filename.temp_file "xvi_codec" ".snap" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        (match Xvi_core.Db.of_xml (Xvi_workload.Xmark.generate ~seed:42 ~factor:0.25 ()) with
        | Ok db -> Xvi_core.Snapshot.save db path
        | Error e -> failwith (Parser.error_to_string e));
        let s = In_channel.with_open_bin path In_channel.input_all in
        String.sub s 0 (min (String.length s) (1 lsl 20)))
  in
  let escape_ms =
    Timing.median_ms
      (if !quick then 3 else 21)
      (fun () -> ignore (Protocol.escape chunk : string))
  in
  {
    reply_bytes = String.length payload;
    encode_us;
    decode_us;
    decode_minor_words;
    request_reads;
    reply_reads;
    chunk_escaped_bytes = String.length (Protocol.escape chunk);
    escape_ms;
  }

let serve_bench () =
  print_endline
    "== serve: epoch-pinned read QPS and cross-session commit throughput ==";
  let module Db = Xvi_core.Db in
  let module Txn = Xvi_txn.Txn in
  let module Wal = Xvi_wal.Wal in
  let module Engine = Xvi_serve.Engine in
  let module Session = Xvi_serve.Session in
  let cores = Domain.recommended_domain_count () in
  let factor = if !quick then 0.02 else 0.05 in
  let xml = Xvi_workload.Xmark.generate ~seed:42 ~factor () in
  let parse () =
    match Db.of_xml xml with
    | Ok db -> db
    | Error e -> failwith (Parser.error_to_string e)
  in
  let client_counts = [ 1; 2; 4; 8 ] in
  (* first, on a fresh heap: the later parts leave large dead databases *)
  let codec = codec_micro () in

  (* --- read QPS: N reader domains, each on its own session --- *)
  let read_duration = if !quick then 0.3 else 1.0 in
  let probe_values db =
    (* a few real text values to look up, spread over the document *)
    let store = Db.store db in
    let texts = Store.text_nodes store in
    let n = Array.length texts in
    Array.init 16 (fun i -> Store.text store texts.(i * (n / 16)))
  in
  let read_rows =
    let db = parse () in
    let probes = probe_values db in
    let engine =
      match Engine.open_ (Engine.Memory db) with
      | Ok e -> e
      | Error e -> failwith (Engine.error_to_string e)
    in
    Fun.protect
      ~finally:(fun () -> Engine.close engine)
      (fun () ->
        List.map
          (fun readers ->
            let deadline = Unix.gettimeofday () +. read_duration in
            let reader () =
              let s = Session.create engine in
              let ops = ref 0 and hits = ref 0 in
              while Unix.gettimeofday () < deadline do
                let v = probes.(!ops mod Array.length probes) in
                hits := !hits + List.length (Session.lookup_string s v);
                incr ops;
                (* a live client repins now and then; keep that cost in *)
                if !ops mod 64 = 0 then ignore (Session.refresh s : Engine.pinned)
              done;
              Session.close s;
              (!ops, !hits)
            in
            let doms = List.init readers (fun _ -> Domain.spawn reader) in
            let ops, hits =
              List.fold_left
                (fun (o, h) d ->
                  let o', h' = Domain.join d in
                  (o + o', h + h'))
                (0, 0) doms
            in
            let qps = float_of_int ops /. read_duration in
            if hits = 0 then failwith "read probes never hit";
            (readers, qps))
          client_counts)
  in
  let qps_of n = snd (List.find (fun (r, _) -> r = n) read_rows) in
  Table.print
    ~header:[ "readers"; "lookups/s"; "scaling" ]
    (List.map
       (fun (readers, qps) ->
         [
           string_of_int readers;
           Printf.sprintf "%.0f" qps;
           Printf.sprintf "%.2fx" (qps /. qps_of 1);
         ])
       read_rows);
  Printf.printf "(%d core%s visible to this run)\n" cores
    (if cores = 1 then "" else "s");

  (* --- commit throughput: N sessions, per-commit fsync vs group --- *)
  let commits = if !quick then 400 else 2000 in
  let base = Filename.concat (Sys.getcwd ()) "_bench_serve.tmp" in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  let run_mode sync_mode ~durable_acks ~clients =
    let dir = Filename.concat base "store" in
    rm_rf dir;
    let engine =
      match Engine.init ~sync_mode ~force:true ~dir (parse ()) with
      | Ok e -> e
      | Error e -> failwith (Engine.error_to_string e)
    in
    let texts = Store.text_nodes (Db.store (Engine.snapshot engine)) in
    let n = Array.length texts in
    let per_client = commits / clients in
    (* client [c] owns the text nodes with index = c mod clients: the
       write sets are disjoint, so no commit ever conflicts *)
    let client c () =
      let s = Session.create engine in
      for i = 0 to per_client - 1 do
        (match Session.begin_ s with
        | Ok () -> ()
        | Error e -> failwith (Engine.error_to_string e));
        let node = texts.(((i * clients) + c) mod n) in
        (match Session.stage s node (Printf.sprintf "serve bench %d.%d" c i) with
        | Ok () -> ()
        | Error e -> failwith (Engine.error_to_string e));
        match Session.commit ~durable:durable_acks s with
        | Ok (_ : Wal.lsn) -> ()
        | Error e -> failwith (Engine.error_to_string e)
      done;
      Session.close s
    in
    let (), ms =
      Timing.time_ms (fun () ->
          let doms =
            List.init clients (fun c -> Domain.spawn (client c))
          in
          List.iter Domain.join doms;
          (* deferred commits are not durable until this closes the
             last group window — it belongs inside the timed region *)
          Engine.sync engine)
    in
    let st = (Engine.stats engine).Engine.txn in
    Engine.close engine;
    (* recover the directory: nothing a client was acked may be lost *)
    (match Engine.open_ (Engine.Dir dir) with
    | Ok r ->
        (match Db.validate (Engine.snapshot r) with
        | Ok () -> ()
        | Error e -> failwith ("recovered db invalid: " ^ e));
        let rc = (Engine.stats r).Engine.commits in
        ignore (rc : int);
        Engine.close r
    | Error e -> failwith (Engine.error_to_string e));
    rm_rf dir;
    let tps = float_of_int (clients * per_client) /. (ms /. 1000.) in
    (tps, st.Txn.wal_deferred)
  in
  rm_rf base;
  Unix.mkdir base 0o755;
  let commit_rows =
    Fun.protect
      ~finally:(fun () ->
        rm_rf (Filename.concat base "store");
        rm_rf base)
      (fun () ->
        List.map
          (fun clients ->
            (* baseline: every commit pays its own fsync for its ack *)
            let always_tps, _ =
              run_mode Wal.Always ~durable_acks:true ~clients
            in
            (* group commit: sessions defer, windows batch the fsyncs *)
            let group_tps, deferred =
              run_mode (Wal.Group 0.002) ~durable_acks:false ~clients
            in
            (clients, always_tps, group_tps, deferred))
          client_counts)
  in
  Table.print
    ~header:[ "sessions"; "always c/s"; "group c/s"; "speedup"; "deferred" ]
    (List.map
       (fun (clients, always_tps, group_tps, deferred) ->
         [
           string_of_int clients;
           Printf.sprintf "%.0f" always_tps;
           Printf.sprintf "%.0f" group_tps;
           Printf.sprintf "%.1fx" (group_tps /. always_tps);
           string_of_int deferred;
         ])
       commit_rows);

  let publication = publication_curve () in
  Table.print
    ~header:[ "xmark"; "nodes"; "index bytes"; "update p50 us"; "publish p50 us" ]
    (List.map
       (fun (f, nodes, bytes, ups, pub) ->
         [
           Printf.sprintf "x%g" f;
           string_of_int nodes;
           string_of_int bytes;
           Printf.sprintf "%.0f" ups;
           Printf.sprintf "%.0f" pub;
         ])
       publication);

  Table.print
    ~header:[ "codec"; "value" ]
    [
      [ "4,000-id reply bytes"; string_of_int codec.reply_bytes ];
      [ "encode p50 us"; Printf.sprintf "%.1f" codec.encode_us ];
      [ "decode p50 us"; Printf.sprintf "%.1f" codec.decode_us ];
      [ "decode minor words"; Printf.sprintf "%.0f" codec.decode_minor_words ];
      [ "reads per request frame"; Printf.sprintf "%.2f" codec.request_reads ];
      [ "reads per reply frame"; Printf.sprintf "%.2f" codec.reply_reads ];
      [ "1 MiB chunk escaped bytes"; string_of_int codec.chunk_escaped_bytes ];
      [ "escape 1 MiB ms"; Printf.sprintf "%.2f" codec.escape_ms ];
    ];

  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"serve\",\n\
      \  \"git_rev\": \"%s\",\n\
      \  \"quick\": %b,\n\
      \  \"cores\": %d,\n\
      \  \"xmark_factor\": %.3f,\n\
      \  \"read_duration_s\": %.2f,\n\
      \  \"commits\": %d,\n\
      \  \"read\": [\n%s\n  ],\n\
      \  \"commit\": [\n%s\n  ],\n\
      \  \"publication\": [\n%s\n  ],\n\
      \  \"codec\": %s\n\
       }\n"
      (git_rev ()) !quick cores factor read_duration commits
      (String.concat ",\n"
         (List.map
            (fun (readers, qps) ->
              Printf.sprintf
                "    { \"readers\": %d, \"lookups_per_s\": %.1f, \
                 \"scaling_vs_1\": %.2f }"
                readers qps (qps /. qps_of 1))
            read_rows))
      (String.concat ",\n"
         (List.map
            (fun (clients, always_tps, group_tps, deferred) ->
              Printf.sprintf
                "    { \"clients\": %d, \"always_per_s\": %.1f, \
                 \"group_per_s\": %.1f, \"group_vs_always\": %.2f, \
                 \"deferred_commits\": %d }"
                clients always_tps group_tps (group_tps /. always_tps)
                deferred)
            commit_rows))
      (String.concat ",\n"
         (List.map
            (fun (f, nodes, bytes, ups, pub) ->
              Printf.sprintf
                "    { \"xmark_factor\": %g, \"nodes\": %d, \"index_bytes\": %d, \
                 \"update_p50_us\": %.1f, \"publish_p50_us\": %.1f }"
                f nodes bytes ups pub)
            publication))
      (Printf.sprintf
         "{ \"reply_ids\": 4000, \"reply_bytes\": %d, \"encode_p50_us\": %.1f, \
          \"decode_p50_us\": %.1f, \"decode_minor_words\": %.0f, \
          \"reads_per_request_frame\": %.2f, \"reads_per_reply_frame\": %.2f, \
          \"chunk_bytes\": 1048576, \"chunk_escaped_bytes\": %d, \
          \"escape_chunk_ms\": %.2f }"
         codec.reply_bytes codec.encode_us codec.decode_us
         codec.decode_minor_words codec.request_reads codec.reply_reads
         codec.chunk_escaped_bytes codec.escape_ms)
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_serve.json";
  print_newline ()

(* ====================================================== repl ===== *)

(* Replication experiment: what follower count costs the writer and
   buys the readers. Followers are real [Xvi_repl.Follower]s over the
   in-process transport — production pull/validate/append/apply code,
   minus socket latency, so the numbers isolate the replication work
   itself. Lag half: a write storm on the leader while 0/1/2/4
   followers pull concurrently; records write throughput, the worst
   staleness any follower admitted to mid-storm, and how long the
   fleet took to drain after the last commit. Read half: epoch-pinned
   lookup QPS of reader domains spread over the follower replicas vs
   the same domains all on the leader. Reader scaling is bounded by
   core count ([cores] is recorded); follower directories live under
   the working tree, not /tmp, for the usual tmpfs-fsync reason.
   Results land in BENCH_repl.json. *)
let repl_bench () =
  print_endline
    "== repl: replication lag vs write load, follower read scaling ==";
  let module Db = Xvi_core.Db in
  let module Wal = Xvi_wal.Wal in
  let module Engine = Xvi_serve.Engine in
  let module Session = Xvi_serve.Session in
  let module Transport = Xvi_repl.Transport in
  let module Follower = Xvi_repl.Follower in
  let cores = Domain.recommended_domain_count () in
  let factor = if !quick then 0.02 else 0.05 in
  let xml = Xvi_workload.Xmark.generate ~seed:43 ~factor () in
  let parse () =
    match Db.of_xml xml with
    | Ok db -> db
    | Error e -> failwith (Parser.error_to_string e)
  in
  let base = Filename.concat (Sys.getcwd ()) "_bench_repl.tmp" in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  rm_rf base;
  Unix.mkdir base 0o755;
  let follower_counts = [ 0; 1; 2; 4 ] in
  let commits = if !quick then 200 else 1000 in
  let fail_engine e = failwith (Engine.error_to_string e) in
  let with_leader name f =
    let dir = Filename.concat base name in
    rm_rf dir;
    let engine =
      match
        Engine.init ~sync_mode:(Wal.Group 0.002) ~force:true ~dir (parse ())
      with
      | Ok e -> e
      | Error e -> fail_engine e
    in
    Fun.protect
      ~finally:(fun () ->
        Engine.close engine;
        rm_rf dir)
      (fun () -> f engine)
  in
  let spawn_followers leader n =
    List.init n (fun i ->
        let dir = Filename.concat base (Printf.sprintf "f%d" i) in
        rm_rf dir;
        match
          Follower.create ~poll_interval:0.001
            ~transport:(Transport.of_engine leader) ~dir ()
        with
        | Ok f ->
            Follower.start f;
            f
        | Error m -> failwith ("follower: " ^ m))
  in
  let close_followers fs =
    List.iter
      (fun f ->
        let dir = Follower.dir f in
        Follower.close f;
        rm_rf dir)
      fs
  in

  (* --- lag: write storm on the leader, followers pulling live --- *)
  let lag_rows =
    List.map
      (fun followers ->
        with_leader "leader" (fun leader ->
            let fs = spawn_followers leader followers in
            Fun.protect
              ~finally:(fun () -> close_followers fs)
              (fun () ->
                let texts = Store.text_nodes (Db.store (Engine.snapshot leader)) in
                let n = Array.length texts in
                let max_stale = ref 0 in
                let (), ms =
                  Timing.time_ms (fun () ->
                      for i = 0 to commits - 1 do
                        (match
                           Engine.update_texts leader
                             [ (texts.(i mod n), Printf.sprintf "repl bench %d" i) ]
                         with
                        | Ok (_ : Wal.lsn) -> ()
                        | Error e -> fail_engine e);
                        if i mod 16 = 0 then
                          List.iter
                            (fun f ->
                              max_stale := max !max_stale (Follower.staleness f))
                            fs
                      done;
                      Engine.sync leader)
                in
                let tps = float_of_int commits /. (ms /. 1000.) in
                (* drain: how long until every follower serves the tail *)
                let target = (Engine.stats leader).Engine.durable_lsn in
                let (), catchup_ms =
                  Timing.time_ms (fun () ->
                      let deadline = Unix.gettimeofday () +. 30.0 in
                      List.iter
                        (fun f ->
                          while
                            Follower.applied_lsn f < target
                            && Unix.gettimeofday () < deadline
                          do
                            Unix.sleepf 0.0005
                          done)
                        fs)
                in
                List.iter
                  (fun f ->
                    if Follower.applied_lsn f < target then
                      failwith "follower never caught up")
                  fs;
                (followers, tps, !max_stale, catchup_ms))))
      follower_counts
  in
  Table.print
    ~header:[ "followers"; "commits/s"; "max staleness"; "drain ms" ]
    (List.map
       (fun (followers, tps, stale, catchup_ms) ->
         [
           string_of_int followers;
           Printf.sprintf "%.0f" tps;
           string_of_int stale;
           Printf.sprintf "%.1f" catchup_ms;
         ])
       lag_rows);

  (* --- read QPS: reader domains on the replicas vs on the leader --- *)
  let readers = 4 in
  let read_duration = if !quick then 0.3 else 1.0 in
  let read_rows =
    List.map
      (fun followers ->
        with_leader "leader" (fun leader ->
            let fs = spawn_followers leader followers in
            Fun.protect
              ~finally:(fun () -> close_followers fs)
              (fun () ->
                (* the probes must exist on the replicas too: make the
                   state durable, then wait for the fleet to sync *)
                Engine.sync leader;
                let target = (Engine.stats leader).Engine.durable_lsn in
                List.iter
                  (fun f ->
                    while Follower.applied_lsn f < target do
                      Unix.sleepf 0.001
                    done)
                  fs;
                let store = Db.store (Engine.snapshot leader) in
                let texts = Store.text_nodes store in
                let n = Array.length texts in
                let probes =
                  Array.init 16 (fun i -> Store.text store texts.(i * (n / 16)))
                in
                let engines =
                  match fs with
                  | [] -> [| leader |]
                  | fs -> Array.of_list (List.map Follower.engine fs)
                in
                let deadline = Unix.gettimeofday () +. read_duration in
                let reader r () =
                  (* reader [r] pins the replica [r mod followers] *)
                  let s = Session.create engines.(r mod Array.length engines) in
                  let ops = ref 0 and hits = ref 0 in
                  while Unix.gettimeofday () < deadline do
                    let v = probes.(!ops mod Array.length probes) in
                    hits := !hits + List.length (Session.lookup_string s v);
                    incr ops
                  done;
                  Session.close s;
                  (!ops, !hits)
                in
                let doms = List.init readers (fun r -> Domain.spawn (reader r)) in
                let ops, hits =
                  List.fold_left
                    (fun (o, h) d ->
                      let o', h' = Domain.join d in
                      (o + o', h + h'))
                    (0, 0) doms
                in
                if hits = 0 then failwith "read probes never hit";
                (followers, float_of_int ops /. read_duration))))
      follower_counts
  in
  let qps_of n = snd (List.find (fun (f, _) -> f = n) read_rows) in
  Table.print
    ~header:[ "followers"; "lookups/s"; "vs leader-only" ]
    (List.map
       (fun (followers, qps) ->
         [
           string_of_int followers;
           Printf.sprintf "%.0f" qps;
           Printf.sprintf "%.2fx" (qps /. qps_of 0);
         ])
       read_rows);
  Printf.printf "(%d reader domains, %d core%s visible to this run)\n" readers
    cores
    (if cores = 1 then "" else "s");

  rm_rf base;
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"repl\",\n\
      \  \"cores\": %d,\n\
      \  \"xmark_factor\": %.3f,\n\
      \  \"commits\": %d,\n\
      \  \"readers\": %d,\n\
      \  \"read_duration_s\": %.2f,\n\
      \  \"lag\": [\n%s\n  ],\n\
      \  \"read\": [\n%s\n  ]\n\
       }\n"
      cores factor commits readers read_duration
      (String.concat ",\n"
         (List.map
            (fun (followers, tps, stale, catchup_ms) ->
              Printf.sprintf
                "    { \"followers\": %d, \"commits_per_s\": %.1f, \
                 \"max_staleness\": %d, \"drain_ms\": %.1f }"
                followers tps stale catchup_ms)
            lag_rows))
      (String.concat ",\n"
         (List.map
            (fun (followers, qps) ->
              Printf.sprintf
                "    { \"followers\": %d, \"lookups_per_s\": %.1f, \
                 \"vs_leader_only\": %.2f }"
                followers qps (qps /. qps_of 0))
            read_rows))
  in
  let oc = open_out "BENCH_repl.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_repl.json";
  print_newline ()

(* ====================================================== storage ===== *)

(* The off-heap columnar storage experiment: the B+tree key
   representations this PR introduced (order-preserving byte strings for
   typed keys, packed unboxed ints for postings) raced against the
   boxed-tuple trees they replaced, on real XMark data; the GC cost of
   building each; the store's off-heap/GC-heap split; a migration check
   (query answers over a snapshot save and load must be identical); and the planner's cursor-vs-native per-element
   calibration that sets the constants in [Xvi_query.Plan]. Results land
   in BENCH_storage.json. *)
let storage_bench () =
  print_endline "== Off-heap columnar storage and byte-ordered keys ==";
  let module Db = Xvi_core.Db in
  let module Enc = Xvi_btree.Encoding in
  let module BT = Xvi_btree.Btree in
  let module FP = BT.Make (BT.Float_pair_key) in
  let module BK = BT.Bytes in
  let module IP = BT.Make (BT.Int_pair_key) in
  let module IK = BT.Make (BT.Int_key) in
  let factor = if !quick then 0.05 else Float.max 1.0 (!scale *. 100.0) in
  let reps = if !quick then 1 else !reps in
  let xml = Xvi_workload.Xmark.generate ~seed:42 ~factor () in
  let store = Parser.parse_exn xml in
  let db = Db.of_store store in
  Printf.printf "XMark factor %.2f: %s nodes\n%!" factor
    (Table.fmt_int (Store.live_count store));

  (* --- the store's storage split --- *)
  let offheap = Store.offheap_bytes store and heap = Store.heap_bytes store in
  Printf.printf "store: %s off-heap columns + %s GC heap (name pool)\n"
    (Table.fmt_bytes offheap) (Table.fmt_bytes heap);

  (* --- typed keys: boxed (float, node) tuples vs 16-byte encoded --- *)
  let doubles =
    let acc = ref [] in
    Store.iter_pre store (fun n ->
        if Store.kind store n = Store.Text then
          match float_of_string_opt (String.trim (Store.text store n)) with
          | Some v when not (Float.is_nan v) -> acc := (v, n) :: !acc
          | _ -> ());
    List.sort
      (fun (a, m) (b, n) ->
        match Float.compare a b with 0 -> Int.compare m n | c -> c)
      !acc
  in
  let dbl_n = List.length doubles in
  (* Words the built structure adds to the live major heap — the set
     every major collection must mark. This, not allocation traffic, is
     the recurring GC cost a resident tree imposes. *)
  let gc_words f =
    Gc.full_major ();
    let s0 = Gc.stat () in
    let r = f () in
    Gc.full_major ();
    let s1 = Gc.stat () in
    (r, float_of_int (s1.Gc.live_words - s0.Gc.live_words))
  in
  (* Trees are grown through the update path — single inserts in a
     shuffled order — as they would be after a life of maintenance, not
     through the bulk loader: bulk loading lays boxed keys out in scan
     order, an accident of allocation that hides the pointer-chasing
     cost real updated trees pay on every descent and every extraction.
     Both representations get the same treatment. *)
  let shuffled l =
    let a = Array.of_list l in
    Prng.shuffle (Prng.create 11) a;
    a
  in
  let dbl_shuffled = shuffled doubles in
  let old_typed, old_typed_words =
    gc_words (fun () ->
        let t = FP.create () in
        Array.iter (fun (v, n) -> FP.insert t (v, n) ()) dbl_shuffled;
        t)
  in
  let new_typed, new_typed_words =
    gc_words (fun () ->
        let t = BK.create () in
        Array.iter (fun (v, n) -> BK.insert t (Enc.float_int_key v n) ()) dbl_shuffled;
        t)
  in
  (* bounded range scans over value windows, extracting the node from
     each hit — the [Typed_index.range] / [lookup_double] pattern *)
  let windows =
    let values = Array.of_list (List.map fst doubles) in
    let m = Array.length values in
    List.init 256 (fun i ->
        let lo = values.((i * 131) mod max 1 m) in
        (lo, lo +. Float.abs lo *. 0.05 +. 1.0))
  in
  let sink = ref 0 in
  let count = ref 0 in
  let old_typed_ms =
    Timing.median_ms (max 5 reps) (fun () ->
        List.iter
          (fun (lo, hi) ->
            FP.iter_range ~lo:(lo, min_int) ~hi:(hi, max_int)
              (fun (_, n) () ->
                sink := !sink + n;
                incr count)
              old_typed)
          windows)
  in
  let old_scanned = !count in
  count := 0;
  let new_typed_ms =
    (* the production pattern ([Typed_index.range]): one [iter_raw]
       callback per leaf run, node decoded inline from the key bytes —
       no per-binding closure dispatch, no value access *)
    Timing.median_ms (max 5 reps) (fun () ->
        List.iter
          (fun (lo, hi) ->
            BK.iter_raw
              ~lo:(Enc.float_int_key lo min_int)
              ~hi:(Enc.float_int_key hi max_int)
              (fun keys off len ->
                for i = off to off + len - 1 do
                  sink := !sink + Enc.decode_int keys.(i) 8
                done;
                count := !count + len)
              new_typed)
          windows)
  in
  assert (old_scanned = !count);

  (* --- postings: boxed (hash, node) tuples vs one packed int --- *)
  let postings =
    let acc = ref [] in
    Store.iter_pre store (fun n ->
        match Store.kind store n with
        | Store.Element | Store.Text | Store.Attribute | Store.Document ->
            acc :=
              (Hash.to_int (Hash.hash (Store.string_value store n)), n) :: !acc
        | _ -> ());
    List.sort
      (fun (a, m) (b, n) ->
        match Int.compare a b with 0 -> Int.compare m n | c -> c)
      !acc
  in
  let post_n = List.length postings in
  let post_shuffled = shuffled postings in
  let old_post, old_post_words =
    gc_words (fun () ->
        let t = IP.create () in
        Array.iter (fun (h, n) -> IP.insert t (h, n) ()) post_shuffled;
        t)
  in
  let new_post, new_post_words =
    gc_words (fun () ->
        let t = IK.create () in
        Array.iter (fun (h, n) -> IK.insert t ((h lsl 30) lor n) ()) post_shuffled;
        t)
  in
  (* per-bucket scans extracting the node — [candidates_of_hash] *)
  let node_mask = 0x3FFF_FFFF in
  let buckets =
    List.filteri (fun i _ -> i mod 97 = 0) (List.map fst postings)
  in
  count := 0;
  let old_post_ms =
    Timing.median_ms (max 5 reps) (fun () ->
        List.iter
          (fun h ->
            IP.iter_range ~lo:(h, 0) ~hi:(h, node_mask)
              (fun (_, n) () ->
                sink := !sink + n;
                incr count)
              old_post)
          buckets)
  in
  let old_post_scanned = !count in
  count := 0;
  let new_post_ms =
    Timing.median_ms (max 5 reps) (fun () ->
        List.iter
          (fun h ->
            IK.iter_range
              ~lo:((h lsl 30) lor 0)
              ~hi:((h lsl 30) lor node_mask)
              (fun k () ->
                sink := !sink + (k land node_mask);
                incr count)
              new_post)
          buckets)
  in
  assert (old_post_scanned = !count);
  ignore (Sys.opaque_identity !sink : int);
  Table.print
    ~header:
      [ "tree"; "entries"; "boxed keys"; "this PR"; "speedup"; "live words" ]
    [
      [
        "typed (float,node) range scans";
        Table.fmt_int dbl_n;
        Table.fmt_ms old_typed_ms;
        Table.fmt_ms new_typed_ms;
        Printf.sprintf "%.2fx" (old_typed_ms /. new_typed_ms);
        Printf.sprintf "%.0f -> %.0f" old_typed_words new_typed_words;
      ];
      [
        "posting (hash,node) bucket scans";
        Table.fmt_int post_n;
        Table.fmt_ms old_post_ms;
        Table.fmt_ms new_post_ms;
        Printf.sprintf "%.2fx" (old_post_ms /. new_post_ms);
        Printf.sprintf "%.0f -> %.0f" old_post_words new_post_words;
      ];
    ];

  (* --- migration check: a snapshot round-trip answers identically --- *)
  let snap = Filename.temp_file "xvi_storage" ".snap" in
  Xvi_core.Snapshot.save db snap;
  let snap_bytes = (Unix.stat snap).Unix.st_size in
  let db2 = Xvi_core.Snapshot.load_exn snap in
  Sys.remove snap;
  let range = Db.Range.between 100.0 200.0 in
  let probes =
    [
      Db.Ir.named "initial";
      Db.Ir.typed_range "xs:double" range;
      Db.Ir.conj [ Db.Ir.named "initial"; Db.Ir.typed_range "xs:double" range ];
      Db.Ir.string_eq "Creditcard";
    ]
  in
  let migration_ok =
    List.for_all (fun ir -> Db.query db ir = Db.query db2 ir) probes
  in
  if not migration_ok then failwith "codec round-trip changed query answers";
  Printf.printf
    "migration: %d probe queries identical over a %s snapshot round-trip\n"
    (List.length probes)
    (Table.fmt_bytes snap_bytes);

  (* --- planner calibration: the two [run_list] strategies for an
         all-leaf intersection on the production shape. The streaming
         path pulls every element of every input through the leapfrog
         merge, including the node-order sort a value-ordered leaf
         performs on first pull (see [Typed_index.cursor]); the
         probe-driven path walks only the driving input and probes each
         candidate against the other leaves' membership checks — modeled
         here as a pre-built hashtable, matching the node->value column
         a typed leaf's [check] consults. --- *)
  let n_cal = if !quick then 50_000 else 400_000 in
  let la = List.init n_cal (fun i -> 2 * i) in
  let lb_value_order =
    (* value order: node ids permuted deterministically *)
    let a = Array.init n_cal (fun i -> 3 * i) in
    Prng.shuffle (Prng.create 7) a;
    Array.to_list a
  in
  let total = float_of_int (2 * n_cal) in
  let cursor_ms =
    Timing.repeat_ms (max 3 reps) (fun () ->
        ignore
          (Xvi_query.Cursor.to_list
             (Xvi_query.Cursor.inter
                [
                  Xvi_query.Cursor.of_sorted_list la;
                  Xvi_query.Cursor.of_lazy_list (fun () ->
                      List.sort Int.compare lb_value_order);
                ])
            : Store.node list))
  in
  let check_ms =
    (* the probed column exists before the query runs, so its
       construction is not part of the per-query cost *)
    let h = Hashtbl.create n_cal in
    List.iter (fun n -> Hashtbl.replace h n ()) lb_value_order;
    Timing.repeat_ms (max 3 reps) (fun () ->
        ignore
          (List.sort_uniq Int.compare (List.filter (Hashtbl.mem h) la)
            : int list))
  in
  let cursor_step_ns = cursor_ms *. 1e6 /. total in
  let check_step_ns = check_ms *. 1e6 /. float_of_int n_cal in
  Printf.printf
    "planner calibration: %.1f ns/element through the leapfrog merge (incl. \
     the value-ordered leaf's node-order sort) vs %.1f ns/probe driving the \
     cheapest leaf (constants in lib/query/plan.ml)\n"
    cursor_step_ns check_step_ns;

  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"storage\",\n\
      \  \"xmark_factor\": %.3f,\n\
      \  \"nodes\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"store\": { \"offheap_bytes\": %d, \"gc_heap_bytes\": %d },\n\
      \  \"scans\": [\n\
      \    { \"tree\": \"typed_range\", \"entries\": %d, \"old_ms\": %.4f, \
       \"new_ms\": %.4f, \"speedup\": %.2f, \"live_major_words_old\": %.0f, \
       \"live_major_words_new\": %.0f },\n\
      \    { \"tree\": \"posting_bucket\", \"entries\": %d, \"old_ms\": %.4f, \
       \"new_ms\": %.4f, \"speedup\": %.2f, \"live_major_words_old\": %.0f, \
       \"live_major_words_new\": %.0f }\n\
      \  ],\n\
      \  \"range_scan_speedup\": %.2f,\n\
      \  \"migration_identical\": %b,\n\
      \  \"calibration\": { \"cursor_step_ns\": %.1f, \"check_step_ns\": \
       %.1f }\n\
       }\n"
      factor
      (Store.live_count store)
      reps offheap heap dbl_n old_typed_ms new_typed_ms
      (old_typed_ms /. new_typed_ms)
      old_typed_words new_typed_words post_n old_post_ms new_post_ms
      (old_post_ms /. new_post_ms)
      old_post_words new_post_words
      (old_post_ms /. new_post_ms)
      migration_ok cursor_step_ns check_step_ns
  in
  let oc = open_out "BENCH_storage.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_storage.json";
  print_newline ()

(* Streaming bulk ingest experiment: the whole-document front door
   (read the file, [Parser.parse], [Db.of_store]) against
   [Ingest.load] pulling SAX events straight off the file descriptor,
   on an XMark ×8 document. Three claims are measured: the streamed
   build is identical ([Db.digest]) to the whole-document build; its
   peak live major heap while the document streams in is a fraction of
   the whole path's (the document string never exists); and throughput
   — including the durable [Durable.bulk_ingest] variant, every batch
   WAL-committed — stays in the same league. Results land in
   BENCH_ingest.json with the git revision, the quick flag and the core
   count. *)
let ingest_bench () =
  print_endline "== Streaming bulk ingest ==";
  let module Db = Xvi_core.Db in
  let module Sax = Xvi_xml.Sax in
  let module Ingest = Xvi_ingest.Ingest in
  let module Durable = Xvi_wal.Durable in
  let factor = if !quick then 0.05 else 8.0 in
  let path = Filename.temp_file "xvi_ingest_bench" ".xml" in
  let bytes =
    (* generate to disk and drop the string: both contenders start from
       nothing but the file path *)
    let xml = Xvi_workload.Xmark.generate ~seed:42 ~factor () in
    let oc = open_out_bin path in
    output_string oc xml;
    close_out oc;
    String.length xml
  in
  Printf.printf "XMark factor %.2f: %s on disk\n%!" factor
    (Table.fmt_bytes bytes);
  let config = { Db.Config.default with Db.Config.jobs = 1 } in
  (* Peak live major words, sampled by a GC alarm at the end of every
     major cycle plus once at each phase boundary. [Gc.stat] walks the
     heap, so the alarm inflates both contenders' wall clocks equally;
     throughput is therefore a floor. *)
  let live_now () = (Gc.stat ()).Gc.live_words in
  let peak = ref 0 in
  let in_sample = ref false in
  let sample () =
    if not !in_sample then begin
      in_sample := true;
      let l = live_now () in
      if l > !peak then peak := l;
      in_sample := false
    end
  in
  let measure f =
    Gc.compact ();
    (* force frequent major cycles while measuring so the alarm samples
       densely enough to catch the transient peak *)
    let ctrl = Gc.get () in
    Gc.set { ctrl with Gc.space_overhead = 40 };
    let base = live_now () in
    peak := base;
    let alarm = Gc.create_alarm sample in
    let r, ms = Timing.time_ms f in
    sample ();
    Gc.delete_alarm alarm;
    Gc.set ctrl;
    let final = live_now () in
    (r, ms, base, !peak, final)
  in
  let mb_s ms = float_of_int bytes /. 1e6 /. (ms /. 1e3) in

  (* --- whole-document path --- *)
  let db_w, whole_ms, whole_base, whole_peak, _whole_final =
    measure (fun () ->
        let ic = open_in_bin path in
        let xml =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let store = Parser.parse_exn xml in
        sample () (* document string and shredded store both live *);
        Db.of_store ~config store)
  in
  let whole_digest = Db.digest db_w in
  let nodes = Store.live_count (Db.store db_w) in
  ignore (Sys.opaque_identity db_w : Db.t);

  (* --- streamed path (in-memory) ---
     Driven through [Builder] directly so the two phases separate: the
     shred phase (every event consumed, the rows appended to the store's
     off-heap columns) and [finish], which indexes the store as
     [Db.of_store] does. "Peak during shred" is the shred phase's peak:
     the heap streaming needs while the document arrives. The
     whole-document path has no such split — its peak stands for the
     entire call. *)
  let stream_batches = ref 0 in
  let (db_s, shred_peak, shred_ms), stream_ms, stream_base, stream_peak,
      _stream_final =
    measure (fun () ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let sax = Sax.make (Sax.of_channel ic) in
            let b = Ingest.Builder.create config in
            let rec drive () =
              match Sax.next sax with
              | Error e ->
                  failwith ("ingest: " ^ Xvi_xml.Parser.error_to_string e)
              | Ok None -> ()
              | Ok (Some (ev, _)) ->
                  Ingest.Builder.feed b ev;
                  if Ingest.Builder.pending_rows b >= Ingest.default_batch_rows
                  then begin
                    Ingest.Builder.flush_batch b;
                    sample ()
                  end;
                  drive ()
            in
            let (), shred_ms = Timing.time_ms drive in
            sample ();
            let shred_peak = !peak in
            let db = Ingest.Builder.finish b in
            stream_batches := Ingest.Builder.batches b;
            (db, shred_peak, shred_ms)))
  in
  let stream_digest = Db.digest db_s in
  let bit_identical = String.equal whole_digest stream_digest in
  if not bit_identical then
    failwith "streamed ingest diverged from the whole-document build";
  ignore (Sys.opaque_identity db_s : Db.t);

  (* --- streamed path (durable: every batch WAL-committed) --- *)
  let dir = Filename.temp_file "xvi_ingest_bench" ".dir" in
  Sys.remove dir;
  let durable_digest, durable_ms, durable_stats, snapshot_bytes =
    let ic = open_in_bin path in
    let r, ms =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Timing.time_ms (fun () ->
              Durable.bulk_ingest ~config ~dir (Sax.of_channel ic)))
    in
    match r with
    | Error m -> failwith ("bulk_ingest: " ^ m)
    | Ok d ->
        let dg = Db.digest (Durable.db d) in
        let st = Durable.stats d in
        Durable.close d;
        (dg, ms, st, (Unix.stat (Durable.snapshot_path dir)).Unix.st_size)
  in
  (* where the durable run's extra time goes: committing each batch's
     chunk (append + fsync) and the final checkpoint's snapshot save *)
  let chunk_log_ms = durable_stats.Durable.chunk_log_s *. 1000. in
  let checkpoint_ms = durable_stats.Durable.checkpoint_s *. 1000. in
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  rm_rf dir;
  Sys.remove path;
  if not (String.equal whole_digest durable_digest) then
    failwith "durable bulk ingest diverged from the whole-document build";

  (* Peak-above-baseline isolates each run's own live set. The
     headline ratio is the streamed shred phase's peak against the
     whole path's peak: while ingest is consuming the document the heap
     stays O(depth + chunk), whereas the whole path holds the document
     string and the store at once. Both runs end holding the same
     bit-identical database, so the absolute end-to-end peaks (product
     included) are also reported. *)
  let whole_delta = whole_peak - whole_base in
  let stream_delta = stream_peak - stream_base in
  let shred_delta = shred_peak - stream_base in
  let ratio = float_of_int shred_delta /. float_of_int (max 1 whole_delta) in
  let absolute_ratio =
    float_of_int stream_delta /. float_of_int (max 1 whole_delta)
  in
  Table.print
    ~header:[ "path"; "time"; "MB/s"; "peak live words"; "during shred" ]
    [
      [
        "whole document"; Table.fmt_ms whole_ms;
        Printf.sprintf "%.1f" (mb_s whole_ms);
        Table.fmt_int whole_delta;
        Table.fmt_int whole_delta;
      ];
      [
        Printf.sprintf "streamed (%d batches)" !stream_batches;
        Table.fmt_ms stream_ms;
        Printf.sprintf "%.1f" (mb_s stream_ms);
        Table.fmt_int stream_delta;
        Table.fmt_int shred_delta;
      ];
      [
        "streamed durable"; Table.fmt_ms durable_ms;
        Printf.sprintf "%.1f" (mb_s durable_ms);
        "-"; "-";
      ];
    ];
  Printf.printf "streamed: %s shredding, %s indexing\n" (Table.fmt_ms shred_ms)
    (Table.fmt_ms (stream_ms -. shred_ms));
  Printf.printf
    "durable: %s committing %d chunks, %s in the final checkpoint (snapshot \
     %s)\n"
    (Table.fmt_ms chunk_log_ms) durable_stats.Durable.writer.Xvi_wal.Wal.Writer.commits
    (Table.fmt_ms checkpoint_ms) (Table.fmt_bytes snapshot_bytes);
  Printf.printf
    "bit-identical: %b; peak live heap during the shred is %.3fx the whole \
     path's peak (end-to-end peaks with the finished database included: \
     %.2fx)\n"
    bit_identical ratio absolute_ratio;
  let cores = Domain.recommended_domain_count () in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"ingest\",\n\
      \  \"git_rev\": %S,\n\
      \  \"quick\": %b,\n\
      \  \"cores\": %d,\n\
      \  \"xmark_factor\": %.3f,\n\
      \  \"bytes\": %d,\n\
      \  \"nodes\": %d,\n\
      \  \"whole\": { \"ms\": %.1f, \"mb_per_s\": %.2f, \
       \"peak_live_words\": %d },\n\
      \  \"streamed\": { \"ms\": %.1f, \"mb_per_s\": %.2f, \
       \"peak_live_words\": %d, \"shred_ms\": %.1f, \
       \"shred_peak_live_words\": %d, \"batches\": %d },\n\
      \  \"durable\": { \"ms\": %.1f, \"mb_per_s\": %.2f, \
       \"chunk_log_ms\": %.1f, \"checkpoint_ms\": %.1f, \
       \"snapshot_bytes\": %d },\n\
      \  \"bit_identical\": %b,\n\
      \  \"peak_ratio\": %.4f,\n\
      \  \"absolute_peak_ratio\": %.4f\n\
       }\n"
      (git_rev ()) !quick cores factor bytes nodes whole_ms (mb_s whole_ms)
      whole_delta stream_ms (mb_s stream_ms) stream_delta shred_ms shred_delta
      !stream_batches durable_ms (mb_s durable_ms) chunk_log_ms checkpoint_ms
      snapshot_bytes bit_identical ratio absolute_ratio
  in
  let oc = open_out "BENCH_ingest.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_ingest.json";
  print_newline ()

(* ====================================================== main ===== *)

(* [micro] runs first: its OLS estimates are cleanest before the data
   suite occupies the heap. *)
(* fig10 mutates (and then drops) the cached stores, so it runs after
   the read-only experiments. *)
let all_experiments =
  [ ("micro", micro); ("table1", table1); ("fig9", fig9); ("fig11", fig11);
    ("fig10", fig10); ("ablation", ablation); ("substr", substr);
    ("baseline", baseline); ("queries", queries); ("query", query_bench);
    ("parallel", parallel); ("wal", wal_bench); ("serve", serve_bench);
    ("repl", repl_bench); ("storage", storage_bench); ("ingest", ingest_bench) ]

let () =
  let selected = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if String.length arg > 8 && String.sub arg 0 8 = "--scale=" then
          scale := float_of_string (String.sub arg 8 (String.length arg - 8))
        else if String.length arg > 7 && String.sub arg 0 7 = "--reps=" then
          reps := int_of_string (String.sub arg 7 (String.length arg - 7))
        else if arg = "--quick" then quick := true
        else if List.mem_assoc arg all_experiments then
          selected := arg :: !selected
        else begin
          Printf.eprintf
            "unknown argument %s (expected: table1 fig9 fig10 fig11 micro \
             ablation substr baseline queries query parallel wal serve repl \
             storage ingest, --scale=F, --reps=N, --quick)\n"
            arg;
          exit 2
        end)
    Sys.argv;
  let to_run =
    if !selected = [] then all_experiments
    else List.filter (fun (name, _) -> List.mem name !selected) all_experiments
  in
  Printf.printf
    "xvi experiment harness -- reproduction of Sidirourgos & Boncz,\n\
     \"Generic and updatable XML value indices\" (EDBT 2009)\n\n%!";
  List.iter (fun (_, f) -> f ()) to_run
