(* Auction analytics over XMark-style data: the self-tuning indices
   accelerate ad-hoc value queries that were never configured for.

     dune exec examples/auction_analytics.exe

   Generates an auction site document, then answers analytical XPath
   queries twice — by naive tree walking and through the value indices —
   and reports both timings and the index probes used. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Xpath = Xvi_xpath.Xpath
module Timing = Xvi_util.Timing
module Table = Xvi_util.Table

let () =
  print_endline "generating an XMark-style auction document...";
  let xml = Xvi_workload.Xmark.generate ~seed:2026 ~factor:1.0 () in
  Printf.printf "document: %s\n" (Table.fmt_bytes (String.length xml));

  let store = Xvi_xml.Parser.parse_exn xml in
  Printf.printf "shredded: %s nodes\n" (Table.fmt_int (Store.live_count store));

  (* build in parallel on every core the host recommends; jobs = 1 would
     give the bit-identical serial build *)
  let jobs = Xvi_util.Pool.recommended_jobs () in
  let config = { Db.Config.default with Db.Config.jobs } in
  let db, build_ms = Timing.time_ms (fun () -> Db.of_store ~config store) in
  Printf.printf "indices built in %s on %d domain(s) (storage %s)\n\n"
    (Table.fmt_ms build_ms) jobs
    (Table.fmt_bytes (Db.index_storage_bytes db));

  (* The DBA never declared any of these paths or types — the indices
     cover the entire document (the paper's "self-tuned" property). *)
  let queries =
    [
      (* point string lookup through a deep path *)
      "//person[name = \"Arthur Dent\"]";
      (* numeric range over auction bids *)
      "//open_auction[initial >= 100 and initial < 120]";
      (* equality on a mixed-content element value *)
      "//item[quantity = 2]";
      (* closed-auction price analytics *)
      "//closed_auction[price < 5]";
      (* attribute values are indexed too *)
      "//person[@id = \"person42\"]";
      (* no value predicate: seeded by the element-name index instead *)
      "//person[watches]";
    ]
  in
  let rows =
    List.map
      (fun q ->
        let t = Xpath.parse_exn q in
        let naive, naive_ms = Timing.time_ms (fun () -> Xpath.eval store t) in
        let (fast, plan), fast_ms =
          Timing.time_ms (fun () -> Xpath.eval_with_plan db t)
        in
        assert (naive = fast);
        [
          q;
          string_of_int (List.length naive);
          Table.fmt_ms naive_ms;
          Table.fmt_ms fast_ms;
          Printf.sprintf "%.1fx" (naive_ms /. fast_ms);
          Printf.sprintf "%d str / %d dbl / %d name" plan.Xpath.used_string_index
            plan.Xpath.used_double_index plan.Xpath.used_name_index;
        ])
      queries
  in
  Table.print
    ~header:[ "query"; "hits"; "naive"; "indexed"; "speedup"; "index probes" ]
    rows;

  (* A price histogram straight off the double index: range scans are
     ordered, so bucketing is a single pass. *)
  print_endline "\nclosed-auction price deciles from the double index:";
  let ti = Option.get (Db.typed_index db "xs:double") in
  let prices =
    List.filter_map
      (fun n ->
        match Store.kind store n with
        | Store.Element when Store.name store n = "price" ->
            Xvi_core.Typed_index.value_of ti n
        | _ -> None)
      (Xvi_core.Typed_index.range ~lo:0.0 ti)
  in
  let arr = Array.of_list prices in
  Array.sort compare arr;
  let n = Array.length arr in
  Printf.printf "  %d prices, min %.2f, median %.2f, p90 %.2f, max %.2f\n" n
    arr.(0)
    arr.(n / 2)
    arr.(n * 9 / 10)
    arr.(n - 1)
