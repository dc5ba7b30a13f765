(* xvibench: one workload of the xvi benchmark against the real `xvi`
   binary of the same build.  Usually started through xvibench/run.py,
   which builds both executables first; see xvibench/README.md. *)

open Ctx

let usage =
  "xvibench --xvi PATH --workload (lookup|update|ingest) --seed N --seconds S --trace (0|1)"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 0.0 and xvi = ref "" and out = ref "xvibench/out" and inject = ref "none" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "lookup | update | ingest");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
      ("--scale", Arg.Set_float scale, "F  XMark factor (default 1 for lookup/update, 2 for ingest)");
      ("--xvi", Arg.Set_string xvi, "PATH  the xvi executable under test");
      ("--out", Arg.Set_string out, "DIR  untracked output directory (relative to the checkout)");
      ("--inject", Arg.Set_string inject, "none | wrong-expected | drop-ack  (self-tests only)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload =
    match !workload with
    | "lookup" -> Lookup
    | "update" -> Update
    | "ingest" -> Ingest
    | w -> raise (Arg.Bad (Printf.sprintf "unknown workload %S" w))
  in
  let inject =
    match !inject with
    | "none" -> No_inject
    | "wrong-expected" -> Wrong_expected
    | "drop-ack" -> Drop_ack
    | i -> raise (Arg.Bad (Printf.sprintf "unknown injection %S" i))
  in
  if not (Sys.file_exists !xvi) then raise (Arg.Bad "--xvi must name the built xvi executable");
  if !seconds <= 0.0 then raise (Arg.Bad "--seconds must be positive");
  let scale = if !scale > 0.0 then !scale else match workload with Ingest -> 2.0 | Lookup | Update -> 1.0 in
  let work = Filename.concat !out (Printf.sprintf "work/%s-%d" (workload_name workload) (Unix.getpid ())) in
  { workload; seed = !seed; seconds = !seconds; trace = !trace = 1; scale; xvi = !xvi; out = !out;
    work; inject }

let metrics_obj l =
  Json.Obj (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) l)

let provenance cfg st =
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  Json.Obj
    [
      ("git_rev", Json.Str (env "XVIBENCH_GIT_REV"));
      ("git_dirty", Json.Str (env "XVIBENCH_GIT_DIRTY"));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("work_fs", Json.Str (env "XVIBENCH_FS"));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("xvi_digest", Json.Str (Digest.to_hex (Digest.file cfg.xvi)));
      ("workload", Json.Str (workload_name cfg.workload));
      ("seed", Json.Int cfg.seed);
      ("seconds", Json.Num cfg.seconds);
      ("trace", Json.Bool cfg.trace);
      ("xmark_factor", Json.Num cfg.scale);
      ("doc_bytes", Json.Int st.doc_bytes);
      ("doc_nodes", Json.Int st.nodes);
      ("sync", Json.Str "always");
      ("publish_period_s", Json.Num 0.0);
    ]

let print_table title rows =
  Printf.eprintf "%s\n" title;
  List.iter (fun (k, v, u) -> Printf.eprintf "  %-32s %14.3f %s\n" k v u) rows

let main cfg =
  Proc.mkdir_p cfg.work;
  let reps = if cfg.trace then 1 else 3 in
  let st, setup_s = E2e.setup cfg ~reps ~gc_stats:cfg.trace in
  let name = Printf.sprintf "%s-seed%d-trace%d-%d" (workload_name cfg.workload) cfg.seed (if cfg.trace then 1 else 0) (int_of_float (Unix.time ())) in
  let metrics, body =
    if cfg.trace then begin
      let per_layer, breakdowns = Layers.run cfg st in
      let traces = Filename.concat cfg.out "traces" in
      Proc.mkdir_p traces;
      Trace.write (Filename.concat traces (name ^ ".jsonl"));
      print_table "per-layer (traced run)" per_layer;
      (per_layer, [ ("per_layer", metrics_obj per_layer); ("breakdowns", Json.Obj breakdowns) ])
    end
    else begin
      let r =
        match cfg.workload with
        | Lookup -> E2e.lookup cfg st ~setup_s
        | Update -> E2e.update cfg st ~setup_s
        | Ingest -> E2e.ingest cfg st ~setup_s
      in
      (match st.server with Some srv when cfg.workload = Lookup -> ignore (Setup.stop_server srv : int) | _ -> ());
      print_table "end to end" r.E2e.e2e;
      print_table "by the path's own names" r.E2e.named;
      (r.E2e.e2e, [ ("end_to_end", metrics_obj r.E2e.e2e); ("named", metrics_obj r.E2e.named); ("detail", Json.Obj r.E2e.extra) ])
    end
  in
  Proc.kill_all ();
  let attempted = Atomic.get Tally.attempted and failed = Atomic.get Tally.failed in
  List.iter (fun m -> Printf.eprintf "FAILED: %s\n" m) (List.rev (Atomic.get Tally.notes));
  let summary =
    [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted); ("failed", Json.Int failed) ]
  in
  let results = Filename.concat cfg.out "results" in
  Proc.mkdir_p results;
  Proc.write_file (Filename.concat results (name ^ ".json"))
    (Json.to_string (Json.Obj ((("provenance", provenance cfg st) :: summary) @ body)) ^ "\n");
  Proc.rm_rf cfg.work;
  print_endline (Json.to_string (Json.Obj (summary @ [ ("metrics", metrics_obj metrics) ])))

let () =
  match parse_args () with
  | exception Arg.Bad m ->
      prerr_endline m;
      prerr_endline usage;
      exit 2
  | exception Arg.Help m ->
      print_string m;
      exit 0
  | cfg -> (
      match main cfg with
      | () -> ()
      | exception e ->
          Proc.kill_all ();
          Printf.eprintf "xvibench: %s\n" (Printexc.to_string e);
          exit 1)
