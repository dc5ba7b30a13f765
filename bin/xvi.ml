(* xvi — command-line front end to the XML value index library.

   Subcommands:
     generate   emit one of the paper's synthetic data sets as XML
     shred      build all indices and save a binary snapshot, or (with
                --durable) initialise a crash-safe durable directory;
                reads stdin when the document argument is -
     ingest     stream a document (file or stdin) into a fresh durable
                directory in bounded memory: SAX events shredded and
                indexed batch by batch, every batch WAL-committed, so a
                crash mid-load recovers to a resumable prefix
     stats      shred a document and print its Table 1 row; on a durable
                directory, report WAL length and checkpoint watermark
     query      evaluate an XPath expression, naive vs. index-accelerated
                (accepts XML or a snapshot)
     update     apply random text updates and report maintenance time;
                on a durable directory, commits are write-ahead logged
                under the chosen --sync policy
     recover    crash-recover a durable directory and report the replay
     checkpoint snapshot a durable directory and truncate its log
     serve      serve a database over a Unix socket: snapshot-isolated
                readers, single-writer sessions, group commit; with
                --follow, run as a replication follower of another server
     promote    turn a running follower into the leader (failover)
     client     scripted protocol session against a running server
     fuzz       differential-check random traces against the oracle
     collisions hash-stability histogram of a document (Figure 11)

   Every durable subcommand goes through Xvi_serve.Engine — the unified
   facade over the in-memory / durable split — rather than constructing
   Xvi_wal.Durable handles directly.  *)

open Cmdliner

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Sax = Xvi_xml.Sax
module Ingest = Xvi_ingest.Ingest
module Db = Xvi_core.Db
module Table = Xvi_util.Table
module Txn = Xvi_txn.Txn
module Wal = Xvi_wal.Wal
module Durable = Xvi_wal.Durable
module Engine = Xvi_serve.Engine
module Server = Xvi_serve.Server
module Client = Xvi_serve.Client
module Protocol = Xvi_serve.Protocol
module Repl_transport = Xvi_repl.Transport
module Leader = Xvi_repl.Leader
module Follower = Xvi_repl.Follower

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* "-" means stdin, the usual pipeline convention. *)
let read_input path =
  if String.equal path "-" then begin
    let b = Buffer.create 65536 in
    let chunk = Bytes.create 65536 in
    let rec drain () =
      let n = input stdin chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes b chunk 0 n;
        drain ()
      end
    in
    drain ();
    Buffer.contents b
  end
  else read_file path

let input_label path = if String.equal path "-" then "<stdin>" else path

let shred_exn path =
  match Parser.parse (read_input path) with
  | Ok store -> store
  | Error e ->
      Printf.eprintf "%s: parse error: %s\n" (input_label path)
        (Parser.error_to_string e);
      exit 1

(* Accept XML, a saved snapshot, or a durable directory wherever a
   database is needed. A non-default config forces a re-index even when
   loading a snapshot. Durable directories are recovered through the
   engine; the returned database is the published epoch, which stays
   valid after the engine is released. *)
let open_db ?config path =
  if Sys.file_exists path && Sys.is_directory path then begin
    if not (Durable.is_durable_dir path) then begin
      Printf.eprintf "%s: directory is not a durable store\n" path;
      exit 1
    end;
    match Engine.open_ ?config (Engine.Dir path) with
    | Ok t ->
        let db = Engine.snapshot t in
        Engine.close t;
        db
    | Error e ->
        Printf.eprintf "%s: %s\n" path (Engine.error_to_string e);
        exit 1
  end
  else if Xvi_core.Snapshot.is_snapshot path then
    match Xvi_core.Snapshot.load ?config path with
    | Ok db -> db
    | Error e ->
        Printf.eprintf "%s: %s\n" path (Xvi_core.Snapshot.error_to_string e);
        exit 1
  else Db.of_store ?config (shred_exn path)

let sync_mode_arg =
  let parse s =
    match Wal.sync_mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "%S is not a sync mode (always, never, group, group:<ms>)" s))
  in
  let print ppf m = Format.pp_print_string ppf (Wal.sync_mode_to_string m) in
  Cmdliner.Arg.(
    value
    & opt (conv (parse, print)) Wal.Always
    & info [ "sync" ] ~docv:"MODE"
        ~doc:
          "WAL durability policy for a durable directory: $(b,always) (one \
           fsync per commit), $(b,group) or $(b,group:<ms>) (commits inside \
           the window share one fsync), $(b,never) (leave it to the OS).")

let open_engine_or_die ?sync_mode dir =
  match Engine.open_ ?sync_mode (Engine.Dir dir) with
  | Ok t -> t
  | Error e ->
      Printf.eprintf "%s: %s\n" dir (Engine.error_to_string e);
      exit 1

let print_replay_report = function
  | None -> print_endline "recovery: log already at the snapshot; nothing to replay"
  | Some (r : Wal.replay_report) ->
      Printf.printf
        "recovery: %d txn(s) / %d op(s) replayed, %d already in the \
         snapshot, %d aborted\n"
        r.Wal.stats.Wal.applied_txns r.Wal.stats.Wal.applied_ops
        r.Wal.stats.Wal.skipped_txns r.Wal.stats.Wal.aborted_txns;
      if r.Wal.truncated_bytes > 0 then
        Printf.printf "recovery: truncated %d dead byte(s) (%d record(s)) past the last commit boundary\n"
          r.Wal.truncated_bytes r.Wal.dropped_records;
      (match r.Wal.damage with
      | Some d -> Printf.printf "recovery: damaged tail detected: %s\n" d
      | None -> ())

let engine_stats_rows t =
  let st = Engine.stats t in
  let durable_rows =
    match st.Engine.durable with
    | None -> []
    | Some d ->
        [
          [ "WAL length"; Table.fmt_bytes d.Durable.wal_bytes ];
          [ "next LSN"; string_of_int d.Durable.next_lsn ];
          [ "last checkpoint LSN"; string_of_int d.Durable.last_checkpoint_lsn ];
        ]
  in
  [
    [ "published epoch"; string_of_int st.Engine.epoch ];
    [ "commits since open"; string_of_int st.Engine.commits ];
  ]
  @ durable_rows

(* -j/--jobs: 0 means "one per core", the make convention. *)
let jobs_arg =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Build indices on $(docv) domains in parallel; 0 picks the host's \
           recommended domain count.")

let resolve_jobs j = if j = 0 then Xvi_util.Pool.recommended_jobs () else max j 1

(* --- generate --- *)

let generators =
  [
    ("xmark", fun ~seed ~factor -> Xvi_workload.Xmark.generate ~seed ~factor ());
    ("epageo", fun ~seed ~factor -> Xvi_workload.Datasets.epageo ~seed ~factor ());
    ("dblp", fun ~seed ~factor -> Xvi_workload.Datasets.dblp ~seed ~factor ());
    ("psd", fun ~seed ~factor -> Xvi_workload.Datasets.psd ~seed ~factor ());
    ("wiki", fun ~seed ~factor -> Xvi_workload.Datasets.wiki ~seed ~factor ());
  ]

let generate_cmd =
  let dataset =
    let doc = "Data set: xmark, epageo, dblp, psd or wiki." in
    Arg.(required & pos 0 (some (enum (List.map (fun (n, _) -> (n, n)) generators))) None
         & info [] ~docv:"DATASET" ~doc)
  in
  let factor =
    Arg.(value & opt float 1.0
         & info [ "factor"; "f" ] ~docv:"F"
             ~doc:"Size factor; 1.0 is about 1/40th of the paper's document.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run dataset factor seed output =
    let gen = List.assoc dataset generators in
    let xml = gen ~seed ~factor in
    match output with
    | Some path ->
        write_file path xml;
        Printf.printf "wrote %s (%s)\n" path
          (Table.fmt_bytes (String.length xml))
    | None -> print_string xml
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic data set")
    Term.(const run $ dataset $ factor $ seed $ output)

(* --- shred --- *)

let shred_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"XML"
             ~doc:"Document to shred; $(b,-) reads it from standard input.")
  in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"SNAPSHOT" ~doc:"Snapshot output path.")
  in
  let substring =
    Arg.(value & flag
         & info [ "substring" ] ~doc:"Also build the substring (3-gram) index.")
  in
  let durable =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:
               "Treat $(b,-o) as a durable directory: initialise it with a \
                snapshot plus an empty write-ahead log instead of writing a \
                bare snapshot file.")
  in
  let force =
    Arg.(value & flag
         & info [ "force" ]
             ~doc:
               "With $(b,--durable): overwrite $(b,-o) even when it already \
                holds a durable store. Without this flag, pointing at an \
                existing durable directory is refused — it would destroy all \
                its committed data.")
  in
  let run file output substring durable force jobs =
    let config =
      { Db.Config.default with substring; jobs = resolve_jobs jobs }
    in
    let db, ms =
      Xvi_util.Timing.time_ms (fun () ->
          Db.of_store ~config (shred_exn file))
    in
    Printf.printf "shredded and indexed %s in %s (%d jobs)\n"
      (input_label file) (Table.fmt_ms ms) config.Db.Config.jobs;
    if durable then begin
      (* Engine.init carries the refuse-to-overwrite contract *)
      let t, ms =
        Xvi_util.Timing.time_ms (fun () -> Engine.init ~force ~dir:output db)
      in
      match t with
      | Error e ->
          Printf.eprintf "%s: %s\n" output (Engine.error_to_string e);
          exit 1
      | Ok t ->
          Engine.close t;
          Printf.printf
            "durable directory %s initialised in %s (snapshot + WAL)\n" output
            (Table.fmt_ms ms)
    end
    else begin
      let (), ms =
        Xvi_util.Timing.time_ms (fun () -> Xvi_core.Snapshot.save db output)
      in
      Printf.printf "snapshot %s written in %s\n" output (Table.fmt_ms ms)
    end
  in
  Cmd.v
    (Cmd.info "shred"
       ~doc:
         "Shred a document, build all indices, save a snapshot or a durable \
          directory")
    Term.(const run $ file $ output $ substring $ durable $ force $ jobs_arg)

(* --- ingest --- *)

let ingest_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"XML"
             ~doc:"Document to ingest; $(b,-) streams it from standard input.")
  in
  let dir =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"DIR"
             ~doc:"Durable directory to create (snapshot + write-ahead log).")
  in
  let batch_rows =
    Arg.(value & opt int Ingest.default_batch_rows
         & info [ "batch-rows" ] ~docv:"N"
             ~doc:
               "Store rows per committed batch: each batch ends with one \
                WAL chunk commit and a progress report. Smaller batches make \
                crash recovery finer-grained; larger ones amortise the \
                per-batch fsync. The index is built once, at the end.")
  in
  let force =
    Arg.(value & flag
         & info [ "force" ]
             ~doc:
               "Overwrite $(b,-o) even when it already holds a durable store. \
                Without this flag an existing directory is refused — \
                overwriting would destroy its committed data.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "Finish an interrupted ingest instead of starting one: \
                $(b,-o) must hold the pending prefix left by a crashed run, \
                and $(docv) must be the $(i,same) document it was fed (its \
                already-durable prefix is skipped).")
  in
  let run file dir batch_rows force resume jobs sync_mode =
    let jobs = resolve_jobs jobs in
    let ic =
      if String.equal file "-" then stdin
      else
        try open_in_bin file
        with Sys_error m ->
          Printf.eprintf "%s\n" m;
          exit 1
    in
    Fun.protect
      ~finally:(fun () -> if not (String.equal file "-") then close_in_noerr ic)
    @@ fun () ->
    let source = Sax.of_channel ic in
    (* one line per committed batch, overwritten in place; silent when
       stderr is not a terminal (CI logs, pipelines) *)
    let live = Unix.isatty Unix.stderr in
    let progressed = ref false in
    let progress (p : Ingest.progress) =
      if live then begin
        progressed := true;
        Printf.eprintf "\ringest: %s row(s) in %d batch(es), %s read%!"
          (Table.fmt_int p.Ingest.rows) p.Ingest.batches
          (Table.fmt_bytes p.Ingest.consumed)
      end
    in
    let progress_done () = if !progressed then prerr_newline () in
    let report verb t ms =
      let store = Db.store (Engine.snapshot t) in
      Printf.printf "%s %s into %s in %s: %s node(s) indexed (%d jobs)\n" verb
        (input_label file) dir (Table.fmt_ms ms)
        (Table.fmt_int (Store.live_count store - 1))
        jobs;
      Engine.close t
    in
    let with_pool f =
      if jobs > 1 then Xvi_util.Pool.with_pool ~jobs (fun p -> f (Some p))
      else f None
    in
    with_pool @@ fun pool ->
    if resume then begin
      match Durable.open_ ~sync_mode dir with
      | Error m ->
          Printf.eprintf "%s: %s\n" dir m;
          exit 1
      | Ok d -> (
          match Durable.pending_ingest d with
          | None ->
              Durable.close d;
              Printf.eprintf
                "%s: nothing to resume — no interrupted ingest in this \
                 directory\n"
                dir;
              exit 1
          | Some p ->
              Printf.printf
                "resuming %s: %d durable chunk(s) (%s) already committed\n%!"
                dir p.Durable.chunks
                (Table.fmt_bytes p.Durable.chunk_bytes);
              let r, ms =
                Xvi_util.Timing.time_ms (fun () ->
                    Durable.resume_ingest ~batch_rows ?pool ~progress d source)
              in
              progress_done ();
              (match r with
              | Error m ->
                  Printf.eprintf "%s: %s\n" dir m;
                  exit 1
              | Ok d -> (
                  (* reopen through the engine facade for the summary *)
                  Durable.close d;
                  match Engine.open_ ~sync_mode (Engine.Dir dir) with
                  | Error e ->
                      Printf.eprintf "%s: %s\n" dir (Engine.error_to_string e);
                      exit 1
                  | Ok t -> report "resumed" t ms)))
    end
    else begin
      let r, ms =
        Xvi_util.Timing.time_ms (fun () ->
            Engine.ingest ~sync_mode ~force ~batch_rows ?pool ~progress ~dir
              source)
      in
      progress_done ();
      match r with
      | Error e ->
          Printf.eprintf "%s: %s\n" dir (Engine.error_to_string e);
          exit 1
      | Ok t -> report "ingested" t ms
    end
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Stream a document into a fresh durable directory without holding \
          it in memory (SAX shred into off-heap columns, WAL-committed \
          batches, one index build at the end)")
    Term.(
      const run $ file $ dir $ batch_rows $ force $ resume $ jobs_arg
      $ sync_mode_arg)

(* --- stats --- *)

let stats_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let durable_stats dir =
    let t = open_engine_or_die dir in
    print_replay_report (Engine.last_replay t);
    let store = Db.store (Engine.snapshot t) in
    Table.print
      ~header:[ "metric"; "value" ]
      ([
         [ "total nodes"; Table.fmt_int (Store.live_count store - 1) ];
         [ "text nodes"; Table.fmt_int (Store.count_of_kind store Store.Text) ];
         [ "db storage"; Table.fmt_bytes (Store.storage_bytes store) ];
         [ "  off-heap (columns)"; Table.fmt_bytes (Store.offheap_bytes store) ];
         [ "  GC heap (name pool)"; Table.fmt_bytes (Store.heap_bytes store) ];
       ]
      @ engine_stats_rows t);
    Engine.close t
  in
  let run file jobs =
    if Sys.is_directory file && Durable.is_durable_dir file then
      durable_stats file
    else begin
    let src = read_file file in
    let store, shred_ms =
      if Xvi_core.Snapshot.is_snapshot file then
        match Xvi_core.Snapshot.load file with
        | Ok db -> (Db.store db, 0.0)
        | Error e ->
            Printf.eprintf "%s: %s\n" file
              (Xvi_core.Snapshot.error_to_string e);
            exit 1
      else Xvi_util.Timing.time_ms (fun () -> shred_exn file)
    in
    let double = Xvi_core.Lexical_types.double () in
    let jobs = resolve_jobs jobs in
    let build () =
      if jobs > 1 then
        Xvi_util.Pool.with_pool ~jobs (fun pool ->
            Xvi_core.Typed_index.create ~pool double store)
      else Xvi_core.Typed_index.create double store
    in
    let ti, index_ms = Xvi_util.Timing.time_ms build in
    let st = Xvi_core.Typed_index.stats ti store in
    let total = Store.live_count store - 1 in
    Table.print
      ~header:[ "metric"; "value" ]
      [
        [ "file size"; Table.fmt_bytes (String.length src) ];
        [ "shred time"; Table.fmt_ms shred_ms ];
        [ "double-index time"; Table.fmt_ms index_ms ];
        [ "total nodes"; Table.fmt_int total ];
        [ "element nodes"; Table.fmt_int (Store.count_of_kind store Store.Element) ];
        [ "text nodes"; Table.fmt_int (Store.count_of_kind store Store.Text) ];
        [ "attribute nodes"; Table.fmt_int (Store.count_of_kind store Store.Attribute) ];
        [ "double text nodes"; Table.fmt_int st.Xvi_core.Typed_index.complete_text_nodes ];
        [ "double non-leaf nodes"; Table.fmt_int st.Xvi_core.Typed_index.complete_non_leaves ];
        [ "db storage"; Table.fmt_bytes (Store.storage_bytes store) ];
        [ "  off-heap (columns)"; Table.fmt_bytes (Store.offheap_bytes store) ];
        [ "  GC heap (name pool)"; Table.fmt_bytes (Store.heap_bytes store) ];
        [ "double index storage"; Table.fmt_bytes (Xvi_core.Typed_index.storage_bytes ti) ];
      ]
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print statistics for a document, snapshot or durable directory \
          (including WAL length and checkpoint watermark)")
    Term.(const run $ file $ jobs_arg)

(* --- query --- *)

let query_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let expr = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let naive_only =
    Arg.(value & flag & info [ "naive" ] ~doc:"Skip the index-accelerated run.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:
               "Print the predicate conjuncts compiled to the query IR, \
                sorted by estimated cardinality, and the planner's plan for \
                the chosen candidate generator.")
  in
  let within =
    Arg.(value & opt (some string) None
         & info [ "within" ] ~docv:"XPATH"
             ~doc:
               "Restrict matches to the subtree rooted at the first node the \
                given path selects; runs as a staircase-join filter in the \
                plan, not a post-hoc intersection.")
  in
  let limit =
    Arg.(value & opt int 10 & info [ "limit"; "n" ] ~docv:"N"
         ~doc:"Print at most N matches.")
  in
  let parse_or_die expr =
    match Xvi_xpath.Xpath.parse expr with
    | Ok t -> t
    | Error e ->
        Printf.eprintf "XPath error at %d: %s\n" e.Xvi_xpath.Xpath.pos
          e.Xvi_xpath.Xpath.message;
        exit 1
  in
  let indent s =
    String.concat ""
      (List.map (fun l -> "  " ^ l ^ "\n") (String.split_on_char '\n' (String.trim s)))
  in
  let run file expr naive_only explain within limit =
    let xpath = parse_or_die expr in
    let db, open_ms = Xvi_util.Timing.time_ms (fun () -> open_db file) in
    let store = Db.store db in
    let scope =
      match within with
      | None -> None
      | Some wexpr -> (
          match Xvi_xpath.Xpath.eval store (parse_or_die wexpr) with
          | n :: _ -> Some n
          | [] ->
              Printf.eprintf "--within %s: selects no node\n" wexpr;
              exit 1)
    in
    let wrap ir =
      match scope with None -> ir | Some s -> Db.Ir.within ~scope:s ir
    in
    if explain then begin
      match Xvi_xpath.Xpath.compile_candidates db xpath with
      | [] ->
          print_endline
            "explain: no indexable conjunct; evaluated by tree walk"
      | cands ->
          let ranked =
            List.sort
              (fun (_, _, a) (_, _, b) -> Int.compare a b)
              (List.map (fun (l, ir) -> (l, ir, Db.estimate db ir)) cands)
          in
          print_endline "conjuncts, cheapest candidate generator first:";
          List.iteri
            (fun i (l, ir, e) ->
              Printf.printf "  %s est %-8d %s   [ir: %s]\n"
                (if i = 0 then "->" else "  ")
                e l (Db.Ir.to_string ir))
            ranked;
          let _, driver, _ = List.hd ranked in
          Printf.printf "driver plan:\n%s" (indent (Db.explain db (wrap driver)));
          if List.length ranked > 1 then begin
            let all = Db.Ir.conj (List.map (fun (_, ir, _) -> ir) ranked) in
            Printf.printf
              "conjunctive index plan (node-set semantics; the XPath \
               evaluator instead verifies residual conjuncts per candidate):\n\
               %s"
              (indent (Db.explain db (wrap all)))
          end
    end;
    let in_scope =
      match scope with
      | None -> fun _ -> true
      | Some s ->
          let plane = Db.plane db in
          fun n -> Xvi_xml.Pre_plane.in_subtree plane ~scope:s n
    in
    let naive, naive_ms =
      Xvi_util.Timing.time_ms (fun () ->
          List.filter in_scope (Xvi_xpath.Xpath.eval store xpath))
    in
    Printf.printf "naive:   %d matches in %s\n" (List.length naive)
      (Table.fmt_ms naive_ms);
    let result =
      if naive_only then naive
      else begin
        let build_ms = open_ms in
        let (indexed, plan), fast_ms =
          Xvi_util.Timing.time_ms (fun () ->
              let hits, plan = Xvi_xpath.Xpath.eval_with_plan db xpath in
              (List.filter in_scope hits, plan))
        in
        Printf.printf
          "indexed: %d matches in %s (open/build %s; %d string / %d double / \
           %d name index probes)\n"
          (List.length indexed) (Table.fmt_ms fast_ms) (Table.fmt_ms build_ms)
          plan.Xvi_xpath.Xpath.used_string_index
          plan.Xvi_xpath.Xpath.used_double_index
          plan.Xvi_xpath.Xpath.used_name_index;
        if indexed <> naive then Printf.printf "WARNING: result sets differ!\n";
        indexed
      end
    in
    List.iteri
      (fun i n ->
        if i < limit then
          let rendered = Xvi_xml.Serializer.to_string store n in
          let rendered =
            if String.length rendered > 120 then String.sub rendered 0 117 ^ "..."
            else rendered
          in
          Printf.printf "  %s\n" rendered)
      result
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate an XPath expression")
    Term.(const run $ file $ expr $ naive_only $ explain $ within $ limit)

(* --- update --- *)

let update_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let count =
    Arg.(value & opt int 1000 & info [ "count"; "n" ] ~docv:"N"
         ~doc:"Number of text nodes to update.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N") in
  (* On a durable directory every update is one write-ahead-logged
     transaction, so the run also demonstrates the sync policies: count
     the commits that paid an inline fsync vs. rode a group window. *)
  let durable_update dir sync_mode count seed =
    let t, open_ms =
      Xvi_util.Timing.time_ms (fun () -> open_engine_or_die ~sync_mode dir)
    in
    print_replay_report (Engine.last_replay t);
    Printf.printf "recover/open: %s\n" (Table.fmt_ms open_ms);
    (* node ids are shared between the published epoch and the master,
       so targets picked on the snapshot commit cleanly through the
       engine's writer *)
    let store = Db.store (Engine.snapshot t) in
    let updates =
      Xvi_workload.Update_workload.random_text_updates ~seed store ~count
    in
    let (), ms =
      Xvi_util.Timing.time_ms (fun () ->
          List.iter
            (fun (n, v) ->
              match Engine.update_texts t [ (n, v) ] with
              | Ok _ -> ()
              | Error e ->
                  Printf.eprintf "commit failed: %s\n"
                    (Engine.error_to_string e);
                  exit 1)
            updates)
    in
    Engine.sync t;
    let st = Engine.stats t in
    Printf.printf
      "committed %d durable txn(s) in %s under --sync %s (%d fsynced inline, \
       %d group-batched)\n"
      st.Engine.txn.Txn.committed (Table.fmt_ms ms)
      (Wal.sync_mode_to_string sync_mode)
      st.Engine.txn.Txn.wal_synced st.Engine.txn.Txn.wal_deferred;
    (match Db.validate (Engine.snapshot t) with
    | Ok () -> print_endline "indices validate clean against a rebuild"
    | Error e ->
        Printf.printf "VALIDATION FAILED: %s\n" e;
        exit 1);
    Table.print ~header:[ "metric"; "value" ] (engine_stats_rows t);
    Engine.close t
  in
  let run file count seed sync_mode jobs =
    if Sys.is_directory file && Durable.is_durable_dir file then
      durable_update file sync_mode count seed
    else begin
      let jobs = resolve_jobs jobs in
      let config =
        if jobs > 1 then Some { Db.Config.default with jobs } else None
      in
      let db, build_ms =
        Xvi_util.Timing.time_ms (fun () -> open_db ?config file)
      in
      let store = Db.store db in
      Printf.printf "index open/build: %s\n" (Table.fmt_ms build_ms);
      let updates =
        Xvi_workload.Update_workload.random_text_updates ~seed store ~count
      in
      let (), ms =
        Xvi_util.Timing.time_ms (fun () -> Db.update_texts db updates)
      in
      Printf.printf "updated %d text nodes; index maintenance %s\n"
        (List.length updates) (Table.fmt_ms ms);
      match Db.validate db with
      | Ok () -> print_endline "indices validate clean against a rebuild"
      | Error e ->
          Printf.printf "VALIDATION FAILED: %s\n" e;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Random text updates with index maintenance; write-ahead logged \
          when the target is a durable directory")
    Term.(const run $ file $ count $ seed $ sync_mode_arg $ jobs_arg)

(* --- recover / checkpoint --- *)

let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
       ~doc:"A durable directory (snapshot.xvi + wal.log).")

let recover_cmd =
  let run dir sync_mode =
    if not (Durable.is_durable_dir dir) then begin
      Printf.eprintf "%s: not a durable directory (no snapshot.xvi)\n" dir;
      exit 1
    end;
    let t, ms =
      Xvi_util.Timing.time_ms (fun () -> open_engine_or_die ~sync_mode dir)
    in
    print_replay_report (Engine.last_replay t);
    Printf.printf "recovered %s in %s\n" dir (Table.fmt_ms ms);
    (match Db.validate (Engine.snapshot t) with
    | Ok () -> print_endline "indices validate clean against a rebuild"
    | Error e ->
        Printf.printf "VALIDATION FAILED: %s\n" e;
        Engine.close t;
        exit 1);
    Table.print ~header:[ "metric"; "value" ] (engine_stats_rows t);
    Engine.close t
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash-recover a durable directory: truncate the log's torn tail, \
          replay committed transactions past the snapshot, validate")
    Term.(const run $ dir_arg $ sync_mode_arg)

let checkpoint_cmd =
  let run dir =
    if not (Durable.is_durable_dir dir) then begin
      Printf.eprintf "%s: not a durable directory (no snapshot.xvi)\n" dir;
      exit 1
    end;
    let t = open_engine_or_die dir in
    print_replay_report (Engine.last_replay t);
    let wal_bytes () =
      match (Engine.stats t).Engine.durable with
      | Some d -> d.Durable.wal_bytes
      | None -> 0
    in
    let ckpt_lsn () =
      match (Engine.stats t).Engine.durable with
      | Some d -> d.Durable.last_checkpoint_lsn
      | None -> 0
    in
    let before = wal_bytes () in
    let r, ms = Xvi_util.Timing.time_ms (fun () -> Engine.checkpoint t) in
    (match r with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "%s: %s\n" dir (Engine.error_to_string e);
        Engine.close t;
        exit 1);
    Printf.printf "checkpoint at LSN %d in %s: log %s -> %s\n" (ckpt_lsn ())
      (Table.fmt_ms ms) (Table.fmt_bytes before)
      (Table.fmt_bytes (wal_bytes ()));
    Engine.close t
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Write a fresh LSN-stamped snapshot of a durable directory and \
          truncate its write-ahead log")
    Term.(const run $ dir_arg)

(* --- serve / client --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "XML document, snapshot, or durable directory to serve. With \
             $(b,--follow) this is the follower's own durable directory, \
             bootstrapped from the leader when missing or empty.")
  in
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"LEADER-SOCKET"
          ~doc:
            "Run as a replication follower of the leader serving on \
             $(docv): pull its WAL frames into FILE (a durable directory) \
             and serve stale-bounded reads from the replica. Writes answer \
             $(b,read-only) until a $(b,promote) request turns this node \
             into the leader.")
  in
  let publish_period =
    Arg.(
      value & opt float 0.0
      & info [ "publish-period" ] ~docv:"S"
          ~doc:
            "Cut a fresh read epoch at most every $(docv) seconds, so the \
             copy cost amortises over many commits; 0 publishes at every \
             durable commit boundary (read-your-writes for sessions that \
             await durability).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No lifecycle logging.")
  in
  let run file socket follow sync_mode publish_period quiet jobs =
    let log =
      if quiet then fun (_ : string) -> ()
      else fun m -> Printf.printf "xvi serve: %s\n%!" m
    in
    let install_signals server =
      let stop (_ : int) = Server.request_stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
    in
    (* Every commit after an epoch publication clones the column pages it
       writes, and the superseded pages are off-heap garbage the GC sees
       only through custom-block accounting. At the runtime's default
       (44% of the major heap) they and the heap's own floating garbage
       wait ~200 commits for a major cycle; at 20% the server's resident
       set stays where it was when a commit cloned 32 KiB chunks (DESIGN.md
       "Paged copy-on-write columns"). *)
    Gc.set { (Gc.get ()) with Gc.custom_major_ratio = 20 };
    match follow with
    | Some leader_socket -> (
        match Repl_transport.connect ~socket:leader_socket () with
        | Error m ->
            Printf.eprintf "xvi serve --follow: %s\n" m;
            exit 1
        | Ok transport -> (
            match
              Follower.create ~sync_mode ~publish_period
                ~log:(fun m -> log ("repl: " ^ m))
                ~transport ~dir:file ()
            with
            | Error m ->
                transport.Repl_transport.close ();
                Printf.eprintf "xvi serve --follow: %s\n" m;
                exit 1
            | Ok f -> (
                Follower.start f;
                match
                  Server.create ~log ~repl:(Follower.handlers f)
                    ~engine:(Follower.engine f) ~socket ()
                with
                | Error m ->
                    Printf.eprintf "%s\n" m;
                    Follower.close f;
                    exit 1
                | Ok server ->
                    (* a re-seed (or promotion) swaps the engine; new
                       connections must follow it *)
                    Follower.set_on_engine_change f (Server.set_engine server);
                    log
                      (Printf.sprintf "following %s into %s" leader_socket
                         file);
                    install_signals server;
                    Server.run server;
                    (* not promoted: the serving engine is still the
                       read-only replica and Follower.close owns it;
                       promoted: the recovered leader engine is ours *)
                    let final = Server.engine server in
                    let promoted = not (Engine.read_only final) in
                    Follower.close f;
                    if promoted then Engine.close final)))
    | None ->
        if not (Sys.file_exists file) then begin
          Printf.eprintf "%s: no such file or directory\n" file;
          exit 1
        end;
        let durable = Sys.is_directory file && Durable.is_durable_dir file in
        let engine =
          if durable then
            match Engine.open_ ~sync_mode ~publish_period (Engine.Dir file) with
            | Ok t -> t
            | Error e ->
                Printf.eprintf "%s: %s\n" file (Engine.error_to_string e);
                exit 1
          else begin
            let jobs = resolve_jobs jobs in
            let config =
              if jobs > 1 then Some { Db.Config.default with jobs } else None
            in
            let db = open_db ?config file in
            match Engine.open_ ~publish_period (Engine.Memory db) with
            | Ok t -> t
            | Error e ->
                Printf.eprintf "%s: %s\n" file (Engine.error_to_string e);
                exit 1
          end
        in
        (match Engine.last_replay engine with
        | Some _ as r -> print_replay_report r
        | None -> ());
        (* a durable directory can lead followers; memory-backed engines
           have no log to ship, so replication verbs stay disabled *)
        let repl = if durable then Some (Leader.handlers engine) else None in
        (match Server.create ?repl ~log ~engine ~socket () with
        | Error m ->
            Printf.eprintf "%s\n" m;
            Engine.close engine;
            exit 1
        | Ok server ->
            install_signals server;
            Server.run server;
            Engine.close engine)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a database over a Unix-domain socket: any number of \
          snapshot-isolated reader connections (lock-free pinned epochs), \
          writes serialised through one writer with cross-session group \
          commit. A durable directory also answers the replication verbs, \
          so followers started with $(b,--follow) can pull its log. Stop \
          with a $(b,shutdown) request, SIGINT or SIGTERM.")
    Term.(
      const run $ file $ socket_arg $ follow $ sync_mode_arg $ publish_period
      $ quiet $ jobs_arg)

let promote_cmd =
  let run socket =
    match Client.connect ~socket () with
    | Error m ->
        Printf.eprintf "%s\n" m;
        exit 1
    | Ok c ->
        let r = Client.promote c in
        Client.close c;
        (match r with
        | Ok () -> print_endline "promoted"
        | Error m ->
            Printf.eprintf "xvi promote: %s\n" m;
            exit 1)
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote the follower serving on $(b,--socket) to leader: its \
          pull loop stops and its directory is recovered through the \
          ordinary crash-recovery path, after which it accepts writes and \
          can lead followers of its own. Idempotent on a node that is \
          already the leader.")
    Term.(const run $ socket_arg)

let client_cmd =
  let script =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Protocol requests to send in order (default: read one per line \
             from stdin). See the README's protocol table; e.g. \
             $(b,'lookup-string Arthur') or $(b,shutdown).")
  in
  let run socket script =
    match Client.connect ~socket () with
    | Error m ->
        Printf.eprintf "%s\n" m;
        exit 1
    | Ok c ->
        let failed = ref false in
        let send line =
          let line = String.trim line in
          if line <> "" then
            match Protocol.decode_request line with
            | Error m ->
                Printf.printf "err %s\n%!" (Protocol.escape m);
                failed := true
            | Ok req -> (
                match Client.request c req with
                | Ok resp ->
                    Printf.printf "%s\n%!" (Protocol.encode_response resp);
                    (* a well-formed error answer still fails the script:
                       CI smoke runs assert on the exit code *)
                    (match resp with
                    | Protocol.Err _ | Protocol.Conflict_r _ -> failed := true
                    | _ -> ())
                | Error m ->
                    Printf.printf "err %s\n%!" (Protocol.escape m);
                    failed := true)
        in
        (match script with
        | [] -> (
            try
              while true do
                send (input_line stdin)
              done
            with End_of_file -> ())
        | reqs -> List.iter send reqs);
        Client.close c;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Run a scripted session against a running $(b,xvi serve): each \
          REQUEST (or stdin line) is one protocol request; responses print \
          one per line.")
    Term.(const run $ socket_arg $ script)

(* --- fuzz --- *)

let fuzz_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let ops =
    Arg.(
      value & opt int 200
      & info [ "ops" ] ~docv:"M" ~doc:"Operations per document.")
  in
  let docs =
    Arg.(
      value & opt int 50
      & info [ "docs" ] ~docv:"K" ~doc:"Random documents to exercise.")
  in
  let fault =
    Arg.(
      value & flag
      & info [ "fault" ]
          ~doc:
            "Also run the fault-injection sweeps afterwards: snapshot \
             corruption, then the WAL crash-point sweep (recovery vs. an \
             index-free oracle at every simulated crash position).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "CI budget: cap documents, operations and crash positions so the \
             whole run finishes in seconds.")
  in
  let run seed docs ops fault quick =
    if docs < 0 || ops < 0 then begin
      Printf.eprintf "xvi fuzz: --docs and --ops must be non-negative\n";
      exit 2
    end;
    let docs = if quick then min docs 5 else docs in
    let ops = if quick then min ops 60 else ops in
    Printf.printf "seed %d, %d docs x %d ops\n%!" seed docs ops;
    (match
       Xvi_check.Runner.run ~log:print_endline ~seed ~docs ~ops_per_doc:ops ()
     with
    | Ok o ->
        Printf.printf "differential ok: %d docs, %d ops, %d checks\n"
          o.Xvi_check.Runner.docs o.ops o.checks
    | Error f ->
        prerr_endline (Xvi_check.Runner.render_trace f);
        exit 1);
    if fault then begin
      let rng = Xvi_util.Prng.create seed in
      let gen_db rng =
        match Db.of_xml (Xvi_check.Gen.document rng) with
        | Ok db -> db
        | Error e ->
            Printf.eprintf "generated document rejected: %s\n"
              (Parser.error_to_string e);
            exit 1
      in
      let db = gen_db rng in
      let truncations = if quick then Some 2048 else None in
      let flips = if quick then 256 else 128 in
      (match Xvi_check.Fault.sweep ?truncations ~flips db with
      | Ok r ->
          Printf.printf "fault sweep ok: %d truncations, %d flips\n%!"
            r.Xvi_check.Fault.truncations r.flips
      | Error m ->
          prerr_endline ("fault sweep: " ^ m);
          exit 1);
      (* crash-point sweep: scripted durable commits, then recovery
         checked against the oracle at every simulated crash position *)
      let wal_db = gen_db rng in
      let texts = Store.text_nodes (Db.store wal_db) in
      (if Array.length texts = 0 then
         print_endline "wal sweep skipped: generated document has no text nodes"
       else begin
         let n = Array.length texts in
         let batches =
           List.init 6 (fun i ->
               List.init ((i mod 3) + 1) (fun j ->
                   (texts.((i * 3 + j) mod n), Printf.sprintf "wal-%d-%d" i j)))
         in
         let crash_points = if quick then Some 200 else None in
         match Xvi_check.Fault.wal_sweep ?crash_points wal_db batches with
         | Ok r ->
             Printf.printf
               "wal crash sweep ok: %d crash points, %d byte flips over %d \
                commits\n"
               r.Xvi_check.Fault.crash_points r.Xvi_check.Fault.wal_flips
               r.Xvi_check.Fault.commits
         | Error m ->
             prerr_endline ("wal crash sweep: " ^ m);
             exit 1
       end);
      (* snapshot-isolated serving: reader domains raced against the
         single writer, every pinned epoch digest-checked against the
         scripted commit prefix, with a mid-commit writer stall *)
      (match
         Xvi_check.Runner.run_concurrent ~log:print_endline ~seed ~readers:2
           ~commits:(if quick then 12 else 40) ()
       with
      | Ok o ->
          Printf.printf
            "concurrent serve ok: %d readers, %d checked reads over %d \
             epochs\n"
            o.Xvi_check.Runner.readers o.Xvi_check.Runner.reads
            o.Xvi_check.Runner.epochs
      | Error m ->
          prerr_endline ("concurrent serve: " ^ m);
          exit 1);
      (* group-commit crash sweep: sessions commit deferred, one shared
         fsync per round, recovery checked at every cut *)
      let serve_db = gen_db rng in
      let texts = Store.text_nodes (Db.store serve_db) in
      if Array.length texts = 0 then
        print_endline
          "serve sweep skipped: generated document has no text nodes"
      else begin
        let n = Array.length texts in
        let batches =
          List.init 9 (fun i ->
              List.init ((i mod 2) + 1) (fun j ->
                  (texts.((i * 2 + j) mod n), Printf.sprintf "serve-%d-%d" i j)))
        in
        let crash_points = if quick then Some 150 else None in
        match
          Xvi_check.Fault.serve_sweep ?crash_points ~sessions:3 serve_db
            batches
        with
        | Ok r ->
            Printf.printf
              "serve crash sweep ok: %d crash points over %d commits in %d \
               shared sync(s)\n"
              r.Xvi_check.Fault.serve_crash_points
              r.Xvi_check.Fault.serve_commits r.Xvi_check.Fault.syncs
        | Error m ->
            prerr_endline ("serve crash sweep: " ^ m);
            exit 1
      end;
      (* replication sweep: a real follower driven through a faulty
         in-process wire — leader crashes, corrupted frames, follower
         crashes, failover and rejoin, all checked against the oracle *)
      let repl_db = gen_db rng in
      let texts = Store.text_nodes (Db.store repl_db) in
      if Array.length texts = 0 then
        print_endline "repl sweep skipped: generated document has no text nodes"
      else begin
        let n = Array.length texts in
        let batches =
          List.init 6 (fun i ->
              List.init ((i mod 3) + 1) (fun j ->
                  (texts.((i * 3 + j) mod n), Printf.sprintf "repl-%d-%d" i j)))
        in
        let cap v = if quick then Some v else None in
        match
          Xvi_check.Fault.repl_sweep ?cut_points:(cap 60)
            ?stream_flips:(cap 120) ?follower_crashes:(cap 40)
            ?failovers:(cap 6) repl_db batches
        with
        | Ok r ->
            Printf.printf
              "repl sweep ok: %d stream cuts, %d corruptions, %d follower \
               crashes, %d failovers over %d commits\n"
              r.Xvi_check.Fault.repl_cut_points r.Xvi_check.Fault.stream_flips
              r.Xvi_check.Fault.follower_crashes
              r.Xvi_check.Fault.repl_failovers r.Xvi_check.Fault.repl_commits
        | Error m ->
            prerr_endline ("repl sweep: " ^ m);
            exit 1
      end;
      (* streaming-ingest crash sweep: tear the mid-load log at every
         batch boundary; recovery must hold exactly the durable chunk
         prefix and resume to the bit-identical whole-document build *)
      let ingest_doc = Xvi_check.Gen.document rng in
      let crash_points = if quick then Some 60 else Some 200 in
      (match
         Xvi_check.Fault.ingest_sweep ?crash_points
           ~ingest_flips:(if quick then 24 else 64)
           ~batch_rows:16 ingest_doc
       with
      | Ok r ->
          Printf.printf
            "ingest sweep ok: %d crash points, %d byte flips over %d \
             batch(es)\n"
            r.Xvi_check.Fault.ingest_crash_points
            r.Xvi_check.Fault.ingest_flips r.Xvi_check.Fault.ingest_batches
      | Error m ->
          prerr_endline ("ingest sweep: " ^ m);
          exit 1)
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random operation traces cross-checked \
          against an index-free oracle after every step")
    Term.(const run $ seed $ docs $ ops $ fault $ quick)

(* --- collisions --- *)

let collisions_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let store = shred_exn file in
    let by_hash = Hashtbl.create 4096 in
    Store.iter_pre store (fun n ->
        if Store.kind store n = Store.Text then begin
          let s = Store.text store n in
          let h = Xvi_core.Hash.to_int (Xvi_core.Hash.hash s) in
          let set =
            match Hashtbl.find_opt by_hash h with
            | Some set -> set
            | None ->
                let set = Hashtbl.create 4 in
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
    let keys = List.sort Int.compare (Hashtbl.fold (fun k _ l -> k :: l) histogram []) in
    Table.print
      ~header:[ "distinct strings per hash"; "hash values" ]
      (List.map
         (fun k -> [ string_of_int k; Table.fmt_int (Hashtbl.find histogram k) ])
         keys)
  in
  Cmd.v
    (Cmd.info "collisions" ~doc:"Hash-stability histogram (paper Figure 11)")
    Term.(const run $ file)

let () =
  let doc = "Generic and updatable XML value indices (EDBT 2009 reproduction)" in
  let info = Cmd.info "xvi" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; shred_cmd; ingest_cmd; stats_cmd; query_cmd; update_cmd;
            recover_cmd; checkpoint_cmd; serve_cmd; promote_cmd; client_cmd;
            fuzz_cmd; collisions_cmd;
          ]))
