(* The traced run: per-layer figures for one workload.

   Two sources, both recorded as spans around the benchmark's own calls:
   - the wire path of the running `xvi serve`: each request is encoded,
     round-tripped and decoded as separate steps;
   - an in-process replay of the same requests and the same seeded
     write sequence against an [Engine] over an equivalent directory
     the benchmark builds itself from the same XML (a directory written
     by the [xvi] binary only reopens in that binary).

   Per-layer times are per-call costs of a layer's public function on
   the workload's own document.  Counts of how often the real path used
   a layer ([engine.epochs_per_commit]) come from the server's [stats]
   verb. *)

open Ctx
module Protocol = Xvi_serve.Protocol
module Engine = Xvi_serve.Engine
module Session = Xvi_serve.Session
module Durable = Xvi_wal.Durable
module Ingest = Xvi_ingest.Ingest
module Sax = Xvi_xml.Sax
module Range = Xvi_query.Range

let p50 s = Samples.us 0.5 s
let by_cls () = Array.init 3 (fun _ -> Samples.create ())

(* --- the wire path --- *)

type wire = {
  untraced : Samples.t array;  (** per class, full round trip *)
  traced : Samples.t array;
  encode : Samples.t array;
  round_trip : Samples.t array;
  decode : Samples.t array;
  reply_bytes : int array;  (** per class, over one block *)
}

(* Each request of one fixed block of the lookup mix is sent twice in a
   row, untraced and traced, so both see the same conditions; which goes
   first alternates, so the second's warmer caches favour neither.
   Passes repeat (at least two) until [budget_s] is spent. *)
let wire_lookups w (block : Setup.op array) ~budget_s =
  let r =
    { untraced = by_cls (); traced = by_cls (); encode = by_cls (); round_trip = by_cls ();
      decode = by_cls (); reply_bytes = Array.make 3 0 }
  in
  let until = Clock.now_ns () + int_of_float (budget_s *. 1e9) in
  let rounds = ref 0 in
  while !rounds < 2 || Clock.now_ns () < until do
    Array.iteri
      (fun i (op : Setup.op) ->
        let c = E2e.cls_idx op.cls in
        let untraced () = match E2e.probe w op with Some dt -> Samples.add r.untraced.(c) dt | None -> () in
        let untraced_first = (i + !rounds) land 1 = 0 in
        if untraced_first then untraced ();
        let t0 = Clock.now_ns () in
        let tr = Wire.rpc_traced w op.req in
        let dt = Clock.now_ns () - t0 in
        if Setup.matches op tr.Wire.reply then begin
          Tally.ok ();
          Samples.add r.traced.(c) dt;
          Samples.add r.encode.(c) tr.Wire.encode_ns;
          Samples.add r.round_trip.(c) tr.Wire.round_trip_ns;
          Samples.add r.decode.(c) tr.Wire.decode_ns;
          if !rounds = 0 then r.reply_bytes.(c) <- r.reply_bytes.(c) + tr.Wire.reply_bytes
        end
        else Tally.fail (E2e.describe op tr.Wire.reply);
        if not untraced_first then untraced ())
      block;
    incr rounds
  done;
  r

type commits = {
  c_untraced : Samples.t;
  c_traced : Samples.t;
  c_encode : Samples.t;
  c_round_trip : Samples.t;
  c_decode : Samples.t;
}

(* The update path on the wire: transactions of the seeded write
   sequence, alternately untraced and traced; every acked write is read
   back afterwards. *)
let wire_commits cfg st w ~budget_s =
  let gen = Setup.writes ~seed:cfg.seed st.reference st.probes in
  let ledger : E2e.ledger = Hashtbl.create 256 in
  let r =
    { c_untraced = Samples.create (); c_traced = Samples.create (); c_encode = Samples.create ();
      c_round_trip = Samples.create (); c_decode = Samples.create () }
  in
  let last = ref None in
  let traced_rpc w req =
    let tr = Wire.rpc_traced w req in
    last := Some tr;
    tr.Wire.reply
  in
  let until = Clock.now_ns () + int_of_float (budget_s *. 1e9) in
  let rounds = ref 0 in
  while !rounds < 8 || Clock.now_ns () < until do
    (match E2e.write_txn w ledger (Setup.next_txn gen) with
    | Some (_, dt) -> Samples.add r.c_untraced dt
    | None -> ());
    (match E2e.write_txn ~rpc:traced_rpc w ledger (Setup.next_txn gen) with
    | Some (_, dt) -> (
        Samples.add r.c_traced dt;
        match !last with
        | Some tr ->
            Samples.add r.c_encode tr.Wire.encode_ns;
            Samples.add r.c_round_trip tr.Wire.round_trip_ns;
            Samples.add r.c_decode tr.Wire.decode_ns
        | None -> ())
    | None -> ());
    incr rounds
  done;
  E2e.readback w ledger ~where:"traced";
  r

(* --- in process --- *)

type ingest_layers = {
  sax_ns : int;
  load_ns : int;
  bulk_ns : int;
  of_xml_ns : int;
  open_ns : int;
  batches : int;
  engine : Engine.t;
}

let with_source path f = In_channel.with_open_bin path (fun ic -> f (Sax.of_channel ic))

(* The ingest layers on the workload's document, ending with an open
   engine over the benchmark's own durable directory. *)
let ingest_layers cfg st =
  let parse_error e = Error (Xvi_xml.Parser.error_to_string e) in
  let (), sax_ns =
    Trace.span "sax.drain" (fun () ->
        with_source st.doc_path (fun src ->
            let p = Sax.make src in
            let rec go () =
              match Sax.next p with
              | Ok (Some _) -> go ()
              | Ok None -> ()
              | Error e -> E2e.ok_or_die "sax" (parse_error e)
            in
            go ()))
  in
  let batches = ref 0 in
  let (), load_ns =
    Trace.span "ingest.load" (fun () ->
        with_source st.doc_path (fun src ->
            match Ingest.load ~progress:(fun p -> batches := p.Ingest.batches) src with
            | Ok (_ : Db.t) -> ()
            | Error e -> E2e.ok_or_die "ingest" (parse_error e)))
  in
  let dir = Filename.concat cfg.work "inproc" in
  Proc.rm_rf dir;
  let d, bulk_ns =
    Trace.span "durable.bulk_ingest" (fun () ->
        with_source st.doc_path (fun src ->
            E2e.ok_or_die "bulk ingest" (Durable.bulk_ingest ~force:true ~dir src)))
  in
  Durable.close d;
  let engine, open_ns =
    Trace.span "engine.open" (fun () ->
        match Engine.open_ ~sync_mode:Xvi_wal.Wal.Always (Engine.Dir dir) with
        | Ok e -> e
        | Error e -> failwith (Engine.error_to_string e))
  in
  let doc = Proc.read_file st.doc_path in
  let (), of_xml_ns =
    Trace.span "db.of_xml" (fun () ->
        match Db.of_xml doc with Ok (_ : Db.t) -> () | Error e -> E2e.ok_or_die "of_xml" (parse_error e))
  in
  { sax_ns; load_ns; bulk_ns; of_xml_ns; open_ns; batches = !batches; engine }

type session_reads = { pin : Samples.t; session : Samples.t array }

(* The lookup block replayed in process: [Engine.pin], then the
   session's read on the pinned epoch, checked like a wire reply. *)
let session_lookups e (block : Setup.op array) ~reps =
  let sess = Session.create e in
  let r = { pin = Samples.create (); session = by_cls () } in
  for _ = 1 to reps do
    Array.iter
      (fun (op : Setup.op) ->
        let (_ : Engine.pinned), pin_ns = Trace.span "engine.pin" (fun () -> Engine.pin e) in
        Samples.add r.pin pin_ns;
        let nodes, ns =
          Trace.span ("session." ^ Setup.cls_name op.cls) (fun () ->
              match op.req with
              | Protocol.Lookup_string v -> Ok (Session.lookup_string sess v)
              | Protocol.Lookup_typed (ty, Some lo, Some hi) ->
                  Session.lookup_typed sess ty (Range.between lo hi)
              | _ -> Ok [])
        in
        let reply =
          match nodes with
          | Ok l -> Ok (Protocol.Nodes l)
          | Error e -> Error (Engine.error_to_string e)
        in
        if Setup.matches op reply then begin
          Tally.ok ();
          Samples.add r.session.(E2e.cls_idx op.cls) ns
        end
        else Tally.fail ("in process: " ^ E2e.describe op reply))
      block
  done;
  r

type write_replay = {
  stage : Samples.t;
  submit : Samples.t;
  update_texts : Samples.t;
  copy : Samples.t;
  plane : Samples.t;
  wal_self : Samples.t;  (** per commit: submit minus the three steps above *)
  fsyncs_per_commit : float;
  wal_bytes_per_commit : float;
  major_words_per_commit : float;
}

(* The seeded write sequence replayed in process: stage and durable
   commit through a [Session]; then the same write set on a private
   [Db.copy] ([Db.update_texts]) and the two publication steps timed on
   the current epoch ([Db.copy], [Db.plane]). *)
let write_replay cfg st e ~commits =
  let gen = Setup.writes ~seed:cfg.seed st.reference st.probes in
  let sess = Session.create e in
  let priv = Db.copy (Engine.snapshot e) in
  let r =
    { stage = Samples.create (); submit = Samples.create (); update_texts = Samples.create ();
      copy = Samples.create (); plane = Samples.create (); wal_self = Samples.create ();
      fsyncs_per_commit = 0.0;
      wal_bytes_per_commit = 0.0; major_words_per_commit = 0.0 }
  in
  let durable () =
    match (Engine.stats e).Engine.durable with
    | Some d -> (d.Durable.writer.Xvi_wal.Wal.Writer.syncs, d.Durable.wal_bytes)
    | None -> (0, 0)
  in
  let syncs0, bytes0 = durable () in
  let words = ref 0.0 in
  let ledger = Hashtbl.create 256 in
  for _ = 1 to commits do
    let txn = Setup.next_txn gen in
    Tally.check (Session.begin_ sess = Ok ()) "in process: begin";
    let staged, stage_ns =
      Trace.span "session.stage" (fun () -> List.for_all (fun (n, v) -> Session.stage sess n v = Ok ()) txn)
    in
    Tally.check staged "in process: stage";
    Samples.add r.stage stage_ns;
    let w0 = (Gc.quick_stat ()).Gc.major_words in
    let res, submit_ns = Trace.span "engine.submit" (fun () -> Session.commit ~durable:true sess) in
    words := !words +. ((Gc.quick_stat ()).Gc.major_words -. w0);
    (match res with
    | Ok _ ->
        Tally.ok ();
        List.iter (fun (n, v) -> Hashtbl.replace ledger n v) txn
    | Error err -> Tally.fail ("in process: commit: " ^ Engine.error_to_string err));
    Samples.add r.submit submit_ns;
    let (), ut_ns = Trace.span "db.update_texts" (fun () -> Db.update_texts priv txn) in
    Samples.add r.update_texts ut_ns;
    let c, copy_ns = Trace.span "db.copy" (fun () -> Db.copy (Engine.snapshot e)) in
    Samples.add r.copy copy_ns;
    let (_ : Xvi_xml.Pre_plane.t), plane_ns = Trace.span "db.plane" (fun () -> Db.plane c) in
    Samples.add r.plane plane_ns;
    Samples.add r.wal_self (submit_ns - ut_ns - copy_ns - plane_ns)
  done;
  let syncs1, bytes1 = durable () in
  let db = Engine.snapshot e in
  Hashtbl.iter
    (fun n v -> Tally.check (String.equal (Store.string_value (Db.store db) n) v) "in process: readback")
    ledger;
  let per x = float_of_int x /. float_of_int (max 1 commits) in
  { r with fsyncs_per_commit = per (syncs1 - syncs0); wal_bytes_per_commit = per (bytes1 - bytes0);
    major_words_per_commit = !words /. float_of_int (max 1 commits) }

(* top_heap_words from an `xvi ingest` run under OCAMLRUNPARAM=v=0x400. *)
let top_heap_mb log =
  let text = try Proc.read_file log with Sys_error _ -> "" in
  match Proc.find_after text "top_heap_words: " with
  | None -> 0.0
  | Some i ->
      let j = ref i in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      float_of_string (String.sub text i (!j - i)) *. float_of_int (Sys.word_size / 8) /. 1e6

(* --- the run --- *)

let part name us = Json.Obj [ ("layer", Json.Str name); ("us", Json.Num us) ]

let breakdown ?(headline = "") ~total parts =
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
  Json.Obj
    [
      ("headline", Json.Str headline);
      ("total_us", Json.Num total);
      ("parts", Json.Arr (List.map (fun (n, v) -> part n v) (parts @ [ ("unattributed", total -. sum) ])));
    ]

let run cfg st =
  let scale_n n = max 8 (int_of_float (float_of_int n *. Float.min 1.0 cfg.scale)) in
  let block = Setup.mix ~seed:cfg.seed ~conn:0 st.probes ~len:(scale_n 2000) in
  (* 1. the workload's real path, on the wire *)
  let srv, ingest_e2e_ns =
    match cfg.workload with
    | Lookup | Update -> (E2e.server st, st.ingest_ns)
    | Ingest ->
        let ns, _ = E2e.ingest_once cfg st in
        let _, srv0 = E2e.reopen cfg st ~first:st.probes.eqs.(0) in
        Tally.check (Setup.stop_server srv0 = 0) "xvi serve exited non-zero";
        Proc.rm_rf st.ingest_log;
        let (_ : int * int), _ =
          Trace.span "xvi.ingest" (fun () -> E2e.ingest_once ~env:[ "OCAMLRUNPARAM=v=0x400" ] cfg st)
        in
        let (_, srv), _ = Trace.span "xvi.reopen" (fun () -> E2e.reopen cfg st ~first:st.probes.eqs.(0)) in
        (srv, ns)
  in
  let w = snd srv in
  let before = E2e.server_stats w in
  let wire = wire_lookups w block ~budget_s:(cfg.seconds *. 0.3) in
  let commits =
    match cfg.workload with
    | Update -> Some (wire_commits cfg st w ~budget_s:(cfg.seconds *. 0.3))
    | Lookup | Ingest -> None
  in
  let after = E2e.server_stats w in
  let snapshot_bytes, wal_bytes =
    match cfg.workload with
    | Ingest ->
        ( Proc.file_size (Filename.concat st.dir "snapshot.xvi"),
          Proc.file_size (Filename.concat st.dir "wal.log") )
    | Lookup | Update -> (st.snapshot_bytes, st.wal_bytes)
  in
  ignore (Setup.stop_server srv : int);
  (* 2. in process *)
  let il = ingest_layers cfg st in
  let reads = session_lookups il.engine block ~reps:3 in
  let wr = write_replay cfg st il.engine ~commits:(scale_n 32) in
  Engine.close il.engine;
  (* 3. figures *)
  let eq = 0 and narrow = 1 and wide = 2 in
  let session c = p50 reads.session.(c) in
  let wire_self c = p50 wire.round_trip.(c) -. session c in
  let ops_of cls = List.filter (fun (op : Setup.op) -> op.cls = cls) (Array.to_list block) in
  let sum f ops = float_of_int (List.fold_left (fun a op -> a + f op) 0 ops) in
  let hits (op : Setup.op) = Array.length op.expect in
  let per_op cls f = let ops = ops_of cls in sum f ops /. float_of_int (max 1 (List.length ops)) in
  let est_ratio =
    let ops = ops_of Setup.Narrow in
    sum (fun (op : Setup.op) -> op.estimate) ops /. Float.max 1.0 (sum hits ops)
  in
  let mb = float_of_int st.doc_bytes /. 1e6 in
  let submit = p50 wr.submit and ut = p50 wr.update_texts and cp = p50 wr.copy and pl = p50 wr.plane in
  let wal_self = p50 wr.wal_self in
  let commits_served = E2e.stats_delta before after "commits" in
  let epochs = E2e.stats_delta before after "epoch" in
  let overhead =
    match commits with
    | Some c -> ((p50 c.c_traced /. p50 c.c_untraced) -. 1.0) *. 100.0
    | None -> ((p50 wire.traced.(eq) /. p50 wire.untraced.(eq)) -. 1.0) *. 100.0
  in
  let s_of ns = Clock.s_of_ns ns in
  let per_layer =
    [
      ("protocol.encode_us", p50 wire.encode.(eq), "us");
      ("protocol.decode_us", p50 wire.decode.(eq), "us");
      ("protocol.reply_bytes", float_of_int wire.reply_bytes.(wide) /. float_of_int (max 1 (List.length (ops_of Setup.Wide))), "bytes");
      ("server.wire_self_us", wire_self eq, "us");
      ("engine.pin_us", p50 reads.pin, "us");
      ("session.eq_us", session eq, "us");
      ("session.range_narrow_us", session narrow, "us");
      ("session.range_wide_us", session wide, "us");
      ("plan.estimate_ratio", est_ratio, "ratio");
      ("index.hits_eq", per_op Setup.Eq hits, "count");
      ("index.hits_range_narrow", per_op Setup.Narrow hits, "count");
      ("index.hits_range_wide", per_op Setup.Wide hits, "count");
      ("session.stage_us", p50 wr.stage, "us");
      ("engine.submit_us", submit, "us");
      ("db.update_texts_us", ut, "us");
      ("db.copy_us", cp, "us");
      ("db.plane_us", pl, "us");
      ("wal.self_us", wal_self, "us");
      ("engine.epochs_per_commit", float_of_int epochs /. float_of_int (max 1 commits_served), "count");
      ("wal.bytes_per_commit", wr.wal_bytes_per_commit, "bytes");
      ("txn.fsyncs_per_commit", wr.fsyncs_per_commit, "count");
      ("gc.major_words_per_commit", wr.major_words_per_commit, "words");
      ("sax.mb_per_s", mb /. s_of il.sax_ns, "MB/s");
      ("ingest.load_mb_per_s", mb /. s_of il.load_ns, "MB/s");
      ("durable.self_s", s_of (il.bulk_ns - il.load_ns), "s");
      ("db.of_xml_mb_per_s", mb /. s_of il.of_xml_ns, "MB/s");
      ("ingest.batches", float_of_int il.batches, "count");
      ("gc.top_heap_mb", top_heap_mb st.ingest_log, "MB");
      ("snapshot.bytes", float_of_int snapshot_bytes, "bytes");
      ("wal.bytes", float_of_int wal_bytes, "bytes");
      ("engine.open_s", s_of il.open_ns, "s");
      ("trace.overhead_pct", overhead, "%");
    ]
  in
  let lookup_breakdown cls =
    let c = E2e.cls_idx cls in
    breakdown ~total:(p50 wire.untraced.(c))
      [
        ("protocol.encode", p50 wire.encode.(c));
        ("server.wire_self", wire_self c);
        ("session." ^ Setup.cls_name cls, session c);
        ("protocol.decode", p50 wire.decode.(c));
      ]
  in
  let ingest_total = Clock.us_of_ns ingest_e2e_ns in
  let breakdowns =
    [
      ("eq_p50_us", lookup_breakdown Setup.Eq);
      ("range_wide_p50_us", lookup_breakdown Setup.Wide);
      ( "ingest_mb_per_s",
        breakdown ~total:ingest_total
          ~headline:(Printf.sprintf "%.2f MB/s: one `xvi ingest` of %.1f MB" (mb /. (ingest_total *. 1e-6)) mb)
          [
            ("sax", Clock.us_of_ns il.sax_ns);
            ("ingest.builder", Clock.us_of_ns (il.load_ns - il.sax_ns));
            ("durable.self", Clock.us_of_ns (il.bulk_ns - il.load_ns));
            ("xvi.process", ingest_total -. Clock.us_of_ns il.bulk_ns);
          ] );
    ]
    @
    match commits with
    | None -> []
    | Some c ->
        [
          ( "commit_p50_us",
            breakdown ~total:(p50 c.c_untraced)
              [
                ("protocol.encode+decode", p50 c.c_encode +. p50 c.c_decode);
                ("server.wire_self", p50 c.c_round_trip -. submit);
                ("db.update_texts", ut);
                ("db.copy", cp);
                ("db.plane", pl);
                ("wal.self", wal_self);
              ] );
        ]
  in
  (per_layer, breakdowns)
