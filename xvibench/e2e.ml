(* Set-up and the three untraced workloads.  Each measures only its own
   path: [lookup] never writes, [update] never ranges and never ingests,
   [ingest] sends no traffic while it loads. *)

open Ctx
module Protocol = Xvi_serve.Protocol

let ok_or_die what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

let cls_idx = function Setup.Eq -> 0 | Setup.Narrow -> 1 | Setup.Wide -> 2

let describe (op : Setup.op) r =
  let got =
    match r with
    | Ok (Protocol.Nodes l) -> Printf.sprintf "%d node(s)" (List.length l)
    | Ok resp -> Protocol.encode_response resp
    | Error m -> "error: " ^ m
  in
  Printf.sprintf "%s: expected %d node(s), got %s" (Protocol.encode_request op.req)
    (Array.length op.expect) got

(* One request checked against its expected node list; latency in ns
   when correct. *)
let probe w (op : Setup.op) =
  let t0 = Clock.now_ns () in
  let r = Wire.rpc w op.req in
  let dt = Clock.now_ns () - t0 in
  if Setup.matches op r then begin
    Tally.ok ();
    Some dt
  end
  else begin
    Tally.fail (describe op r);
    None
  end

(* --- set-up --- *)

let corrupt (p : Setup.probes) =
  let eqs = Array.copy p.eqs in
  if Array.length eqs > 0 then
    eqs.(0) <- { (eqs.(0)) with expect = Array.append eqs.(0).expect [| -1 |] };
  { p with eqs }

(* The harness's own inputs, made once and not timed: the document, the
   in-process reference database over the same XML, and the probes with
   their expected answers. *)
let prepare cfg =
  let doc = Xvi_workload.Xmark.generate ~seed:cfg.seed ~factor:cfg.scale () in
  let doc_path = Filename.concat cfg.work "doc.xml" in
  Proc.write_file doc_path doc;
  let reference =
    match Db.of_xml doc with
    | Ok db -> db
    | Error e -> failwith (Xvi_xml.Parser.error_to_string e)
  in
  let probes = Setup.probes ~seed:cfg.seed ~scale:cfg.scale reference in
  if Array.length probes.eqs = 0 then failwith "document has no equality probes";
  let probes = if cfg.inject = Wrong_expected then corrupt probes else probes in
  {
    doc_path;
    doc_bytes = String.length doc;
    reference;
    nodes = Store.live_count (Db.store reference) - 1;
    probes;
    dir = Filename.concat cfg.work "db";
    snapshot_bytes = 0;
    wal_bytes = 0;
    ingest_ns = 0;
    ingest_log = Filename.concat cfg.work "ingest.log";
    server = None;
  }

(* What [xvi] does to make the document servable, the part [setup_s]
   times: `xvi ingest DOC -o DIR`, then `xvi serve DIR` until [hello]
   answers. *)
let serve_ready cfg st ~gc_stats =
  Proc.rm_rf st.ingest_log;
  let env = if gc_stats then [ "OCAMLRUNPARAM=v=0x400" ] else [] in
  let code, ns, _ = Setup.ingest ~env ~xvi:cfg.xvi ~doc:st.doc_path ~dir:st.dir ~log:st.ingest_log () in
  if code <> 0 then failwith (Printf.sprintf "xvi ingest exited %d (see %s)" code st.ingest_log);
  let snapshot_bytes = Proc.file_size (Filename.concat st.dir "snapshot.xvi") in
  let wal_bytes = Proc.file_size (Filename.concat st.dir "wal.log") in
  let srv =
    ok_or_die "xvi serve"
      (Setup.start_server ~xvi:cfg.xvi ~dir:st.dir ~sock:(sock cfg "serve")
         ~log:(Filename.concat cfg.work "serve.log"))
  in
  (match Wire.rpc (snd srv) Protocol.Hello with
  | Ok (Protocol.Epoch _) -> ()
  | _ -> failwith "xvi serve did not answer hello");
  { st with snapshot_bytes; wal_bytes; ingest_ns = ns; server = Some srv }

(* Prepare once, then make the document servable [reps] times from
   scratch; [setup_s] is the median of those.  [lookup] and [update]
   keep the last server; [ingest] measures its own loads and reopens,
   so it stops it. *)
let setup cfg ~reps ~gc_stats =
  let st = prepare cfg in
  let times = ref [] and last = ref st in
  for _ = 1 to max 1 reps do
    (match !last with { server = Some srv; _ } -> ignore (Setup.stop_server srv : int) | _ -> ());
    let st', ns = Clock.time (fun () -> serve_ready cfg st ~gc_stats) in
    times := Clock.s_of_ns ns :: !times;
    last := st'
  done;
  let st =
    match (cfg.workload, !last) with
    | Ingest, ({ server = Some srv; _ } as st) ->
        ignore (Setup.stop_server srv : int);
        { st with server = None }
    | _, st -> st
  in
  (st, Samples.median_f !times)

let server st = match st.server with Some s -> s | None -> failwith "no server"

(* --- metrics --- *)

type report = {
  e2e : (string * float * string) list;  (** the end-to-end slots of BENCHMARK.json *)
  named : (string * float * string) list;  (** the same figures under their path's own names *)
  extra : (string * Json.t) list;
}

(* BENCHMARK.json's end-to-end metrics.  Every workload fills every slot
   from its own path: [p50_us]/[p90_us] are the operation a user waits on
   most often, [side_p50_us] the second timed one (see README.md). *)
let slots ~setup_s ~peak_rss_mb ~stored ~throughput ~p50 ~p90 ~side_p50 =
  [
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss_mb, "MB");
    ("stored_bytes_per_input_byte", stored, "ratio");
    ("throughput_per_s", throughput, "1/s");
    ("p50_us", p50, "us");
    ("p90_us", p90, "us");
    ("side_p50_us", side_p50, "us");
  ]

(* Whole-run quantiles of a windowed class, for the result file. *)
let quantiles w =
  let s = Samples.Windowed.all w in
  Json.Obj
    (("samples", Json.Int (Samples.length s))
    :: List.map (fun q -> (Printf.sprintf "p%g" (q *. 100.0), Json.Num (Samples.us q s))) [ 0.5; 0.9; 0.99; 0.999 ])

let rss_mb pid = float_of_int (Proc.vm_hwm_kb pid) /. 1024.0
let stored st = float_of_int (st.snapshot_bytes + st.wal_bytes) /. float_of_int st.doc_bytes

(* --- lookup --- *)

(* The unrecorded warm-up before the measured time: a fresh server's
   first commits take two to three times as long as the rest. *)
let warmup_s cfg = Float.min 2.0 (cfg.seconds *. 0.1)

(* [from_] and [until] (ns) of the measured time, after the warm-up. *)
let measured_span cfg =
  let from_ = Clock.now_ns () + int_of_float (warmup_s cfg *. 1e9) in
  (from_, from_ + int_of_float (cfg.seconds *. 1e9))

(* A closed loop on one connection: the next request goes out when the
   previous reply is in.  Every [pin_every]-th step repins first.  Every
   reply is checked, also in the warm-up; latencies go to [lat] by class,
   per window of the measured time. *)
let conn_loop ~w ~(ops : Setup.op array) ~until ~pin_every lat =
  let n = Array.length ops in
  let i = ref 0 in
  while Clock.now_ns () < until do
    let op = ops.(!i mod n) in
    incr i;
    if pin_every > 0 && !i mod pin_every = 0 then begin
      match Wire.rpc w Protocol.Pin with
      | Ok (Protocol.Epoch _) -> Tally.ok ()
      | _ -> Tally.fail "pin: no epoch"
    end;
    let at = Clock.now_ns () in
    match probe w op with Some dt -> Samples.Windowed.add lat.(cls_idx op.cls) ~at dt | None -> ()
  done

let by_class ~from_ ~until = Array.init 3 (fun _ -> Samples.Windowed.create ~from_ ~until)

let second_connection srv =
  ok_or_die "connect" (Wire.connect ~deadline_s:(Setup.deadline_after 10.0) (fst srv).Setup.sock)

let lookup cfg st ~setup_s =
  let srv = server st in
  let w0 = snd srv in
  let w1 = second_connection srv in
  (* correctness pass over every probe, which also warms the server *)
  Array.iter (fun op -> ignore (probe w0 op : int option)) (Array.concat [ st.probes.eqs; st.probes.narrows; st.probes.wides ]);
  let from_, until = measured_span cfg in
  let run conn w =
    let ops = Setup.mix ~seed:cfg.seed ~conn st.probes ~len:4096 in
    let lat = by_class ~from_ ~until in
    Domain.spawn (fun () ->
        conn_loop ~w ~ops ~until ~pin_every:0 lat;
        lat)
  in
  let d0 = run 0 w0 and d1 = run 1 w1 in
  let l0 = Domain.join d0 and l1 = Domain.join d1 in
  let lat = Array.init 3 (fun i -> Samples.Windowed.merge [ l0.(i); l1.(i) ]) in
  let stats = Wire.rpc w0 Protocol.Stats in
  let peak = rss_mb (fst srv).Setup.pid in
  Wire.close w1;
  let eq = lat.(0) and narrow = lat.(1) and wide = lat.(2) in
  let us = Samples.Windowed.us in
  let per_s = Samples.Windowed.per_s (Array.to_list lat) in
  {
    e2e =
      slots ~setup_s ~peak_rss_mb:peak ~stored:(stored st) ~throughput:per_s ~p50:(us 0.5 eq)
        ~p90:(us 0.9 eq) ~side_p50:(us 0.5 wide);
    named =
      [
        ("lookup_per_s", per_s, "1/s");
        ("eq_p50_us", us 0.5 eq, "us");
        ("eq_p99_us", us 0.99 eq, "us");
        ("range_narrow_p50_us", us 0.5 narrow, "us");
        ("range_wide_p50_us", us 0.5 wide, "us");
        ("range_wide_p90_us", us 0.9 wide, "us");
      ];
    extra =
      [
        ("server_stats", Json.Str (match stats with Ok r -> Protocol.encode_response r | Error m -> m));
        ("eq_us", quantiles eq); ("range_narrow_us", quantiles narrow); ("range_wide_us", quantiles wide);
      ];
  }

(* --- update --- *)

type ledger = (int, string) Hashtbl.t

let expect_ok what = function
  | Ok Protocol.Ok_ -> Tally.ok (); true
  | Ok r -> Tally.fail (what ^ ": " ^ Protocol.encode_response r); false
  | Error m -> Tally.fail (what ^ ": " ^ m); false

(* One transaction over the wire: begin, four sets, durable commit.
   Returns when the commit was sent and its round trip (ns) when acked;
   the ledger records acked values only. *)
let write_txn ?(rpc = Wire.rpc) w (ledger : ledger) txn =
  if expect_ok "begin" (rpc w Protocol.Begin)
     && List.for_all (fun (n, v) -> expect_ok "set" (rpc w (Protocol.Set (n, v)))) txn
  then begin
    let t0 = Clock.now_ns () in
    let r = rpc w Protocol.Commit in
    let dt = Clock.now_ns () - t0 in
    match r with
    | Ok (Protocol.Lsn _) ->
        Tally.ok ();
        List.iter (fun (n, v) -> Hashtbl.replace ledger n v) txn;
        Some (t0, dt)
    | Ok r ->
        Tally.fail ("commit: " ^ Protocol.encode_response r);
        None
    | Error m ->
        Tally.fail ("commit: " ^ m);
        None
  end
  else begin
    ignore (Wire.rpc w Protocol.Abort : (Protocol.response, string) result);
    None
  end

(* Every acked write reads back at the newest epoch. *)
let readback w (ledger : ledger) ~where =
  (match Wire.rpc w Protocol.Pin with Ok (Protocol.Epoch _) -> () | _ -> Tally.fail (where ^ ": pin"));
  Hashtbl.iter
    (fun n v ->
      match Wire.rpc w (Protocol.Value n) with
      | Ok (Protocol.Value_r v') when String.equal v v' -> Tally.ok ()
      | Ok r -> Tally.fail (Printf.sprintf "%s: node %d: acked %S, read %s" where n v (Protocol.encode_response r))
      | Error m -> Tally.fail (Printf.sprintf "%s: node %d: %s" where n m))
    ledger

let stat_int pairs k = match List.assoc_opt k pairs with Some v -> int_of_string_opt v | None -> None

(* Growth of one counter of the [stats] verb between two replies. *)
let stats_delta before after k =
  match (stat_int after k, stat_int before k) with Some a, Some b -> a - b | _ -> 0

let server_stats w =
  match Wire.rpc w Protocol.Stats with Ok (Protocol.Stats_r pairs) -> pairs | _ -> []

(* SIGKILL the server, recover (which validates every index against a
   rebuild), serve again, and check every acked write and the probe set.
   The page cache survives SIGKILL: this checks acked writes against
   recovery, not against device loss. *)
let crash_and_recover cfg st (ledger : ledger) =
  let srv, w = server st in
  Wire.close w;
  Proc.kill9 srv.Setup.pid;
  if cfg.inject = Drop_ack then begin
    (* tear the last commit frame: recovery truncates it away *)
    let wal = Filename.concat st.dir "wal.log" in
    Unix.truncate wal (Proc.file_size wal - 1)
  end;
  let log = Filename.concat cfg.work "recover.log" in
  Proc.rm_rf log;
  let code = Proc.wait (Proc.spawn ~log [| cfg.xvi; "recover"; st.dir |]) in
  let out = Proc.read_file log in
  let clean = Option.is_some (Proc.find_after out "indices validate clean") in
  Tally.check (code = 0 && clean) (Printf.sprintf "xvi recover exited %d without a clean validation" code);
  let srv2 =
    ok_or_die "xvi serve after recovery"
      (Setup.start_server ~xvi:cfg.xvi ~dir:st.dir ~sock:(sock cfg "serve")
         ~log:(Filename.concat cfg.work "serve.log"))
  in
  readback (snd srv2) ledger ~where:"after recovery";
  Array.iter (fun op -> ignore (probe (snd srv2) op : int option)) st.probes.eqs;
  ignore (Setup.stop_server srv2 : int)

let update cfg st ~setup_s =
  let srv = server st in
  let w0 = snd srv in
  let w1 = second_connection srv in
  let gen = Setup.writes ~seed:cfg.seed st.reference st.probes in
  let ledger : ledger = Hashtbl.create 1024 in
  Array.iter (fun op -> ignore (probe w1 op : int option)) st.probes.eqs;
  let before = server_stats w0 in
  let from_, until = measured_span cfg in
  let writer =
    Domain.spawn (fun () ->
        let lat = Samples.Windowed.create ~from_ ~until in
        while Clock.now_ns () < until do
          match write_txn w0 ledger (Setup.next_txn gen) with
          | Some (at, dt) -> Samples.Windowed.add lat ~at dt
          | None -> ()
        done;
        lat)
  in
  let reader =
    Domain.spawn (fun () ->
        let ops = Setup.eq_mix ~seed:cfg.seed ~conn:1 st.probes ~len:4096 in
        let lat = by_class ~from_ ~until in
        conn_loop ~w:w1 ~ops ~until ~pin_every:16 lat;
        lat)
  in
  let commits = Domain.join writer in
  let reads = (Domain.join reader).(0) in
  let after = server_stats w0 in
  let peak = rss_mb (fst srv).Setup.pid in
  Wire.close w1;
  readback w0 ledger ~where:"live";
  crash_and_recover cfg st ledger;
  let us = Samples.Windowed.us in
  let per_s = Samples.Windowed.per_s [ commits ] in
  {
    e2e =
      slots ~setup_s ~peak_rss_mb:peak ~stored:(stored st) ~throughput:per_s
        ~p50:(us 0.5 reads) ~p90:(us 0.9 reads) ~side_p50:(us 0.5 commits);
    named =
      [
        ("commit_per_s", per_s, "1/s");
        ("commit_p50_us", us 0.5 commits, "us");
        ("commit_p90_us", us 0.9 commits, "us");
        ("read_under_write_p50_us", us 0.5 reads, "us");
        ("read_under_write_p90_us", us 0.9 reads, "us");
        ("read_under_write_p99_us", us 0.99 reads, "us");
      ];
    extra =
      [
        ("epochs_published", Json.Int (stats_delta before after "epoch"));
        ("commits_served", Json.Int (stats_delta before after "commits"));
        ("wal_bytes_appended", Json.Int (stats_delta before after "wal_bytes"));
        ("acked_nodes", Json.Int (Hashtbl.length ledger));
        ("commit_us", quantiles commits); ("read_under_write_us", quantiles reads);
      ];
  }

(* --- ingest --- *)

(* `xvi serve DIR` from process start to the first correct answer; the
   rest of the probe set is then checked on the fresh server.  Returns
   the reopen time (ns), the server and the equality probe latencies. *)
let reopen cfg st ~first =
  let t0 = Clock.now_ns () in
  let srv =
    ok_or_die "xvi serve"
      (Setup.start_server ~xvi:cfg.xvi ~dir:st.dir ~sock:(sock cfg "serve")
         ~log:(Filename.concat cfg.work "serve.log"))
  in
  ignore (probe (snd srv) first : int option);
  (Clock.now_ns () - t0, srv)

let check_probes w (p : Setup.probes) =
  Array.iter (fun op -> ignore (probe w op : int option)) (Array.concat [ p.eqs; p.narrows; p.wides ])

let ingest_once ?env cfg st =
  Proc.rm_rf st.ingest_log;
  let code, ns, hwm = Setup.ingest ?env ~xvi:cfg.xvi ~doc:st.doc_path ~dir:st.dir ~log:st.ingest_log () in
  Tally.check (code = 0) (Printf.sprintf "xvi ingest exited %d" code);
  (ns, hwm)

(* Reopens per load: about 0.5 s each against 1.6 s a load on XMark x2,
   so a 25 s run makes about 9 loads for the load p50 and p90 and about
   18 reopens for the reopen p50 and p90. *)
let reopens_per_ingest = 2

let ingest cfg st ~setup_s =
  let t0 = Clock.now_ns () in
  let until = t0 + int_of_float (cfg.seconds *. 1e9) in
  let ingest_ns = Samples.create () and hwm = ref [] and reopen_ns = Samples.create () in
  let i = ref 0 in
  while !i < 2 || Clock.now_ns () < until do
    let ns, kb = ingest_once cfg st in
    Samples.add ingest_ns ns;
    hwm := float_of_int kb /. 1024.0 :: !hwm;
    for k = 0 to reopens_per_ingest - 1 do
      let first = st.probes.eqs.(((!i * reopens_per_ingest) + k) mod Array.length st.probes.eqs) in
      let r, srv = reopen cfg st ~first in
      Samples.add reopen_ns r;
      check_probes (snd srv) st.probes;
      Tally.check (Setup.stop_server srv = 0) "xvi serve exited non-zero"
    done;
    incr i
  done;
  let st =
    {
      st with
      snapshot_bytes = Proc.file_size (Filename.concat st.dir "snapshot.xvi");
      wal_bytes = Proc.file_size (Filename.concat st.dir "wal.log");
    }
  in
  (* over all loads of the run, so it weighs every load, not the median one *)
  let ingest_s = Clock.s_of_ns (Array.fold_left ( + ) 0 (Samples.to_array ingest_ns)) /. float_of_int !i in
  let nodes_per_s = float_of_int st.nodes /. ingest_s in
  let mb_per_s = float_of_int st.doc_bytes /. 1e6 /. ingest_s in
  {
    e2e =
      slots ~setup_s ~peak_rss_mb:(Samples.median_f !hwm) ~stored:(stored st)
        ~throughput:nodes_per_s ~p50:(Samples.us 0.5 ingest_ns) ~p90:(Samples.us 0.9 ingest_ns)
        ~side_p50:(Samples.us 0.5 reopen_ns);
    named =
      [
        ("ingest_mb_per_s", mb_per_s, "MB/s");
        ("ingest_p50_s", Samples.us 0.5 ingest_ns /. 1e6, "s");
        ("ingest_p90_s", Samples.us 0.9 ingest_ns /. 1e6, "s");
        ("reopen_s", Samples.us 0.5 reopen_ns /. 1e6, "s");
        ("reopen_p90_s", Samples.us 0.9 reopen_ns /. 1e6, "s");
        ("stored_bytes_per_input_byte", stored st, "ratio");
      ];
    extra =
      [
        ("ingests", Json.Int !i);
        ("ingest_s", Json.Arr (List.map (fun ns -> Json.Num (float_of_int ns *. 1e-9)) (Array.to_list (Samples.to_array ingest_ns))));
        ("reopen_s", Json.Arr (List.map (fun ns -> Json.Num (float_of_int ns *. 1e-9)) (Array.to_list (Samples.to_array reopen_ns))));
        ("ingest_peak_rss_mb", Json.Arr (List.rev_map (fun mb -> Json.Num mb) !hwm));
      ];
  }
