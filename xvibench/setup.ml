(* Inputs of a run, all derived from the seed: the XMark document, the
   in-process reference database built from the same XML, the probe
   sets with their expected node lists, the request mix, and the write
   sequence.  Also the helpers that start the real [xvi] binary. *)

module Db = Xvi_core.Db
module Store = Xvi_xml.Store
module Prng = Xvi_util.Prng
module Protocol = Xvi_serve.Protocol
module Range = Xvi_query.Range

type cls = Eq | Narrow | Wide

let cls_name = function Eq -> "eq" | Narrow -> "range_narrow" | Wide -> "range_wide"

type op = { cls : cls; req : Protocol.request; expect : int array; estimate : int }

let double = "xs:double"

(* A reply is correct when it is exactly the expected node list. *)
let matches op = function
  | Ok (Protocol.Nodes l) ->
      let n = Array.length op.expect in
      let rec go i = function
        | [] -> i = n
        | x :: rest -> i < n && x = op.expect.(i) && go (i + 1) rest
      in
      go 0 l
  | Ok _ | Error _ -> false

(* Equality probes: text values whose lookup has 1 to 8 hits, so the
   tail of the equality class is the system's and not a heavy value's. *)
let eq_probes ~rng db n =
  let store = Db.store db in
  let texts = Store.text_nodes store in
  let seen = Hashtbl.create 1024 in
  let acc = ref [] and got = ref 0 and tries = ref 0 in
  while !got < n && !tries < 100 * n && Array.length texts > 0 do
    incr tries;
    let v = Store.text store texts.(Prng.int rng (Array.length texts)) in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      let ir = Db.Ir.string_eq v in
      let hits = Db.query db ir in
      let k = List.length hits in
      if k >= 1 && k <= 8 then begin
        incr got;
        acc :=
          { cls = Eq; req = Protocol.Lookup_string v; expect = Array.of_list hits;
            estimate = Db.estimate db ir }
          :: !acc
      end
    end
  done;
  Array.of_list (List.rev !acc)

(* The distinct xs:double keys of the document, ascending, with the
   number of nodes carrying each. *)
let double_keys db =
  match Db.typed_index db double with
  | None -> ([||], [||])
  | Some ti ->
      let keys = List.filter_map (Xvi_core.Typed_index.value_of ti) (Db.lookup_double db Range.any) in
      let groups =
        List.fold_left
          (fun acc k ->
            match acc with
            | (k', c) :: rest when Float.equal k k' -> (k', c + 1) :: rest
            | _ -> (k, 1) :: acc)
          [] (List.sort Float.compare keys)
      in
      let g = Array.of_list (List.rev groups) in
      (Array.map fst g, Array.map snd g)

let range_op db cls lo hi =
  let range = Range.between lo hi in
  let ir = Db.Ir.typed_range double range in
  { cls; req = Protocol.Lookup_typed (double, Some lo, Some hi);
    expect = Array.of_list (Db.lookup_typed db double range); estimate = Db.estimate db ir }

(* Narrow windows span a few adjacent keys (1-20 hits).  Wide windows
   start at a random key and extend until they cover [wide_hits] nodes,
   so their size, and the class's cost, does not depend on the seed. *)
let range_probes ~rng db ~narrow ~wide ~wide_hits =
  let keys, counts = double_keys db in
  let k = Array.length keys in
  if k < 2 then ([||], [||])
  else begin
    let narrows = ref [] and got = ref 0 and tries = ref 0 in
    while !got < narrow && !tries < 100 * narrow do
      incr tries;
      let i = Prng.int rng k in
      let j = min (k - 1) (i + Prng.int rng 6) in
      let op = range_op db Narrow keys.(i) keys.(j) in
      let h = Array.length op.expect in
      if h >= 1 && h <= 20 then begin
        incr got;
        narrows := op :: !narrows
      end
    done;
    let total = Array.fold_left ( + ) 0 counts in
    let target = max 1 (min wide_hits (total * 4 / 5)) in
    (* the last start key from which [target] nodes are still reachable *)
    let last_start =
      let rec back i acc = if i <= 0 || acc + counts.(i) >= target then i else back (i - 1) (acc + counts.(i)) in
      back (k - 1) 0
    in
    let wides =
      Array.init wide (fun _ ->
          let i = Prng.int rng (last_start + 1) in
          let rec extend j acc = if j >= k - 1 || acc + counts.(j) >= target then j else extend (j + 1) (acc + counts.(j)) in
          range_op db Wide keys.(i) keys.(extend i 0))
    in
    (Array.of_list (List.rev !narrows), wides)
  end

type probes = { eqs : op array; narrows : op array; wides : op array }

let probes ~seed ~scale db =
  let rng = Prng.create (seed * 7919 + 1) in
  let eqs = eq_probes ~rng db 512 in
  let wide_hits = int_of_float (4000.0 *. scale) in
  let narrows, wides = range_probes ~rng db ~narrow:128 ~wide:16 ~wide_hits in
  { eqs; narrows; wides }

(* The fixed lookup mix: 16 equality : 3 narrow : 1 wide. *)
let mix ~seed ~conn p ~len =
  let rng = Prng.create ((seed * 31) + conn + 17) in
  let pick a = a.(Prng.int rng (Array.length a)) in
  Array.init len (fun _ ->
      let r = Prng.int rng 20 in
      if r < 16 || (Array.length p.narrows = 0 && Array.length p.wides = 0) then pick p.eqs
      else if r < 19 && Array.length p.narrows > 0 then pick p.narrows
      else if Array.length p.wides > 0 then pick p.wides
      else pick p.eqs)

(* Equality probes only (the reader beside the writer on [update]). *)
let eq_mix ~seed ~conn p ~len =
  let rng = Prng.create ((seed * 37) + conn + 23) in
  Array.init len (fun _ -> p.eqs.(Prng.int rng (Array.length p.eqs)))

(* --- writes --- *)

type writes = {
  pool : int array;  (** text nodes no equality probe can see *)
  probe_values : (string, unit) Hashtbl.t;
  wrng : Prng.t;
  mutable txns : int;
}

(* Write targets are text nodes outside every equality probe's hit set
   and outside the subtrees of those hits, so the reader's expected
   answers hold under any interleaving of commits. *)
let writes ~seed db p =
  let store = Db.store db in
  let hit = Hashtbl.create 4096 in
  let probe_values = Hashtbl.create 1024 in
  Array.iter
    (fun op ->
      (match op.req with Protocol.Lookup_string v -> Hashtbl.replace probe_values v () | _ -> ());
      Array.iter (fun n -> Hashtbl.replace hit n ()) op.expect)
    p.eqs;
  let rec visible n =
    Hashtbl.mem hit n || match Store.parent store n with Some q -> visible q | None -> false
  in
  let texts = Store.text_nodes store in
  let rng = Prng.create ((seed * 131) + 5) in
  let picks = Prng.sample_distinct rng (min 4096 (Array.length texts)) (Array.length texts) in
  let pool =
    Array.of_list
      (List.filter_map (fun i -> if visible texts.(i) then None else Some texts.(i)) (Array.to_list picks))
  in
  { pool; probe_values; wrng = Prng.create ((seed * 257) + 9); txns = 0 }

(* One transaction: 4 distinct pooled text nodes; half the values are
   xs:double-castable, so castability flips both ways. *)
let next_txn w =
  w.txns <- w.txns + 1;
  let rng = w.wrng in
  let idx = Prng.sample_distinct rng (min 4 (Array.length w.pool)) (Array.length w.pool) in
  Array.to_list
    (Array.mapi
       (fun k i ->
         let rec value () =
           let v =
             if Prng.bool rng then
               Printf.sprintf "%d.%02d" (Prng.int rng 1_000_000) (Prng.int rng 100)
             else Printf.sprintf "w~%d~%d~%x" w.txns k (Prng.int rng 0xffffff)
           in
           if Hashtbl.mem w.probe_values v then value () else v
         in
         (w.pool.(i), value ()))
       idx)

(* --- the real binary --- *)

type server = { pid : int; sock : string }

let deadline_after s = Clock.now_s () +. s

(* Start `xvi serve DIR` and return it with a connected wire once the
   socket accepts. *)
let start_server ~xvi ~dir ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let pid =
    Proc.spawn ~log
      [| xvi; "serve"; dir; "--socket"; sock; "--quiet"; "--sync"; "always";
         "--publish-period"; "0" |]
  in
  let alive () = Proc.exited pid = None in
  match Wire.connect ~alive ~deadline_s:(deadline_after 60.0) sock with
  | Ok w -> Ok ({ pid; sock }, w)
  | Error m ->
      Proc.kill9 pid;
      Error m

let stop_server (s, w) =
  (match Wire.rpc w Protocol.Shutdown with Ok _ | Error _ -> ());
  Wire.close w;
  Proc.wait s.pid

(* `xvi ingest DOC -o DIR`: exit code, wall ns, peak RSS kB. *)
let ingest ?env ~xvi ~doc ~dir ~log () =
  Proc.rm_rf dir;
  Proc.run_sampled ?env ~log [| xvi; "ingest"; doc; "-o"; dir; "--force" |]
