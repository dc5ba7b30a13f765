(* In-memory spans around the benchmark's own calls into each layer's
   public functions.  Nothing under lib/ is instrumented: a span is
   opened here, the layer function runs, the span is closed here.  The
   traced parts of a run are single-domain, so one stack of open spans
   gives every span its parent.  Spans are written out once, when the
   run ends; at most [keep_per_name] of each name are kept, which bounds
   the file while every phase stays represented. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id shared by every span of one request *)
  start_ns : int;
  stop_ns : int;
}

let keep_per_name = 20_000
let spans : span list ref = ref []
let kept : (string, int) Hashtbl.t = Hashtbl.create 16
let dropped = ref 0
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref 0

let request_id () =
  incr current_req;
  !current_req

(* Run [f] inside a span and return its result and duration (ns). *)
let span ?(req = !current_req) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start_ns = Clock.now_ns () in
  let finish () =
    let stop_ns = Clock.now_ns () in
    stack := (match !stack with _ :: rest -> rest | [] -> []);
    let k = Option.value ~default:0 (Hashtbl.find_opt kept name) in
    if k < keep_per_name then begin
      Hashtbl.replace kept name (k + 1);
      spans := { id; name; parent; req; start_ns; stop_ns } :: !spans
    end
    else incr dropped;
    stop_ns - start_ns
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
      ignore (finish () : int);
      raise e

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        sp.id sp.name sp.parent sp.req sp.start_ns sp.stop_ns)
    (List.rev !spans);
  Printf.fprintf oc "{\"dropped\":%d}\n" !dropped
