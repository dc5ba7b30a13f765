(* The client side of the `xvi serve` protocol, spelled out as the
   library's own calls ([Protocol.encode_request], [write_frame],
   [read_frame], [decode_response]) — the same sequence
   [Xvi_serve.Client.request] runs — so the traced variant can put a
   span around each step. *)

module Protocol = Xvi_serve.Protocol

type t = { fd : Unix.file_descr; mutable closed : bool }

(* Connect to [socket], retrying every millisecond until [deadline_s]
   (monotonic) or until [alive ()] turns false. *)
let connect ?(alive = fun () -> true) ~deadline_s socket =
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok { fd; closed = false }
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        if Clock.now_s () < deadline_s && alive () then begin
          Unix.sleepf 0.001;
          attempt ()
        end
        else Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
  in
  attempt ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let transport = function
  | Ok payload -> Protocol.decode_response payload
  | Error `Closed -> Error "server closed the connection"
  | Error (`Malformed m) -> Error ("malformed response frame: " ^ m)

let rpc t req =
  match Protocol.write_frame t.fd (Protocol.encode_request req) with
  | () -> transport (Protocol.read_frame t.fd)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

type traced = {
  reply : (Protocol.response, string) result;
  reply_bytes : int;
  encode_ns : int;
  round_trip_ns : int;  (** write_frame + read_frame: everything server-side *)
  decode_ns : int;
}

(* [rpc] with one span per step under a [request] span. *)
let rpc_traced t req =
  let rid = Trace.request_id () in
  let r, _ =
    Trace.span ~req:rid "request" (fun () ->
        let payload, encode_ns =
          Trace.span ~req:rid "protocol.encode" (fun () -> Protocol.encode_request req)
        in
        let frame, round_trip_ns =
          Trace.span ~req:rid "server.round_trip" (fun () ->
              match Protocol.write_frame t.fd payload with
              | () -> Protocol.read_frame t.fd
              | exception Unix.Unix_error (e, _, _) -> Error (`Malformed (Unix.error_message e)))
        in
        let reply_bytes = match frame with Ok p -> String.length p | Error _ -> 0 in
        let reply, decode_ns = Trace.span ~req:rid "protocol.decode" (fun () -> transport frame) in
        { reply; reply_bytes; encode_ns; round_trip_ns; decode_ns })
  in
  r
