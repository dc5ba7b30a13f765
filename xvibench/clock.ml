(* Monotonic time for latency samples; wall time never enters a metric. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9
let us_of_ns ns = float_of_int ns /. 1000.0
let s_of_ns ns = float_of_int ns *. 1e-9

(* [f ()] and its duration in ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
