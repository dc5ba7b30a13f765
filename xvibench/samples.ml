(* Growable buffers of integer samples (ns, bytes, counts) and the
   order statistics the metrics are made of. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n
let to_array t = Array.sub t.a 0 t.n

let merge ts =
  let r = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add r t.a.(i) done) ts;
  r

(* Nearest-rank quantile, [q] in [0, 1]; [nan] on an empty buffer. *)
let quantile t q =
  if t.n = 0 then Float.nan
  else begin
    let s = to_array t in
    Array.sort Int.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
    float_of_int s.(max 0 (min (t.n - 1) k))
  end

(* [quantile] of a buffer of ns, in µs. *)
let us q t = quantile t q /. 1000.0

(* Median of a float list (set-up repetitions, per-run figures). *)
let median_f l =
  match List.sort Float.compare l with
  | [] -> Float.nan
  | s -> List.nth s (List.length s / 2)

(* Nearest-rank [q] of a float list; [nan] on an empty one. *)
let rank_f q l =
  match List.sort Float.compare l with
  | [] -> Float.nan
  | s ->
      let n = List.length s in
      List.nth s (max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The measured time [from_, until) (ns) cut into equal windows, each with
   its own samples, filed by when the operation started.  The gated
   figures are taken per window and then summed up by the quartile on the
   good side over the windows: the level the run holds in its better
   quarter, which a slow spell of the shared host, lasting a few windows,
   does not reach.  A change that slows every window still shows in full. *)
module Windowed = struct
  type nonrec t = {
    from_ : int;
    until : int;
    ws : t array;
    first : int array;  (** per window, the earliest start *)
    last : int array;  (** per window, the latest end *)
  }

  let windows = 10

  let create ~from_ ~until =
    {
      from_;
      until;
      ws = Array.init windows (fun _ -> create ());
      first = Array.make windows max_int;
      last = Array.make windows min_int;
    }

  (* An operation that started at [at] and took [x] ns; none before [from_]. *)
  let add w ~at x =
    if at >= w.from_ then begin
      let i = min (windows - 1) ((at - w.from_) * windows / max 1 (w.until - w.from_)) in
      add w.ws.(i) x;
      w.first.(i) <- min w.first.(i) at;
      w.last.(i) <- max w.last.(i) (at + x)
    end

  let all w = merge (Array.to_list w.ws)

  let merge l =
    let per f = Array.init windows (fun i -> f (List.map (fun w -> w.ws.(i)) l) i) in
    {
      (List.hd l) with
      ws = per (fun ss _ -> merge ss);
      first = per (fun _ i -> List.fold_left (fun a w -> min a w.first.(i)) max_int l);
      last = per (fun _ i -> List.fold_left (fun a w -> max a w.last.(i)) min_int l);
    }

  (* [us q] within each non-empty window, lower quartile over the windows. *)
  let us q w =
    let per = List.filter_map (fun s -> if s.n = 0 then None else Some (us q s)) (Array.to_list w.ws) in
    rank_f 0.25 per

  (* Operations per second within each window, over every buffer of [l]:
     those started in it over the time from the first start to the last
     end; upper quartile over the windows. *)
  let per_s l =
    let per =
      List.filter_map
        (fun i ->
          let n = List.fold_left (fun a w -> a + w.ws.(i).n) 0 l in
          let first = List.fold_left (fun a w -> min a w.first.(i)) max_int l in
          let last = List.fold_left (fun a w -> max a w.last.(i)) min_int l in
          if n = 0 then None else Some (float_of_int n /. Clock.s_of_ns (max 1 (last - first))))
        (List.init windows Fun.id)
    in
    rank_f 0.75 per
end
