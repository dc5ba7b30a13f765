type t = {
  dfa : Dfa.t;
  size : int; (* elements incl. reject *)
  identity : int;
  compose_tbl : int array; (* size * size, flattened *)
  class_elt : int array; (* char class -> element of a one-char string *)
  accepting : bool array;
  dfa_state : int array;
  witness : string array;
}

let reject_id = 0

let encode fn =
  let b = Bytes.create (Array.length fn) in
  Array.iteri (fun i v -> Bytes.set b i (Char.chr v)) fn;
  b

let of_dfa ?(max_elements = 4096) dfa =
  let n = Dfa.n_states dfa in
  let reach = Dfa.reachable dfa in
  let co_states = Dfa.co_accessible dfa in
  let domain =
    Array.of_list
      (List.filter (fun s -> reach.(s)) (List.init n (fun i -> i)))
  in
  let dn = Array.length domain in
  if dn > 255 then failwith "Sct.of_dfa: more than 255 reachable DFA states";
  let didx = Array.make n (-1) in
  Array.iteri (fun i s -> didx.(s) <- i) domain;
  let didx_start = didx.(Dfa.start dfa) in
  let co = Array.map (fun s -> co_states.(s)) domain in
  let n_classes = Dfa.n_classes dfa in
  let gens =
    Array.init n_classes (fun cls ->
        Array.map
          (fun s ->
            let repr = Dfa.class_repr dfa cls in
            match repr with
            | Some c -> didx.(Dfa.step dfa s c)
            | None -> didx.(Dfa.sink dfa))
          domain)
  in
  let viable fn = Array.exists (fun v -> co.(v)) fn in
  let by_key = Hashtbl.create 256 in
  let funcs = ref [] (* reversed; ids from 1 *) in
  let witnesses = ref [ "<reject>" ] (* id 0 *) in
  let count = ref 1 (* reject *) in
  let queue = Queue.create () in
  let idfn = Array.init dn (fun i -> i) in
  if not (viable idfn) then
    failwith (Printf.sprintf "Sct.of_dfa: %s accepts nothing" (Dfa.name dfa));
  let add fn wit =
    let key = encode fn in
    match Hashtbl.find_opt by_key key with
    | Some id -> id
    | None ->
        if not (viable fn) then begin
          Hashtbl.add by_key key reject_id;
          reject_id
        end
        else begin
          let id = !count in
          incr count;
          if !count > max_elements then
            failwith
              (Printf.sprintf
                 "Sct.of_dfa: transition monoid of %s exceeds %d elements"
                 (Dfa.name dfa) max_elements);
          Hashtbl.add by_key key id;
          funcs := fn :: !funcs;
          witnesses := wit :: !witnesses;
          Queue.push (id, fn, wit) queue;
          id
        end
  in
  let identity = add idfn "" in
  while not (Queue.is_empty queue) do
    let _, fn, wit = Queue.pop queue in
    for cls = 0 to n_classes - 1 do
      match Dfa.class_repr dfa cls with
      | None -> ()
      | Some c ->
          let fn' = Array.map (fun v -> gens.(cls).(v)) fn in
          ignore (add fn' (wit ^ String.make 1 c) : int)
    done
  done;
  let size = !count in
  let funcs_arr = Array.make size [||] in
  List.iteri (fun i fn -> funcs_arr.(size - 1 - i) <- fn) !funcs;
  (* !funcs is reversed: element 1 is last in the list *)
  let witness = Array.make size "" in
  List.iteri (fun i w -> witness.(size - 1 - i) <- w) !witnesses;
  let lookup fn =
    if not (viable fn) then reject_id
    else
      match Hashtbl.find_opt by_key (encode fn) with
      | Some id -> id
      | None -> assert false (* closure is complete *)
  in
  let compose_tbl = Array.make (size * size) reject_id in
  for i = 1 to size - 1 do
    for j = 1 to size - 1 do
      let fi = funcs_arr.(i) and fj = funcs_arr.(j) in
      (* (f_i ; f_j)(p) = f_j (f_i p) *)
      let fn = Array.map (fun v -> fj.(v)) fi in
      compose_tbl.((i * size) + j) <- lookup fn
    done
  done;
  let class_elt = Array.init n_classes (fun cls -> lookup gens.(cls)) in
  let accepting = Array.make size false in
  let dfa_state = Array.make size (Dfa.sink dfa) in
  for i = 1 to size - 1 do
    let s = domain.(funcs_arr.(i).(didx_start)) in
    dfa_state.(i) <- s;
    accepting.(i) <- Dfa.is_final dfa s
  done;
  {
    dfa;
    size;
    identity;
    compose_tbl;
    class_elt;
    accepting;
    dfa_state;
    witness;
  }

let dfa t = t.dfa
let size t = t.size
let identity t = t.identity
let reject _ = reject_id

(* A string's element is the product of its characters' elements (the
   SCT is a monoid homomorphism of concatenation), so one table probe
   per character suffices; reject absorbs, so the fold stops there. *)
let of_substring t s off len =
  let st = ref t.identity and i = ref off in
  let stop = off + len in
  while !st <> reject_id && !i < stop do
    let c = t.class_elt.(Dfa.class_of_char t.dfa (String.unsafe_get s !i)) in
    st := t.compose_tbl.((!st * t.size) + c);
    incr i
  done;
  !st

let of_string t s = of_substring t s 0 (String.length s)

let compose t i j = t.compose_tbl.((i * t.size) + j)
let is_viable _ id = id <> reject_id
let is_accepting t id = t.accepting.(id)
let dfa_state t id = t.dfa_state.(id)
let witness t id = t.witness.(id)
let state_bytes t = if t.size <= 256 then 1 else 2
let table_bytes t = 8 * t.size * t.size
