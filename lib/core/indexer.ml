module Store = Xvi_xml.Store
module Bigvec = Xvi_util.Bigvec
module Vec = Xvi_util.Vec

type 'f ops = {
  field_name : string;
  of_text : string -> 'f;
  of_sub : string -> int -> int -> 'f;
  combine : 'f -> 'f -> 'f;
  identity : 'f;
  equal : 'f -> 'f -> bool;
  to_int : 'f -> int;
  of_int : int -> 'f;
  absorbing : 'f option;
  inverse : ('f -> 'f) option;
}

let hash_ops =
  {
    field_name = "hash";
    of_text = Hash.hash;
    of_sub = Hash.hash_sub;
    combine = Hash.combine;
    identity = Hash.empty;
    equal = Hash.equal;
    to_int = Hash.to_int;
    of_int = Hash.of_int;
    absorbing = None;
    inverse = Some Hash.inverse;
  }

let sct_ops sct =
  {
    field_name = "state:" ^ Dfa.name (Sct.dfa sct);
    of_text = Sct.of_string sct;
    of_sub = Sct.of_substring sct;
    combine = Sct.compose sct;
    identity = Sct.identity sct;
    equal = Int.equal;
    to_int = Fun.id;
    of_int = Fun.id;
    absorbing = Some (Sct.reject sct);
    inverse = None;
  }

(* Every field kind is an int (a 32-bit hash or an SCT state), so the
   column is an off-heap copy-on-write int vector: the GC never scans
   it, and [snapshot] shares its pages with the published epoch. *)
type 'f fields = { col : Bigvec.Int.t; fops : 'f ops }

let empty_fields ops = { col = Bigvec.Int.create (); fops = ops }

let get f n =
  if n < Bigvec.Int.length f.col then f.fops.of_int (Bigvec.Int.get f.col n)
  else f.fops.identity

let set f n v =
  let id = f.fops.to_int f.fops.identity in
  while Bigvec.Int.length f.col <= n do
    Bigvec.Int.push f.col id
  done;
  Bigvec.Int.set f.col n (f.fops.to_int v)

let snapshot f = { f with col = Bigvec.Int.snapshot f.col }

(* Combine the fields of [n]'s live children in document order, walking
   sibling links directly (no list allocation — this is the inner loop
   of update maintenance). Once the accumulator is the absorbing element
   (the SCT's reject) no later child can change it, so the walk stops. *)
let fold_children ops store fields n =
  let rec go acc c =
    match c with
    | None -> acc
    | Some c -> go (ops.combine acc (get fields c)) (Store.next_sibling store c)
  in
  let rec go_until z acc c =
    match c with
    | Some c when not (ops.equal acc z) ->
        go_until z (ops.combine acc (get fields c)) (Store.next_sibling store c)
    | _ -> acc
  in
  match ops.absorbing with
  | None -> go ops.identity (Store.first_child store n)
  | Some z -> go_until z ops.identity (Store.first_child store n)

type packed = Packed : 'f ops * 'f fields -> packed

(* --- Creation: one shared pass (paper Section 5) ---

   Figure 7 walks the document-order text sequence with an explicit
   stack because MonetDB's pre/size/level table has no child links. The
   store has them, and a node is always appended after its parent, so
   every child's id is above its parent's: one pass in descending id
   order meets all of a node's children before the node. Each element
   then folds its children's finished fields (the [create_reference]
   definition) with no stack, and every column is filled in the same
   pass, reading each text once — the "one pass" of Section 5. *)
let fill ?(from = 0) store packs =
  (* per column: a text's field, and an element's from its children *)
  let columns =
    List.map
      (fun (Packed (ops, fields)) ->
        let stop =
          match ops.absorbing with
          | Some z -> fun acc -> ops.equal acc z
          | None -> fun _ -> false
        in
        ( (fun n arena off len -> set fields n (ops.of_sub arena off len)),
          fun n kids nkids ->
            (* as [fold_children]: the absorbing element ends a fold *)
            let acc = ref ops.identity and i = ref 0 in
            while !i < nkids && not (stop !acc) do
              acc := ops.combine !acc (get fields kids.(!i));
              incr i
            done;
            set fields n !acc ))
      packs
  in
  (* every text is a slice of one copy of the arena: no string per text *)
  let arena = Store.text_arena store in
  let kids = ref (Array.make 64 0) and nkids = ref 0 in
  for n = Store.node_range store - 1 downto from do
    match Store.kind store n with
    | Store.Deleted | Store.Comment | Store.Pi -> ()
    | Store.Text | Store.Attribute ->
        let off, len = Store.text_span store n in
        List.iter (fun (of_slice, _) -> of_slice n arena off len) columns
    | Store.Element | Store.Document ->
        nkids := 0;
        let rec collect = function
          | None -> ()
          | Some c ->
              if !nkids = Array.length !kids then
                kids := Array.append !kids (Array.make !nkids 0);
              !kids.(!nkids) <- c;
              incr nkids;
              collect (Store.next_sibling store c)
        in
        collect (Store.first_child store n);
        List.iter (fun (_, of_kids) -> of_kids n !kids !nkids) columns
  done

let create ops store =
  let fields = empty_fields ops in
  fill store [ Packed (ops, fields) ];
  fields

(* A fragment's nodes are appended after every existing id, each child
   after its parent: the pass from its first root covers exactly it. *)
let compute_subtree ops store fields root =
  fill ~from:root store [ Packed (ops, fields) ]

(* --- Reference computation (tests) --- *)

let create_reference (type f) (ops : f ops) store =
  let fields = empty_fields ops in
  let rec go n =
    match Store.kind store n with
    | Store.Text ->
        let f = ops.of_text (Store.text store n) in
        set fields n f;
        f
    | Store.Comment | Store.Pi | Store.Deleted | Store.Attribute ->
        ops.identity
    | Store.Element | Store.Document ->
        List.iter
          (fun a -> set fields a (ops.of_text (Store.text store a)))
          (Store.attributes store n);
        let f =
          List.fold_left
            (fun acc c -> ops.combine acc (go c))
            ops.identity (Store.children store n)
        in
        set fields n f;
        f
  in
  ignore (go Store.document : f);
  fields

(* --- Figure 8: updates --- *)

type 'f change = {
  node : Store.node;
  old_field : 'f;
  new_field : 'f;
  level : int;
}

type 'f update_result = {
  changes : 'f change list;
  touched : (Store.node * int) list;
}

(* How a frontier node gets its new field. *)
let leaf = 0 (* a written text or attribute: from its text *)
let structural = 1 (* its child list changed: re-fold every child *)
let ancestor = 2 (* above a write: only if a child's field changed *)

type frontier = {
  nodes : int array; (* deepest first *)
  levels : int array;
  parents : int array; (* slot of the node's parent, or -1 *)
  roles : int array;
}

module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

let frontier store ~texts ?structural:(structurals = []) () =
  (* Discovery order first. A walk up from a written node stops at the
     first node already held, whose level is then known: every level
     costs one step, and no node is walked twice. *)
  let slot = Slots.create 64 in
  let nodes = Vec.Int.create () and levels = Vec.Int.create () in
  let parents = Vec.Int.create () and roles = Vec.Int.create () in
  let push n ~level ~parent role =
    let i = Vec.Int.length nodes in
    Slots.add slot n i;
    Vec.Int.push nodes n;
    Vec.Int.push levels level;
    Vec.Int.push parents parent;
    Vec.Int.push roles role;
    i
  in
  let rec hold n role =
    match Slots.find_opt slot n with
    | Some i ->
        if role = structural then Vec.Int.set roles i structural;
        i
    | None -> (
        match Store.parent store n with
        | None -> push n ~level:0 ~parent:(-1) role
        | Some p ->
            let pi = hold p ancestor in
            push n ~level:(Vec.Int.get levels pi + 1) ~parent:pi role)
  in
  let rec level_of n =
    match Slots.find_opt slot n with
    | Some i -> Vec.Int.get levels i
    | None -> (
        match Store.parent store n with None -> 0 | Some p -> 1 + level_of p)
  in
  List.iter
    (fun n ->
      match Store.kind store n with
      | Store.Text -> ignore (hold n leaf : int)
      | Store.Attribute ->
          (* an attribute value is no part of its element's string
             value: the write stops at the attribute *)
          if not (Slots.mem slot n) then
            ignore (push n ~level:(level_of n) ~parent:(-1) leaf : int)
      | _ ->
          invalid_arg
            (Printf.sprintf "Indexer.frontier: node %d is not a text or attribute"
               n))
    texts;
  List.iter (fun n -> ignore (hold n structural : int)) structurals;
  (* Counting sort by level, deepest first, stable in discovery order;
     parent slots are renumbered to match. *)
  let count = Vec.Int.length nodes in
  let depth = Vec.Int.fold_left max 0 levels in
  let starts = Array.make (depth + 2) 0 in
  Vec.Int.iter (fun l -> starts.(depth - l + 1) <- starts.(depth - l + 1) + 1) levels;
  for d = 1 to depth + 1 do
    starts.(d) <- starts.(d) + starts.(d - 1)
  done;
  let pos =
    Array.init count (fun i ->
        let d = depth - Vec.Int.get levels i in
        let p = starts.(d) in
        starts.(d) <- p + 1;
        p)
  in
  let sorted col f =
    let a = Array.make count 0 in
    for i = 0 to count - 1 do
      a.(pos.(i)) <- f (Vec.Int.get col i)
    done;
    a
  in
  {
    nodes = sorted nodes Fun.id;
    levels = sorted levels Fun.id;
    parents = sorted parents (fun p -> if p < 0 then p else pos.(p));
    roles = sorted roles Fun.id;
  }

(* [h = prefix . old_child . suffix] for a group: walk the siblings
   outward from the changed child, one step each way in turn, until
   either end is reached. The finished side (the prefix, or the suffix)
   gives the other through the inverse, and the new field is
   [prefix . new_child . suffix] — what {!Hash.replace} computes. *)
let delta ops inv store fields child ~old_child ~new_child h =
  let rec walk l r prefix suffix =
    match (l, r) with
    | None, _ ->
        let suffix = ops.combine (inv old_child) (ops.combine (inv prefix) h) in
        ops.combine prefix (ops.combine new_child suffix)
    | _, None ->
        let prefix = ops.combine h (ops.combine (inv suffix) (inv old_child)) in
        ops.combine prefix (ops.combine new_child suffix)
    | Some l, Some r ->
        walk (Store.prev_sibling store l) (Store.next_sibling store r)
          (ops.combine (get fields l) prefix)
          (ops.combine suffix (get fields r))
  in
  walk (Store.prev_sibling store child) (Store.next_sibling store child)
    ops.identity ops.identity

let maintain ops store fields fr =
  let count = Array.length fr.nodes in
  let olds = Array.make count ops.identity in
  let news = Array.make count ops.identity in
  (* per slot: how many children changed their field, and the last one *)
  let changed = Array.make count 0 and last_changed = Array.make count (-1) in
  for i = 0 to count - 1 do
    let n = fr.nodes.(i) in
    let old = get fields n in
    let role = fr.roles.(i) in
    let v =
      if role = leaf then ops.of_text (Store.text store n)
      else if role = structural then fold_children ops store fields n
      else
        match (changed.(i), ops.inverse) with
        | 0, _ -> old (* change cutoff: no child changed its field *)
        | 1, Some inv ->
            let c = last_changed.(i) in
            delta ops inv store fields fr.nodes.(c) ~old_child:olds.(c)
              ~new_child:news.(c) old
        | _ -> fold_children ops store fields n
    in
    olds.(i) <- old;
    news.(i) <- v;
    if not (ops.equal old v) then begin
      set fields n v;
      let p = fr.parents.(i) in
      if p >= 0 then begin
        changed.(p) <- changed.(p) + 1;
        last_changed.(p) <- i
      end
    end
  done;
  (* An unchanged absorbing node (reject) has no value before or after
     the write, so typed indices have nothing to re-extract there — nor
     at its ancestors, which are reject too. *)
  let inert i =
    match ops.absorbing with
    | Some z -> ops.equal olds.(i) z && ops.equal news.(i) z
    | None -> false
  in
  let changes = ref [] and touched = ref [] in
  for i = count - 1 downto 0 do
    let node = fr.nodes.(i) and level = fr.levels.(i) in
    if not (ops.equal olds.(i) news.(i)) then
      changes :=
        { node; old_field = olds.(i); new_field = news.(i); level } :: !changes;
    if not (inert i) then touched := (node, level) :: !touched
  done;
  { changes = !changes; touched = !touched }

let update ops store fields ~texts ?structural () =
  maintain ops store fields (frontier store ~texts ?structural ())
