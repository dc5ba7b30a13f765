type node = Store.node

(* The plane is rebuilt wholesale per epoch and never mutated, so its
   arrays are plain exact-size off-heap Bigarrays (no copy-on-write
   machinery needed) — at XMark scale these four arrays dominate what
   the GC would otherwise scan on every major collection. *)
type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  node_of_pre : iarr; (* pre -> node *)
  pre_of_node : iarr; (* node -> pre, -1 when unknown *)
  sizes : iarr; (* by pre *)
  levels : iarr; (* by pre *)
}

let imake n v =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a v;
  a

let build store =
  let live = Store.live_count store in
  let node_of_pre = imake live (-1) in
  let pre_of_node = imake (Store.node_range store) (-1) in
  let sizes = imake live 0 in
  let levels = imake live 0 in
  let next = ref 0 in
  (* one recursive pass assigns pre ranks in iter_pre order (element,
     attributes, children) and computes subtree sizes on the way out *)
  let rec walk n lvl =
    let my_pre = !next in
    incr next;
    node_of_pre.{my_pre} <- n;
    pre_of_node.{n} <- my_pre;
    levels.{my_pre} <- lvl;
    let rec attrs = function
      | None -> ()
      | Some a ->
          let p = !next in
          incr next;
          node_of_pre.{p} <- a;
          pre_of_node.{a} <- p;
          levels.{p} <- lvl + 1;
          sizes.{p} <- 0;
          attrs (Store.next_attribute store a)
    in
    attrs (Store.first_attribute store n);
    let rec kids = function
      | None -> ()
      | Some c ->
          if Store.is_live store c then walk c (lvl + 1);
          kids (Store.next_sibling store c)
    in
    kids (Store.first_child store n);
    sizes.{my_pre} <- !next - my_pre - 1
  in
  walk Store.document 0;
  assert (!next = live);
  { node_of_pre; pre_of_node; sizes; levels }

let live_nodes t = Bigarray.Array1.dim t.node_of_pre

let pre t n =
  if n < Bigarray.Array1.dim t.pre_of_node then t.pre_of_node.{n} else -1

let node_at t p =
  if p < 0 || p >= Bigarray.Array1.dim t.node_of_pre then
    invalid_arg (Printf.sprintf "Pre_plane.node_at: %d" p)
  else t.node_of_pre.{p}

let known t n what =
  let p = pre t n in
  if p < 0 then
    invalid_arg (Printf.sprintf "Pre_plane.%s: node %d not in this snapshot" what n)
  else p

let size t n = t.sizes.{known t n "size"}
let level t n = t.levels.{known t n "level"}

let compare_order t a b =
  Int.compare (known t a "compare_order") (known t b "compare_order")

let is_descendant t ~ancestor n =
  let pa = known t ancestor "is_descendant" and pn = known t n "is_descendant" in
  pa < pn && pn <= pa + t.sizes.{pa}

let descendants t n =
  let p = known t n "descendants" in
  List.init t.sizes.{p} (fun i -> t.node_of_pre.{p + 1 + i})

let in_subtree t ~scope n =
  let ps = pre t scope and pn = pre t n in
  ps >= 0 && pn >= 0 && ps <= pn && pn <= ps + t.sizes.{ps}

let subtree_cursor t scope =
  let ps = pre t scope in
  if ps < 0 then fun () -> None
  else
    let stop = ps + t.sizes.{ps} in
    let next = ref ps in
    fun () ->
      if !next > stop then None
      else begin
        let n = t.node_of_pre.{!next} in
        incr next;
        Some n
      end

let sort_doc_order t nodes =
  List.sort (compare_order t) nodes

(* ascending, deduplicated pre ranks of a node list *)
let pre_ranks t what nodes =
  let arr = Array.of_list (List.map (fun n -> known t n what) nodes) in
  Array.sort Int.compare arr;
  arr

let dedup_pre arr =
  let out = ref [] in
  Array.iteri
    (fun i p -> if i = 0 || arr.(i - 1) <> p then out := p :: !out)
    arr;
  List.rev !out

let join_descendant t ~context nodes =
  let ctx = pre_ranks t "join_descendant" context in
  let cand = pre_ranks t "join_descendant" nodes in
  (* sweep candidates in pre order; a candidate is covered iff the
     furthest interval end among contexts that started before it reaches
     it (tree ranges are nested or disjoint, so the max suffices) *)
  let out = ref [] in
  let ci = ref 0 in
  let cover_end = ref (-1) in
  List.iter
    (fun p ->
      while !ci < Array.length ctx && ctx.(!ci) < p do
        cover_end := max !cover_end (ctx.(!ci) + t.sizes.{ctx.(!ci)});
        incr ci
      done;
      if p <= !cover_end then out := t.node_of_pre.{p} :: !out)
    (dedup_pre cand);
  List.rev !out

let join_ancestor t ~context nodes =
  let ctx = pre_ranks t "join_ancestor" context in
  let cand = pre_ranks t "join_ancestor" nodes in
  (* candidate a is an ancestor of some context iff a context pre falls
     in (pre a, pre a + size a]: binary search per candidate *)
  let first_greater p =
    let lo = ref 0 and hi = ref (Array.length ctx) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ctx.(mid) <= p then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let out = ref [] in
  List.iter
    (fun p ->
      let i = first_greater p in
      if i < Array.length ctx && ctx.(i) <= p + t.sizes.{p} then
        out := t.node_of_pre.{p} :: !out)
    (dedup_pre cand);
  List.rev !out
