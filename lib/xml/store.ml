module Bv = Xvi_util.Bigvec

type node = int

type kind =
  | Document
  | Element
  | Text
  | Attribute
  | Comment
  | Pi
  | Deleted

let kind_to_int = function
  | Document -> 0
  | Element -> 1
  | Text -> 2
  | Attribute -> 3
  | Comment -> 4
  | Pi -> 5
  | Deleted -> 6

let kind_of_int = function
  | 0 -> Document
  | 1 -> Element
  | 2 -> Text
  | 3 -> Attribute
  | 4 -> Comment
  | 5 -> Pi
  | 6 -> Deleted
  | k -> invalid_arg (Printf.sprintf "Store.kind_of_int: %d" k)

let nil = -1

(* All columns are off-heap ([Bigvec]); text content lives as
   (offset, length) slices into a shared append-only byte arena, so the
   GC scans nothing proportional to document size. [set_text] appends
   the replacement bytes and abandons the old slice — the arena only
   grows, and [compact] is the vacuum. *)
type t = {
  kinds : Bv.Int.t;
  names : Bv.Int.t; (* name-pool id; nil when unnamed *)
  parents : Bv.Int.t;
  first_childs : Bv.Int.t;
  last_childs : Bv.Int.t;
  next_sibs : Bv.Int.t;
  prev_sibs : Bv.Int.t;
  first_attrs : Bv.Int.t;
  text_offs : Bv.Int.t; (* byte offset into [arena]; 0 when empty *)
  text_lens : Bv.Int.t;
  arena : Bv.Byte.t; (* append-only text payload *)
  pool : Name_pool.t;
  mutable live : int;
  counts : int array; (* per kind_to_int, live nodes *)
  mutable live_text_bytes : int;
}

let document = 0

let get_text t n =
  let len = Bv.Int.get t.text_lens n in
  if len = 0 then "" else Bv.Byte.sub_string t.arena (Bv.Int.get t.text_offs n) len

let store_text t txt =
  if String.length txt = 0 then (0, 0)
  else (Bv.Byte.append_string t.arena txt, String.length txt)

let append_row t ~kind ~name ~parent ~text =
  let id = Bv.Int.length t.kinds in
  let off, len = store_text t text in
  Bv.Int.push t.kinds (kind_to_int kind);
  Bv.Int.push t.names name;
  Bv.Int.push t.parents parent;
  Bv.Int.push t.first_childs nil;
  Bv.Int.push t.last_childs nil;
  Bv.Int.push t.next_sibs nil;
  Bv.Int.push t.prev_sibs nil;
  Bv.Int.push t.first_attrs nil;
  Bv.Int.push t.text_offs off;
  Bv.Int.push t.text_lens len;
  t.live <- t.live + 1;
  t.counts.(kind_to_int kind) <- t.counts.(kind_to_int kind) + 1;
  t.live_text_bytes <- t.live_text_bytes + String.length text;
  id

let create () =
  let t =
    {
      kinds = Bv.Int.create ();
      names = Bv.Int.create ();
      parents = Bv.Int.create ();
      first_childs = Bv.Int.create ();
      last_childs = Bv.Int.create ();
      next_sibs = Bv.Int.create ();
      prev_sibs = Bv.Int.create ();
      first_attrs = Bv.Int.create ();
      text_offs = Bv.Int.create ();
      text_lens = Bv.Int.create ();
      arena = Bv.Byte.create ();
      pool = Name_pool.create ();
      live = 0;
      counts = Array.make 7 0;
      live_text_bytes = 0;
    }
  in
  let id = append_row t ~kind:Document ~name:nil ~parent:nil ~text:"" in
  assert (id = document);
  t

(* Share-don't-copy epoch publication: every column page is shared with
   the snapshot and cloned lazily on the next write to it. The name pool
   and scalar bookkeeping are copied eagerly (they are small). *)
let snapshot t =
  {
    kinds = Bv.Int.snapshot t.kinds;
    names = Bv.Int.snapshot t.names;
    parents = Bv.Int.snapshot t.parents;
    first_childs = Bv.Int.snapshot t.first_childs;
    last_childs = Bv.Int.snapshot t.last_childs;
    next_sibs = Bv.Int.snapshot t.next_sibs;
    prev_sibs = Bv.Int.snapshot t.prev_sibs;
    first_attrs = Bv.Int.snapshot t.first_attrs;
    text_offs = Bv.Int.snapshot t.text_offs;
    text_lens = Bv.Int.snapshot t.text_lens;
    arena = Bv.Byte.snapshot t.arena;
    pool = Name_pool.copy t.pool;
    live = t.live;
    counts = Array.copy t.counts;
    live_text_bytes = t.live_text_bytes;
  }

let kind t n = kind_of_int (Bv.Int.get t.kinds n)
let is_live t n = kind t n <> Deleted

let check_kind t n expected what =
  let k = kind t n in
  if not (List.mem k expected) then
    invalid_arg (Printf.sprintf "Store.%s: node %d has the wrong kind" what n)

let name_id t n = Bv.Int.get t.names n

let name t n =
  check_kind t n [ Element; Attribute; Pi ] "name";
  Name_pool.name t.pool (Bv.Int.get t.names n)

let names t = t.pool

let text t n =
  match kind t n with
  | Text | Attribute | Comment | Pi -> get_text t n
  | Document | Element | Deleted ->
      invalid_arg (Printf.sprintf "Store.text: node %d has the wrong kind" n)

let opt v = if v = nil then None else Some v
let parent t n = opt (Bv.Int.get t.parents n)
let first_child t n = opt (Bv.Int.get t.first_childs n)
let next_sibling t n = opt (Bv.Int.get t.next_sibs n)
let prev_sibling t n = opt (Bv.Int.get t.prev_sibs n)
let last_child t n = opt (Bv.Int.get t.last_childs n)
let first_attribute t n = opt (Bv.Int.get t.first_attrs n)

let next_attribute t n =
  check_kind t n [ Attribute ] "next_attribute";
  opt (Bv.Int.get t.next_sibs n)

(* Link [child] as the last child of [parent]. Attributes use a separate
   chain headed by [first_attrs] but reuse next/prev columns. *)
let link_last_child t ~parent ~child =
  let last = Bv.Int.get t.last_childs parent in
  if last = nil then Bv.Int.set t.first_childs parent child
  else begin
    Bv.Int.set t.next_sibs last child;
    Bv.Int.set t.prev_sibs child last
  end;
  Bv.Int.set t.last_childs parent child

let link_attr t ~element ~attr =
  let rec last_in_chain n =
    match opt (Bv.Int.get t.next_sibs n) with
    | None -> n
    | Some next -> last_in_chain next
  in
  match opt (Bv.Int.get t.first_attrs element) with
  | None -> Bv.Int.set t.first_attrs element attr
  | Some first ->
      let last = last_in_chain first in
      Bv.Int.set t.next_sibs last attr;
      Bv.Int.set t.prev_sibs attr last

let append_element t ~parent name =
  check_kind t parent [ Document; Element ] "append_element";
  let id =
    append_row t ~kind:Element ~name:(Name_pool.intern t.pool name) ~parent
      ~text:""
  in
  link_last_child t ~parent ~child:id;
  id

let append_text t ~parent txt =
  check_kind t parent [ Document; Element ] "append_text";
  let id = append_row t ~kind:Text ~name:nil ~parent ~text:txt in
  link_last_child t ~parent ~child:id;
  id

let append_attribute t ~element ~name ~value =
  check_kind t element [ Element ] "append_attribute";
  let id =
    append_row t ~kind:Attribute
      ~name:(Name_pool.intern t.pool name)
      ~parent:element ~text:value
  in
  link_attr t ~element ~attr:id;
  id

let append_comment t ~parent txt =
  check_kind t parent [ Document; Element ] "append_comment";
  let id = append_row t ~kind:Comment ~name:nil ~parent ~text:txt in
  link_last_child t ~parent ~child:id;
  id

let append_pi t ~parent ~target txt =
  check_kind t parent [ Document; Element ] "append_pi";
  let id =
    append_row t ~kind:Pi ~name:(Name_pool.intern t.pool target) ~parent
      ~text:txt
  in
  link_last_child t ~parent ~child:id;
  id

let children t n =
  let rec go acc = function
    | None -> List.rev acc
    | Some c -> go (c :: acc) (next_sibling t c)
  in
  go [] (first_child t n)

let attributes t n =
  let rec go acc = function
    | None -> List.rev acc
    | Some a -> go (a :: acc) (opt (Bv.Int.get t.next_sibs a))
  in
  go [] (first_attribute t n)

let is_ancestor t ~ancestor n =
  let rec up cur =
    match parent t cur with
    | None -> false
    | Some p -> p = ancestor || up p
  in
  up n

let compare_order t a b =
  if a = b then 0
  else begin
    let rec path acc n =
      match parent t n with None -> n :: acc | Some p -> path (n :: acc) p
    in
    let pa = path [] a and pb = path [] b in
    (* walk the two root-paths together to the first divergence *)
    let rec walk pa pb =
      match (pa, pb) with
      | [], [] -> 0
      | [], _ -> -1 (* a is an ancestor of b *)
      | _, [] -> 1
      | x :: ra, y :: rb ->
          if x = y then walk ra rb
          else begin
            (* x and y are distinct attributes/children of one parent:
               scan attributes first (document order), then children *)
            let p = Bv.Int.get t.parents x in
            let rec scan cur =
              if cur = x then -1
              else if cur = y then 1
              else
                match opt (Bv.Int.get t.next_sibs cur) with
                | Some next -> scan next
                | None -> (
                    (* end of the attribute chain: continue with children *)
                    match
                      (kind t x = Attribute, opt (Bv.Int.get t.first_childs p))
                    with
                    | _, Some c when kind t cur = Attribute -> scan c
                    | _ -> invalid_arg "Store.compare_order: unlinked nodes")
            in
            let start =
              match opt (Bv.Int.get t.first_attrs p) with
              | Some a0 when kind t x = Attribute || kind t y = Attribute ->
                  a0
              | _ -> (
                  match opt (Bv.Int.get t.first_childs p) with
                  | Some c -> c
                  | None -> invalid_arg "Store.compare_order: unlinked nodes")
            in
            scan start
          end
    in
    walk pa pb
  end

let level t n =
  let rec up acc cur =
    match parent t cur with None -> acc | Some p -> up (acc + 1) p
  in
  up 0 n

let iter_pre ?(root = document) t f =
  let rec walk n =
    if is_live t n then begin
      f n;
      let rec attrs = function
        | None -> ()
        | Some a ->
            if is_live t a then f a;
            attrs (opt (Bv.Int.get t.next_sibs a))
      in
      attrs (first_attribute t n);
      let rec kids = function
        | None -> ()
        | Some c ->
            walk c;
            kids (next_sibling t c)
      in
      kids (first_child t n)
    end
  in
  walk root

let subtree_size t n =
  let count = ref 0 in
  iter_pre ~root:n t (fun _ -> incr count);
  !count

let text_nodes ?root t =
  let acc = ref [] in
  iter_pre ?root t (fun n -> if kind t n = Text then acc := n :: !acc);
  Array.of_list (List.rev !acc)

let node_range t = Bv.Int.length t.kinds
let live_count t = t.live
let count_of_kind t k = t.counts.(kind_to_int k)

let string_value t n =
  match kind t n with
  | Text | Attribute | Comment | Pi -> get_text t n
  | Deleted -> ""
  | Document | Element when
      (* the common leaf element: one text child is the whole value *)
      let c = Bv.Int.get t.first_childs n in
      c <> nil
      && Bv.Int.get t.next_sibs c = nil
      && kind t c = Text ->
      get_text t (Bv.Int.get t.first_childs n)
  | Document | Element ->
      let buf = Buffer.create 64 in
      let rec walk c =
        match kind t c with
        | Text -> Buffer.add_string buf (get_text t c)
        | Element | Document ->
            let rec kids = function
              | None -> ()
              | Some k ->
                  walk k;
                  kids (next_sibling t k)
            in
            kids (first_child t c)
        | Attribute | Comment | Pi | Deleted -> ()
      in
      walk n;
      Buffer.contents buf

let set_text t n txt =
  check_kind t n [ Text; Attribute ] "set_text";
  t.live_text_bytes <-
    t.live_text_bytes - Bv.Int.get t.text_lens n + String.length txt;
  let off, len = store_text t txt in
  Bv.Int.set t.text_offs n off;
  Bv.Int.set t.text_lens n len

let unlink t n =
  let p = Bv.Int.get t.parents n in
  let prev = Bv.Int.get t.prev_sibs n in
  let next = Bv.Int.get t.next_sibs n in
  if prev <> nil then Bv.Int.set t.next_sibs prev next
  else if p <> nil then
    if kind t n = Attribute then Bv.Int.set t.first_attrs p next
    else Bv.Int.set t.first_childs p next;
  if next <> nil then Bv.Int.set t.prev_sibs next prev
  else if p <> nil && kind t n <> Attribute then Bv.Int.set t.last_childs p prev;
  Bv.Int.set t.prev_sibs n nil;
  Bv.Int.set t.next_sibs n nil

let tombstone t n =
  let k = kind t n in
  if k <> Deleted then begin
    t.counts.(kind_to_int k) <- t.counts.(kind_to_int k) - 1;
    t.counts.(kind_to_int Deleted) <- t.counts.(kind_to_int Deleted) + 1;
    t.live <- t.live - 1;
    t.live_text_bytes <- t.live_text_bytes - Bv.Int.get t.text_lens n;
    Bv.Int.set t.kinds n (kind_to_int Deleted)
  end

let delete_subtree t n =
  if n = document then invalid_arg "Store.delete_subtree: document node";
  if is_live t n then begin
    (* Tombstone everything below (attributes included), then unlink the
       root of the deleted region. *)
    let rec walk c =
      let rec attrs = function
        | None -> ()
        | Some a ->
            tombstone t a;
            attrs (opt (Bv.Int.get t.next_sibs a))
      in
      attrs (first_attribute t c);
      let rec kids = function
        | None -> ()
        | Some k ->
            let next = next_sibling t k in
            walk k;
            kids next
      in
      kids (first_child t c);
      tombstone t c
    in
    unlink t n;
    walk n
  end

let link_before t ~parent ~child ~before =
  match before with
  | None -> link_last_child t ~parent ~child
  | Some sib ->
      if Bv.Int.get t.parents sib <> parent then
        invalid_arg "Store.insert: before-node is not a child of parent";
      let prev = Bv.Int.get t.prev_sibs sib in
      Bv.Int.set t.next_sibs child sib;
      Bv.Int.set t.prev_sibs sib child;
      if prev = nil then Bv.Int.set t.first_childs parent child
      else begin
        Bv.Int.set t.next_sibs prev child;
        Bv.Int.set t.prev_sibs child prev
      end

let insert_element t ~parent ?before name =
  check_kind t parent [ Document; Element ] "insert_element";
  let id =
    append_row t ~kind:Element ~name:(Name_pool.intern t.pool name) ~parent
      ~text:""
  in
  link_before t ~parent ~child:id ~before;
  id

let insert_text t ~parent ?before txt =
  check_kind t parent [ Document; Element ] "insert_text";
  let id = append_row t ~kind:Text ~name:nil ~parent ~text:txt in
  link_before t ~parent ~child:id ~before;
  id

let text_bytes t = t.live_text_bytes
let text_arena t = Bv.Byte.sub_string t.arena 0 (Bv.Byte.length t.arena)

let text_span t n =
  match kind t n with
  | Text | Attribute | Comment | Pi ->
      (Bv.Int.get t.text_offs n, Bv.Int.get t.text_lens n)
  | Document | Element | Deleted ->
      invalid_arg (Printf.sprintf "Store.text_span: node %d has the wrong kind" n)

let offheap_bytes t =
  Bv.Int.memory_bytes t.kinds + Bv.Int.memory_bytes t.names
  + Bv.Int.memory_bytes t.parents
  + Bv.Int.memory_bytes t.first_childs
  + Bv.Int.memory_bytes t.last_childs
  + Bv.Int.memory_bytes t.next_sibs
  + Bv.Int.memory_bytes t.prev_sibs
  + Bv.Int.memory_bytes t.first_attrs
  + Bv.Int.memory_bytes t.text_offs
  + Bv.Int.memory_bytes t.text_lens
  + Bv.Byte.memory_bytes t.arena

let heap_bytes t = Name_pool.memory_bytes t.pool

let storage_bytes t = offheap_bytes t + heap_bytes t

let compact t =
  let fresh = create () in
  let mapping = Array.make (node_range t) (-1) in
  mapping.(document) <- document;
  let rec walk old_n new_parent =
    List.iter
      (fun a ->
        let id =
          append_attribute fresh ~element:new_parent ~name:(name t a)
            ~value:(text t a)
        in
        mapping.(a) <- id)
      (attributes t old_n);
    List.iter
      (fun c ->
        if is_live t c then begin
          let id =
            match kind t c with
            | Element -> append_element fresh ~parent:new_parent (name t c)
            | Text -> append_text fresh ~parent:new_parent (text t c)
            | Comment -> append_comment fresh ~parent:new_parent (text t c)
            | Pi -> append_pi fresh ~parent:new_parent ~target:(name t c) (text t c)
            | Document | Attribute | Deleted -> assert false
          in
          mapping.(c) <- id;
          if kind t c = Element then walk c id
        end)
      (children t old_n)
  in
  walk document document;
  let map n =
    if n < 0 || n >= Array.length mapping || mapping.(n) < 0 then None
    else Some mapping.(n)
  in
  (fresh, map)

let pre_size_level t =
  let info = Hashtbl.create (max 16 (live_count t)) in
  (* [compute n lvl] records (size, level) for [n]'s whole subtree and
     returns [n]'s size = number of live descendants (attributes count). *)
  let rec compute n lvl =
    let total = ref 0 in
    List.iter
      (fun a ->
        if is_live t a then begin
          Hashtbl.replace info a (0, lvl + 1);
          incr total
        end)
      (attributes t n);
    let rec kids = function
      | None -> ()
      | Some c ->
          if is_live t c then total := !total + 1 + compute c (lvl + 1);
          kids (next_sibling t c)
    in
    kids (first_child t n);
    Hashtbl.replace info n (!total, lvl);
    !total
  in
  ignore (compute document 0 : int);
  let out = ref [] in
  iter_pre t (fun n ->
      let size, lvl = Hashtbl.find info n in
      out := (n, size, lvl) :: !out);
  Array.of_list (List.rev !out)

(* --- Snapshot codec ---

   Section layout (every integer a LEB128 varint):

     node count n, arena length, name count, then each name (length,
     bytes);
     per node, its kind and name id + 1 as [kind lor ((name + 1) lsl 3)]
     (name id + 1 = 0: no name);
     parent, first child, last child, next sibling and first attribute,
     each as the zigzag delta from the node's own id (0 = none: no link
     points at its own node);
     text lengths; for each non-empty text, the zigzag delta of its
     offset from the end of the previous non-empty text (empty texts sit
     at offset 0);
     the arena, raw.

   Previous siblings are not stored: they are exactly the inverse of the
   next-sibling links, so [decode] derives them. The live counts and
   text bytes are derived from the kinds and lengths. *)

module Codec = Xvi_util.Codec

let max_nodes = (1 lsl 30) - 1

let encode t s =
  let module S = Codec.Sink in
  let n = node_range t in
  let arena_len = Bv.Byte.length t.arena in
  S.varint s n;
  S.varint s arena_len;
  S.varint s (Name_pool.count t.pool);
  for i = 0 to Name_pool.count t.pool - 1 do
    S.string s (Name_pool.name t.pool i)
  done;
  Bv.Int.iteri
    (fun i k -> S.varint s (k lor ((Bv.Int.get t.names i + 1) lsl 3)))
    t.kinds;
  let link c = Bv.Int.iteri (fun i v -> S.zigzag s (if v = nil then 0 else v - i)) c in
  link t.parents;
  link t.first_childs;
  link t.last_childs;
  link t.next_sibs;
  link t.first_attrs;
  Bv.Int.iteri (fun _ len -> S.varint s len) t.text_lens;
  let prev_end = ref 0 in
  Bv.Int.iteri
    (fun i len ->
      if len > 0 then begin
        let off = Bv.Int.get t.text_offs i in
        S.zigzag s (off - !prev_end);
        prev_end := off + len
      end)
    t.text_lens;
  let slice = 65536 in
  let off = ref 0 in
  while !off < arena_len do
    let len = Int.min slice (arena_len - !off) in
    S.bytes s (Bv.Byte.sub_string t.arena !off len) 0 len;
    off := !off + len
  done

(* The live tree, checked from the document node down with an explicit
   stack: every live node is reached exactly once, through the chain of
   its parent (attributes through the attribute chain of an element),
   with an id above its parent's, consistent parent, previous-sibling
   and last-child links, and only elements have children or attributes.
   A decoded store that passes cannot make a traversal loop or leave a
   live node unreachable. *)
let check_tree t =
  let get = Bv.Int.get in
  let element = kind_to_int Element and attribute = kind_to_int Attribute in
  let seen = Bytes.make (node_range t) '\000' in
  let reached = ref 1 in
  let stack = ref [ document ] in
  let chain owner first ~attrs =
    let prev = ref nil and c = ref first in
    while !c <> nil do
      let x = !c in
      if x <= owner then Codec.malformed "node %d is not above its parent %d" x owner;
      if Bytes.get seen x <> '\000' then Codec.malformed "node %d is linked twice" x;
      Bytes.set seen x '\001';
      incr reached;
      let k = get t.kinds x in
      if
        if attrs then k <> attribute
        else k = attribute || k = kind_to_int Deleted || k = kind_to_int Document
      then Codec.malformed "node %d of the wrong kind under node %d" x owner;
      if get t.parents x <> owner then
        Codec.malformed "node %d: parent link disagrees with its chain" x;
      if get t.prev_sibs x <> !prev then
        Codec.malformed "node %d: sibling links disagree" x;
      if k = element then stack := x :: !stack
      else if
        get t.first_childs x <> nil
        || get t.last_childs x <> nil
        || get t.first_attrs x <> nil
      then Codec.malformed "node %d: a non-element with children" x;
      prev := x;
      c := get t.next_sibs x
    done;
    !prev
  in
  Bytes.set seen document '\001';
  if
    get t.parents document <> nil
    || get t.next_sibs document <> nil
    || get t.first_attrs document <> nil
  then Codec.malformed "the document node has a parent, sibling or attribute";
  let rec drain () =
    match !stack with
    | [] -> ()
    | p :: rest ->
        stack := rest;
        ignore (chain p (get t.first_attrs p) ~attrs:true : int);
        if chain p (get t.first_childs p) ~attrs:false <> get t.last_childs p
        then Codec.malformed "node %d: last-child link disagrees with its chain" p;
        drain ()
  in
  drain ();
  if !reached <> t.live then
    Codec.malformed "%d live nodes, %d reachable from the document" t.live
      !reached

let decode src =
  let module S = Codec.Source in
  let n = S.varint src in
  if n < 1 || n > max_nodes then
    Codec.malformed "node count %d outside [1, %d]" n max_nodes;
  (* every column entry takes at least one byte: a count the input
     cannot hold is rejected before anything is allocated for it *)
  if n > S.remaining src then Codec.malformed "node count %d past the input" n;
  let arena_len = S.varint src in
  let pool = Name_pool.create () in
  let pool_count = S.varint src in
  if pool_count > S.remaining src then
    Codec.malformed "name count %d past the input" pool_count;
  for i = 0 to pool_count - 1 do
    if Name_pool.intern pool (S.string src) <> i then
      Codec.malformed "duplicate name %d" i
  done;
  let counts = Array.make 7 0 in
  let names = Bv.Int.create () in
  let kinds =
    Bv.Int.init n (fun i ->
        let v = S.varint src in
        let k = v land 7 and id = (v lsr 3) - 1 in
        if k > kind_to_int Deleted then Codec.malformed "node %d: unknown kind %d" i k;
        if (k = kind_to_int Document) <> (i = document) then
          Codec.malformed "node %d: misplaced document kind" i;
        if id >= pool_count then
          Codec.malformed "node %d: name id %d >= pool size %d" i id pool_count;
        (match kind_of_int k with
        | Element | Attribute | Pi when id = nil ->
            Codec.malformed "node %d: missing name" i
        | Document | Text | Comment when id <> nil ->
            Codec.malformed "node %d: unexpected name" i
        | _ -> ());
        counts.(k) <- counts.(k) + 1;
        Bv.Int.push names id;
        k)
  in
  let link () =
    Bv.Int.init n (fun i ->
        match S.zigzag src with
        | 0 -> nil
        | d ->
            let v = i + d in
            if v < 0 || v >= n then
              Codec.malformed "node %d: link %d outside [nil, %d)" i v n;
            v)
  in
  let parents = link () in
  let first_childs = link () in
  let last_childs = link () in
  let next_sibs = link () in
  let first_attrs = link () in
  let live_text_bytes = ref 0 in
  let text_lens =
    Bv.Int.init n (fun i ->
        let len = S.varint src in
        let k = Bv.Int.get kinds i in
        if len > 0 && (k = kind_to_int Document || k = kind_to_int Element) then
          Codec.malformed "node %d: text on an element" i;
        if k <> kind_to_int Deleted then live_text_bytes := !live_text_bytes + len;
        len)
  in
  let prev_end = ref 0 in
  let text_offs =
    Bv.Int.init n (fun i ->
        let len = Bv.Int.get text_lens i in
        if len = 0 then 0
        else begin
          let off = !prev_end + S.zigzag src in
          if off < 0 || off > arena_len - len then
            Codec.malformed "node %d: text outside the arena" i;
          prev_end := off + len;
          off
        end)
  in
  let arena = Bv.Byte.create () in
  S.raw src arena_len (fun s off len ->
      ignore (Bv.Byte.append_substring arena s off len : int));
  let prev_sibs = Bv.Int.init n (fun _ -> nil) in
  Bv.Int.iteri
    (fun i next ->
      if next <> nil then begin
        if Bv.Int.get prev_sibs next <> nil then
          Codec.malformed "node %d has two previous siblings" next;
        Bv.Int.set prev_sibs next i
      end)
    next_sibs;
  let t =
    {
      kinds;
      names;
      parents;
      first_childs;
      last_childs;
      next_sibs;
      prev_sibs;
      first_attrs;
      text_offs;
      text_lens;
      arena;
      pool;
      live = n - counts.(kind_to_int Deleted);
      counts;
      live_text_bytes = !live_text_bytes;
    }
  in
  check_tree t;
  t
