module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string

  val size_bytes : t -> int
  (* Per-key storage charge. Taking the key lets variable-width keys
     (encoded byte strings) report their actual length instead of a flat
     estimate. *)
end

module type S = sig
  type key
  type 'a t

  val create : ?order:int -> unit -> 'a t
  val of_sorted_array : ?order:int -> (key * 'a) array -> 'a t

  val of_sorted_seq : ?order:int -> len:int -> (unit -> key * 'a) -> 'a t
  (* Bulk load from a generator of exactly [len] strictly-ascending
     pairs, without materializing them: the streaming ingest path feeds
     a merge cursor straight into the leaf level. The resulting tree is
     identical to [of_sorted_array] on the same sequence. *)
  val snapshot : 'a t -> 'a t
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val insert : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> bool
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val iter_range : ?lo:key -> ?hi:key -> (key -> 'a -> unit) -> 'a t -> unit

  val iter_raw : ?lo:key -> ?hi:key -> (key array -> int -> int -> unit) -> 'a t -> unit
  (* [iter_raw f t] walks the leaves calling [f keys off len] on
     each run of in-range key slots — no per-key closure dispatch, no
     key copying, so a scan can decode keys inline. The array is the
     live leaf storage: the callback must not mutate it or retain it
     past the call. *)
  val range : ?lo:key -> ?hi:key -> 'a t -> (key * 'a) list
  val to_seq_range : ?lo:key -> ?hi:key -> 'a t -> (key * 'a) Seq.t
  val count_range : ?lo:key -> ?hi:key -> 'a t -> int
  val min_binding : 'a t -> (key * 'a) option
  val max_binding : 'a t -> (key * 'a) option
  val height : 'a t -> int
  val node_count : 'a t -> int
  val memory_bytes : value_bytes:int -> 'a t -> int
  val check_invariants : 'a t -> (unit, string) result
end

module Make (K : ORDERED) = struct
  type key = K.t

  (* Node layout. A leaf holds up to [order] keys; an internal node holds
     up to [order] separators and [order + 1] children. Arrays are
     allocated with one slot of slack so a node can temporarily overflow
     during insertion and be split immediately afterwards.

     Separator convention: child [i] of an internal node contains exactly
     the keys [k] with [ikeys.(i-1) <= k < ikeys.(i)] (missing bounds are
     infinite). Equal keys therefore descend to the right of their
     separator.

     Copy-on-write: every node carries the owner token of the tree that
     made it, and a tree mutates only nodes carrying its current token.
     [snapshot] hands both trees fresh tokens, so neither owns any node
     the other can reach; the first write on either side copies its
     root-to-leaf path. A token is a fresh [ref ()] compared with [==]:
     no other token can equal it, including tokens unmarshalled from a
     snapshot file (Marshal keeps sharing within one value, so a reloaded
     tree still owns exactly the nodes it was saved with). *)

  type owner = unit ref

  type 'a leaf = {
    lown : owner;
    lkeys : key array;
    lvals : 'a array;
    mutable ln : int;
  }

  type 'a node = Leaf of 'a leaf | Internal of 'a internal

  and 'a internal = {
    iown : owner;
    ikeys : key array;
    kids : 'a node array;
    mutable kn : int; (* number of children; separators in use = kn - 1 *)
  }

  type 'a t = {
    mutable root : 'a node option;
    mutable count : int;
    order : int;
    mutable own : owner;
  }

  let create ?(order = 32) () =
    if order < 4 then invalid_arg "Btree.create: order must be >= 4";
    { root = None; count = 0; order; own = ref () }

  let snapshot t =
    let s = { root = t.root; count = t.count; order = t.order; own = ref () } in
    t.own <- ref ();
    s

  let length t = t.count
  let is_empty t = t.count = 0
  let min_leaf_keys t = t.order / 2
  let min_internal_keys t = (t.order - 1) / 2

  (* Smallest index [i] in [keys.(0 .. n-1)] with [key < keys.(i)];
     [n] if none. Used to route searches through internal nodes. *)
  let upper_bound keys n key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare key keys.(mid) < 0 then hi := mid else lo := mid + 1
    done;
    !lo

  (* Smallest index [i] with [keys.(i) >= key]; [n] if none. *)
  let lower_bound keys n key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let rec find_node node key =
    match node with
    | Leaf l ->
        let i = lower_bound l.lkeys l.ln key in
        if i < l.ln && K.compare l.lkeys.(i) key = 0 then Some l.lvals.(i)
        else None
    | Internal nd ->
        let i = upper_bound nd.ikeys (nd.kn - 1) key in
        find_node nd.kids.(i) key

  let find t key = match t.root with None -> None | Some n -> find_node n key
  let mem t key = find t key <> None

  (* --- Path copying --- *)

  let owns t = function
    | Leaf l -> l.lown == t.own
    | Internal nd -> nd.iown == t.own

  let copy_node t = function
    | Leaf l ->
        Leaf
          {
            lown = t.own;
            lkeys = Array.copy l.lkeys;
            lvals = Array.copy l.lvals;
            ln = l.ln;
          }
    | Internal nd ->
        Internal
          {
            iown = t.own;
            ikeys = Array.copy nd.ikeys;
            kids = Array.copy nd.kids;
            kn = nd.kn;
          }

  (* Child [i] of [nd] (which [t] owns), copied into [t] first if it is
     shared. Writers descend only through this, so every node they
     mutate is owned. *)
  let kid_mut t nd i =
    let c = nd.kids.(i) in
    if owns t c then c
    else begin
      let c = copy_node t c in
      nd.kids.(i) <- c;
      c
    end

  let root_mut t =
    match t.root with
    | Some r when not (owns t r) ->
        let r = copy_node t r in
        t.root <- Some r;
        Some r
    | r -> r

  (* --- Insertion --- *)

  let shift_right arr from upto =
    (* open slot at [from], moving arr.(from .. upto-1) one step right *)
    Array.blit arr from arr (from + 1) (upto - from)

  let shift_left arr from upto =
    (* close slot at [from], moving arr.(from+1 .. upto-1) one step left *)
    Array.blit arr (from + 1) arr from (upto - from - 1)

  let new_leaf t ~fill_key ~fill_val =
    {
      lown = t.own;
      lkeys = Array.make (t.order + 1) fill_key;
      lvals = Array.make (t.order + 1) fill_val;
      ln = 0;
    }

  let new_internal t ~fill_key ~fill_kid =
    {
      iown = t.own;
      ikeys = Array.make (t.order + 1) fill_key;
      kids = Array.make (t.order + 2) fill_kid;
      kn = 0;
    }

  (* Split an over-full leaf in two; returns the separator (first key of the
     right half) and the right half. *)
  let split_leaf t l =
    let mid = l.ln / 2 in
    let right = new_leaf t ~fill_key:l.lkeys.(0) ~fill_val:l.lvals.(0) in
    Array.blit l.lkeys mid right.lkeys 0 (l.ln - mid);
    Array.blit l.lvals mid right.lvals 0 (l.ln - mid);
    right.ln <- l.ln - mid;
    l.ln <- mid;
    (right.lkeys.(0), Leaf right)

  let split_internal t nd =
    let mid = nd.kn / 2 in
    (* children 0..mid-1 stay; separator ikeys.(mid-1) moves up; children
       mid..kn-1 go right with separators mid..kn-2. *)
    let right = new_internal t ~fill_key:nd.ikeys.(0) ~fill_kid:nd.kids.(0) in
    let sep = nd.ikeys.(mid - 1) in
    Array.blit nd.kids mid right.kids 0 (nd.kn - mid);
    Array.blit nd.ikeys mid right.ikeys 0 (nd.kn - 1 - mid);
    right.kn <- nd.kn - mid;
    nd.kn <- mid;
    (sep, Internal right)

  (* Returns [Some (sep, right)] if the node split, plus whether a new
     binding was added (vs. replaced). [node] is owned by [t]. *)
  let rec insert_node t node key v =
    match node with
    | Leaf l ->
        let i = lower_bound l.lkeys l.ln key in
        if i < l.ln && K.compare l.lkeys.(i) key = 0 then begin
          l.lvals.(i) <- v;
          (None, false)
        end
        else begin
          shift_right l.lkeys i l.ln;
          shift_right l.lvals i l.ln;
          l.lkeys.(i) <- key;
          l.lvals.(i) <- v;
          l.ln <- l.ln + 1;
          if l.ln > t.order then (Some (split_leaf t l), true) else (None, true)
        end
    | Internal nd ->
        let i = upper_bound nd.ikeys (nd.kn - 1) key in
        let split, added = insert_node t (kid_mut t nd i) key v in
        (match split with
        | None -> (None, added)
        | Some (sep, right) ->
            shift_right nd.ikeys i (nd.kn - 1);
            shift_right nd.kids (i + 1) nd.kn;
            nd.ikeys.(i) <- sep;
            nd.kids.(i + 1) <- right;
            nd.kn <- nd.kn + 1;
            if nd.kn > t.order + 1 then (Some (split_internal t nd), added)
            else (None, added))

  let insert t key v =
    match root_mut t with
    | None ->
        let l = new_leaf t ~fill_key:key ~fill_val:v in
        l.lkeys.(0) <- key;
        l.lvals.(0) <- v;
        l.ln <- 1;
        t.root <- Some (Leaf l);
        t.count <- 1
    | Some root ->
        let split, added = insert_node t root key v in
        (match split with
        | None -> ()
        | Some (sep, right) ->
            let nd = new_internal t ~fill_key:sep ~fill_kid:root in
            nd.ikeys.(0) <- sep;
            nd.kids.(0) <- root;
            nd.kids.(1) <- right;
            nd.kn <- 2;
            t.root <- Some (Internal nd));
        if added then t.count <- t.count + 1

  (* --- Bulk loading --- *)

  (* Split [n] items into chunks of at most [cap], each at least [minv]
     (callers guarantee cap >= 2 * minv); a short tail steals from its
     predecessor. Returns chunk sizes. *)
  let chunk_sizes n ~cap ~minv =
    if n <= cap then [ n ]
    else begin
      let full = n / cap and rest = n mod cap in
      let sizes = List.init full (fun _ -> cap) in
      if rest = 0 then sizes
      else if rest >= minv then sizes @ [ rest ]
      else
        (* steal from the last full chunk *)
        match List.rev sizes with
        | last :: prefix ->
            List.rev prefix @ [ last - (minv - rest); minv ]
        | [] -> assert false
    end

  let of_sorted_seq ?(order = 32) ~len next =
    let t = create ~order () in
    if len < 0 then invalid_arg "Btree.of_sorted_seq: negative length";
    let n = len in
    if n > 0 then begin
      (* Validate ascent as pairs stream by; the first pair doubles as
         the fill value for every node's slack slots, exactly as
         [of_sorted_array] used [arr.(0)]. *)
      let prev = ref None in
      let pull () =
        let (k, _) as pair = next () in
        (match !prev with
        | Some pk when K.compare pk k >= 0 ->
            invalid_arg "Btree.of_sorted_seq: keys not strictly ascending"
        | _ -> ());
        prev := Some k;
        pair
      in
      let first = pull () in
      let fill_key = fst first and fill_val = snd first in
      let first_used = ref false in
      let take () =
        if !first_used then pull ()
        else begin
          first_used := true;
          first
        end
      in
      (* leaf level *)
      let sizes = chunk_sizes n ~cap:order ~minv:(min_leaf_keys t) in
      let leaves =
        List.map
          (fun size ->
            let l = new_leaf t ~fill_key ~fill_val in
            for i = 0 to size - 1 do
              let k, v = take () in
              l.lkeys.(i) <- k;
              l.lvals.(i) <- v
            done;
            l.ln <- size;
            (l.lkeys.(0), Leaf l))
          sizes
      in
      (* build internal levels bottom-up; each entry carries the lowest
         key of its subtree for use as a separator *)
      let rec build level =
        match level with
        | [ (_, node) ] -> node
        | _ ->
            let cap = t.order + 1 and minv = min_internal_keys t + 1 in
            let sizes = chunk_sizes (List.length level) ~cap ~minv in
            let remaining = ref level in
            let parents =
              List.map
                (fun size ->
                  let fill_kid =
                    (* chunk_sizes partitions the level exactly, so a
                       chunk never starts past the end of it *)
                    match !remaining with
                    | (_, kid) :: _ -> kid
                    | [] ->
                        invalid_arg
                          "Btree.of_sorted_seq: internal level exhausted \
                           before its chunks"
                  in
                  let nd = new_internal t ~fill_key ~fill_kid in
                  let low = ref fill_key in
                  for i = 0 to size - 1 do
                    match !remaining with
                    | (lk, child) :: rest ->
                        if i = 0 then low := lk else nd.ikeys.(i - 1) <- lk;
                        nd.kids.(i) <- child;
                        remaining := rest
                    | [] -> assert false
                  done;
                  nd.kn <- size;
                  (!low, Internal nd))
                sizes
            in
            build parents
      in
      t.root <- Some (build leaves);
      t.count <- n
    end;
    t

  let of_sorted_array ?order arr =
    let n = Array.length arr in
    (* Whole-array pre-validation (kept from the original bulk loader:
       an invalid array raises before any allocation); the streaming
       loader then re-checks incrementally as it consumes. *)
    for i = 1 to n - 1 do
      if K.compare (fst arr.(i - 1)) (fst arr.(i)) >= 0 then
        invalid_arg "Btree.of_sorted_array: keys not strictly ascending"
    done;
    let pos = ref 0 in
    of_sorted_seq ?order ~len:n (fun () ->
        let pair = arr.(!pos) in
        incr pos;
        pair)

  (* --- Deletion --- *)

  let leaf_size = function Leaf l -> l.ln | Internal nd -> nd.kn - 1

  let underfull t node =
    match node with
    | Leaf l -> l.ln < min_leaf_keys t
    | Internal nd -> nd.kn - 1 < min_internal_keys t

  (* Rebalance child [i] of [nd], which has just underflowed. [nd] and
     child [i] are owned; a sibling is copied in before it is written. *)
  let fix_child t nd i =
    let child = nd.kids.(i) in
    let borrow_from_left li =
      match (kid_mut t nd li, child) with
      | Leaf left, Leaf c ->
          shift_right c.lkeys 0 c.ln;
          shift_right c.lvals 0 c.ln;
          c.lkeys.(0) <- left.lkeys.(left.ln - 1);
          c.lvals.(0) <- left.lvals.(left.ln - 1);
          c.ln <- c.ln + 1;
          left.ln <- left.ln - 1;
          nd.ikeys.(li) <- c.lkeys.(0)
      | Internal left, Internal c ->
          shift_right c.ikeys 0 (c.kn - 1);
          shift_right c.kids 0 c.kn;
          c.ikeys.(0) <- nd.ikeys.(li);
          c.kids.(0) <- left.kids.(left.kn - 1);
          c.kn <- c.kn + 1;
          nd.ikeys.(li) <- left.ikeys.(left.kn - 2);
          left.kn <- left.kn - 1
      | _ -> assert false
    in
    let borrow_from_right ri =
      match (child, kid_mut t nd ri) with
      | Leaf c, Leaf right ->
          c.lkeys.(c.ln) <- right.lkeys.(0);
          c.lvals.(c.ln) <- right.lvals.(0);
          c.ln <- c.ln + 1;
          shift_left right.lkeys 0 right.ln;
          shift_left right.lvals 0 right.ln;
          right.ln <- right.ln - 1;
          nd.ikeys.(i) <- right.lkeys.(0)
      | Internal c, Internal right ->
          c.ikeys.(c.kn - 1) <- nd.ikeys.(i);
          c.kids.(c.kn) <- right.kids.(0);
          c.kn <- c.kn + 1;
          nd.ikeys.(i) <- right.ikeys.(0);
          shift_left right.ikeys 0 (right.kn - 1);
          shift_left right.kids 0 right.kn;
          right.kn <- right.kn - 1
      | _ -> assert false
    in
    (* Merge children [li] and [li+1] into [li], dropping separator [li];
       the right one is only read. *)
    let merge li =
      (match (kid_mut t nd li, nd.kids.(li + 1)) with
      | Leaf left, Leaf right ->
          Array.blit right.lkeys 0 left.lkeys left.ln right.ln;
          Array.blit right.lvals 0 left.lvals left.ln right.ln;
          left.ln <- left.ln + right.ln
      | Internal left, Internal right ->
          left.ikeys.(left.kn - 1) <- nd.ikeys.(li);
          Array.blit right.ikeys 0 left.ikeys left.kn (right.kn - 1);
          Array.blit right.kids 0 left.kids left.kn right.kn;
          left.kn <- left.kn + right.kn
      | _ -> assert false);
      shift_left nd.ikeys li (nd.kn - 1);
      shift_left nd.kids (li + 1) nd.kn;
      nd.kn <- nd.kn - 1
    in
    let min_size =
      match child with
      | Leaf _ -> min_leaf_keys t
      | Internal _ -> min_internal_keys t
    in
    if i > 0 && leaf_size nd.kids.(i - 1) > min_size then borrow_from_left (i - 1)
    else if i < nd.kn - 1 && leaf_size nd.kids.(i + 1) > min_size then
      borrow_from_right (i + 1)
    else if i > 0 then merge (i - 1)
    else merge i

  let rec remove_node t node key =
    match node with
    | Leaf l ->
        let i = lower_bound l.lkeys l.ln key in
        if i < l.ln && K.compare l.lkeys.(i) key = 0 then begin
          shift_left l.lkeys i l.ln;
          shift_left l.lvals i l.ln;
          l.ln <- l.ln - 1;
          true
        end
        else false
    | Internal nd ->
        let i = upper_bound nd.ikeys (nd.kn - 1) key in
        let child = kid_mut t nd i in
        let removed = remove_node t child key in
        if removed && underfull t child then fix_child t nd i;
        removed

  let remove t key =
    match root_mut t with
    | None -> false
    | Some root ->
        let removed = remove_node t root key in
        if removed then begin
          t.count <- t.count - 1;
          (* Shrink the root when it degenerates. *)
          match t.root with
          | Some (Internal nd) when nd.kn = 1 -> t.root <- Some nd.kids.(0)
          | Some (Leaf l) when l.ln = 0 -> t.root <- None
          | _ -> ()
        end;
        removed

  (* --- Traversal ---

     Leaves are not chained: a chain cannot survive path copying (the
     copy of a leaf would leave its predecessor pointing at the
     original). Every scan instead walks a root-to-leaf stack of
     (internal node, child index) frames: [next_leaf] pops exhausted
     frames and descends the leftmost path of the next subtree. The
     stack is an immutable list, so a scan position can be resumed any
     number of times ([to_seq_range]). *)

  let rec leftmost node (path : ('a internal * int) list) =
    match node with
    | Leaf l -> (l, path)
    | Internal nd -> leftmost nd.kids.(0) ((nd, 0) :: path)

  (* Leaf that may contain [key], by separator routing. *)
  let rec seek node key path =
    match node with
    | Leaf l -> (l, path)
    | Internal nd ->
        let i = upper_bound nd.ikeys (nd.kn - 1) key in
        seek nd.kids.(i) key ((nd, i) :: path)

  let rec next_leaf = function
    | [] -> None
    | (nd, i) :: up ->
        if i + 1 < nd.kn then Some (leftmost nd.kids.(i + 1) ((nd, i + 1) :: up))
        else next_leaf up

  (* First leaf, slot and stack of the range starting at [lo]. A start
     slot past the leaf's end is fine: every key in the following leaves
     is >= the separator that routed [lo] left of them. *)
  let start root lo =
    match lo with
    | None ->
        let l, path = leftmost root [] in
        (l, 0, path)
    | Some k ->
        let l, path = seek root k [] in
        (l, lower_bound l.lkeys l.ln k, path)

  (* The scan every range operation shares: [run leaf off len] for each
     leaf's run of in-range slots, in ascending order. Keys ascend across
     leaves, so one compare against a leaf's last key decides the whole
     leaf: pass it on whole, or finish inside it. A range scan thus costs
     one descent plus one compare per leaf, not per key. *)
  let scan ?lo ?hi run t =
    match t.root with
    | None -> ()
    | Some root ->
        let below_hi k =
          match hi with None -> true | Some b -> K.compare k b <= 0
        in
        let rec walk l i path =
          if i >= l.ln then next path
          else if below_hi l.lkeys.(l.ln - 1) then begin
            run l i (l.ln - i);
            next path
          end
          else
            let j =
              match hi with None -> l.ln | Some b -> upper_bound l.lkeys l.ln b
            in
            if j > i then run l i (j - i)
        and next path =
          match next_leaf path with None -> () | Some (l, p) -> walk l 0 p
        in
        let l, i, path = start root lo in
        walk l i path

  let iter_range ?lo ?hi f t =
    scan ?lo ?hi
      (fun l off len ->
        for j = off to off + len - 1 do
          f l.lkeys.(j) l.lvals.(j)
        done)
      t

  (* The callback receives each in-range slot run [(lkeys, off, len)]
     directly: a full-leaf scan makes one call per leaf with zero
     per-key dispatch, which lets hot scans decode byte keys inline (the
     typed-tree scan bench). *)
  let iter_raw ?lo ?hi f t = scan ?lo ?hi (fun l off len -> f l.lkeys off len) t

  let iter f t = iter_range f t

  let fold f t init =
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) t;
    !acc

  let range ?lo ?hi t =
    let acc = ref [] in
    iter_range ?lo ?hi (fun k v -> acc := (k, v) :: !acc) t;
    List.rev !acc

  let to_seq_range ?lo ?hi t =
    match t.root with
    | None -> Seq.empty
    | Some root ->
        let below_hi k =
          match hi with None -> true | Some b -> K.compare k b <= 0
        in
        let rec pull l i path () =
          if i >= l.ln then
            match next_leaf path with
            | None -> Seq.Nil
            | Some (l, path) -> pull l 0 path ()
          else
            let k = l.lkeys.(i) in
            if below_hi k then Seq.Cons ((k, l.lvals.(i)), pull l (i + 1) path)
            else Seq.Nil
        in
        let l, i, path = start root lo in
        pull l i path

  (* Whole leaves inside the range are counted by their fill, so the
     cost is O(log n + leaves), not O(keys in range). *)
  let count_range ?lo ?hi t =
    match (lo, hi) with
    | None, None -> t.count
    | _ ->
        let n = ref 0 in
        scan ?lo ?hi (fun _ _ len -> n := !n + len) t;
        !n

  let rec rightmost_leaf = function
    | Leaf l -> l
    | Internal nd -> rightmost_leaf nd.kids.(nd.kn - 1)

  let min_binding t =
    match t.root with
    | None -> None
    | Some root ->
        let l, _ = leftmost root [] in
        if l.ln = 0 then None else Some (l.lkeys.(0), l.lvals.(0))

  let max_binding t =
    match t.root with
    | None -> None
    | Some root ->
        let l = rightmost_leaf root in
        if l.ln = 0 then None else Some (l.lkeys.(l.ln - 1), l.lvals.(l.ln - 1))

  let height t =
    let rec depth = function
      | Leaf _ -> 1
      | Internal nd -> 1 + depth nd.kids.(0)
    in
    match t.root with None -> 0 | Some root -> depth root

  let node_count t =
    let rec count = function
      | Leaf _ -> 1
      | Internal nd ->
          let total = ref 1 in
          for i = 0 to nd.kn - 1 do
            total := !total + count nd.kids.(i)
          done;
          !total
    in
    match t.root with None -> 0 | Some root -> count root

  let memory_bytes ~value_bytes t =
    let header = 40 in
    (* Occupied slots are charged their actual key size; unoccupied
       slots still hold a word-sized pointer each. *)
    let key_bytes keys n =
      let total = ref 0 in
      for i = 0 to n - 1 do
        total := !total + K.size_bytes keys.(i)
      done;
      !total + ((Array.length keys - n) * 8)
    in
    let rec bytes = function
      | Leaf l ->
          header + key_bytes l.lkeys l.ln + (Array.length l.lvals * value_bytes)
      | Internal nd ->
          let total =
            ref
              (header
              + key_bytes nd.ikeys (nd.kn - 1)
              + (Array.length nd.kids * 8))
          in
          for i = 0 to nd.kn - 1 do
            total := !total + bytes nd.kids.(i)
          done;
          !total
    in
    match t.root with None -> header | Some root -> header + bytes root

  (* --- Invariant checking --- *)

  let check_invariants t =
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let exception Bad of string in
    let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
    let seen = ref 0 in
    let leaves_in_order = ref [] in
    (* Checks a subtree given exclusive parent bounds; returns depth. *)
    let rec check node ~is_root ~lo ~hi =
      let in_bounds k =
        (match lo with None -> true | Some b -> K.compare b k <= 0)
        && match hi with None -> true | Some b -> K.compare k b < 0
      in
      match node with
      | Leaf l ->
          if (not is_root) && l.ln < min_leaf_keys t then
            bad "leaf underfull: %d < %d" l.ln (min_leaf_keys t);
          if l.ln > t.order then bad "leaf overfull: %d" l.ln;
          for i = 0 to l.ln - 1 do
            if i > 0 && K.compare l.lkeys.(i - 1) l.lkeys.(i) >= 0 then
              bad "leaf keys out of order at %d (%s >= %s)" i
                (K.to_string l.lkeys.(i - 1))
                (K.to_string l.lkeys.(i));
            if not (in_bounds l.lkeys.(i)) then
              bad "leaf key %s violates parent bounds" (K.to_string l.lkeys.(i))
          done;
          seen := !seen + l.ln;
          leaves_in_order := l :: !leaves_in_order;
          1
      | Internal nd ->
          if nd.kn < 2 && not is_root then bad "internal node with %d kids" nd.kn;
          if is_root && nd.kn < 2 then bad "internal root with %d kids" nd.kn;
          if (not is_root) && nd.kn - 1 < min_internal_keys t then
            bad "internal underfull: %d keys" (nd.kn - 1);
          if nd.kn > t.order + 1 then bad "internal overfull: %d kids" nd.kn;
          for i = 0 to nd.kn - 2 do
            if i > 0 && K.compare nd.ikeys.(i - 1) nd.ikeys.(i) >= 0 then
              bad "separators out of order at %d" i;
            if not (in_bounds nd.ikeys.(i)) then
              bad "separator %s violates parent bounds"
                (K.to_string nd.ikeys.(i))
          done;
          let depth = ref 0 in
          for i = 0 to nd.kn - 1 do
            let child_lo = if i = 0 then lo else Some nd.ikeys.(i - 1) in
            let child_hi = if i = nd.kn - 1 then hi else Some nd.ikeys.(i) in
            let d = check nd.kids.(i) ~is_root:false ~lo:child_lo ~hi:child_hi in
            if i = 0 then depth := d
            else if d <> !depth then bad "non-uniform leaf depth"
          done;
          1 + !depth
    in
    match t.root with
    | None -> if t.count = 0 then Ok () else fail "empty tree with count %d" t.count
    | Some root -> (
        try
          let _ = check root ~is_root:true ~lo:None ~hi:None in
          if !seen <> t.count then bad "count mismatch: %d vs %d" !seen t.count;
          (* The scan stack must enumerate exactly the in-order leaves. *)
          let in_order = List.rev !leaves_in_order in
          let rec walk (l, path) acc =
            match next_leaf path with
            | None -> List.rev (l :: acc)
            | Some next -> walk next (l :: acc)
          in
          let scanned = walk (leftmost root []) [] in
          if List.length scanned <> List.length in_order then
            bad "scan visits %d leaves, tree has %d" (List.length scanned)
              (List.length in_order);
          List.iter2
            (fun a b -> if a != b then bad "scan leaf order mismatch")
            scanned in_order;
          Ok ()
        with Bad msg -> Error msg)
end

module Int_key = struct
  type t = int

  let compare = Int.compare
  let to_string = string_of_int
  let size_bytes _ = 8
end

module Int_pair_key = struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2

  let to_string (a, b) = Printf.sprintf "(%d,%d)" a b
  let size_bytes _ = 16
end

module Float_pair_key = struct
  type t = float * int

  (* NaN sorts after every number so that range scans over real values
     never trip over it. *)
  let compare_float a b =
    match (Float.is_nan a, Float.is_nan b) with
    | true, true -> 0
    | true, false -> 1
    | false, true -> -1
    | false, false -> Float.compare a b

  let compare (a1, b1) (a2, b2) =
    let c = compare_float a1 a2 in
    if c <> 0 then c else Int.compare b1 b2

  let to_string (a, b) = Printf.sprintf "(%g,%d)" a b
  let size_bytes _ = 16
end

module String_key = struct
  type t = string

  let compare = String.compare
  let to_string s = s
  let size_bytes s = 24 + String.length s (* header + payload *)
end

module Bytes_key = struct
  type t = string

  (* Order-preserving encoded byte strings ([Encoding]); the key order
     IS the byte order, so comparisons are flat memcmp. *)
  let compare = String.compare
  let to_string = String.escaped
  let size_bytes s = String.length s
end

module Bytes = Make (Bytes_key)
