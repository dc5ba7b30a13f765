(* Paged, Bigarray-backed off-heap vectors with owner-token
   copy-on-write.

   A vector is a small top array of directories. Directory [d] is an
   array of page references; each page is a fixed-size Bigarray slab
   outside the OCaml heap. The heap holds only the top array and the
   directories, so the GC cost of a column is independent of its length,
   and a read is one load more than a flat page table: directory, page,
   element.

   Copy-on-write uses the owner tokens of [Btree]: the vector carries a
   token, each directory and each page slot records the token of the
   vector that made it, and a vector writes only into directories and
   pages carrying its current token. [snapshot] hands both sides fresh
   tokens and copies the top array, so neither owns anything the other
   can reach; the first write on either side into a page copies that
   page and its directory, nothing else. A token is a fresh [ref ()]
   compared with [==]. A page slot can only hold a vector's current
   token after the vector copied the directory holding the slot, so one
   comparison on the page slot proves both are owned.

   Determinism (see the .mli): every table is exact-size — ceil(len /
   page) pages, the last directory only as long as its pages — and fresh
   pages are zero-filled, so two vectors with the same history marshal
   to the same bytes. *)

(* Int/float pages hold 2^8 elements (2 KiB); byte pages hold as many
   bytes. Directories hold 2^6 pages. Both chosen by measurement on the
   commit-after-publication path (DESIGN.md "Paged copy-on-write
   columns"). *)
let page_log = ref 8
let dir_log = ref 6

let chunk_log () = !page_log

let with_chunk_log_for_testing log f =
  if log < 4 || log > 22 then invalid_arg "Bigvec.with_chunk_log_for_testing";
  let saved = (!page_log, !dir_log) in
  page_log := log;
  dir_log := log;
  Fun.protect
    ~finally:(fun () ->
      page_log := fst saved;
      dir_log := snd saved)
    f

let cow_page_count = Atomic.make 0
let cow_byte_count = Atomic.make 0
let cow_pages () = Atomic.get cow_page_count
let cow_bytes () = Atomic.get cow_byte_count

type owner = unit ref

module type ELT = sig
  type elt
  type repr

  val kind : (elt, repr) Bigarray.kind
  val zero : elt
  val elt_log : int (* log2 of the bytes per element *)
end

module Make (E : ELT) = struct
  type page = (E.elt, E.repr, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable own : owner;
    mutable dirs : page array array; (* [dirs.(d).(p)] *)
    mutable dir_own : owner array; (* token that made [dirs.(d)] *)
    mutable page_own : owner array array; (* token that made each page *)
    mutable len : int;
    mutable tail : page; (* owned page holding index [len] ... *)
    mutable tail_end : int; (* ... while [len < tail_end] *)
    plog : int; (* 2^plog elements per page, fixed at creation *)
    dlog : int; (* 2^dlog pages per directory *)
  }

  let no_page : page = Bigarray.Array1.create E.kind Bigarray.c_layout 0

  let create ?capacity:_ () =
    {
      own = ref ();
      dirs = [||];
      dir_own = [||];
      page_own = [||];
      len = 0;
      tail = no_page;
      tail_end = 0;
      plog = !page_log + 3 - E.elt_log;
      dlog = !dir_log;
    }

  let length t = t.len

  let new_page t : page =
    Bigarray.Array1.create E.kind Bigarray.c_layout (1 lsl t.plog)

  let bump pages bytes =
    ignore (Atomic.fetch_and_add cow_page_count pages : int);
    ignore (Atomic.fetch_and_add cow_byte_count bytes : int)

  (* Page [p] of directory [d], made writable. One token comparison
     when it is owned; otherwise copy the directory (page references and
     their tokens) unless it is owned already, then clone the page. *)
  let page_mut t d p =
    if t.page_own.(d).(p) == t.own then t.dirs.(d).(p)
    else begin
      if t.dir_own.(d) != t.own then begin
        t.dirs.(d) <- Array.copy t.dirs.(d);
        t.page_own.(d) <- Array.copy t.page_own.(d);
        t.dir_own.(d) <- t.own;
        bump 0 (2 * 8 * Array.length t.dirs.(d))
      end;
      let pg = new_page t in
      Bigarray.Array1.blit t.dirs.(d).(p) pg;
      t.dirs.(d).(p) <- pg;
      t.page_own.(d).(p) <- t.own;
      bump 1 (1 lsl (t.plog + E.elt_log));
      pg
    end

  (* Make the page holding index [len] writable and cache it as [tail]:
     appends then write straight into it until [tail_end]. A page
     boundary at [len] means the page does not exist yet (tables are
     exact-size), so a zero-filled one is appended — to a new directory
     when the last one is full. *)
  let refill_tail t =
    let i = t.len in
    let d = i lsr (t.plog + t.dlog) and p = (i lsr t.plog) land ((1 lsl t.dlog) - 1) in
    let pg =
      if i land ((1 lsl t.plog) - 1) <> 0 then page_mut t d p
      else begin
        let pg = new_page t in
        Bigarray.Array1.fill pg E.zero;
        if p = 0 then begin
          t.dirs <- Array.append t.dirs [| [| pg |] |];
          t.page_own <- Array.append t.page_own [| [| t.own |] |];
          t.dir_own <- Array.append t.dir_own [| t.own |]
        end
        else begin
          (* the appended arrays are fresh, so the directory is owned *)
          t.dirs.(d) <- Array.append t.dirs.(d) [| pg |];
          t.page_own.(d) <- Array.append t.page_own.(d) [| t.own |];
          t.dir_own.(d) <- t.own
        end;
        pg
      end
    in
    t.tail <- pg;
    t.tail_end <- (i lor ((1 lsl t.plog) - 1)) + 1

  let snapshot t =
    let s =
      {
        t with
        own = ref ();
        dirs = Array.copy t.dirs;
        dir_own = Array.copy t.dir_own;
        page_own = Array.copy t.page_own;
        tail = no_page;
        tail_end = 0;
      }
    in
    t.own <- ref ();
    t.tail <- no_page;
    t.tail_end <- 0;
    s

  let out_of_bounds what i t =
    invalid_arg (Printf.sprintf "Bigvec.%s: index %d out of [0,%d)" what i t.len)

  (* The page holding index [i], made writable. *)
  let writable_page t i =
    if i < 0 || i >= t.len then out_of_bounds "set" i t;
    page_mut t (i lsr (t.plog + t.dlog)) ((i lsr t.plog) land ((1 lsl t.dlog) - 1))

  let memory_bytes t =
    Array.fold_left (fun acc dir -> acc + Array.length dir) 0 t.dirs
    lsl (t.plog + E.elt_log)
end

(* Element access is written once per element type below, not in the
   functor: inside it the Bigarray kind is abstract, so element access
   would compile to a C call; at a concrete kind it is an inline
   load/store. Each type repeats the same three shapes: [get] (bounds
   check, directory, page, element), [set] (a store into
   [writable_page]) and [push] (a store into the cached tail page); the
   page-at-a-time bulk loops are written for the types that need
   them. *)

module Int = struct
  include Make (struct
    type elt = int
    type repr = Bigarray.int_elt

    let kind = Bigarray.int
    let zero = 0
    let elt_log = 3
  end)

  let get t i =
    if i < 0 || i >= t.len then out_of_bounds "get" i t;
    Bigarray.Array1.unsafe_get
      (Array.unsafe_get
         (Array.unsafe_get t.dirs (i lsr (t.plog + t.dlog)))
         ((i lsr t.plog) land ((1 lsl t.dlog) - 1)))
      (i land ((1 lsl t.plog) - 1))

  let set t i v =
    Bigarray.Array1.unsafe_set (writable_page t i) (i land ((1 lsl t.plog) - 1)) v

  let push t v =
    let i = t.len in
    if i >= t.tail_end then refill_tail t;
    Bigarray.Array1.unsafe_set t.tail (i land ((1 lsl t.plog) - 1)) v;
    t.len <- i + 1

  let init n f =
    let t = create () in
    while t.len < n do
      if t.len >= t.tail_end then refill_tail t;
      let stop = Stdlib.Int.min n t.tail_end and pg = t.tail and mask = (1 lsl t.plog) - 1 in
      for i = t.len to stop - 1 do
        Bigarray.Array1.unsafe_set pg (i land mask) (f i)
      done;
      t.len <- stop
    done;
    t

  let iteri f t =
    let i = ref 0 in
    while !i < t.len do
      let pg = t.dirs.(!i lsr (t.plog + t.dlog)).((!i lsr t.plog) land ((1 lsl t.dlog) - 1)) in
      let stop = Stdlib.Int.min t.len (!i + (1 lsl t.plog)) and base = !i in
      for j = base to stop - 1 do
        f j (Bigarray.Array1.unsafe_get pg (j - base))
      done;
      i := stop
    done

  let fold_left f init t =
    let acc = ref init in
    iteri (fun _ v -> acc := f !acc v) t;
    !acc

  let to_array t =
    let a = Array.make t.len 0 in
    iteri (fun i v -> Array.unsafe_set a i v) t;
    a

  let of_array a = init (Array.length a) (Array.get a)
end

module Float = struct
  include Make (struct
    type elt = float
    type repr = Bigarray.float64_elt

    let kind = Bigarray.float64
    let zero = 0.0
    let elt_log = 3
  end)

  let get t i =
    if i < 0 || i >= t.len then out_of_bounds "get" i t;
    Bigarray.Array1.unsafe_get
      (Array.unsafe_get
         (Array.unsafe_get t.dirs (i lsr (t.plog + t.dlog)))
         ((i lsr t.plog) land ((1 lsl t.dlog) - 1)))
      (i land ((1 lsl t.plog) - 1))

  let set t i v =
    Bigarray.Array1.unsafe_set (writable_page t i) (i land ((1 lsl t.plog) - 1)) v

  let push t v =
    let i = t.len in
    if i >= t.tail_end then refill_tail t;
    Bigarray.Array1.unsafe_set t.tail (i land ((1 lsl t.plog) - 1)) v;
    t.len <- i + 1
end

module Byte = struct
  include Make (struct
    type elt = char
    type repr = Bigarray.int8_unsigned_elt

    let kind = Bigarray.char
    let zero = '\000'
    let elt_log = 0
  end)

  let get t i =
    if i < 0 || i >= t.len then out_of_bounds "get" i t;
    Bigarray.Array1.unsafe_get
      (Array.unsafe_get
         (Array.unsafe_get t.dirs (i lsr (t.plog + t.dlog)))
         ((i lsr t.plog) land ((1 lsl t.dlog) - 1)))
      (i land ((1 lsl t.plog) - 1))

  let set t i v =
    Bigarray.Array1.unsafe_set (writable_page t i) (i land ((1 lsl t.plog) - 1)) v

  let push t v =
    let i = t.len in
    if i >= t.tail_end then refill_tail t;
    Bigarray.Array1.unsafe_set t.tail (i land ((1 lsl t.plog) - 1)) v;
    t.len <- i + 1

  (* The stdlib has no string <-> Bigarray blit, so each page's run is
     one unchecked copy loop; bounds and ownership are settled once per
     page. *)
  let append_substring t s off len =
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Bigvec.Byte.append_substring";
    let start = t.len in
    let stop = start + len in
    while t.len < stop do
      if t.len >= t.tail_end then refill_tail t;
      let upto = Stdlib.Int.min stop t.tail_end and pg = t.tail and mask = (1 lsl t.plog) - 1 in
      let delta = off - start in
      for i = t.len to upto - 1 do
        Bigarray.Array1.unsafe_set pg (i land mask) (String.unsafe_get s (i + delta))
      done;
      t.len <- upto
    done;
    start

  let append_string t s = append_substring t s 0 (String.length s)

  let sub_string t off len =
    if off < 0 || len < 0 || off > t.len - len then
      invalid_arg
        (Printf.sprintf "Bigvec.Byte.sub_string: [%d,%d) out of [0,%d)" off
           (off + len) t.len);
    let b = Bytes.create len in
    let i = ref off and stop = off + len in
    while !i < stop do
      let pg = t.dirs.(!i lsr (t.plog + t.dlog)).((!i lsr t.plog) land ((1 lsl t.dlog) - 1)) in
      let base = !i land lnot ((1 lsl t.plog) - 1) in
      let upto = Stdlib.Int.min stop (base + (1 lsl t.plog)) in
      for j = !i to upto - 1 do
        Bytes.unsafe_set b (j - off) (Bigarray.Array1.unsafe_get pg (j - base))
      done;
      i := upto
    done;
    Bytes.unsafe_to_string b
end
