(* Chunked, Bigarray-backed off-heap vectors.

   Chunks are fixed-size Bigarray.Array1 slabs outside the OCaml heap;
   the heap only holds the (small) chunk table, so the GC cost of a
   column is independent of its length. Snapshots share chunks and mark
   them in a per-vector flag bitmap; the first write into a shared chunk
   clones just that chunk.

   Determinism (see the .mli): the chunk table is always exactly
   [max 1 (ceil len / chunk)] entries, fresh chunks are zero-filled, and
   flags are canonical (all-shared on snapshot products, all-owned on
   fresh vectors), so marshalling is a pure function of logical state. *)

let default_chunk_log = ref 12

let chunk_log () = !default_chunk_log

let with_chunk_log_for_testing log f =
  if log < 4 || log > 22 then invalid_arg "Bigvec.with_chunk_log_for_testing";
  let saved = !default_chunk_log in
  default_chunk_log := log;
  Fun.protect ~finally:(fun () -> default_chunk_log := saved) f

module type ELT = sig
  type elt
  type repr

  val kind : (elt, repr) Bigarray.kind
  val zero : elt
  val bytes_per_elt : int
end

module Make (E : ELT) = struct
  type chunk = (E.elt, E.repr, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable chunks : chunk array; (* exact-size table, never any slack *)
    mutable len : int;
    mutable shared : Bytes.t; (* one byte per chunk; '\001' = shared *)
    log : int; (* chunk size is [1 lsl log] elements, fixed at creation *)
  }

  let fresh_chunk log =
    let c = Bigarray.Array1.create E.kind Bigarray.c_layout (1 lsl log) in
    (* Array1.create leaves the memory uninitialised; zero it so bytes
       past [len] are deterministic. *)
    Bigarray.Array1.fill c E.zero;
    c

  let create ?capacity:_ () =
    let log = !default_chunk_log in
    { chunks = [| fresh_chunk log |]; len = 0; shared = Bytes.make 1 '\000'; log }

  let length t = t.len

  (* Clone chunk [c] if a snapshot still references it. *)
  let own t c =
    if Bytes.get t.shared c <> '\000' then begin
      let copy = fresh_chunk t.log in
      Bigarray.Array1.blit t.chunks.(c) copy;
      t.chunks.(c) <- copy;
      Bytes.set t.shared c '\000'
    end

  let push t v =
    let csize = 1 lsl t.log in
    if t.len = Array.length t.chunks * csize then begin
      (* Array.append keeps the table exact-size; tables are tiny
         (len / 2^log entries) so O(chunks) growth is fine. *)
      t.chunks <- Array.append t.chunks [| fresh_chunk t.log |];
      t.shared <- Bytes.cat t.shared (Bytes.make 1 '\000')
    end;
    let i = t.len in
    let c = i lsr t.log in
    own t c;
    Bigarray.Array1.unsafe_set t.chunks.(c) (i land (csize - 1)) v;
    t.len <- i + 1

  let snapshot t =
    let n = Array.length t.chunks in
    Bytes.fill t.shared 0 n '\001';
    { chunks = Array.copy t.chunks; len = t.len; shared = Bytes.make n '\001'; log = t.log }

  let memory_bytes t = Array.length t.chunks * (1 lsl t.log) * E.bytes_per_elt
end

(* [get]/[set] are written once per element type below, not in the
   functor: inside it the Bigarray kind is abstract, so element access
   would compile to a C call; at a concrete kind it is an inline
   load/store. *)

module Int = struct
  include Make (struct
    type elt = int
    type repr = Bigarray.int_elt

    let kind = Bigarray.int
    let zero = 0
    let bytes_per_elt = 8
  end)

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Bigvec.get: index %d out of [0,%d)" i t.len);
    Bigarray.Array1.unsafe_get t.chunks.(i lsr t.log) (i land ((1 lsl t.log) - 1))

  let set t i v =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Bigvec.set: index %d out of [0,%d)" i t.len);
    let c = i lsr t.log in
    own t c;
    Bigarray.Array1.unsafe_set t.chunks.(c) (i land ((1 lsl t.log) - 1)) v

  let iteri f t =
    for i = 0 to length t - 1 do
      f i (get t i)
    done

  let fold_left f init t =
    let acc = ref init in
    for i = 0 to length t - 1 do
      acc := f !acc (get t i)
    done;
    !acc

  let to_array t = Array.init (length t) (get t)

  let of_array a =
    let t = create () in
    Array.iter (push t) a;
    t
end

module Float = struct
  include Make (struct
    type elt = float
    type repr = Bigarray.float64_elt

    let kind = Bigarray.float64
    let zero = 0.0
    let bytes_per_elt = 8
  end)

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Bigvec.get: index %d out of [0,%d)" i t.len);
    Bigarray.Array1.unsafe_get t.chunks.(i lsr t.log) (i land ((1 lsl t.log) - 1))

  let set t i v =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Bigvec.set: index %d out of [0,%d)" i t.len);
    let c = i lsr t.log in
    own t c;
    Bigarray.Array1.unsafe_set t.chunks.(c) (i land ((1 lsl t.log) - 1)) v
end

module Byte = struct
  include Make (struct
    type elt = char
    type repr = Bigarray.int8_unsigned_elt

    let kind = Bigarray.char
    let zero = '\000'
    let bytes_per_elt = 1
  end)

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Bigvec.get: index %d out of [0,%d)" i t.len);
    Bigarray.Array1.unsafe_get t.chunks.(i lsr t.log) (i land ((1 lsl t.log) - 1))

  let set t i v =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Bigvec.set: index %d out of [0,%d)" i t.len);
    let c = i lsr t.log in
    own t c;
    Bigarray.Array1.unsafe_set t.chunks.(c) (i land ((1 lsl t.log) - 1)) v

  let append_string t s =
    let off = length t in
    String.iter (push t) s;
    off

  let sub_string t off len =
    if off < 0 || len < 0 || off + len > length t then
      invalid_arg
        (Printf.sprintf "Bigvec.Byte.sub_string: [%d,%d) out of [0,%d)" off
           (off + len) (length t));
    String.init len (fun i -> get t (off + i))
end
