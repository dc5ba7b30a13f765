exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

module Sink = struct
  type t = {
    buf : Bytes.t;
    mutable pos : int;
    flush : Bytes.t -> int -> int -> unit;
  }

  let create flush = { buf = Bytes.create 65536; pos = 0; flush }

  let drain t =
    if t.pos > 0 then begin
      t.flush t.buf 0 t.pos;
      t.pos <- 0
    end

  (* room for [k] more bytes; [k] is at most 9 *)
  let reserve t k = if t.pos + k > Bytes.length t.buf then drain t

  let byte t b =
    reserve t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (b land 0xff));
    t.pos <- t.pos + 1

  let varint t v =
    if v < 0 then invalid_arg "Codec.Sink.varint: negative";
    reserve t 9;
    let rec go v =
      if v < 0x80 then begin
        Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr v);
        t.pos <- t.pos + 1
      end
      else begin
        Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0x7f lor 0x80));
        t.pos <- t.pos + 1;
        go (v lsr 7)
      end
    in
    go v

  (* [v asr 62] is 0 or -1 for a 63-bit int: the sign spread over every
     bit, so negative values map to odd codes *)
  let zigzag t v = varint t ((v lsl 1) lxor (v asr 62))

  let bytes t s off len =
    if len <= Bytes.length t.buf - t.pos then begin
      Bytes.blit_string s off t.buf t.pos len;
      t.pos <- t.pos + len
    end
    else begin
      drain t;
      t.flush (Bytes.unsafe_of_string s) off len
    end

  let string t s =
    varint t (String.length s);
    bytes t s 0 (String.length s)
end

module Source = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }
  let remaining t = String.length t.src - t.pos

  let need t k what =
    if k > remaining t then malformed "truncated %s at byte %d" what t.pos

  let byte t =
    need t 1 "byte";
    let b = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    b

  (* 9 bytes carry 63 bits; the ninth may only add the 6 bits that keep
     the value within [0, max_int]. Top-level and closure-free: this is
     the inner loop of every column decode. *)
  let rec varint_at t acc shift p =
    if p >= String.length t.src then malformed "truncated varint at byte %d" p;
    let b = Char.code (String.unsafe_get t.src p) in
    if shift = 56 && b >= 0x40 then malformed "varint overflow at byte %d" p;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then begin
      t.pos <- p + 1;
      acc
    end
    else varint_at t acc (shift + 7) (p + 1)

  let varint t = varint_at t 0 0 t.pos

  let zigzag t =
    let z = varint t in
    (z lsr 1) lxor -(z land 1)

  let string t =
    let len = varint t in
    need t len "string";
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let raw t len f =
    need t len "bytes";
    let off = t.pos in
    t.pos <- t.pos + len;
    f t.src off len

  let finish t =
    if remaining t <> 0 then malformed "%d trailing bytes" (remaining t)
end
