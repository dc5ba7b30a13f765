(* Just enough JSON to print the result line and the result file. *)

type t = Num of float | Int of int | Str of string | Bool of bool | Obj of (string * t) list | Arr of t list

let quote b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Num f ->
      if Float.is_finite f then begin
        (* the shortest of %.15g / %.17g that reads back as [f] *)
        let short = Printf.sprintf "%.15g" f in
        Buffer.add_string b
          (if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f)
      end
      else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> quote b s
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          quote b k;
          Buffer.add_string b ": ";
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'
  | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        vs;
      Buffer.add_char b ']'

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b
