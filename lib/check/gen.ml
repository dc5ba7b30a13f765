module Prng = Xvi_util.Prng
module Serializer = Xvi_xml.Serializer

type op =
  | Update_text of int * string
  | Update_texts of (int * string) list
  | Delete_subtree of int
  | Insert_xml of int * string
  | Insert_rejected of int * string
  | Compact
  | Snapshot_roundtrip
  | Txn of txn_script

and txn_script = {
  writes_a : (int * string) list;
  writes_b : (int * string) list;
  abort_a : bool;
  abort_b : bool;
}

let names =
  [| "item"; "price"; "name"; "age"; "decades"; "years"; "note"; "entry";
     "v"; "w"; "person"; "weight" |]

let attr_names = [| "id"; "key"; "ts"; "unit"; "lang" |]

let vocab =
  [| "alpha"; "beta"; "gamma"; "Arthur"; "Dent"; "value"; "index"; "tree";
     "xml"; "green" |]

let number rng =
  match Prng.int rng 10 with
  | 0 -> string_of_int (Prng.int rng 1000)
  | 1 -> Printf.sprintf "-%d" (Prng.int rng 100)
  | 2 -> Printf.sprintf "%d.%d" (Prng.int rng 100) (Prng.int rng 1000)
  | 3 -> Printf.sprintf "%d.%dE%d" (Prng.int rng 10) (Prng.int rng 100)
           (Prng.in_range rng (-5) 5)
  | 4 -> "-0"
  | 5 -> "0"
  | 6 -> "42"
  | 7 -> "." (* viable double fragment, never a complete value *)
  | 8 -> Printf.sprintf "%d." (Prng.int rng 50)
  | _ -> Printf.sprintf ".%d" (Prng.int rng 50)

let datetime rng =
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d%s"
    (1970 + Prng.int rng 80)
    (1 + Prng.int rng 12)
    (1 + Prng.int rng 28)
    (Prng.int rng 24) (Prng.int rng 60) (Prng.int rng 60)
    (match Prng.int rng 4 with
    | 0 -> "Z"
    | 1 -> Printf.sprintf "+%02d:00" (Prng.int rng 13)
    | 2 -> Printf.sprintf "-%02d:30" (Prng.int rng 13)
    | _ -> "")

let words rng =
  String.concat " "
    (List.init (1 + Prng.int rng 3) (fun _ -> Prng.choose rng vocab))

(* Shaped like a number or datetime but not one — exercises the
   accepting-state-but-unparseable corner of the typed indices. *)
let junk rng =
  Prng.choose rng
    [| "12a"; "1.2.3"; "--5"; "2009-13-45T99:00:00Z"; "+"; "E5"; "1E"; " 7 x" |]

let value rng =
  Prng.choose_weighted rng
    [|
      (4, `Number); (3, `Words); (2, `Datetime); (2, `Junk); (1, `Empty);
    |]
  |> function
  | `Number -> number rng
  | `Words -> words rng
  | `Datetime -> datetime rng
  | `Junk -> junk rng
  | `Empty -> ""

(* --- documents --- *)

let add_attrs buf rng =
  let k = Prng.int rng 3 in
  let used = ref [] in
  for _ = 1 to k do
    let a = Prng.choose rng attr_names in
    if not (List.mem a !used) then begin
      used := a :: !used;
      Buffer.add_string buf
        (Printf.sprintf " %s=\"%s\"" a (Serializer.escape_attr (value rng)))
    end
  done

let rec element buf rng depth =
  let name = Prng.choose rng names in
  Buffer.add_char buf '<';
  Buffer.add_string buf name;
  add_attrs buf rng;
  if depth >= 4 || Prng.int rng 5 = 0 then Buffer.add_string buf "/>"
  else begin
    Buffer.add_char buf '>';
    let kids = Prng.int rng 4 in
    for _ = 0 to kids do
      match Prng.int rng 10 with
      | 0 | 1 | 2 | 3 -> element buf rng (depth + 1)
      | 4 | 5 | 6 | 7 ->
          Buffer.add_string buf (Serializer.escape_text (value rng))
      | 8 -> Buffer.add_string buf "<!-- noise -->"
      | _ -> Buffer.add_string buf "<?pi data?>"
    done;
    Buffer.add_string buf "</";
    Buffer.add_string buf name;
    Buffer.add_char buf '>'
  end

let document rng =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "<doc>";
  for _ = 0 to 1 + Prng.int rng 5 do
    element buf rng 1
  done;
  Buffer.add_string buf "</doc>";
  Buffer.contents buf

let fragment rng =
  let buf = Buffer.create 64 in
  for _ = 0 to Prng.int rng 2 do
    if Prng.int rng 4 = 0 then
      Buffer.add_string buf (Serializer.escape_text (value rng))
    else element buf rng 3
  done;
  if Buffer.length buf = 0 then element buf rng 3;
  Buffer.contents buf

(* A fragment every insert must reject: a well-formed one cut short
   inside its last element (the outer element never closes), or one
   followed by a stray end tag or an unknown entity. *)
let bad_fragment rng =
  let buf = Buffer.create 64 in
  if Prng.int rng 2 = 0 then Buffer.add_string buf (fragment rng);
  let tail = Buffer.length buf in
  element buf rng 3;
  let whole = Buffer.contents buf in
  match Prng.int rng 4 with
  | 0 -> whole ^ "</" ^ Prng.choose rng names ^ ">"
  | 1 -> whole ^ "&bogus;"
  | _ ->
      String.sub whole 0
        (tail + 1 + Prng.int rng (String.length whole - tail - 1))

(* --- operations --- *)

let selector rng = Prng.int rng 1_000_000

let writes rng =
  List.init (1 + Prng.int rng 4) (fun _ -> (selector rng, value rng))

let op rng =
  match
    Prng.choose_weighted rng
      [|
        (28, `Update); (14, `Batch); (14, `Txn); (14, `Insert); (10, `Delete);
        (4, `Compact); (4, `Snapshot);
      |]
  with
  | `Update -> Update_text (selector rng, value rng)
  | `Batch -> Update_texts (writes rng)
  | `Txn ->
      Txn
        {
          writes_a = writes rng;
          writes_b = writes rng;
          abort_a = Prng.int rng 5 = 0;
          abort_b = Prng.int rng 5 = 0;
        }
  | `Insert ->
      let k = selector rng in
      if Prng.int rng 10 = 0 then Insert_rejected (k, bad_fragment rng)
      else Insert_xml (k, fragment rng)
  | `Delete -> Delete_subtree (selector rng)
  | `Compact -> Compact
  | `Snapshot -> Snapshot_roundtrip

(* --- predicate-IR trees (the query-planner differential) --- *)

type ir_spec =
  | S_eq of string
  | S_range of string * float option * float option
  | S_contains of string
  | S_el_contains of string
  | S_named of string
  | S_within of int * ir_spec
  | S_and of ir_spec list
  | S_or of ir_spec list
  | S_not of ir_spec

let pattern rng =
  let w = Prng.choose rng vocab in
  String.sub w 0 (1 + Prng.int rng (String.length w))

let bound rng =
  match Prng.int rng 4 with
  | 0 -> None
  | 1 -> Some (float_of_int (Prng.in_range rng (-100) 1000))
  | 2 -> Some (float_of_int (Prng.int rng 800) /. 8.)
  | _ -> Some (float_of_int (Prng.int rng 50))

(* xs:double and xs:dateTime are indexed under the harness config;
   xs:integer and xs:decimal are known types without an index, so a
   range over them must route through the planner's verified-scan
   fallback and still agree with the oracle. *)
let range_types =
  [| "xs:double"; "xs:double"; "xs:double"; "xs:dateTime"; "xs:integer";
     "xs:decimal" |]

let ir_leaf rng =
  match Prng.int rng 7 with
  | 0 | 1 -> S_eq (value rng)
  | 2 -> S_eq (Prng.choose rng vocab)
  | 3 -> S_range (Prng.choose rng range_types, bound rng, bound rng)
  | 4 -> S_contains (pattern rng)
  | 5 -> S_el_contains (pattern rng)
  | _ -> S_named (Prng.choose rng names)

let rec ir_node rng depth =
  if depth <= 0 then ir_leaf rng
  else
    match Prng.int rng 8 with
    | 0 | 1 ->
        S_and (List.init (2 + Prng.int rng 2) (fun _ -> ir_node rng (depth - 1)))
    | 2 | 3 ->
        S_or (List.init (2 + Prng.int rng 2) (fun _ -> ir_node rng (depth - 1)))
    | 4 -> S_not (ir_node rng (depth - 1))
    | 5 -> S_within (selector rng, ir_node rng (depth - 1))
    | _ -> ir_leaf rng

let ir rng = ir_node rng 3

(* --- trace printing --- *)

let writes_to_ocaml ws =
  "[ "
  ^ String.concat "; "
      (List.map (fun (k, v) -> Printf.sprintf "(%d, %S)" k v) ws)
  ^ " ]"

let op_to_ocaml = function
  | Update_text (k, v) -> Printf.sprintf "Update_text (%d, %S)" k v
  | Update_texts ws -> Printf.sprintf "Update_texts %s" (writes_to_ocaml ws)
  | Delete_subtree k -> Printf.sprintf "Delete_subtree %d" k
  | Insert_xml (k, frag) -> Printf.sprintf "Insert_xml (%d, %S)" k frag
  | Insert_rejected (k, frag) ->
      Printf.sprintf "Insert_rejected (%d, %S)" k frag
  | Compact -> "Compact"
  | Snapshot_roundtrip -> "Snapshot_roundtrip"
  | Txn { writes_a; writes_b; abort_a; abort_b } ->
      Printf.sprintf
        "Txn { writes_a = %s; writes_b = %s; abort_a = %b; abort_b = %b }"
        (writes_to_ocaml writes_a) (writes_to_ocaml writes_b) abort_a abort_b
