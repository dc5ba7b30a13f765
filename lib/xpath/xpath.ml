module Store = Xvi_xml.Store
module Db = Xvi_core.Db

(* --- AST --- *)

type axis = Child | Descendant | Attribute | Self

type test = Name of string | Wildcard | Text_node | Any_node

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type literal = Str of string | Num of float

type step = { axis : axis; test : test; preds : pred list }

and pred =
  | Exists of step list
  | Compare of operand * cmp * literal
  | Contains of operand * string
  | And of pred * pred
  | Or of pred * pred

and operand = { data : bool (* wrapped in fn:data(...) *); rel : step list }

type t = step list (* absolute path from the document node *)

type error = { pos : int; message : string }

(* --- Parser --- *)

exception Err of error

type lexer = { src : string; mutable pos : int }

let fail lx fmt =
  Printf.ksprintf (fun message -> raise (Err { pos = lx.pos; message })) fmt

let peek_char lx =
  if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let skip_ws lx =
  while
    lx.pos < String.length lx.src
    && (match lx.src.[lx.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    lx.pos <- lx.pos + 1
  done

let looking_at lx s =
  let n = String.length s in
  lx.pos + n <= String.length lx.src && String.sub lx.src lx.pos n = s

let eat lx s =
  if looking_at lx s then begin
    lx.pos <- lx.pos + String.length s;
    true
  end
  else false

let expect lx s = if not (eat lx s) then fail lx "expected %S" s

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let parse_name lx =
  match peek_char lx with
  | Some c when is_name_start c ->
      let start = lx.pos in
      while
        lx.pos < String.length lx.src && is_name_char lx.src.[lx.pos]
      do
        lx.pos <- lx.pos + 1
      done;
      String.sub lx.src start (lx.pos - start)
  | _ -> fail lx "expected a name"

let parse_string_literal lx quote =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | None -> fail lx "unterminated string literal"
    | Some c when c = quote ->
        lx.pos <- lx.pos + 1;
        Buffer.contents buf
    | Some c ->
        Buffer.add_char buf c;
        lx.pos <- lx.pos + 1;
        go ()
  in
  lx.pos <- lx.pos + 1;
  go ()

let parse_number lx =
  let start = lx.pos in
  let digits () =
    while
      lx.pos < String.length lx.src
      && lx.src.[lx.pos] >= '0'
      && lx.src.[lx.pos] <= '9'
    do
      lx.pos <- lx.pos + 1
    done
  in
  if eat lx "-" then ();
  digits ();
  if eat lx "." then digits ();
  if eat lx "e" || eat lx "E" then begin
    ignore (eat lx "-" || eat lx "+" : bool);
    digits ()
  end;
  if lx.pos = start then fail lx "expected a number";
  match float_of_string_opt (String.sub lx.src start (lx.pos - start)) with
  | Some v -> v
  | None -> fail lx "malformed number"

(* Steps of a relative path. [initial_axis] is the axis implied by what
   preceded ("//" vs "/" vs nothing). *)
let rec parse_steps lx ~first_axis =
  let step = parse_step lx ~axis:first_axis in
  if eat lx "//" then step :: parse_steps lx ~first_axis:Descendant
  else if eat lx "/" then step :: parse_steps lx ~first_axis:Child
  else [ step ]

and parse_step lx ~axis =
  skip_ws lx;
  if eat lx "@" then
    let test = if eat lx "*" then Wildcard else Name (parse_name lx) in
    let preds = parse_predicates lx in
    { axis = Attribute; test; preds }
  else if eat lx "." then { axis = Self; test = Any_node; preds = parse_predicates lx }
  else if eat lx "*" then { axis; test = Wildcard; preds = parse_predicates lx }
  else begin
    let name = parse_name lx in
    let test =
      if eat lx "()" then
        match name with
        | "text" -> Text_node
        | "node" -> Any_node
        | other -> fail lx "unknown node test %s()" other
      else Name name
    in
    { axis; test; preds = parse_predicates lx }
  end

and parse_predicates lx =
  skip_ws lx;
  if eat lx "[" then begin
    let p = parse_or lx in
    skip_ws lx;
    expect lx "]";
    p :: parse_predicates lx
  end
  else []

and parse_or lx =
  let left = parse_and lx in
  skip_ws lx;
  if looking_at lx "or " || looking_at lx "or]" then begin
    ignore (eat lx "or" : bool);
    Or (left, parse_or lx)
  end
  else left

and parse_and lx =
  let left = parse_atom lx in
  skip_ws lx;
  if looking_at lx "and " then begin
    ignore (eat lx "and" : bool);
    And (left, parse_and lx)
  end
  else left

and parse_atom lx =
  skip_ws lx;
  if looking_at lx "contains(" || looking_at lx "fn:contains(" then begin
    ignore (eat lx "fn:contains(" || eat lx "contains(" : bool);
    let rel = parse_rel_path lx in
    skip_ws lx;
    expect lx ",";
    skip_ws lx;
    let pattern =
      match peek_char lx with
      | Some ('"' as q) | Some ('\'' as q) -> parse_string_literal lx q
      | _ -> fail lx "contains() expects a string literal"
    in
    skip_ws lx;
    expect lx ")";
    Contains ({ data = false; rel }, pattern)
  end
  else begin
  let operand = parse_operand lx in
  skip_ws lx;
  let cmp =
    if eat lx "!=" then Some Neq
    else if eat lx "<=" then Some Le
    else if eat lx ">=" then Some Ge
    else if eat lx "=" then Some Eq
    else if eat lx "<" then Some Lt
    else if eat lx ">" then Some Gt
    else None
  in
  match cmp with
  | None -> Exists operand.rel
  | Some cmp ->
      skip_ws lx;
      let lit =
        match peek_char lx with
        | Some ('"' as q) | Some ('\'' as q) -> Str (parse_string_literal lx q)
        | Some c when c = '-' || c = '.' || (c >= '0' && c <= '9') ->
            Num (parse_number lx)
        | _ -> fail lx "expected a literal"
      in
      Compare (operand, cmp, lit)
  end

and parse_operand lx =
  if looking_at lx "fn:data(" || looking_at lx "data(" then begin
    ignore (eat lx "fn:data(" || eat lx "data(" : bool);
    let rel = parse_rel_path lx in
    skip_ws lx;
    expect lx ")";
    { data = true; rel }
  end
  else { data = false; rel = parse_rel_path lx }

and parse_rel_path lx =
  skip_ws lx;
  if eat lx ".//" then parse_steps lx ~first_axis:Descendant
  else if eat lx "./" then parse_steps lx ~first_axis:Child
  else if looking_at lx "." then [ parse_step lx ~axis:Self ]
  else if eat lx "//" then parse_steps lx ~first_axis:Descendant
  else parse_steps lx ~first_axis:Child

let parse src =
  let lx = { src; pos = 0 } in
  try
    skip_ws lx;
    let steps =
      if eat lx "//" then parse_steps lx ~first_axis:Descendant
      else if eat lx "/" then parse_steps lx ~first_axis:Child
      else parse_steps lx ~first_axis:Descendant
      (* a bare relative path is evaluated from the root like "//" *)
    in
    skip_ws lx;
    if lx.pos <> String.length src then fail lx "trailing input";
    Ok steps
  with Err e -> Error e

let parse_exn src =
  match parse src with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "XPath error at %d: %s" e.pos e.message)

(* --- Printing --- *)

let axis_prefix = function
  | Child -> "/"
  | Descendant -> "//"
  | Attribute -> "/@"
  | Self -> "/."

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec steps_to_buf buf steps =
  List.iter
    (fun s ->
      Buffer.add_string buf (axis_prefix s.axis);
      (match (s.axis, s.test) with
      | _, Name n -> Buffer.add_string buf n
      | Attribute, Wildcard -> Buffer.add_string buf "*"
      | _, Wildcard -> Buffer.add_string buf "*"
      | _, Text_node -> Buffer.add_string buf "text()"
      | Self, Any_node -> () (* already printed as "." *)
      | _, Any_node -> Buffer.add_string buf "node()");
      List.iter
        (fun p ->
          Buffer.add_char buf '[';
          pred_to_buf buf p;
          Buffer.add_char buf ']')
        s.preds)
    steps

and pred_to_buf buf = function
  | Contains (op, pattern) ->
      Buffer.add_string buf "contains(";
      rel_to_buf buf op.rel;
      Buffer.add_string buf (Printf.sprintf ", %S)" pattern)
  | Exists rel -> rel_to_buf buf rel
  | Compare (op, cmp, lit) ->
      if op.data then Buffer.add_string buf "fn:data(";
      rel_to_buf buf op.rel;
      if op.data then Buffer.add_char buf ')';
      Buffer.add_char buf ' ';
      Buffer.add_string buf (cmp_to_string cmp);
      Buffer.add_char buf ' ';
      (match lit with
      | Str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
      | Num v -> Buffer.add_string buf (Printf.sprintf "%g" v))
  | And (a, b) ->
      pred_to_buf buf a;
      Buffer.add_string buf " and ";
      pred_to_buf buf b
  | Or (a, b) ->
      pred_to_buf buf a;
      Buffer.add_string buf " or ";
      pred_to_buf buf b

and rel_to_buf buf rel =
  Buffer.add_char buf '.';
  steps_to_buf buf rel

let to_string t =
  let buf = Buffer.create 64 in
  steps_to_buf buf t;
  Buffer.contents buf

(* --- Evaluation --- *)

type plan = {
  used_string_index : int;
  used_double_index : int;
  used_name_index : int;
}

(* Predicate evaluation is parameterised by how a Compare predicate
   decides whether an operand node matches the literal: the naive
   evaluator computes string values and casts; the indexed evaluator
   supplies membership sets computed from the value indices. *)
type 'ctx matcher = {
  matches : Store.t -> Store.node -> cmp -> literal -> bool;
  contains_match : Store.t -> Store.node -> string -> bool;
}

let double_spec = lazy (Xvi_core.Lexical_types.double ())

let cast_double s =
  let spec = Lazy.force double_spec in
  let sct = spec.Xvi_core.Lexical_types.sct in
  if Xvi_core.Sct.is_accepting sct (Xvi_core.Sct.of_string sct s) then
    spec.Xvi_core.Lexical_types.parse s
  else None

let cmp_holds cmp (c : int) =
  match cmp with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let string_contains ~pattern s =
  let m = String.length pattern and n = String.length s in
  if m = 0 then true
  else begin
    let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
    let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
    go 0
  end

let naive_matcher =
  {
    matches =
      (fun store n cmp lit ->
        let sv = Store.string_value store n in
        match lit with
        | Str s -> cmp_holds cmp (String.compare sv s)
        | Num v -> (
            match cast_double sv with
            | Some v' -> cmp_holds cmp (Float.compare v' v)
            | None -> false));
    contains_match =
      (fun store n pattern ->
        string_contains ~pattern (Store.string_value store n));
  }

let test_matches store n axis test =
  match (axis, test) with
  | Attribute, Name nm ->
      Store.kind store n = Store.Attribute && String.equal (Store.name store n) nm
  | Attribute, Wildcard -> Store.kind store n = Store.Attribute
  | _, Name nm ->
      Store.kind store n = Store.Element && String.equal (Store.name store n) nm
  | _, Wildcard -> Store.kind store n = Store.Element
  | _, Text_node -> Store.kind store n = Store.Text
  | _, Any_node -> (
      match Store.kind store n with
      | Store.Element | Store.Text | Store.Document -> true
      | _ -> false)

let axis_nodes store n axis =
  match axis with
  | Self -> [ n ]
  | Child -> Store.children store n
  | Attribute -> Store.attributes store n
  | Descendant ->
      let acc = ref [] in
      let rec walk c =
        List.iter
          (fun k ->
            acc := k :: !acc;
            walk k)
          (Store.children store c)
      in
      walk n;
      List.rev !acc

let rec eval_steps matcher store context steps =
  List.fold_left
    (fun ctx step ->
      let out = ref [] in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun n ->
          List.iter
            (fun m ->
              if
                test_matches store m step.axis step.test
                && (not (Hashtbl.mem seen m))
                && List.for_all (eval_pred matcher store m) step.preds
              then begin
                Hashtbl.replace seen m ();
                out := m :: !out
              end)
            (axis_nodes store n step.axis))
        ctx;
      List.rev !out)
    context steps

and eval_pred matcher store n = function
  | Exists rel -> eval_steps matcher store [ n ] rel <> []
  | And (a, b) -> eval_pred matcher store n a && eval_pred matcher store n b
  | Or (a, b) -> eval_pred matcher store n a || eval_pred matcher store n b
  | Compare (op, cmp, lit) ->
      let operand_nodes = eval_steps matcher store [ n ] op.rel in
      List.exists (fun m -> matcher.matches store m cmp lit) operand_nodes
  | Contains (op, pattern) ->
      let operand_nodes = eval_steps matcher store [ n ] op.rel in
      List.exists (fun m -> matcher.contains_match store m pattern) operand_nodes

let doc_order store nodes =
  (* pairwise comparison for small sets; a single traversal otherwise *)
  if List.length nodes <= 512 then
    List.sort (Store.compare_order store) nodes
  else begin
    let wanted = Hashtbl.create (List.length nodes) in
    List.iter (fun n -> Hashtbl.replace wanted n ()) nodes;
    let out = ref [] in
    Store.iter_pre store (fun n ->
        if Hashtbl.mem wanted n then out := n :: !out);
    List.rev !out
  end

let eval store t =
  doc_order store (eval_steps naive_matcher store [ Store.document ] t)

(* Indexed evaluation: Compare predicates over (Str, Eq) are answered by
   the hash index; over (Num, any comparison) by the double B+tree.
   Membership sets replace per-node string-value computation and
   casting. *)
let indexed_matcher db counters =
  let store = Db.store db in
  let string_sets = Hashtbl.create 8 in
  let counted_nums = Hashtbl.create 8 in
  let string_set s =
    match Hashtbl.find_opt string_sets s with
    | Some set -> set
    | None ->
        counters := { !counters with used_string_index = !counters.used_string_index + 1 };
        let set = Hashtbl.create 64 in
        List.iter (fun n -> Hashtbl.replace set n ()) (Db.lookup_string db s);
        Hashtbl.add string_sets s set;
        set
  in
  let double_index =
    lazy
      (match Db.typed_index db "xs:double" with
      | Some ti -> ti
      | None -> invalid_arg "eval_indexed: no xs:double index")
  in
  let contains_sets = Hashtbl.create 4 in
  let contains_set pattern =
    match Hashtbl.find_opt contains_sets pattern with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 64 in
        List.iter
          (fun n -> Hashtbl.replace set n ())
          (Db.lookup_contains db pattern);
        List.iter
          (fun n -> Hashtbl.replace set n ())
          (Db.lookup_element_contains db pattern);
        Hashtbl.add contains_sets pattern set;
        set
  in
  {
    matches =
      (fun _store n cmp lit ->
        match lit with
        | Str s when cmp = Eq -> Hashtbl.mem (string_set s) n
        | Str s -> naive_matcher.matches store n cmp (Str s)
        | Num v -> (
            (* the per-node typed value is already extracted: one O(1)
               probe replaces the naive string-value cast *)
            if not (Hashtbl.mem counted_nums (cmp, v)) then begin
              Hashtbl.replace counted_nums (cmp, v) ();
              counters :=
                { !counters with used_double_index = !counters.used_double_index + 1 }
            end;
            match Xvi_core.Typed_index.value_of (Lazy.force double_index) n with
            | Some v' -> cmp_holds cmp (Float.compare v' v)
            | None -> false));
    contains_match =
      (fun _store n pattern ->
        match Db.substring_index db with
        | None -> naive_matcher.contains_match store n pattern
        | Some _ -> Hashtbl.mem (contains_set pattern) n);
  }

(* --- ancestor-driven fast path ---

   For queries shaped like [//a/b//c[pred and ...]] — downward name/
   wildcard steps with predicates only on the last one, where at least
   one top-level conjunct is an indexable comparison — the evaluator can
   avoid touching the context steps entirely: it fetches the matching
   value nodes M from the index, walks {e up} from each member of M
   collecting ancestors that match the step chain, and verifies the
   remaining predicates only on those few candidates. This is how
   MonetDB/XQuery would consume the paper's indices: cost proportional
   to the number of value hits, not to the document. *)

(* Does [n]'s ancestor path match the (reversed) step chain? *)
let rec match_rev store n rev_steps =
  match rev_steps with
  | [] -> n = Store.document
  | step :: rest ->
      test_matches store n step.axis step.test
      && (match step.axis with
         | Child -> (
             match Store.parent store n with
             | Some p -> match_rev store p rest
             | None -> false)
         | Descendant ->
             let rec try_anc p =
               match_rev store p rest
               ||
               match Store.parent store p with
               | Some pp -> try_anc pp
               | None -> false
             in
             (match Store.parent store n with
             | Some p -> try_anc p
             | None -> false)
         | Attribute | Self -> false)

(* top-level conjuncts of a predicate list *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let indexable_compare db = function
  | Compare (_, Eq, Str _) -> true (* the string index is always built *)
  | Compare (_, (Eq | Lt | Le | Gt | Ge), Num _) ->
      Db.typed_index db "xs:double" <> None
  | Contains _ -> Db.substring_index db <> None
  | _ -> false

(* Eligibility: downward chain, name/wildcard tests, predicates only on
   the last step, whose conjunct list contains an indexable compare. *)
let fast_path_plan steps =
  let rec split acc = function
    | [] -> None
    | [ last ] -> Some (List.rev acc, last)
    | s :: rest ->
        if s.preds = [] then split (s :: acc) rest else None
  in
  match split [] steps with
  | None -> None
  | Some (prefix, last) ->
      let chain_ok s =
        (match s.axis with Child | Descendant -> true | _ -> false)
        && match s.test with Name _ | Wildcard -> true | _ -> false
      in
      if not (List.for_all chain_ok (prefix @ [ { last with preds = [] } ]))
      then None
      else begin
        let preds = List.concat_map conjuncts last.preds in
        Some (prefix @ [ last ], preds)
      end

(* Compile the indexable top-level conjuncts into predicate-IR terms,
   each labeled with its source text. Numeric comparisons over the same
   operand path merge into one bounded range ([x >= 100 and x < 120]
   becomes a single B+tree range). Each term over-approximates its
   conjunct — strictness ([<] vs [<=], [!=]) and the operand path are
   re-verified per candidate — which is sound for a generator: it may
   only widen the hit set, never lose an answer.

   Conjuncts must NOT be intersected with each other: different
   conjuncts of the same predicate may be satisfied by different operand
   nodes under the context node, so the node sets of two conjuncts need
   not overlap even when both hold. One conjunct drives; the rest are
   verified per candidate. *)
let pred_to_string p =
  let buf = Buffer.create 32 in
  pred_to_buf buf p;
  Buffer.contents buf

let candidate_irs db preds =
  let module Ir = Db.Ir in
  let strings =
    List.filter_map
      (function
        | Compare (_, Eq, Str s) as p -> Some (pred_to_string p, Ir.string_eq s)
        | _ -> None)
      preds
  in
  let contains_cands =
    if Db.substring_index db = None then []
    else
      List.filter_map
        (function
          | Contains (_, pattern) as p ->
              (* a hit may live in a text/attribute leaf or span element
                 boundaries: both faces of the index, unioned *)
              Some
                ( pred_to_string p,
                  Ir.disj [ Ir.contains pattern; Ir.element_contains pattern ] )
          | _ -> None)
        preds
  in
  let nums =
    if Db.typed_index db "xs:double" = None then []
    else begin
      (* group numeric bounds by operand path *)
      let groups : (operand * (float option * float option)) list ref = ref [] in
      List.iter
        (function
          | Compare (op, cmp, Num v) -> (
              let lo, hi =
                match cmp with
                | Eq -> (Some v, Some v)
                | Gt | Ge -> (Some v, None)
                | Lt | Le -> (None, Some v)
                | Neq -> (None, None)
              in
              let merge_lo a b =
                match (a, b) with
                | Some x, Some y -> Some (max x y)
                | x, None | None, x -> x
              in
              let merge_hi a b =
                match (a, b) with
                | Some x, Some y -> Some (min x y)
                | x, None | None, x -> x
              in
              match List.assoc_opt op !groups with
              | Some (glo, ghi) ->
                  groups :=
                    (op, (merge_lo glo lo, merge_hi ghi hi))
                    :: List.remove_assoc op !groups
              | None -> groups := (op, (lo, hi)) :: !groups)
          | _ -> ())
        preds;
      List.filter_map
        (fun (op, (lo, hi)) ->
          let range =
            match (lo, hi) with
            | Some lo, Some hi -> Some (Db.Range.between lo hi)
            | Some lo, None -> Some (Db.Range.at_least lo)
            | None, Some hi -> Some (Db.Range.at_most hi)
            | None, None -> None (* only != bounds: no usable range *)
          in
          Option.map
            (fun range ->
              let label =
                let b = Buffer.create 16 in
                rel_to_buf b op.rel;
                Printf.sprintf "fn:data(%s) in %s" (Buffer.contents b)
                  (Db.Range.to_string range)
              in
              (label, Ir.typed_range "xs:double" range))
            range)
        !groups
    end
  in
  strings @ contains_cands @ nums

let compile_candidates db t =
  match fast_path_plan t with
  | None -> []
  | Some (_, preds) -> candidate_irs db preds

(* The candidate generator: the cheapest compiled conjunct by planner
   estimate, executed to its value hits. Only the winner is
   materialized — the estimates come from index statistics (hash-bucket
   and B+tree range counts), not from running every candidate. *)
let generator_hits db preds =
  match candidate_irs db preds with
  | [] -> None
  | (_, ir0) :: rest ->
      let best, _ =
        List.fold_left
          (fun (bi, be) (_, ir) ->
            let e = Db.estimate db ir in
            if e < be then (ir, e) else (bi, be))
          (ir0, Db.estimate db ir0)
          rest
      in
      Some (Db.query_ids db best)

let eval_fast db matcher steps hits =
  let store = Db.store db in
  let rev_steps = List.rev steps in
  let last =
    match rev_steps with
    | s :: _ -> s
    | [] -> invalid_arg "Xpath.eval_fast: empty step list"
  in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun m ->
      (* candidates: ancestors-or-self of the hit that match the chain *)
      let rec up c =
        if
          (not (Hashtbl.mem seen c))
          && test_matches store c last.axis last.test
          && match_rev store c rev_steps
          && List.for_all (eval_pred matcher store c) last.preds
        then begin
          Hashtbl.replace seen c ();
          out := c :: !out
        end;
        match Store.parent store c with Some p -> up p | None -> ()
      in
      up m)
    hits;
  !out

let eval_with_plan db t =
  let counters =
    ref { used_string_index = 0; used_double_index = 0; used_name_index = 0 }
  in
  let store = Db.store db in
  let matcher = indexed_matcher db counters in
  let doc_order_fast result =
    (* the Db caches a pre/size/level plane: O(1) rank comparisons *)
    Xvi_xml.Pre_plane.sort_doc_order (Db.plane db) result
  in
  let result =
    match fast_path_plan t with
    | Some (steps, preds) -> (
        (* Two possible seed sets: value-index hits (results are their
           ancestors-or-self, since every axis points downward) and the
           element-name extent of the last step. Pick the smaller — an
           unselective range can dwarf the name extent. *)
        let value_hits =
          if List.exists (fun p -> indexable_compare db p) preds then
            generator_hits db preds
          else None
        in
        let rev_steps = List.rev steps in
        let last =
          (* the fast-path planner only accepts non-empty chains *)
          match rev_steps with
          | s :: _ -> s
          | [] -> invalid_arg "Xpath.eval_indexed: empty step list"
        in
        let by_name () =
          match last.test with
          | Name nm ->
              counters :=
                { !counters with used_name_index = !counters.used_name_index + 1 };
              Some
                (List.filter
                   (fun c ->
                     match_rev store c rev_steps
                     && List.for_all (eval_pred matcher store c) last.preds)
                   (Db.elements_named db nm))
          | _ -> None
        in
        match value_hits with
        | Some hits -> (
            let name_count =
              match last.test with
              | Name nm -> Xvi_core.Name_index.count (Db.name_index db) store nm
              | _ -> max_int
            in
            if name_count < List.length hits then
              match by_name () with
              | Some r -> r
              | None -> eval_fast db matcher steps hits
            else eval_fast db matcher steps hits)
        | None -> (
            match by_name () with
            | Some r -> r
            | None -> eval_steps matcher store [ Store.document ] t))
    | None -> eval_steps matcher store [ Store.document ] t
  in
  (doc_order_fast result, !counters)

let eval_indexed db t = fst (eval_with_plan db t)
