(* xvi-lint stage 2: Typedtree-based discipline analysis.

   Consumes [.cmt] files (or typechecks fixture sources in-process),
   computes per-function effect summaries — mutates-store,
   publishes-epoch, fsyncs, appends, acks, renames, validates,
   acquires-lock — plus a call graph, and checks four inter-procedural
   rules over the concurrent core:

     D1  every path to a store/Bigvec mutation or epoch publication is
         dominated by the writer lock (serve/repl entry points);
     D2  no mutation after an epoch publication in the same critical
         section, and no mutation of a value that flowed out of
         [Engine.pin] (COW shared-page invariant);
     D3  in wal/txn/repl: validate before append, fsync before ack,
         and file+dir fsync around a snapshot rename;
     D4  encoder/decoder pairs match the same tag/verb set.

   Findings reuse the {!Lint} vocabulary (rules, allows, A0) and carry
   a witness path: the call chain from the entry point to the violating
   effect.  See DESIGN.md "Static analysis" for the rule catalogue. *)

module Lint = Xvi_lint_lib.Lint

(* ---------- effect vocabulary ------------------------------------- *)

type prim = Mut | Pub | Fsync | Append | Ack | Rename | Validate

let bit = function
  | Mut -> 1
  | Pub -> 2
  | Fsync -> 4
  | Append -> 8
  | Ack -> 16
  | Rename -> 32
  | Validate -> 64

let has set p = set land bit p <> 0

module SS = Set.Make (String)

type const = Ci of int | Cs of string

let compare_const a b =
  match (a, b) with
  | Ci x, Ci y -> Int.compare x y
  | Cs x, Cs y -> String.compare x y
  | Ci _, Cs _ -> -1
  | Cs _, Ci _ -> 1

let const_to_string = function
  | Ci i -> string_of_int i
  | Cs s -> Printf.sprintf "%S" s

(* witness step: (what, file, line) *)
type step = string * string * int

type ev =
  | Eprim of prim * string * Location.t * bool (* what, desc, loc, locked *)
  | Elock
  | Eunlock
  | Ecall of {
      callee : string; (* resolved canonical key, or normalized name *)
      callee_prims : int; (* name-classified primitive effects *)
      lambdas : string list; (* sub-def keys of literal lambda args *)
      pinned_arg : string option; (* pinned ident passed as an argument *)
      loc : Location.t;
      locked : bool;
    }

type def = {
  key : string; (* canonical dotted name, e.g. "Engine.submit" *)
  dfile : string;
  dline : int;
  root_unit : string;
  scope_d1 : bool; (* lib/serve + lib/repl (or fixture) *)
  scope_d3 : bool; (* lib/wal + lib/txn + lib/repl (or fixture) *)
  is_lambda : bool;
  mutable events : ev list; (* reversed while building *)
  mutable params : SS.t;
  mutable wraps_lock : bool; (* applies a functional param under the lock *)
  mutable is_ctor : bool; (* returns a [t]: excluded from D1 roots *)
  mutable allows : (Lint.rule * string) list;
  mutable pat_tags : const list; (* first constant per match-arm pattern *)
  mutable body_tags : const list; (* first constant per match-arm body *)
}

type summary = {
  mutable eff : int; (* may-effect bitmask, transitively *)
  mutable acquires : bool; (* takes the lock itself (syntactic) *)
  mutable unprot : step list option; (* witness to an unlocked Mut/Pub *)
  mutable pub_open : bool; (* publication escaping into caller's section *)
  mutable mut_open : bool; (* mutation escaping into caller's section *)
}

(* ---------- name normalization ------------------------------------ *)

(* Dune wraps library modules as [Xvi_serve__Engine]; strip the wrapper
   and [Stdlib] so [Xvi_serve__Engine.pin], [Engine.pin] and
   [Stdlib.Mutex.lock]/[Mutex.lock] classify identically. *)
let split_wrapped comp =
  let parts = ref [] and buf = Buffer.create (String.length comp) in
  let n = String.length comp in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
      if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
      Buffer.clear buf;
      i := !i + 2
    end
    else begin
      Buffer.add_char buf comp.[!i];
      incr i
    end
  done;
  if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
  List.rev !parts

let is_wrapper_comp c =
  c = "Stdlib" || c = "Dune__exe"
  || String.length c > 4
     && String.sub c 0 4 = "Xvi_"
     && String.uncapitalize_ascii c = String.lowercase_ascii c

let rec drop_wrappers = function
  | c :: (_ :: _ as rest) when is_wrapper_comp c -> drop_wrappers rest
  | comps -> comps

let normalize_comps ~aliases raw =
  let comps =
    String.split_on_char '.' raw |> List.concat_map split_wrapped
  in
  let comps =
    match comps with
    | head :: rest -> (
        match Hashtbl.find_opt aliases head with
        | Some expansion -> expansion @ rest
        | None -> comps)
    | [] -> comps
  in
  drop_wrappers comps

(* ---------- primitive classification ------------------------------ *)

let starts_with_pfx pfx s =
  String.length s >= String.length pfx
  && String.sub s 0 (String.length pfx) = pfx

(* Name-based effect classification of a (normalized) callee.  Applied
   to the use-site name so fixture-local stub modules ([module Engine =
   struct ... end]) classify exactly like the real ones. *)
let classify_comps comps =
  let rcomps = List.rev comps in
  match rcomps with
  | ("set" | "unsafe_set" | "push" | "own" | "append_string") :: rest
    when List.exists (fun c -> c = "Bigvec") rest ->
      bit Mut
  (* the copy-on-write index structures: B+tree writes path-copy only
     nodes another tree can reach, and index-column writes clone only
     pages a snapshot shares — after publication in the same critical
     section they would land in what the new epoch still shares *)
  | ("insert" | "remove") :: rest
    when List.exists (fun c -> c = "Btree" || c = "BT") rest ->
      bit Mut
  | "set" :: "Indexer" :: _ -> bit Mut
  | ("set" | "exchange" | "compare_and_set") :: "Atomic" :: _ ->
      bit Pub (* refined by element type at the call site *)
  | "fsync" :: ("Unix" | "UnixLabels") :: _ -> bit Fsync
  | ("write" | "write_substring" | "single_write")
    :: ("Unix" | "UnixLabels")
    :: _ ->
      bit Append
  | ("output_string" | "output_bytes" | "output_substring" | "output_char")
    :: _ ->
      bit Append
  | "rename" :: ("Sys" | "Unix") :: _ -> bit Rename
  | "replica_apply" :: _ -> bit Ack
  | name :: _
    when starts_with_pfx "check_" name || starts_with_pfx "validate_" name ->
      bit Validate
  | _ -> 0

let is_mutex_op comps op =
  match List.rev comps with o :: "Mutex" :: _ -> o = op | _ -> false

let is_fun_protect comps = comps = [ "Fun"; "protect" ]

let is_spawn comps =
  match comps with
  | [ "Domain"; "spawn" ] | [ "Thread"; "create" ] -> true
  | _ -> false

let is_pin comps =
  match List.rev comps with "pin" :: _ -> true | _ -> false

(* ---------- the analysis state ------------------------------------ *)

type graph = {
  defs : (string, def) Hashtbl.t;
  order : string list ref; (* insertion order, for deterministic output *)
  mutable unit_allows : (string * (Lint.rule * string) list) list;
  mutable findings : Lint.finding list;
}

let new_graph () =
  { defs = Hashtbl.create 256; order = ref []; unit_allows = []; findings = [] }

let add_def g d =
  if not (Hashtbl.mem g.defs d.key) then begin
    Hashtbl.replace g.defs d.key d;
    g.order := d.key :: !(g.order)
  end

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) =
  loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let report_at g rule ~file ~line ~col ~witness message =
  g.findings <-
    { Lint.rule; file; line; col; message; witness } :: g.findings

let report g rule (loc : Location.t) ~file ~witness message =
  report_at g rule ~file ~line:(line_of loc) ~col:(col_of loc) ~witness
    message

(* Collect allows from a Parsetree attribute list; malformed ones are
   A0 findings. *)
let allows_of g ~file attrs =
  List.fold_left
    (fun acc attr ->
      match Lint.parse_allow_attr attr with
      | None -> acc
      | Some (Ok (rule, reason), _) -> (rule, reason) :: acc
      | Some (Error why, loc) ->
          report g Lint.A0 loc ~file ~witness:[] why;
          acc)
    [] attrs

let def_allows g d =
  let unit_a =
    match List.assoc_opt d.root_unit g.unit_allows with
    | Some l -> l
    | None -> []
  in
  d.allows @ unit_a

let allowed g d rule = List.exists (fun (r, _) -> r = rule) (def_allows g d)

(* ---------- Typedtree walk ---------------------------------------- *)

open Typedtree

type wctx = {
  g : graph;
  unit_name : string;
  file : string;
  aliases : (string, string list) Hashtbl.t;
  (* resolution scopes, innermost first: (key prefix, names) *)
  mutable scopes : (string * SS.t ref) list;
  mutable depth : int; (* mutex nesting *)
  mutable pinned : SS.t; (* idents bound to Engine.pin results *)
  cur : def;
}

let pat_var_names p =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> acc := Ident.name id :: !acc
          | Tpat_alias (_, id, _) -> acc := Ident.name id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

(* First integer/string constant in a pattern, pre-order. *)
exception Found_const of const

let first_pat_const : type k. k general_pattern -> const option =
 fun p ->
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_constant (Asttypes.Const_int i) -> raise (Found_const (Ci i))
          | Tpat_constant (Asttypes.Const_string (s, _, _)) ->
              raise (Found_const (Cs s))
          | _ -> ());
          Tast_iterator.default_iterator.pat it p);
    }
  in
  match it.pat it p with () -> None | exception Found_const c -> Some c

let first_expr_const e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_constant (Asttypes.Const_int i) -> raise (Found_const (Ci i))
          | Texp_constant (Asttypes.Const_string (s, _, _)) ->
              raise (Found_const (Cs s))
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  match it.expr it e with () -> None | exception Found_const c -> Some c

(* Is [ty] an [X Atomic.t] whose element is interesting for D1/D2 —
   i.e. not a bool/int/char/unit/float flag or counter?  Epoch cells
   hold a record/constructed snapshot value; stop flags and watermark
   counters hold primitives. *)
let atomic_elt_interesting (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (_, [ elt ], _) -> (
      match Types.get_desc elt with
      | Types.Tconstr (p, _, _) ->
          not
            (Path.same p Predef.path_bool || Path.same p Predef.path_int
           || Path.same p Predef.path_char || Path.same p Predef.path_unit
           || Path.same p Predef.path_float || Path.same p Predef.path_string)
      | _ -> false)
  | _ -> false

let resolve ctx comps =
  match comps with
  | [ single ] -> (
      let scope =
        List.find_opt (fun (_, names) -> SS.mem single !names) ctx.scopes
      in
      match scope with
      | Some (prefix, _) -> prefix ^ "." ^ single
      | None -> single)
  | _ ->
      let joined = String.concat "." comps in
      let rec try_prefixes = function
        | [] -> joined
        | (prefix, _) :: rest ->
            let cand = prefix ^ "." ^ joined in
            if Hashtbl.mem ctx.g.defs cand then cand else try_prefixes rest
      in
      if Hashtbl.mem ctx.g.defs joined then joined
      else try_prefixes ctx.scopes

let emit ctx ev = ctx.cur.events <- ev :: ctx.cur.events

(* Ack/Validate classifications stay on the call event (D3 inspects
   [callee_prims]); emitting them as prims too would double-report. *)
let emit_prims ctx prims ~desc loc =
  List.iter
    (fun p ->
      if has prims p then
        emit ctx (Eprim (p, desc, loc, ctx.depth > 0)))
    [ Mut; Pub; Fsync; Append; Rename ]

(* Does [e] syntactically mention one of [cur]'s functional params or a
   pinned ident?  Used for wraps_lock detection and D2b. *)
let rec base_ident e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (Ident.name id)
  | Texp_field (inner, _, _) -> base_ident inner
  | _ -> None

let rec walk ctx e =
  let pushed = allows_of ctx.g ~file:ctx.file e.exp_attributes in
  if pushed <> [] then ctx.cur.allows <- pushed @ ctx.cur.allows;
  (match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _)
    when ctx.depth > 0 && SS.mem (Ident.name id) ctx.cur.params ->
      (* mentioning a functional parameter under the lock: this def is a
         lock wrapper (with_lock's [Fun.protect ... f] shape) *)
      ctx.cur.wraps_lock <- true
  | Texp_apply (fn, args) -> walk_apply ctx e fn args
  | Texp_let (_, vbs, body) ->
      List.iter (walk_binding ctx) vbs;
      walk ctx body
  | Texp_function { cases; _ } ->
      collect_match_tags ctx cases;
      List.iter (fun c -> walk_case ctx c) cases
  | Texp_match (scrut, cases, _) ->
      walk ctx scrut;
      collect_match_tags ctx cases;
      List.iter (fun c -> walk_case ctx c) cases
  | Texp_variant (label, argo) ->
      (match argo with Some a -> walk ctx a | None -> ());
      if label = "Synced" then
        emit ctx (Eprim (Ack, "`Synced", e.exp_loc, ctx.depth > 0))
  | Texp_sequence (a, b) ->
      walk ctx a;
      walk ctx b
  | Texp_ifthenelse (c, t, eo) ->
      walk ctx c;
      walk ctx t;
      (match eo with Some x -> walk ctx x | None -> ())
  | Texp_try (body, cases) ->
      walk ctx body;
      List.iter (fun c -> walk_case ctx c) cases
  | _ -> fallback ctx e);
  ()

and fallback ctx e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ e -> walk ctx e);
    }
  in
  Tast_iterator.default_iterator.expr it e

and walk_case : type k. wctx -> k case -> unit =
 fun ctx c ->
  (match c.c_guard with Some g -> walk ctx g | None -> ());
  walk ctx c.c_rhs

and collect_match_tags : type k. wctx -> k case list -> unit =
 fun ctx cases ->
  if List.length cases > 1 then
    List.iter
      (fun c ->
        (match first_pat_const c.c_lhs with
        | Some cst -> ctx.cur.pat_tags <- cst :: ctx.cur.pat_tags
        | None -> ());
        match first_expr_const c.c_rhs with
        | Some cst -> ctx.cur.body_tags <- cst :: ctx.cur.body_tags
        | None -> ())
      cases

and walk_binding ctx vb =
  let pushed = allows_of ctx.g ~file:ctx.file vb.vb_attributes in
  if pushed <> [] then ctx.cur.allows <- pushed @ ctx.cur.allows;
  let names = pat_var_names vb.vb_pat in
  (* a local function becomes a scoped sub-def with call edges *)
  match (names, is_function vb.vb_expr) with
  | [ name ], true ->
      let key = ctx.cur.key ^ "." ^ name in
      (match ctx.scopes with
      | (_, scope) :: _ -> scope := SS.add name !scope
      | [] -> ());
      walk_def ctx ~key ~loc:vb.vb_pat.pat_loc ~is_lambda:false vb.vb_expr
  | _ -> (
      (* track idents bound to Engine.pin results for D2b *)
      (match (names, pin_rhs ctx vb.vb_expr) with
      | [ name ], true -> ctx.pinned <- SS.add name ctx.pinned
      | _ -> ());
      walk ctx vb.vb_expr)

and is_function e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

and pin_rhs ctx e =
  match e.exp_desc with
  | Texp_apply (fn, _) -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) ->
          is_pin (normalize_comps ~aliases:ctx.aliases (Path.name p))
      | _ -> false)
  | Texp_field (inner, _, _) -> pin_rhs ctx inner
  | _ -> false

(* Walk a function definition (top-level, local, or lambda literal)
   into its own [def], sharing the ctx scopes/aliases.  Lock depth and
   pinned set are saved and reset: a new function body starts outside
   any critical section of its own. *)
and walk_def ctx ~key ~loc ~is_lambda fn_expr =
  let parent = ctx.cur in
  let d =
    match Hashtbl.find_opt ctx.g.defs key with
    | Some d -> d
    | None ->
        let d =
          {
            key;
            dfile = ctx.file;
            dline = line_of loc;
            root_unit = parent.root_unit;
            scope_d1 = parent.scope_d1;
            scope_d3 = parent.scope_d3;
            is_lambda;
            events = [];
            params = SS.empty;
            wraps_lock = false;
            is_ctor = false;
            allows = (if is_lambda then parent.allows else []);
            pat_tags = [];
            body_tags = [];
          }
        in
        add_def ctx.g d;
        d
  in
  let saved_depth = ctx.depth and saved_pinned = ctx.pinned in
  ctx.depth <- 0;
  ctx.pinned <- SS.empty;
  let rec unwrap e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs; _ } ]; _ } ->
        List.iter
          (fun n -> d.params <- SS.add n d.params)
          (pat_var_names c_lhs);
        unwrap c_rhs
    | _ -> e
  in
  let body = unwrap fn_expr in
  d.is_ctor <- returns_handle fn_expr;
  let inner = { ctx with cur = d } in
  (* inner is a copy: restore mutable scope fields on the shared graph
     only; depth/pinned live per-copy *)
  walk inner body;
  ctx.depth <- saved_depth;
  ctx.pinned <- saved_pinned

and returns_handle fn_expr =
  (* a constructor returns a [t] — possibly inside a tuple or a
     [result]/[option]: [open_replica : dir -> (t * lsn, error) result]
     is as much a constructor as [make : ... -> t] *)
  let rec final ty =
    match Types.get_desc ty with
    | Types.Tarrow (_, _, r, _) -> final r
    | Types.Tpoly (t, _) -> final t
    | _ -> ty
  in
  let rec mentions_t depth ty =
    depth < 3
    &&
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) -> (
        match List.rev (String.split_on_char '.' (Path.name p)) with
        | "t" :: _ -> true
        | _ -> List.exists (mentions_t (depth + 1)) args)
    | Types.Ttuple l -> List.exists (mentions_t (depth + 1)) l
    | _ -> false
  in
  mentions_t 0 (final fn_expr.exp_type)

and walk_apply ctx app fn args =
  match fn.exp_desc with
  | Texp_field (recv, _, lbl) when lbl.Types.lbl_name = "log_commit" ->
      (* the durability hook: a [log_commit] record field carries the
         append+fsync contract (Txn.manager / Durable wiring) *)
      walk ctx recv;
      List.iter (fun (_, a) -> Option.iter (walk ctx) a) args;
      emit ctx (Eprim (Append, "log_commit hook", app.exp_loc, ctx.depth > 0));
      emit ctx (Eprim (Fsync, "log_commit hook", app.exp_loc, ctx.depth > 0))
  | Texp_ident (path, _, _) -> (
      let comps = normalize_comps ~aliases:ctx.aliases (Path.name path) in
      let joined = String.concat "." comps in
      (* applying a functional param under the lock: lock wrapper *)
      (match path with
      | Path.Pident id
        when ctx.depth > 0 && SS.mem (Ident.name id) ctx.cur.params ->
          ctx.cur.wraps_lock <- true
      | _ -> ());
      if is_mutex_op comps "lock" then begin
        List.iter (fun (_, a) -> Option.iter (walk ctx) a) args;
        emit ctx Elock;
        ctx.depth <- ctx.depth + 1
      end
      else if is_mutex_op comps "unlock" then begin
        List.iter (fun (_, a) -> Option.iter (walk ctx) a) args;
        emit ctx Eunlock;
        ctx.depth <- max 0 (ctx.depth - 1)
      end
      else if is_mutex_op comps "protect" then begin
        let lambdas, others = split_lambda_args args in
        List.iter (walk ctx) others;
        emit ctx Elock;
        ctx.depth <- ctx.depth + 1;
        List.iter (fun (l : expression) -> walk_inline ctx l) lambdas;
        emit ctx Eunlock;
        ctx.depth <- max 0 (ctx.depth - 1)
      end
      else if is_fun_protect comps then begin
        (* walk the guarded body first, then ~finally, inline: the
           events happen here, at the current lock depth *)
        let finally, body =
          List.partition
            (fun (l, _) -> l = Asttypes.Labelled "finally")
            args
        in
        List.iter (fun (_, a) -> Option.iter (walk_inline ctx) a) body;
        List.iter (fun (_, a) -> Option.iter (walk_inline ctx) a) finally
      end
      else if is_spawn comps then begin
        (* the spawned body runs unlocked on another domain/thread *)
        let saved = ctx.depth in
        ctx.depth <- 0;
        List.iter (fun (_, a) -> Option.iter (walk_inline ctx) a) args;
        ctx.depth <- saved
      end
      else begin
        let prims = classify_comps comps in
        let prims =
          if has prims Pub then
            (* only Atomic.set on a non-primitive cell is a publication *)
            match first_nolabel_arg args with
            | Some a when atomic_elt_interesting a.exp_type -> prims
            | Some _ | None -> prims land lnot (bit Pub)
          else prims
        in
        let lambdas, others = split_lambda_args args in
        List.iter (walk ctx) others;
        let lam_keys =
          List.map
            (fun (l : expression) ->
              let key =
                Printf.sprintf "%s.<fun:%d>" ctx.cur.key (line_of l.exp_loc)
              in
              walk_def ctx ~key ~loc:l.exp_loc ~is_lambda:true l;
              key)
            lambdas
        in
        let pinned_arg =
          List.find_map
            (fun (_, a) ->
              match a with
              | Some a -> (
                  match base_ident a with
                  | Some n when SS.mem n ctx.pinned -> Some n
                  | _ -> None)
              | None -> None)
            args
        in
        emit_prims ctx prims ~desc:joined app.exp_loc;
        emit ctx
          (Ecall
             {
               callee = resolve ctx comps;
               callee_prims = prims;
               lambdas = lam_keys;
               pinned_arg;
               loc = app.exp_loc;
               locked = ctx.depth > 0;
             })
      end)
  | _ ->
      walk ctx fn;
      List.iter (fun (_, a) -> Option.iter (walk ctx) a) args

and split_lambda_args args =
  List.fold_right
    (fun (_, a) (lams, others) ->
      match a with
      | Some a when is_function a -> (a :: lams, others)
      | Some a -> (lams, a :: others)
      | None -> (lams, others))
    args ([], [])

and first_nolabel_arg args =
  List.find_map
    (fun (l, a) -> if l = Asttypes.Nolabel then a else None)
    args

(* [walk_inline]: walk a lambda literal's body as part of the current
   def (its effects happen here, at the current lock depth); a non-
   lambda expression (e.g. a named function passed by reference) is
   walked normally. *)
and walk_inline ctx e =
  match e.exp_desc with
  | Texp_function _ ->
      let rec unwrap e =
        match e.exp_desc with
        | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
            unwrap c_rhs
        | _ -> e
      in
      walk ctx (unwrap e)
  | _ -> walk ctx e

(* ---------- unit processing --------------------------------------- *)

let normalize_unit modname =
  String.concat "." (drop_wrappers (split_wrapped modname))

(* D1 applies to the serving/replication surface; D3 to the durability
   path.  Fixture sources (anything outside lib/) get every scope so a
   single file can exercise any rule. *)
let scopes_of_file file =
  let comps = String.split_on_char '/' file in
  let mem c = List.mem c comps in
  if mem "lib" then (mem "serve" || mem "repl", mem "wal" || mem "txn" || mem "repl")
  else (true, true)

let process_unit g ~unit_name ~file str =
  let scope_d1, scope_d3 = scopes_of_file file in
  let aliases = Hashtbl.create 8 in
  let module_scopes : (string, SS.t ref) Hashtbl.t = Hashtbl.create 8 in
  let scope_ref prefix =
    match Hashtbl.find_opt module_scopes prefix with
    | Some r -> r
    | None ->
        let r = ref SS.empty in
        Hashtbl.replace module_scopes prefix r;
        r
  in
  let fresh_def ~key ~line =
    {
      key;
      dfile = file;
      dline = line;
      root_unit = unit_name;
      scope_d1;
      scope_d3;
      is_lambda = false;
      events = [];
      params = SS.empty;
      wraps_lock = false;
      is_ctor = false;
      allows = [];
      pat_tags = [];
      body_tags = [];
    }
  in
  (* pass A: register every function definition and module alias so
     forward references resolve during the body walk *)
  let rec register prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match (pat_var_names vb.vb_pat, is_function vb.vb_expr) with
                | [ name ], true ->
                    let key = prefix ^ "." ^ name in
                    add_def g
                      (fresh_def ~key ~line:(line_of vb.vb_pat.pat_loc));
                    let r = scope_ref prefix in
                    r := SS.add name !r
                | _ -> ())
              vbs
        | Tstr_module mb -> register_module prefix mb
        | Tstr_recmodule mbs -> List.iter (register_module prefix) mbs
        | _ -> ())
      items
  and register_module prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id ->
        let name = Ident.name id in
        let rec go me =
          match me.mod_desc with
          | Tmod_ident (p, _) ->
              Hashtbl.replace aliases name
                (normalize_comps ~aliases (Path.name p))
          | Tmod_structure s -> register (prefix ^ "." ^ name) s.str_items
          | Tmod_constraint (inner, _, _, _) -> go inner
          | Tmod_functor (_, body) -> go body
          | _ -> ()
        in
        go mb.mb_expr
  in
  register unit_name str.str_items;
  (* pass B: walk bodies *)
  let toplevel = fresh_def ~key:(unit_name ^ ".<toplevel>") ~line:1 in
  let rec process prefix scopes items =
    let ctx =
      {
        g;
        unit_name;
        file;
        aliases;
        scopes;
        depth = 0;
        pinned = SS.empty;
        cur = toplevel;
      }
    in
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match (pat_var_names vb.vb_pat, is_function vb.vb_expr) with
                | [ name ], true -> (
                    let key = prefix ^ "." ^ name in
                    (match Hashtbl.find_opt g.defs key with
                    | Some d ->
                        d.allows <-
                          allows_of g ~file vb.vb_attributes @ d.allows
                    | None -> ());
                    walk_def ctx ~key ~loc:vb.vb_pat.pat_loc
                      ~is_lambda:false vb.vb_expr)
                | _ -> ())
              vbs
        | Tstr_module mb -> process_module prefix scopes mb
        | Tstr_recmodule mbs ->
            List.iter (process_module prefix scopes) mbs
        | Tstr_attribute attr ->
            let a = allows_of g ~file [ attr ] in
            if a <> [] then
              g.unit_allows <-
                (match List.assoc_opt unit_name g.unit_allows with
                | Some prev ->
                    (unit_name, a @ prev)
                    :: List.remove_assoc unit_name g.unit_allows
                | None -> (unit_name, a) :: g.unit_allows)
        | _ -> ())
      items
  and process_module prefix scopes mb =
    match mb.mb_id with
    | None -> ()
    | Some id ->
        let name = Ident.name id in
        let rec go me =
          match me.mod_desc with
          | Tmod_structure s ->
              let p = prefix ^ "." ^ name in
              process p ((p, scope_ref p) :: scopes) s.str_items
          | Tmod_constraint (inner, _, _, _) -> go inner
          | Tmod_functor (_, body) -> go body
          | _ -> ()
        in
        go mb.mb_expr
  in
  process unit_name [ (unit_name, scope_ref unit_name) ] str.str_items

(* ---------- fixpoint summaries ------------------------------------ *)

(* Calls that build and return fresh state — constructors, and
   copy/snapshot helpers — own the value they mutate: their mutation
   and publication effects are confined to the value under
   construction and do not escape to the caller's store. *)
let confined_callee g callee =
  (match List.rev (String.split_on_char '.' callee) with
  | ("copy" | "snapshot") :: _ -> true
  | _ -> false)
  ||
  match Hashtbl.find_opt g.defs callee with
  | Some d -> d.is_ctor
  | None -> false

let summarize g =
  let sums : (string, summary) Hashtbl.t = Hashtbl.create 256 in
  let keys = List.rev !(g.order) in
  List.iter
    (fun k ->
      let d = Hashtbl.find g.defs k in
      d.events <- List.rev d.events;
      Hashtbl.replace sums k
        {
          eff = 0;
          acquires =
            List.exists (function Elock -> true | _ -> false) d.events;
          unprot = None;
          pub_open = false;
          mut_open = false;
        })
    keys;
  let sum_of k = Hashtbl.find_opt sums k in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun k ->
        let d = Hashtbl.find g.defs k in
        let s = Hashtbl.find sums k in
        let eff = ref s.eff in
        let unprot = ref s.unprot in
        let pub_open = ref s.pub_open in
        let mut_open = ref s.mut_open in
        List.iter
          (fun ev ->
            match ev with
            | Elock | Eunlock -> ()
            | Eprim (p, desc, loc, locked) ->
                eff := !eff lor bit p;
                if (p = Mut || p = Pub) && not locked then begin
                  if !unprot = None then
                    unprot := Some [ (desc, d.dfile, line_of loc) ];
                  if p = Pub then pub_open := true;
                  if p = Mut then mut_open := true
                end
            | Ecall c ->
                let cs = sum_of c.callee in
                let cd = Hashtbl.find_opt g.defs c.callee in
                let lams = List.filter_map sum_of c.lambdas in
                let wraps =
                  match cd with Some d -> d.wraps_lock | None -> false
                in
                let callee_allowed r =
                  match cd with Some d -> allowed g d r | None -> false
                in
                eff :=
                  List.fold_left
                    (fun a (s : summary) -> a lor s.eff)
                    (match cs with Some s -> !eff lor s.eff | None -> !eff)
                    lams;
                let confined = confined_callee g c.callee in
                if (not c.locked) && !unprot = None && not confined then begin
                  let contrib =
                    if callee_allowed Lint.D1 then None
                    else
                      match cs with
                      | Some s when s.unprot <> None -> s.unprot
                      | _ ->
                          if wraps then None
                          else
                            List.find_map (fun (s : summary) -> s.unprot) lams
                  in
                  match contrib with
                  | Some chain ->
                      unprot :=
                        Some ((c.callee, d.dfile, line_of c.loc) :: chain)
                  | None -> ()
                end;
                let closed =
                  match cs with Some s -> s.acquires | None -> false
                in
                if (not c.locked) && (not closed) && (not confined)
                   && not (callee_allowed Lint.D2)
                then begin
                  let lam_flag f =
                    (not wraps)
                    && List.exists (fun (s : summary) -> f s) lams
                  in
                  (match cs with
                  | Some s when s.pub_open -> pub_open := true
                  | _ -> if lam_flag (fun s -> s.pub_open) then pub_open := true);
                  match cs with
                  | Some s when s.mut_open -> mut_open := true
                  | _ -> if lam_flag (fun s -> s.mut_open) then mut_open := true
                end)
          d.events;
        (* allows mask contributions at the source *)
        if allowed g d Lint.D1 then unprot := None;
        if allowed g d Lint.D2 then begin
          pub_open := false;
          mut_open := false
        end;
        if
          !eff <> s.eff
          || (s.unprot = None && !unprot <> None)
          || !pub_open <> s.pub_open
          || !mut_open <> s.mut_open
        then begin
          s.eff <- !eff;
          if s.unprot = None then s.unprot <- !unprot;
          s.pub_open <- !pub_open;
          s.mut_open <- !mut_open;
          changed := true
        end)
      keys
  done;
  sums

(* ---------- rule checks ------------------------------------------- *)

let ends_with suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let last_comp key =
  match List.rev (String.split_on_char '.' key) with
  | c :: _ -> c
  | [] -> key

(* D1: reader-reachable entry points must not reach an unprotected
   mutation/publication.  Entry points are the top-level functions of
   serve/repl units, minus constructors (they own the value they build),
   [_locked] helpers (the caller-holds-the-lock naming contract this
   rule makes enforceable) and the lock wrapper itself. *)
let check_d1 g sums =
  List.iter
    (fun k ->
      let d = Hashtbl.find g.defs k in
      let top_level = List.length (String.split_on_char '.' d.key) = 2 in
      let name = last_comp d.key in
      if
        d.scope_d1 && top_level && (not d.is_lambda) && (not d.is_ctor)
        && (not (ends_with "_locked" name))
        && (not d.wraps_lock)
        && not (allowed g d Lint.D1)
      then
        match (Hashtbl.find sums k).unprot with
        | Some chain ->
            let effect_name =
              match List.rev chain with (what, _, _) :: _ -> what | [] -> "?"
            in
            report_at g Lint.D1 ~file:d.dfile ~line:d.dline ~col:0
              ~witness:((d.key, d.dfile, d.dline) :: chain)
              (Printf.sprintf
                 "entry point %s reaches %s without holding the writer lock \
                  (single-writer MVCC contract)"
                 d.key effect_name)
        | None -> ())
    (List.rev !(g.order))

(* D2: (a) no mutation after an epoch publication in the same critical
   section; (b) no mutation of a value that flowed out of Engine.pin. *)
let check_d2 g sums =
  List.iter
    (fun k ->
      let d = Hashtbl.find g.defs k in
      if not (allowed g d Lint.D2) then begin
        let published = ref None in
        List.iter
          (fun ev ->
            match ev with
            | Elock -> ()
            | Eunlock -> published := None
            | Eprim (Pub, desc, loc, _) ->
                if !published = None then
                  published := Some (desc, line_of loc)
            | Eprim (Mut, desc, loc, _) -> (
                match !published with
                | Some (pd, pl) ->
                    report g Lint.D2 loc ~file:d.dfile
                      ~witness:
                        [
                          (d.key, d.dfile, d.dline);
                          (desc, d.dfile, line_of loc);
                        ]
                      (Printf.sprintf
                         "store mutation (%s) after epoch publication (%s, \
                          line %d) in the same critical section: pinned \
                          readers share these pages"
                         desc pd pl)
                | None -> ())
            | Eprim _ -> ()
            | Ecall c -> (
                let cs = Hashtbl.find_opt sums c.callee in
                let cd = Hashtbl.find_opt g.defs c.callee in
                let wraps =
                  match cd with Some d -> d.wraps_lock | None -> false
                in
                let callee_allowed =
                  match cd with
                  | Some d -> allowed g d Lint.D2
                  | None -> false
                in
                let closed =
                  confined_callee g c.callee
                  || match cs with Some s -> s.acquires | None -> false
                in
                let lam_flag f =
                  (not wraps)
                  && List.exists
                       (fun lk ->
                         match Hashtbl.find_opt sums lk with
                         | Some s -> f s
                         | None -> false)
                       c.lambdas
                in
                let flag f =
                  (not closed) && (not callee_allowed)
                  && ((match cs with Some s -> f s | None -> false)
                     || lam_flag f)
                in
                (* D2b: pinned value passed to a mutator (passing it to
                   a copy/snapshot/constructor is the intended use) *)
                (match c.pinned_arg with
                | Some n
                  when (not (confined_callee g c.callee))
                       && (has c.callee_prims Mut
                          || (match cs with
                             | Some s -> has s.eff Mut
                             | None -> false)) ->
                    report g Lint.D2 c.loc ~file:d.dfile
                      ~witness:
                        [
                          (d.key, d.dfile, d.dline);
                          (c.callee, d.dfile, line_of c.loc);
                        ]
                      (Printf.sprintf
                         "mutation of %s, which flowed out of Engine.pin: \
                          pinned snapshots are immutable (COW shared-page \
                          invariant)"
                         n)
                | _ -> ());
                (* D2a: callee-mediated mutation after publication *)
                (match !published with
                | Some (pd, pl) when flag (fun s -> s.mut_open) ->
                    report g Lint.D2 c.loc ~file:d.dfile
                      ~witness:
                        [
                          (d.key, d.dfile, d.dline);
                          (c.callee, d.dfile, line_of c.loc);
                        ]
                      (Printf.sprintf
                         "store mutation via %s after epoch publication \
                          (%s, line %d) in the same critical section"
                         c.callee pd pl)
                | _ -> ());
                if !published = None && flag (fun s -> s.pub_open) then
                  published := Some (c.callee, line_of c.loc)))
          d.events
      end)
    (List.rev !(g.order))

(* D3: validate before append; fsync before ack; file+dir fsync around
   a rename. *)
let check_d3 g sums =
  List.iter
    (fun k ->
      let d = Hashtbl.find g.defs k in
      if d.scope_d3 && not (allowed g d Lint.D3) then begin
        let evs = Array.of_list d.events in
        let eff_of ev =
          match ev with
          | Eprim (p, _, _, _) -> bit p
          | Ecall c -> (
              match Hashtbl.find_opt sums c.callee with
              | Some s -> s.eff
              | None -> 0)
          | Elock | Eunlock -> 0
        in
        (* the validate-before-append check wants *direct* append
           evidence (an append primitive or an append-named callee):
           transitive may-append effects from exclusive match arms
           (e.g. a reseed branch next to a validate branch) would
           otherwise order-poison unrelated branches *)
        let direct_append ev =
          match ev with
          | Eprim (Append, _, _, _) -> true
          | Ecall c ->
              has c.callee_prims Append
              || starts_with_pfx "append" (last_comp c.callee)
          | Eprim _ | Elock | Eunlock -> false
        in
        let seen_append = ref false and seen_fsync = ref false in
        Array.iteri
          (fun i ev ->
            (match ev with
            | Eprim (Ack, desc, loc, _) ->
                if not !seen_fsync then
                  report g Lint.D3 loc ~file:d.dfile
                    ~witness:
                      [ (d.key, d.dfile, d.dline); (desc, d.dfile, line_of loc) ]
                    (Printf.sprintf
                       "%s acknowledges a commit without a dominating fsync \
                        (append -> fsync -> ack)"
                       desc)
            | Eprim (Rename, desc, loc, _) ->
                let fsync_after = ref false in
                for j = i + 1 to Array.length evs - 1 do
                  if has (eff_of evs.(j)) Fsync then fsync_after := true
                done;
                if not (!seen_fsync && !fsync_after) then
                  report g Lint.D3 loc ~file:d.dfile
                    ~witness:
                      [ (d.key, d.dfile, d.dline); (desc, d.dfile, line_of loc) ]
                    (Printf.sprintf
                       "%s without a file fsync before and a directory fsync \
                        after: the rename is not durable"
                       desc)
            | Ecall c ->
                if has c.callee_prims Validate && !seen_append then
                  report g Lint.D3 c.loc ~file:d.dfile
                    ~witness:
                      [
                        (d.key, d.dfile, d.dline);
                        (c.callee, d.dfile, line_of c.loc);
                      ]
                    (Printf.sprintf
                       "validation (%s) after the WAL append: a committed \
                        record could fail replay (validate before logging)"
                       c.callee);
                if has c.callee_prims Ack && not !seen_fsync then
                  report g Lint.D3 c.loc ~file:d.dfile
                    ~witness:
                      [
                        (d.key, d.dfile, d.dline);
                        (c.callee, d.dfile, line_of c.loc);
                      ]
                    (Printf.sprintf
                       "%s applies a committed record without a dominating \
                        fsync (append -> fsync -> ack)"
                       c.callee)
            | Eprim _ | Elock | Eunlock -> ());
            if direct_append ev then seen_append := true;
            if has (eff_of ev) Fsync then seen_fsync := true)
          evs
      end)
    (List.rev !(g.order))

(* D4: encoder/decoder tag-set equality for the configured codec
   pairs, matched by canonical-name suffix so fixture-local stub
   modules pair up exactly like the real ones. *)
let codec_pairs =
  [
    ("Wal.encode", "Wal.parse_payload");
    ("Protocol.encode_request", "Protocol.decode_request");
    ("Protocol.encode_response", "Protocol.decode_response");
    ("Store.kind_to_int", "Store.kind_of_int");
    ("Snapshot.section_tag", "Snapshot.section_of_tag");
  ]

let check_d4 g =
  let keys = List.rev !(g.order) in
  List.iter
    (fun (enc_suffix, dec_suffix) ->
      let matching suffix =
        List.filter_map
          (fun k ->
            if k = suffix then Some ("", Hashtbl.find g.defs k)
            else if ends_with ("." ^ suffix) k then
              Some
                ( String.sub k 0 (String.length k - String.length suffix),
                  Hashtbl.find g.defs k )
            else None)
          keys
      in
      let encs = matching enc_suffix and decs = matching dec_suffix in
      List.iter
        (fun (prefix, enc) ->
          match List.assoc_opt prefix decs with
          | None -> ()
          | Some dec ->
              let tags l = List.sort_uniq compare_const l in
              let enc_tags = tags enc.body_tags
              and dec_tags = tags dec.pat_tags in
              let diff a b =
                List.filter (fun t -> not (List.mem t b)) a
              in
              let enc_only = diff enc_tags dec_tags
              and dec_only = diff dec_tags enc_tags in
              if
                (enc_only <> [] || dec_only <> [])
                && (not (allowed g enc Lint.D4))
                && not (allowed g dec Lint.D4)
              then begin
                let show = function
                  | [] -> "{}"
                  | l ->
                      "{"
                      ^ String.concat ", " (List.map const_to_string l)
                      ^ "}"
                in
                report_at g Lint.D4 ~file:dec.dfile ~line:dec.dline ~col:0
                  ~witness:
                    [
                      (enc.key, enc.dfile, enc.dline);
                      (dec.key, dec.dfile, dec.dline);
                    ]
                  (Printf.sprintf
                     "codec drift between %s and %s: encoder-only tags %s, \
                      decoder-only tags %s (adding a constructor must update \
                      both sides)"
                     enc.key dec.key (show enc_only) (show dec_only))
              end)
        encs)
    codec_pairs

let finalize g =
  let sums = summarize g in
  check_d1 g sums;
  check_d2 g sums;
  check_d3 g sums;
  check_d4 g;
  List.sort_uniq Lint.compare_finding g.findings

(* ---------- entry points ------------------------------------------ *)

let analyze_cmts paths =
  let g = new_graph () in
  let errors = ref [] in
  let seen_units = Hashtbl.create 32 in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | infos -> (
          match infos.Cmt_format.cmt_annots with
          | Cmt_format.Implementation str ->
              let unit_name = normalize_unit infos.cmt_modname in
              if not (Hashtbl.mem seen_units unit_name) then begin
                Hashtbl.replace seen_units unit_name ();
                let file =
                  match infos.cmt_sourcefile with
                  | Some f -> f
                  | None -> path
                in
                process_unit g ~unit_name ~file str
              end
          | _ -> ())
      | exception e ->
          errors :=
            Printf.sprintf "%s: cannot read cmt: %s" path
              (Printexc.to_string e)
            :: !errors)
    paths;
  match !errors with
  | [] -> Ok (finalize g)
  | errs -> Error (String.concat "\n" (List.rev errs))

let parse_source path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

let typecheck_source path =
  match
    let past = parse_source path in
    Compmisc.init_path ();
    let env = Compmisc.initial_env () in
    Typemod.type_structure env past
  with
  | str, _, _, _, _ -> Ok str
  | exception e -> (
      match Location.error_of_exn e with
      | Some (`Ok err) ->
          Error (Format.asprintf "%a" Location.print_report err)
      | Some `Already_displayed | None -> Error (Printexc.to_string e))

let unit_of_filename path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let analyze_sources paths =
  let g = new_graph () in
  let rec go = function
    | [] -> Ok (finalize g)
    | path :: rest -> (
        match typecheck_source path with
        | Ok str ->
            process_unit g ~unit_name:(unit_of_filename path) ~file:path str;
            go rest
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  go paths
