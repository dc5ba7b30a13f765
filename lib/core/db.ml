module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Pool = Xvi_util.Pool

type node = Store.node

module Config = struct
  type t = {
    types : Lexical_types.spec list;
    substring : bool;
    jobs : int;
  }

  let default =
    {
      types = Lexical_types.[ double (); datetime () ];
      substring = false;
      jobs = 1;
    }
end

module Range = Xvi_query.Range
module Ir = Xvi_query.Ir
module Plan = Xvi_query.Plan

type t = {
  store : Store.t;
  config : Config.t;
  strings : String_index.t;
  typed : Typed_index.t list;
  substring : Substring_index.t option;
  names : Name_index.t;
  mutable plane : Xvi_xml.Pre_plane.t option;
}

let assemble ~config ~store ~strings ~typed =
  {
    store;
    config;
    strings;
    typed;
    substring =
      (if config.Config.substring then Some (Substring_index.create store)
       else None);
    names = Name_index.create store;
    plane = None;
  }

let build ~config ?pool store =
  (* one pass computes the fields of every index (paper §5: "creating
     ... multiple defined indices can be done simultaneously with only
     one pass"); the trees are then bulk-loaded from the columns *)
  let hash_fields = Indexer.empty_fields Indexer.hash_ops in
  let typed_fields =
    List.map
      (fun spec ->
        (spec, Indexer.empty_fields (Indexer.sct_ops spec.Lexical_types.sct)))
      config.Config.types
  in
  Indexer.fill store
    (Indexer.Packed (Indexer.hash_ops, hash_fields)
    :: List.map
         (fun (spec, fields) ->
           Indexer.Packed (Indexer.sct_ops spec.Lexical_types.sct, fields))
         typed_fields);
  assemble ~config ~store
    ~strings:(String_index.of_fields ?pool store hash_fields)
    ~typed:
      (List.map
         (fun (spec, fields) -> Typed_index.of_fields ?pool spec store fields)
         typed_fields)

let of_store ?(config = Config.default) ?pool store =
  match pool with
  | Some _ -> build ~config ?pool store
  | None when config.Config.jobs > 1 ->
      Pool.with_pool ~jobs:config.Config.jobs (fun pool ->
          build ~config ~pool store)
  | None -> build ~config store

let of_xml ?config src =
  Result.map (fun store -> of_store ?config store) (Parser.parse src)

let of_xml_exn ?config src = of_store ?config (Parser.parse_exn src)

(* Epoch publication by structural sharing: the store and every index
   column are paged copy-on-write vectors and every index tree is a
   path-copying B+tree, so the copy is O(directories) and each side
   pays only for what it writes next. The plane is immutable and stays
   valid under value updates, so the copy shares the cached one; a
   structural update on either side drops only that side's cache. *)
let copy t =
  {
    store = Store.snapshot t.store;
    config = t.config;
    strings = String_index.snapshot t.strings;
    typed = List.map Typed_index.snapshot t.typed;
    substring = Option.map Substring_index.snapshot t.substring;
    names = Name_index.snapshot t.names;
    plane = t.plane;
  }

(* A digest of the logical state: every live node's kind, links, name
   and text, then each index's own logical digest. Equal content digests
   equally whatever the copy history — unlike marshalled bytes, which
   carry owner tokens. *)
let digest t =
  let store = t.store in
  let b = Buffer.create 4096 in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_opt o = add_int (Option.value o ~default:(-1)) in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string b s
  in
  add_int (Store.node_range store);
  for n = 0 to Store.node_range store - 1 do
    let k = Store.kind store n in
    Buffer.add_char b
      (match k with
      | Store.Document -> 'D'
      | Store.Element -> 'E'
      | Store.Text -> 'T'
      | Store.Attribute -> 'A'
      | Store.Comment -> 'C'
      | Store.Pi -> 'P'
      | Store.Deleted -> 'x');
    if k <> Store.Deleted then begin
      add_opt (Store.parent store n);
      add_opt (Store.first_child store n);
      add_opt (Store.last_child store n);
      add_opt (Store.next_sibling store n);
      add_opt (Store.prev_sibling store n);
      add_opt (Store.first_attribute store n);
      (match k with
      | Store.Element | Store.Attribute | Store.Pi -> add_str (Store.name store n)
      | _ -> ());
      match k with
      | Store.Text | Store.Attribute | Store.Comment | Store.Pi ->
          add_str (Store.text store n)
      | _ -> ()
    end
  done;
  List.iter
    (fun spec -> add_str spec.Lexical_types.type_name)
    t.config.Config.types;
  Buffer.add_string b (String_index.digest t.strings store);
  List.iter (fun ti -> Buffer.add_string b (Typed_index.digest ti store)) t.typed;
  (match t.substring with
  | None -> Buffer.add_char b '-'
  | Some si -> Buffer.add_string b (Substring_index.digest si));
  Buffer.add_string b (Name_index.digest t.names store);
  Digest.string (Buffer.contents b)

let store t = t.store
let config t = t.config
let string_index t = t.strings

let typed_index t name =
  List.find_opt (fun ti -> String.equal (Typed_index.type_name ti) name) t.typed

let typed_indices t = t.typed
let substring_index t = t.substring
let name_index t = t.names

let plane t =
  match t.plane with
  | Some p -> p
  | None ->
      let p = Xvi_xml.Pre_plane.build t.store in
      t.plane <- Some p;
      p

let invalidate_plane t = t.plane <- None

(* --- Query layer wiring ---

   Everything below routes through lib/query: [access] hands the planner
   one streaming access path per index-served leaf, [verify] is the
   ground truth for residual conjuncts and scan fallbacks, and each
   public lookup is an IR compile + plan. *)

let has_value_kind store n =
  match Store.kind store n with
  | Store.Element | Store.Text | Store.Attribute | Store.Document -> true
  | Store.Comment | Store.Pi | Store.Deleted -> false

let spec_named name =
  List.find_opt
    (fun s -> String.equal s.Lexical_types.type_name name)
    (Lexical_types.all ())

(* Typed key of one node under a type name: the configured index's
   column when present, otherwise DFA acceptance + parse — acceptance
   first, because [parse] assumes a vetted lexical shape. *)
let typed_value t name n =
  match typed_index t name with
  | Some ti -> Typed_index.value_of ti n
  | None -> (
      match spec_named name with
      | None -> invalid_arg (Printf.sprintf "Db: unknown type %s" name)
      | Some spec ->
          let sv = Store.string_value t.store n in
          if Dfa.accepts (Sct.dfa spec.Lexical_types.sct) sv then
            spec.Lexical_types.parse sv
          else None)

let rec holds t ir n =
  let store = t.store in
  match ir with
  | Ir.All -> true
  | Ir.String_eq s -> String.equal (Store.string_value store n) s
  | Ir.Typed_range (name, r) -> (
      match typed_value t name n with
      | Some v -> Range.mem r v
      | None -> false)
  | Ir.Contains pat -> (
      match Store.kind store n with
      | Store.Text | Store.Attribute ->
          Substring_index.string_contains ~pattern:pat (Store.text store n)
      | _ -> false)
  | Ir.Element_contains pat -> (
      match Store.kind store n with
      | Store.Element | Store.Document ->
          Substring_index.string_contains ~pattern:pat
            (Store.string_value store n)
      | _ -> false)
  | Ir.Named name ->
      Store.kind store n = Store.Element
      && String.equal (Store.name store n) name
  | Ir.Within (scope, p) ->
      Xvi_xml.Pre_plane.in_subtree (plane t) ~scope n && holds t p n
  | Ir.And ps -> List.for_all (fun p -> holds t p n) ps
  | Ir.Or ps -> List.exists (fun p -> holds t p n) ps
  | Ir.Not p -> not (holds t p n)

let verify t ir n = has_value_kind t.store n && holds t ir n

let access t ir =
  match ir with
  | Ir.String_eq s ->
      Some
        {
          Plan.label = Printf.sprintf "string-index %S" s;
          estimate = String_index.estimate t.strings s;
          cursor = (fun () -> String_index.cursor t.strings t.store s);
          native = (fun () -> String_index.lookup t.strings t.store s);
          check = verify t ir;
        }
  | Ir.Typed_range (name, r) -> (
      match typed_index t name with
      | None -> None
      | Some ti ->
          let lo = Range.lo r and hi = Range.hi r in
          Some
            {
              Plan.label =
                Printf.sprintf "typed-index %s %s" name (Range.to_string r);
              estimate = Typed_index.estimate_range ?lo ?hi ti;
              cursor = (fun () -> Typed_index.cursor ?lo ?hi ti);
              native = (fun () -> Typed_index.range ?lo ?hi ti);
              (* probe the index's node->value column directly: one
                 hashtable lookup per candidate, no kind test or IR
                 dispatch on the hot intersection path *)
              check =
                (fun n ->
                  match Typed_index.value_of ti n with
                  | Some v -> Range.mem r v
                  | None -> false);
            })
  | Ir.Contains pat -> (
      match t.substring with
      | None -> None
      | Some si ->
          Some
            {
              Plan.label = Printf.sprintf "substring-index contains %S" pat;
              estimate = Substring_index.estimate si pat;
              cursor = (fun () -> Substring_index.cursor si t.store pat);
              native = (fun () -> Substring_index.contains si t.store pat);
              check = verify t ir;
            })
  | Ir.Element_contains pat -> (
      match t.substring with
      | None -> None
      | Some si ->
          Some
            {
              Plan.label =
                Printf.sprintf "substring-index element-contains %S" pat;
              estimate = Substring_index.element_estimate si pat;
              cursor = (fun () -> Substring_index.element_cursor si t.store pat);
              native =
                (fun () -> Substring_index.element_contains si t.store pat);
              check = verify t ir;
            })
  | Ir.Named name ->
      (* resolve the name to its interned id once, so [check] compares
         two ints instead of re-interning per candidate *)
      let name_id = Xvi_xml.Name_pool.find (Store.names t.store) name in
      Some
        {
          Plan.label = Printf.sprintf "name-index <%s>" name;
          estimate = Name_index.count t.names t.store name;
          cursor = (fun () -> Name_index.cursor t.names t.store name);
          native = (fun () -> Name_index.nodes t.names t.store name);
          check =
            (fun n ->
              match name_id with
              | None -> false
              | Some id ->
                  Store.kind t.store n = Store.Element
                  && Store.name_id t.store n = id);
        }
  | _ -> None

let provider t =
  {
    Plan.universe = (fun () -> Store.live_count t.store);
    node_range = (fun () -> Store.node_range t.store);
    plane = (fun () -> plane t);
    access = access t;
    verify = verify t;
  }

(* An unknown type name is a caller bug, not an empty result; surface it
   at compile time rather than from deep inside a scan. *)
let known_type t name = typed_index t name <> None || spec_named name <> None

let rec first_unknown_type t ir =
  match ir with
  | Ir.Typed_range (name, _) -> if known_type t name then None else Some name
  | Ir.Within (_, p) | Ir.Not p -> first_unknown_type t p
  | Ir.And ps | Ir.Or ps ->
      List.fold_left
        (fun acc p ->
          match acc with Some _ -> acc | None -> first_unknown_type t p)
        None ps
  | _ -> None

let check_types t ir =
  match first_unknown_type t ir with
  | None -> ()
  | Some name -> invalid_arg (Printf.sprintf "Db: unknown type %s" name)

let compile t ir =
  check_types t ir;
  Plan.plan (provider t) ir

let explain t ir = Plan.explain (compile t ir)
let estimate t ir = Plan.estimate (compile t ir)
let query_seq t ir = Plan.run_seq (compile t ir)
let query_ids t ir = Plan.run_list (compile t ir)

let query t ir =
  Xvi_xml.Pre_plane.sort_doc_order (plane t) (query_ids t ir)

(* --- Lookups: one-line IR compiles ---

   Single-leaf plans return the index's native answer order, which keeps
   each signature bit-identical to the pre-planner implementation. *)

let elements_named t name = Plan.run_list (compile t (Ir.named name))
let lookup_string t s = Plan.run_list (compile t (Ir.string_eq s))
let lookup_contains t pattern = Plan.run_list (compile t (Ir.contains pattern))

let lookup_element_contains t pattern =
  Plan.run_list (compile t (Ir.element_contains pattern))

let lookup_typed t name range =
  let ir = Ir.typed_range name range in
  match typed_index t name with
  | Some _ -> Plan.run_list (compile t ir)
  | None ->
      (* scan fallback — decorate with typed keys to keep the value-order
         contract the index would have delivered *)
      let keyed =
        List.filter_map
          (fun n -> Option.map (fun v -> (v, n)) (typed_value t name n))
          (Plan.run_list (compile t ir))
      in
      List.map snd
        (List.sort
           (fun (v1, n1) (v2, n2) ->
             match Float.compare v1 v2 with 0 -> Int.compare n1 n2 | c -> c)
           keyed)

let lookup_double t range = lookup_typed t "xs:double" range

(* --- Result-typed reads ---

   The only way any read above can escape with an exception is an
   unknown type name reaching [check_types]; these variants surface that
   as a value instead, so boundaries that must not raise (the serve
   engine, the wire protocol) get a total read API. *)

type read_error = [ `Unknown_type of string ]

let read_error_to_string (`Unknown_type name : read_error) =
  Printf.sprintf "unknown type %s" name

let query_r t ir =
  match first_unknown_type t ir with
  | Some name -> Error (`Unknown_type name)
  | None -> Ok (query t ir)

let lookup_typed_r t name range =
  if known_type t name then Ok (lookup_typed t name range)
  else Error (`Unknown_type name)

let lookup_string_within t ~scope s =
  query t (Ir.within ~scope (Ir.string_eq s))

let lookup_double_within t ~scope range =
  query t (Ir.within ~scope (Ir.typed_range "xs:double" range))

let update_texts t updates =
  (* the substring index needs the old values to drop their grams *)
  let with_old =
    match t.substring with
    | None -> []
    | Some _ -> List.map (fun (n, _) -> (n, Store.text t.store n)) updates
  in
  List.iter (fun (n, txt) -> Store.set_text t.store n txt) updates;
  let fr = Indexer.frontier t.store ~texts:(List.map fst updates) () in
  String_index.maintain t.strings t.store fr;
  List.iter (fun ti -> Typed_index.maintain ti t.store fr) t.typed;
  match t.substring with
  | None -> ()
  | Some si -> Substring_index.update_texts si t.store with_old

let update_text t n txt = update_texts t [ (n, txt) ]

let delete_subtree t n =
  let parent =
    match Store.parent t.store n with
    | Some p -> p
    | None -> invalid_arg "Db.delete_subtree: node has no parent"
  in
  let removed = ref [] in
  let removed_values = ref [] in
  (* Only the indexable kinds reach the value indices: comments and PIs
     carry no postings, and their never-assigned field reads as the
     (viable) identity — counting them as removed viable nodes would
     corrupt the typed indices' viability accounting. *)
  Store.iter_pre ~root:n t.store (fun m ->
      match Store.kind t.store m with
      | Store.Element -> removed := m :: !removed
      | Store.Text | Store.Attribute ->
          removed := m :: !removed;
          removed_values := (m, Store.text t.store m) :: !removed_values
      | _ -> ());
  Store.delete_subtree t.store n;
  let removed = !removed in
  let fr = Indexer.frontier t.store ~texts:[] ~structural:[ parent ] () in
  String_index.on_delete t.strings t.store ~removed fr;
  List.iter (fun ti -> Typed_index.on_delete ti t.store ~removed fr) t.typed;
  (match t.substring with
  | None -> ()
  | Some si -> Substring_index.on_delete si ~removed:!removed_values);
  invalidate_plane t

let insert_xml t ~parent src =
  match Parser.parse_fragment t.store ~parent src with
  | Error _ as e -> e
  | Ok roots ->
      let parents =
        List.sort_uniq Int.compare (List.filter_map (Store.parent t.store) roots)
      in
      let fr = Indexer.frontier t.store ~texts:[] ~structural:parents () in
      String_index.on_insert t.strings t.store ~roots fr;
      List.iter (fun ti -> Typed_index.on_insert ti t.store ~roots fr) t.typed;
      (match t.substring with
      | None -> ()
      | Some si -> Substring_index.on_insert si t.store ~roots);
      Name_index.on_insert t.names t.store ~roots;
      invalidate_plane t;
      Ok roots

let compact t =
  let store', mapping = Store.compact t.store in
  (of_store ~config:t.config store', mapping)

let index_storage_bytes t =
  String_index.storage_bytes t.strings
  + List.fold_left (fun acc ti -> acc + Typed_index.storage_bytes ti) 0 t.typed
  + (match t.substring with
    | None -> 0
    | Some si -> Substring_index.storage_bytes si)

let validate t =
  let results =
    String_index.validate t.strings t.store
    :: Name_index.validate t.names t.store
    :: (match t.substring with
       | None -> []
       | Some si -> [ Substring_index.validate si t.store ])
    @ List.map (fun ti -> Typed_index.validate ti t.store) t.typed
  in
  let errors =
    List.filter_map (function Ok () -> None | Error e -> Some e) results
  in
  match errors with [] -> Ok () | es -> Error (String.concat "; " es)
