module Store = Xvi_xml.Store
module BT = Xvi_btree.Btree.Bytes
module Enc = Xvi_btree.Encoding
module Bigvec = Xvi_util.Bigvec
module Int_map = Map.Make (Int)

(* Keys are order-preserving byte strings: [float_key value ^ int_key
   node], so the (value, node) order the index needs is plain byte
   order and range scans are flat memcmp over the leaves. *)

type node = Store.node
type reconstruct = [ `Document | `Fragment ]

(* The node -> typed key map of complete nodes is a pair of
   copy-on-write columns: the key, and an explicit presence byte (NaN is
   a legal xs:double, so no key value can mark absence). The number of
   complete nodes is the value tree's length: each has one entry. *)
type t = {
  spec : Lexical_types.spec;
  ops : int Indexer.ops;
  fields : int Indexer.fields;
  values : unit BT.t;
  keys : Bigvec.Float.t; (* node -> typed key, meaningful where [present] *)
  present : Bigvec.Byte.t; (* node -> '\001' when complete *)
  mutable frags : string Int_map.t; (* viable nodes -> lexical, `Fragment only *)
  reconstruct : reconstruct;
  mutable viable_count : int;
}

let make ?(reconstruct = `Document) spec fields =
  {
    spec;
    ops = Indexer.sct_ops spec.Lexical_types.sct;
    fields;
    values = BT.create ();
    keys = Bigvec.Float.create ();
    present = Bigvec.Byte.create ();
    frags = Int_map.empty;
    reconstruct;
    viable_count = 0;
  }

let value_of t n =
  if n < Bigvec.Byte.length t.present && Bigvec.Byte.get t.present n <> '\000'
  then Some (Bigvec.Float.get t.keys n)
  else None

let set_key t n v =
  while Bigvec.Byte.length t.present <= n do
    Bigvec.Float.push t.keys 0.0;
    Bigvec.Byte.push t.present '\000'
  done;
  Bigvec.Float.set t.keys n v;
  Bigvec.Byte.set t.present n '\001'

let clear_key t n =
  if n < Bigvec.Byte.length t.present then Bigvec.Byte.set t.present n '\000'

let indexable store n =
  match Store.kind store n with
  | Store.Element | Store.Text | Store.Attribute | Store.Document -> true
  | Store.Comment | Store.Pi | Store.Deleted -> false

let spec t = t.spec
let type_name t = t.spec.Lexical_types.type_name
let sct t = t.spec.Lexical_types.sct
let state_of t n = Indexer.get t.fields n
let is_viable t n = Sct.is_viable (sct t) (state_of t n)
let is_complete t n = value_of t n <> None

(* The lexical value of a viable node, for typed-key extraction. *)
let lexical_of t store n =
  match t.reconstruct with
  | `Document -> Store.string_value store n
  | `Fragment -> ( match Int_map.find_opt n t.frags with Some f -> f | None -> "")

(* An accepting state guarantees the lexical *shape*, not semantic
   validity — "0000-13-45T99:99:99" is shaped like a dateTime but is no
   value of the type. Such nodes keep their (viable) state but get no
   entry in the value B+tree. *)

let add_complete t n value =
  set_key t n value;
  BT.insert t.values (Enc.float_int_key value n) ()

let remove_complete t n =
  match value_of t n with
  | None -> ()
  | Some v ->
      clear_key t n;
      ignore (BT.remove t.values (Enc.float_int_key v n) : bool)

(* Maintain the fragment table for a node whose state just changed.
   Children of a viable element are viable themselves, so their
   fragments are present — provided changes are applied deepest first. *)
let refresh_frag t store n new_state =
  if t.reconstruct = `Fragment then
    if not (Sct.is_viable (sct t) new_state) then
      t.frags <- Int_map.remove n t.frags
    else
      match Store.kind store n with
      | Store.Text | Store.Attribute ->
          t.frags <- Int_map.add n (Store.text store n) t.frags
      | Store.Element | Store.Document ->
          let buf = Buffer.create 16 in
          List.iter
            (fun c ->
              match Int_map.find_opt c t.frags with
              | Some f -> Buffer.add_string buf f
              | None -> ())
            (Store.children store n);
          t.frags <- Int_map.add n (Buffer.contents buf) t.frags
      | Store.Comment | Store.Pi | Store.Deleted -> ()

let register t store n state =
  if Sct.is_viable (sct t) state then begin
    t.viable_count <- t.viable_count + 1;
    if t.reconstruct = `Fragment then
      t.frags <- Int_map.add n (Store.string_value store n) t.frags;
    if Sct.is_accepting (sct t) state then
      match t.spec.Lexical_types.parse (Store.string_value store n) with
      | Some v -> add_complete t n v
      | None -> ()
  end

(* One id-order pass over the indexable nodes in [lo, hi): returns their
   viable count, and hands each complete one's parsed value to
   [complete]. In [`Fragment] mode it also fills the shared fragment
   table, so only a serial caller may run it then. *)
let collect t store lo hi ~complete =
  let sct_ = sct t in
  let viable = ref 0 in
  for n = lo to hi - 1 do
    if indexable store n then begin
      let state = Indexer.get t.fields n in
      if Sct.is_viable sct_ state then begin
        incr viable;
        if t.reconstruct = `Fragment then
          t.frags <- Int_map.add n (Store.string_value store n) t.frags;
        if Sct.is_accepting sct_ state then
          match t.spec.Lexical_types.parse (Store.string_value store n) with
          | Some v -> complete v n
          | None -> ()
      end
    end
  done;
  !viable

let of_fields ?(reconstruct = `Document) ?pool spec store fields =
  let t = make ~reconstruct spec fields in
  let range = Store.node_range store in
  let pairs = ref [] in
  let add v n =
    set_key t n v;
    pairs := (Enc.float_int_key v n, ()) :: !pairs
  in
  (match pool with
  | Some pool
    when Xvi_util.Pool.parallelism pool > 1 && reconstruct = `Document ->
      (* Per-domain collection over node-id slices: viability counts,
         lexical re-reads and float parsing (the expensive part). The
         key columns, the sort and the bulk load stay single-threaded. *)
      let slices = Xvi_util.Pool.slices range (Xvi_util.Pool.parallelism pool) in
      Array.iter
        (fun (viable, complete) ->
          t.viable_count <- t.viable_count + viable;
          List.iter (fun (v, n) -> add v n) complete)
        (Xvi_util.Pool.map pool
           (fun k ->
             let lo, hi = slices.(k) in
             let complete = ref [] in
             let viable =
               collect t store lo hi ~complete:(fun v n ->
                   complete := (v, n) :: !complete)
             in
             (viable, !complete))
           (Array.length slices))
  | _ -> t.viable_count <- collect t store 0 range ~complete:add);
  let arr = Array.of_list !pairs in
  Array.stable_sort (fun (k1, ()) (k2, ()) -> String.compare k1 k2) arr;
  { t with values = BT.of_sorted_array arr }

let create ?reconstruct ?pool spec store =
  of_fields ?reconstruct ?pool spec store
    (Indexer.create (Indexer.sct_ops spec.Lexical_types.sct) store)

let bounds lo hi =
  ( Option.map (fun v -> Enc.float_int_key v min_int) lo,
    Option.map (fun v -> Enc.float_int_key v max_int) hi )

let range ?lo ?hi t =
  let lo, hi = bounds lo hi in
  let acc = ref [] in
  (* decode-free leaf walk: one callback per leaf run, the node pulled
     straight out of the key bytes — no per-binding closure dispatch,
     no value access *)
  BT.iter_raw ?lo ?hi
    (fun keys off len ->
      for i = off to off + len - 1 do
        acc := Enc.decode_int keys.(i) 8 :: !acc
      done)
    t.values;
  List.rev !acc

let equals t v = range ~lo:v ~hi:v t

let estimate_range ?lo ?hi t =
  let lo, hi = bounds lo hi in
  BT.count_range ?lo ?hi t.values

let cursor ?lo ?hi t =
  (* The tree's native order is (value, node); merges need node order,
     so materialize and sort on first pull — the cursor is lazy in
     *when* the range runs, and exact thereafter. *)
  let state = ref None in
  let rec pull () =
    match !state with
    | Some rest -> (
        match rest with
        | [] -> None
        | n :: tl ->
            state := Some tl;
            Some n)
    | None ->
        state := Some (List.sort Int.compare (range ?lo ?hi t));
        pull ()
  in
  pull

(* Apply an update: fix the viability counter from state changes, then
   re-extract fragments and typed values across the whole touched set —
   a state can survive a value change (replacing digits by digits), so
   the changed-state list alone is not enough. Touched nodes arrive
   deepest first, which [refresh_frag] relies on. *)
let apply t store (res : int Indexer.update_result) =
  List.iter
    (fun { Indexer.old_field; new_field; _ } ->
      let was = Sct.is_viable (sct t) old_field
      and now = Sct.is_viable (sct t) new_field in
      if was && not now then t.viable_count <- t.viable_count - 1;
      if now && not was then t.viable_count <- t.viable_count + 1)
    res.Indexer.changes;
  List.iter
    (fun (n, _level) ->
      let st = Indexer.get t.fields n in
      refresh_frag t store n st;
      remove_complete t n;
      if Sct.is_accepting (sct t) st then
        match t.spec.Lexical_types.parse (lexical_of t store n) with
        | Some v -> add_complete t n v
        | None -> ())
    res.Indexer.touched

let maintain t store fr = apply t store (Indexer.maintain t.ops store t.fields fr)

let update_texts t store nodes = maintain t store (Indexer.frontier store ~texts:nodes ())

let on_delete t store ~removed fr =
  List.iter
    (fun n ->
      if Sct.is_viable (sct t) (Indexer.get t.fields n) then
        t.viable_count <- t.viable_count - 1;
      t.frags <- Int_map.remove n t.frags;
      remove_complete t n)
    removed;
  maintain t store fr

let on_insert t store ~roots fr =
  (match roots with
  | [] -> ()
  | r :: rest ->
      (* the fragment is the store's last ids *)
      let from = List.fold_left min r rest in
      Indexer.compute_subtree t.ops store t.fields from;
      for n = from to Store.node_range store - 1 do
        if indexable store n then register t store n (Indexer.get t.fields n)
      done);
  maintain t store fr

let snapshot t =
  {
    t with
    fields = Indexer.snapshot t.fields;
    values = BT.snapshot t.values;
    keys = Bigvec.Float.snapshot t.keys;
    present = Bigvec.Byte.snapshot t.present;
  }

(* Snapshot section: type name, reconstruct mode, then the value entries
   in key order as (node, the 8 order-preserving float bytes of the
   key). The states are not stored: a load computes them from the store
   ([Indexer.fill]), and the viable count, the key columns and the
   fragment map follow from them and the store. The entries spare the
   load a sort; each is checked against its node's parsed value. *)
module Codec = Xvi_util.Codec

let encode t sink =
  Codec.Sink.string sink (type_name t);
  Codec.Sink.byte sink (match t.reconstruct with `Document -> 0 | `Fragment -> 1);
  Codec.Sink.varint sink (BT.length t.values);
  BT.iter
    (fun k () ->
      Codec.Sink.varint sink (Enc.decode_int k 8);
      Codec.Sink.bytes sink k 0 8)
    t.values

let decode store spec fields src =
  let name = Codec.Source.string src in
  if not (String.equal name spec.Lexical_types.type_name) then
    Codec.malformed "typed section for %S where %s was expected" name
      spec.Lexical_types.type_name;
  let reconstruct =
    match Codec.Source.byte src with
    | 0 -> `Document
    | 1 -> `Fragment
    | b -> Codec.malformed "unknown reconstruct mode %d" b
  in
  let t = make ~reconstruct spec fields in
  let complete = ref 0 in
  t.viable_count <-
    collect t store 0 (Store.node_range store) ~complete:(fun v n ->
        set_key t n v;
        incr complete);
  let count = Codec.Source.varint src in
  if count <> !complete then
    Codec.malformed "%s: %d value entries for %d complete nodes" name count
      !complete;
  let prev = ref "" in
  let pairs =
    Array.init count (fun _ ->
        let n = Codec.Source.varint src in
        (* the key the entry must hold: from the node's parsed value *)
        let key =
          match if n < Store.node_range store then value_of t n else None with
          | Some v -> Enc.float_int_key v n
          | None -> Codec.malformed "%s: value entry for incomplete node %d" name n
        in
        Codec.Source.raw src 8 (fun s off _ ->
            if not (String.equal (String.sub s off 8) (String.sub key 0 8)) then
              Codec.malformed "%s: value entry for node %d disagrees" name n);
        if String.compare key !prev <= 0 then
          Codec.malformed "%s: value entries out of key order" name;
        prev := key;
        (key, ()))
  in
  { t with values = BT.of_sorted_array pairs }

let digest t store =
  let b = Buffer.create 4096 in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  Buffer.add_string b (type_name t);
  add_int t.viable_count;
  BT.iter (fun k () -> Buffer.add_string b k) t.values;
  Store.iter_pre store (fun n ->
      if indexable store n then begin
        add_int n;
        add_int (state_of t n);
        (match value_of t n with
        | Some v -> Buffer.add_int64_le b (Int64.bits_of_float v)
        | None -> Buffer.add_char b '-');
        match Int_map.find_opt n t.frags with
        | Some f -> Buffer.add_string b f
        | None -> ()
      end);
  Digest.string (Buffer.contents b)

type stats = {
  viable_nodes : int;
  complete_nodes : int;
  complete_text_nodes : int;
  complete_non_leaves : int;
}

let stats t store =
  let complete_texts = ref 0 and complete_non_leaves = ref 0 in
  Store.iter_pre store (fun n ->
      match Store.kind store n with
      | Store.Text -> if is_complete t n then incr complete_texts
      | Store.Element | Store.Document ->
          let has_element_child =
            List.exists
              (fun c -> Store.kind store c = Store.Element)
              (Store.children store n)
          in
          if has_element_child && is_complete t n then incr complete_non_leaves
      | _ -> ());
  {
    viable_nodes = t.viable_count;
    complete_nodes = BT.length t.values;
    complete_text_nodes = !complete_texts;
    complete_non_leaves = !complete_non_leaves;
  }

let entry_count t = BT.length t.values

let storage_bytes t =
  let state_column = t.viable_count * Sct.state_bytes (sct t) in
  let frag_bytes =
    Int_map.fold (fun _ f acc -> acc + 24 + String.length f) t.frags 0
  in
  state_column + frag_bytes + BT.memory_bytes ~value_bytes:0 t.values

let validate t store =
  let problems = ref [] in
  let reference = Indexer.create_reference t.ops store in
  let viable = ref 0 in
  let expected_complete = Hashtbl.create 256 in
  Store.iter_pre store (fun n ->
      if indexable store n then begin
        let expect = Indexer.get reference n and got = Indexer.get t.fields n in
        if expect <> got then
          problems :=
            Printf.sprintf "node %d: state %d <> expected %d" n got expect
            :: !problems;
        if Sct.is_viable (sct t) expect then begin
          incr viable;
          if t.reconstruct = `Fragment then begin
            let sv = Store.string_value store n in
            match Int_map.find_opt n t.frags with
            | Some f when String.equal f sv -> ()
            | Some f ->
                problems :=
                  Printf.sprintf "node %d: fragment %S <> string value %S" n f sv
                  :: !problems
            | None ->
                problems :=
                  Printf.sprintf "node %d: viable but no fragment" n :: !problems
          end
        end;
        if Sct.is_accepting (sct t) expect then
          match t.spec.Lexical_types.parse (Store.string_value store n) with
          | Some v -> Hashtbl.replace expected_complete n v
          | None -> ()
      end);
  if !viable <> t.viable_count then
    problems :=
      Printf.sprintf "viable count %d <> expected %d" t.viable_count !viable
      :: !problems;
  let complete = ref 0 in
  for n = 0 to Bigvec.Byte.length t.present - 1 do
    if is_complete t n then incr complete
  done;
  if Hashtbl.length expected_complete <> !complete then
    problems :=
      Printf.sprintf "complete count %d <> expected %d" !complete
        (Hashtbl.length expected_complete)
      :: !problems;
  Hashtbl.iter
    (fun n v ->
      match value_of t n with
      | Some v' when v' = v -> ()
      | Some v' ->
          problems :=
            Printf.sprintf "node %d: value %g <> expected %g" n v' v :: !problems
      | None ->
          problems := Printf.sprintf "node %d: missing value" n :: !problems)
    expected_complete;
  let tree_count = ref 0 in
  BT.iter
    (fun k () ->
      let v = Enc.decode_float k 0 and n = Enc.decode_int k 8 in
      incr tree_count;
      match Hashtbl.find_opt expected_complete n with
      | Some v' when v' = v -> ()
      | _ -> problems := Printf.sprintf "stale tree entry (%g, %d)" v n :: !problems)
    t.values;
  if !tree_count <> Hashtbl.length expected_complete then
    problems :=
      Printf.sprintf "tree entries %d <> expected %d" !tree_count
        (Hashtbl.length expected_complete)
      :: !problems;
  (match BT.check_invariants t.values with
  | Ok () -> ()
  | Error e -> problems := ("btree: " ^ e) :: !problems);
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
