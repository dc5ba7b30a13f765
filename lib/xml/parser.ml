type error = Sax.error = { line : int; col : int; offset : int; message : string }

let error_to_string = Sax.error_to_string

(* Append the node [ev] starts or carries as the last child of the
   innermost open element in [stack], or of [parent] when none is open,
   and return the new stack.  [top] sees each node appended at depth 0. *)
let append store ~parent ~top stack (ev : Sax.event) =
  let under = match stack with p :: _ -> p | [] -> parent in
  let at_top = match stack with _ :: _ -> ignore | [] -> top in
  match ev with
  | Sax.Start_element { name; attrs } ->
      let element = Store.append_element store ~parent:under name in
      at_top element;
      List.iter
        (fun (name, value) ->
          ignore (Store.append_attribute store ~element ~name ~value : Store.node))
        attrs;
      element :: stack
  | Sax.End_element _ -> ( match stack with _ :: rest -> rest | [] -> [])
  | Sax.Text s | Sax.Cdata s ->
      at_top (Store.append_text store ~parent:under s);
      stack
  | Sax.Comment c ->
      at_top (Store.append_comment store ~parent:under c);
      stack
  | Sax.Pi { target; body } ->
      at_top (Store.append_pi store ~parent:under ~target body);
      stack

type shredder = {
  store : Store.t;
  mutable stack : Store.node list; (* open elements, innermost first *)
  mutable root_closed : bool;
}

let shredder store = { store; stack = []; root_closed = false }

(* Prolog comments and PIs go under the document node; trailing ones,
   after the root element closed, are lexed but not stored. *)
let shred s ev =
  if not s.root_closed then begin
    s.stack <- append s.store ~parent:Store.document ~top:ignore s.stack ev;
    match (ev, s.stack) with
    | Sax.End_element _, [] -> s.root_closed <- true
    | _ -> ()
  end

let parse ?strip_ws src =
  let store = Store.create () in
  match Sax.iter (Sax.make ?strip_ws (Sax.of_string src)) (shred (shredder store)) with
  | Ok () -> Ok store
  | Error e -> Error e

let parse_exn ?strip_ws src =
  match parse ?strip_ws src with
  | Ok store -> store
  | Error e -> failwith (error_to_string e)

let parse_fragment ?strip_ws store ~parent src =
  (* Check the parent and lex the whole fragment before touching the
     store, so a rejected one leaves it unchanged. *)
  let takes_children =
    parent >= 0
    && parent < Store.node_range store
    &&
    match Store.kind store parent with
    | Store.Document | Store.Element -> true
    | _ -> false
  in
  let events = ref [] in
  let lexed =
    if not takes_children then
      Error
        {
          line = 1;
          col = 1;
          offset = 0;
          message =
            Printf.sprintf
              "insert parent %d is not a live element or the document" parent;
        }
    else
      Sax.iter
        (Sax.fragment ?strip_ws (Sax.of_string src))
        (fun ev -> events := ev :: !events)
  in
  match lexed with
  | Error e -> Error e
  | Ok () ->
      let roots = ref [] in
      let top n = roots := n :: !roots in
      ignore
        (List.fold_left (append store ~parent ~top) [] (List.rev !events)
          : Store.node list);
      Ok (List.rev !roots)
