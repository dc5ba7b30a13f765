module Store = Xvi_xml.Store
module BT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_key)

type node = Store.node

(* A posting packs (name id, element) into one unboxed int — the name id
   above the 30-bit node id — so one name's elements are a contiguous,
   node-ordered key range of a copy-on-write B+tree. *)
let node_mask = 0x3FFF_FFFF
let pack id n = (id lsl 30) lor n

type t = { postings : unit BT.t }

(* Every live node is in the tree, so a scan in id order finds the same
   elements as a document walk — already in node order within each
   name, so a counting sort by name id yields the key order. *)
let create store =
  let range = Store.node_range store in
  let starts = Array.make (Xvi_xml.Name_pool.count (Store.names store) + 1) 0 in
  for n = 0 to range - 1 do
    if Store.kind store n = Store.Element then begin
      let id = Store.name_id store n in
      starts.(id + 1) <- starts.(id + 1) + 1
    end
  done;
  for id = 1 to Array.length starts - 1 do
    starts.(id) <- starts.(id) + starts.(id - 1)
  done;
  let keys = Array.make starts.(Array.length starts - 1) (0, ()) in
  for n = 0 to range - 1 do
    if Store.kind store n = Store.Element then begin
      let id = Store.name_id store n in
      keys.(starts.(id)) <- (pack id n, ());
      starts.(id) <- starts.(id) + 1
    end
  done;
  { postings = BT.of_sorted_array keys }

let snapshot t = { postings = BT.snapshot t.postings }

(* Deletion is lazy: tombstoned elements keep their posting and are
   skipped here; names are immutable, so a live entry is always still an
   element of its name. *)
let fold_live t store name f init =
  match Xvi_xml.Name_pool.find (Store.names store) name with
  | None -> init
  | Some id ->
      let acc = ref init in
      BT.iter_range ~lo:(pack id 0) ~hi:(pack id node_mask)
        (fun k () ->
          let n = k land node_mask in
          if Store.is_live store n then acc := f n !acc)
        t.postings;
      !acc

let nodes t store name = List.rev (fold_live t store name List.cons [])
let count t store name = fold_live t store name (fun _ c -> c + 1) 0

let cursor t store name =
  match Xvi_xml.Name_pool.find (Store.names store) name with
  | None -> fun () -> None
  | Some id ->
      let rest = ref (BT.to_seq_range ~lo:(pack id 0) ~hi:(pack id node_mask) t.postings) in
      let rec pull () =
        match !rest () with
        | Seq.Nil -> None
        | Seq.Cons ((k, ()), tl) ->
            rest := tl;
            let n = k land node_mask in
            if Store.is_live store n then Some n else pull ()
      in
      pull

let on_insert t store ~roots =
  List.iter
    (fun root ->
      Store.iter_pre ~root store (fun n ->
          if Store.kind store n = Store.Element then
            BT.insert t.postings (pack (Store.name_id store n) n) ()))
    roots

let digest t store =
  let b = Buffer.create 4096 in
  BT.iter
    (fun k () ->
      if Store.is_live store (k land node_mask) then
        Buffer.add_int64_le b (Int64.of_int k))
    t.postings;
  Digest.string (Buffer.contents b)

let storage_bytes t = BT.memory_bytes ~value_bytes:0 t.postings

let validate t store =
  let expected = Hashtbl.create 64 in
  Store.iter_pre store (fun n ->
      if Store.kind store n = Store.Element then begin
        let name = Store.name store n in
        Hashtbl.replace expected name
          (n :: Option.value ~default:[] (Hashtbl.find_opt expected name))
      end);
  let problems = ref [] in
  Hashtbl.iter
    (fun name nodes_expected ->
      let got = nodes t store name in
      if got <> List.sort Int.compare nodes_expected then
        problems := Printf.sprintf "mismatch for <%s>" name :: !problems)
    expected;
  (* and no phantom postings: every live entry is an element of its name *)
  BT.iter
    (fun k () ->
      let n = k land node_mask in
      if
        Store.is_live store n
        && (Store.kind store n <> Store.Element
           || Store.name_id store n <> k lsr 30)
      then problems := Printf.sprintf "phantom posting for node %d" n :: !problems)
    t.postings;
  (match BT.check_invariants t.postings with
  | Ok () -> ()
  | Error e -> problems := ("btree: " ^ e) :: !problems);
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
