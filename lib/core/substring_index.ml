module Store = Xvi_xml.Store
module BT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_key)

type node = Store.node

let q = 3

(* A posting packs (24-bit gram, 30-bit node) into one unboxed int;
   packed order equals (gram, node) lexicographic order. *)
let node_mask = 0x3FFF_FFFF
let pack_key g n = (g lsl 30) lor n

type t = {
  postings : unit BT.t; (* packed (3-gram, node) *)
  mutable entries : int;
}

let indexable store n =
  match Store.kind store n with
  | Store.Text | Store.Attribute -> true
  | _ -> false

(* 3 bytes pack into a collision-free 24-bit key *)
let pack s i =
  (Char.code s.[i] lsl 16) lor (Char.code s.[i + 1] lsl 8) lor Char.code s.[i + 2]

let distinct_grams s =
  let n = String.length s in
  if n < q then []
  else begin
    let seen = Hashtbl.create (n - q + 1) in
    for i = 0 to n - q do
      Hashtbl.replace seen (pack s i) ()
    done;
    Hashtbl.fold (fun g () acc -> g :: acc) seen []
  end

let add_node t store n =
  List.iter
    (fun g ->
      (* a batch may name the same node twice; the second pass re-adds
         grams that are already present, which must not inflate the
         entry counter *)
      if not (BT.mem t.postings (pack_key g n)) then begin
        BT.insert t.postings (pack_key g n) ();
        t.entries <- t.entries + 1
      end)
    (distinct_grams (Store.text store n))

let remove_node_value t n old_value =
  List.iter
    (fun g ->
      if BT.remove t.postings (pack_key g n) then t.entries <- t.entries - 1)
    (distinct_grams old_value)

let create store =
  (* Bulk-load path: a (24-bit gram, 30-bit node) pair packs into one
     unboxed int, so collection and sorting run on an int vector — the
     posting count is an order of magnitude above the other indices'
     (every node contributes one posting per distinct gram), which makes
     this the difference between seconds and minutes on text-heavy
     documents. *)
  let packed = Xvi_util.Vec.Int.create ~capacity:4096 () in
  Store.iter_pre store (fun n ->
      if indexable store n then begin
        (* push every positional gram; duplicates within a node collapse
           after the global sort, which beats a per-node hash set *)
        let s = Store.text store n in
        for i = 0 to String.length s - q do
          Xvi_util.Vec.Int.push packed ((pack s i lsl 30) lor n)
        done
      end);
  let keys = Xvi_util.Vec.Int.to_array packed in
  Array.sort Int.compare keys;
  let distinct = ref 0 in
  Array.iteri
    (fun i k -> if i = 0 || keys.(i - 1) <> k then incr distinct)
    keys;
  let arr = Array.make !distinct (0, ()) in
  let j = ref 0 in
  Array.iteri
    (fun i k ->
      if i = 0 || keys.(i - 1) <> k then begin
        arr.(!j) <- (k, ());
        incr j
      end)
    keys;
  { postings = BT.of_sorted_array arr; entries = !distinct }

let posting_list t g =
  let acc = ref [] in
  BT.iter_range ~lo:(pack_key g 0) ~hi:(pack_key g node_mask)
    (fun k () -> acc := (k land node_mask) :: !acc)
    t.postings;
  List.rev !acc

(* naive substring check; patterns are short *)
let string_contains ~pattern s =
  let m = String.length pattern and n = String.length s in
  if m = 0 then true
  else begin
    let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
    let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
    go 0
  end

let scan_all store pattern =
  let acc = ref [] in
  Store.iter_pre store (fun n ->
      if indexable store n && string_contains ~pattern (Store.text store n) then
        acc := n :: !acc);
  List.sort Int.compare !acc

let contains t store pattern =
  let m = String.length pattern in
  if m < q then scan_all store pattern
  else begin
    (* posting lists of the pattern's grams, rarest first; intersect *)
    let grams =
      List.sort_uniq Int.compare (List.init (m - q + 1) (fun i -> pack pattern i))
    in
    let lists = List.map (posting_list t) grams in
    let lists =
      List.sort (fun a b -> Int.compare (List.length a) (List.length b)) lists
    in
    match lists with
    | [] -> []
    | smallest :: rest ->
        let sets =
          List.map
            (fun l ->
              let h = Hashtbl.create (max 16 (List.length l)) in
              List.iter (fun n -> Hashtbl.replace h n ()) l;
              h)
            rest
        in
        let candidates =
          List.filter
            (fun n -> List.for_all (fun h -> Hashtbl.mem h n) sets)
            smallest
        in
        List.sort Int.compare
          (List.filter
             (fun n -> string_contains ~pattern (Store.text store n))
             candidates)
  end

let element_contains t store pattern =
  if String.length pattern = 0 then begin
    (* Every string value contains the empty pattern, including the ""
       of childless elements — which have no text-node seed below. *)
    let acc = ref [] in
    Store.iter_pre store (fun n ->
        match Store.kind store n with
        | Store.Element | Store.Document -> acc := n :: !acc
        | _ -> ());
    List.sort Int.compare !acc
  end
  else begin
  let result = Hashtbl.create 64 in
  (* 1. within-node matches lift to every ancestor. Attribute matches do
     not seed: an attribute's value is no part of its element's XDM
     string value. *)
  let seeds =
    List.filter
      (fun n -> Store.kind store n = Store.Text)
      (contains t store pattern)
  in
  List.iter
    (fun n ->
      let rec up c =
        match Store.parent store c with
        | Some p ->
            if not (Hashtbl.mem result p) then begin
              Hashtbl.replace result p ();
              up p
            end
        | None -> ()
      in
      up n)
    seeds;
  (* 2. boundary-spanning matches: slide a carry of the last m-1
     concatenated characters (with a parallel per-character owner map)
     across the document's text sequence; any pattern occurrence that
     starts inside the carry spans at least one text-node junction, and
     the elements containing it are exactly the common ancestors of its
     first and last contributing nodes *)
  let m = String.length pattern in
  if m >= 2 then begin
    let mark_common_ancestors first last =
      let rec ancestors acc c =
        match Store.parent store c with
        | Some p -> ancestors (p :: acc) p
        | None -> acc
      in
      let a2 = ancestors [] last in
      List.iter
        (fun a -> if List.mem a a2 then Hashtbl.replace result a ())
        (ancestors [] first)
    in
    (* A spanning match starts inside the (m-1)-char carry and extends at
       most m-1 characters into the next text, so only a small window —
       never the full text — is materialised per junction. *)
    let carry = ref "" and owners = ref [||] in
    Array.iter
      (fun tn ->
        let tv = Store.text store tn in
        let clen = String.length !carry in
        if clen > 0 then begin
          let head = min (String.length tv) (m - 1) in
          let s = !carry ^ String.sub tv 0 head in
          let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
          for p = 0 to min (clen - 1) (String.length s - m) do
            if p + m > clen && at p 0 then
              mark_common_ancestors !owners.(p) tn
          done
        end;
        (* slide: the new carry is the last m-1 chars of carry ^ tv *)
        let tvlen = String.length tv in
        if tvlen >= m - 1 then begin
          carry := String.sub tv (tvlen - (m - 1)) (m - 1);
          owners := Array.make (m - 1) tn
        end
        else begin
          let keep = min (m - 1) (clen + tvlen) in
          let from_carry = keep - tvlen in
          let b = Buffer.create keep in
          Buffer.add_string b (String.sub !carry (clen - from_carry) from_carry);
          Buffer.add_string b tv;
          let new_owners = Array.make keep tn in
          Array.blit !owners (clen - from_carry) new_owners 0 from_carry;
          carry := Buffer.contents b;
          owners := new_owners
        end)
      (Store.text_nodes store)
  end;
  List.sort Int.compare (Hashtbl.fold (fun n () acc -> n :: acc) result [])
  end

let pattern_grams pattern =
  let m = String.length pattern in
  if m < q then []
  else List.sort_uniq Int.compare (List.init (m - q + 1) (fun i -> pack pattern i))

let gram_count t g =
  BT.count_range ~lo:(pack_key g 0) ~hi:(pack_key g node_mask) t.postings

let estimate t pattern =
  match pattern_grams pattern with
  | [] ->
      (* short patterns scan every indexed node; the entry count is the
         only cheap upper bound the gram tree offers *)
      t.entries
  | grams -> List.fold_left (fun acc g -> min acc (gram_count t g)) max_int grams

let element_estimate t pattern =
  (* each text-node seed lifts to its ancestor chain; scale the seed
     estimate by a nominal depth rather than walking anything *)
  let nominal_depth = 4 in
  estimate t pattern * nominal_depth

let lazy_list_cursor force =
  let state = ref None in
  let rec pull () =
    match !state with
    | Some [] -> None
    | Some (n :: tl) ->
        state := Some tl;
        Some n
    | None ->
        state := Some (force ());
        pull ()
  in
  pull

let cursor t store pattern =
  lazy_list_cursor (fun () -> contains t store pattern)

let element_cursor t store pattern =
  lazy_list_cursor (fun () -> element_contains t store pattern)

let update_texts t store updates =
  List.iter
    (fun (n, old_value) ->
      remove_node_value t n old_value;
      if indexable store n then add_node t store n)
    updates

let on_delete t ~removed =
  List.iter (fun (n, old_value) -> remove_node_value t n old_value) removed

let on_insert t store ~roots =
  List.iter
    (fun root ->
      Store.iter_pre ~root store (fun n ->
          if indexable store n then add_node t store n))
    roots

let snapshot t = { postings = BT.snapshot t.postings; entries = t.entries }

let digest t =
  let b = Buffer.create 4096 in
  Buffer.add_int64_le b (Int64.of_int t.entries);
  BT.iter (fun k () -> Buffer.add_int64_le b (Int64.of_int k)) t.postings;
  Digest.string (Buffer.contents b)

let entry_count t = t.entries

let storage_bytes t = BT.memory_bytes ~value_bytes:0 t.postings

let validate t store =
  let expected = Hashtbl.create 1024 in
  Store.iter_pre store (fun n ->
      if indexable store n then
        List.iter
          (fun g -> Hashtbl.replace expected (pack_key g n) ())
          (distinct_grams (Store.text store n)));
  let problems = ref [] in
  let count = ref 0 in
  BT.iter
    (fun key () ->
      incr count;
      if not (Hashtbl.mem expected key) then
        problems :=
          Printf.sprintf "stale posting (%d, %d)" (key lsr 30)
            (key land node_mask)
          :: !problems)
    t.postings;
  if !count <> Hashtbl.length expected then
    problems :=
      Printf.sprintf "posting count %d <> expected %d" !count
        (Hashtbl.length expected)
      :: !problems;
  if !count <> t.entries then
    problems :=
      Printf.sprintf "entry counter %d <> tree %d" t.entries !count :: !problems;
  (match BT.check_invariants t.postings with
  | Ok () -> ()
  | Error e -> problems := ("btree: " ^ e) :: !problems);
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
