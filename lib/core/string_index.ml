module Store = Xvi_xml.Store
module BT = Xvi_btree.Btree.Make (Xvi_btree.Btree.Int_key)

type node = Store.node

(* A posting is one unboxed int: the 32-bit hash in the high bits, the
   node id in the low 30 (62 bits total — exactly OCaml's int range).
   Packed order equals (hash, node) lexicographic order, so the tree
   both stores and compares single machine words. *)
let node_mask = 0x3FFF_FFFF
let pack h n = (h lsl 30) lor n

type t = {
  fields : Hash.t Indexer.fields;
  postings : unit BT.t;
  mutable entries : int;
}

let indexable store n =
  match Store.kind store n with
  | Store.Element | Store.Text | Store.Attribute | Store.Document -> true
  | Store.Comment | Store.Pi | Store.Deleted -> false

let add_posting t h n =
  BT.insert t.postings (pack (Hash.to_int h) n) ();
  t.entries <- t.entries + 1

let remove_posting t h n =
  if BT.remove t.postings (pack (Hash.to_int h) n) then
    t.entries <- t.entries - 1

(* Merge [k] individually-sorted int arrays into one sorted array; the
   per-domain posting accumulators overlap in (hash, node) key space, so
   a real k-way merge is needed (k is the domain count — tiny). *)
let merge_sorted parts =
  let k = Array.length parts in
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 parts in
  let out = Array.make (max total 1) 0 in
  let idx = Array.make k 0 in
  for o = 0 to total - 1 do
    let best = ref (-1) and best_v = ref max_int in
    for p = 0 to k - 1 do
      if idx.(p) < Array.length parts.(p) then begin
        let v = parts.(p).(idx.(p)) in
        if !best < 0 || v < !best_v then begin
          best := p;
          best_v := v
        end
      end
    done;
    out.(o) <- !best_v;
    idx.(!best) <- idx.(!best) + 1
  done;
  if total = 0 then [||] else Array.sub out 0 total

let of_key_seq fields ~count next =
  {
    fields;
    postings = BT.of_sorted_seq ~len:count (fun () -> (next (), ()));
    entries = count;
  }

let of_sorted_keys fields keys =
  let i = ref (-1) in
  of_key_seq fields ~count:(Array.length keys) (fun () ->
      incr i;
      keys.(!i))

let pack_key h n = pack (Hash.to_int h) n

(* The packed keys of the indexable nodes in [lo, hi), in id order. *)
let collect_keys store fields lo hi =
  let packed = Xvi_util.Vec.Int.create ~capacity:(max 16 (hi - lo)) () in
  for n = lo to hi - 1 do
    if indexable store n then
      Xvi_util.Vec.Int.push packed (pack_key (Indexer.get fields n) n)
  done;
  let keys = Xvi_util.Vec.Int.to_array packed in
  Array.stable_sort Int.compare keys;
  keys

let of_fields ?pool store fields =
  (* Bulk-load the posting B+tree. (hash, node) fits one unboxed int
     (32 + 30 bits), so collection and sorting run on an int array —
     the cheap creation path the paper's Figure 9 numbers rely on. *)
  let range = Store.node_range store in
  match pool with
  | Some pool when Xvi_util.Pool.parallelism pool > 1 ->
      (* Per-domain collection and sort over node-id slices; the merge
         into one sorted key array and the bulk load stay
         single-threaded. *)
      let slices = Xvi_util.Pool.slices range (Xvi_util.Pool.parallelism pool) in
      let parts =
        Xvi_util.Pool.map pool
          (fun k ->
            let lo, hi = slices.(k) in
            collect_keys store fields lo hi)
          (Array.length slices)
      in
      of_sorted_keys fields (merge_sorted parts)
  | _ -> of_sorted_keys fields (collect_keys store fields 0 range)

let create store = of_fields store (Indexer.create Indexer.hash_ops store)

let hash_of t n = Indexer.get t.fields n

let candidates_of_hash t h =
  let lo = pack (Hash.to_int h) 0 and hi = pack (Hash.to_int h) node_mask in
  let acc = ref [] in
  BT.iter_range ~lo ~hi (fun k () -> acc := (k land node_mask) :: !acc) t.postings;
  List.rev !acc

let lookup_candidates t _store s = candidates_of_hash t (Hash.hash s)

let lookup t store s =
  List.filter (fun n -> String.equal (Store.string_value store n) s)
    (lookup_candidates t store s)

let estimate t s =
  let h = Hash.to_int (Hash.hash s) in
  BT.count_range ~lo:(pack h 0) ~hi:(pack h node_mask) t.postings

let cursor t store s =
  let h = Hash.to_int (Hash.hash s) in
  let bucket =
    ref (BT.to_seq_range ~lo:(pack h 0) ~hi:(pack h node_mask) t.postings)
  in
  (* pull hash matches off the leaf chain; verify against the real
     string value so collision false positives never escape the cursor *)
  let rec pull () =
    match !bucket () with
    | Seq.Nil -> None
    | Seq.Cons ((k, ()), rest) ->
        bucket := rest;
        let n = k land node_mask in
        if String.equal (Store.string_value store n) s then Some n else pull ()
  in
  pull

let apply_changes t changes =
  List.iter
    (fun { Indexer.node; old_field; new_field; _ } ->
      remove_posting t old_field node;
      add_posting t new_field node)
    changes

let maintain t store fr =
  apply_changes t (Indexer.maintain Indexer.hash_ops store t.fields fr).Indexer.changes

let update_texts t store nodes = maintain t store (Indexer.frontier store ~texts:nodes ())

let on_delete t store ~removed fr =
  List.iter
    (fun n ->
      (* Tombstoned nodes keep their last field; drop their postings. *)
      remove_posting t (Indexer.get t.fields n) n)
    removed;
  maintain t store fr

let on_insert t store ~roots fr =
  (match roots with
  | [] -> ()
  | r :: rest ->
      let from = List.fold_left min r rest in
      Indexer.compute_subtree Indexer.hash_ops store t.fields from;
      for n = from to Store.node_range store - 1 do
        if indexable store n then add_posting t (Indexer.get t.fields n) n
      done);
  maintain t store fr

let snapshot t =
  {
    fields = Indexer.snapshot t.fields;
    postings = BT.snapshot t.postings;
    entries = t.entries;
  }

(* Snapshot section: the postings as node ids in key order. The hash
   column is not stored: a load computes it from the store
   ([Indexer.fill]), which costs what checking a stored copy would. The
   posting set is exactly [{pack (field n) n | n indexable}], so the ids
   only spare the load a sort, and checking them for strict key ascent
   and count proves them that set. *)
module Codec = Xvi_util.Codec

let encode t sink =
  Codec.Sink.varint sink t.entries;
  BT.iter (fun k () -> Codec.Sink.varint sink (k land node_mask)) t.postings

let decode store fields src =
  let count = Codec.Source.varint src in
  (* the ids come in hash order, i.e. scattered: look kinds up in a
     byte map made in one sequential pass rather than in the store *)
  let range = Store.node_range store in
  let indexed = Bytes.make range '\000' and nindexed = ref 0 in
  for n = 0 to range - 1 do
    if indexable store n then begin
      Bytes.unsafe_set indexed n '\001';
      incr nindexed
    end
  done;
  if count <> !nindexed then
    Codec.malformed "%d postings for %d indexed nodes" count !nindexed;
  let prev = ref (-1) in
  of_key_seq fields ~count (fun () ->
      let n = Codec.Source.varint src in
      if n >= range || Bytes.get indexed n = '\000' then
        Codec.malformed "posting for node %d, which is not indexed" n;
      let k = pack (Hash.to_int (Indexer.get fields n)) n in
      if k <= !prev then Codec.malformed "postings out of key order at node %d" n;
      prev := k;
      k)

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)

let digest t store =
  let b = Buffer.create 4096 in
  add_int b t.entries;
  BT.iter (fun k () -> add_int b k) t.postings;
  Store.iter_pre store (fun n ->
      if indexable store n then begin
        add_int b n;
        add_int b (Hash.to_int (Indexer.get t.fields n))
      end);
  Digest.string (Buffer.contents b)

let entry_count t = t.entries

let storage_bytes t =
  (* 4 bytes per node for the hash column (32-bit values), plus the
     posting B+tree. *)
  let column = 4 * t.entries in
  column + BT.memory_bytes ~value_bytes:0 t.postings

let validate t store =
  let problems = ref [] in
  let expected = Hashtbl.create 1024 in
  Store.iter_pre store (fun n ->
      if indexable store n then begin
        let h = Hash.hash (Store.string_value store n) in
        Hashtbl.replace expected n h;
        if not (Hash.equal (Indexer.get t.fields n) h) then
          problems :=
            Printf.sprintf "node %d: stored hash %d <> recomputed %d" n
              (Hash.to_int (Indexer.get t.fields n))
              (Hash.to_int h)
            :: !problems
      end);
  let posting_count = ref 0 in
  BT.iter
    (fun k () ->
      let h = k lsr 30 and n = k land node_mask in
      incr posting_count;
      match Hashtbl.find_opt expected n with
      | None -> problems := Printf.sprintf "stale posting for node %d" n :: !problems
      | Some eh ->
          if Hash.to_int eh <> h then
            problems :=
              Printf.sprintf "posting hash %d for node %d, expected %d" h n
                (Hash.to_int eh)
              :: !problems)
    t.postings;
  if !posting_count <> Hashtbl.length expected then
    problems :=
      Printf.sprintf "posting count %d <> indexable nodes %d" !posting_count
        (Hashtbl.length expected)
      :: !problems;
  (match BT.check_invariants t.postings with
  | Ok () -> ()
  | Error e -> problems := ("btree: " ^ e) :: !problems);
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)
