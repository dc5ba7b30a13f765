module Store = Xvi_xml.Store
module Sax = Xvi_xml.Sax
module Bigvec = Xvi_util.Bigvec
module Pool = Xvi_util.Pool
module Db = Xvi_core.Db
module Indexer = Xvi_core.Indexer
module Hash = Xvi_core.Hash
module Sct = Xvi_core.Sct
module Lexical_types = Xvi_core.Lexical_types
module String_index = Xvi_core.String_index
module Typed_index = Xvi_core.Typed_index

(* The streaming shredder maintains, per open element, exactly the
   state the Figure 7 walk keeps on its explicit stack: the combined
   field of the element's departed children.  A text or attribute node
   is finalized at its append; an element when its end tag arrives; the
   document at end of stream.  At finalization a node's field is final
   — that is when its posting is emitted and its SCT state judged —
   so every index machine runs in the same single pass as the shred.

   Bit-identity with the serial whole-document build rests on three
   replications, each pinned by the differential harness:

   - field storage: the serial pass [set]s exactly the text nodes,
     attributes and text-bearing ancestors (combining departed children
     into parents, where [combine x identity = x] exactly — the unit
     law the parallel builder already relies on).  We stage fields in
     an off-heap column and replay [0 .. max_assigned] through
     [Indexer.set] at the end, reproducing the exact column contents
     (identity holes included).
   - postings: the serial pass collects every indexable node's packed
     key and sorts once; we sort bounded batch runs and k-way merge
     them into [Btree.of_sorted_seq], which builds the identical tree.
   - typed values: viable/accepting judgements happen at finalization
     with the same states; the [(node, value)] pairs are replayed in
     ascending node order, matching the serial pass's insertion
     sequence. *)

type machine = { spec : Lexical_types.spec; msct : Sct.t; mid : int }

type frame = {
  node : Store.node;
  mutable has_text : bool;
  mutable hash : Hash.t;
  states : int array; (* one accumulator per machine *)
}

module Builder = struct
  type t = {
    store : Store.t;
    config : Db.Config.t;
    pool : Pool.t option;
    machines : machine array;
    (* Off-heap field staging, one slot per store row; identity until
       assigned.  [max_assigned] tracks the replay bound — the serial
       pass's final [Vec.Poly] length minus one. *)
    hv : Bigvec.Int.t;
    sv : Bigvec.Int.t array;
    mutable max_assigned : int;
    (* Posting keys in finalization order; [runs] are the sorted batch
       spans, [run_start] the beginning of the open batch. *)
    posts : Bigvec.Int.t;
    mutable runs : (int * int) list; (* newest first *)
    mutable run_start : int;
    mutable nbatches : int;
    mutable row_mark : int; (* node_range at the last batch cut *)
    (* Typed completions per machine: node, value bits split 32/32 (an
       OCaml int holds 63 bits, one short of a float's 64). *)
    comp_nodes : Bigvec.Int.t array;
    comp_hi : Bigvec.Int.t array;
    comp_lo : Bigvec.Int.t array;
    viable : int array;
    mutable stack : frame list; (* innermost first; document at bottom *)
    mutable root_closed : bool;
  }

  let create ?pool config =
    let machines =
      Array.of_list
        (List.map
           (fun spec ->
             let msct = spec.Lexical_types.sct in
             { spec; msct; mid = Sct.identity msct })
           config.Db.Config.types)
    in
    let store = Store.create () in
    let k = Array.length machines in
    let t =
      {
        store;
        config;
        pool;
        machines;
        hv = Bigvec.Int.create ();
        sv = Array.init k (fun _ -> Bigvec.Int.create ());
        max_assigned = -1;
        posts = Bigvec.Int.create ();
        runs = [];
        run_start = 0;
        nbatches = 0;
        row_mark = Store.node_range store;
        comp_nodes = Array.init k (fun _ -> Bigvec.Int.create ());
        comp_hi = Array.init k (fun _ -> Bigvec.Int.create ());
        comp_lo = Array.init k (fun _ -> Bigvec.Int.create ());
        viable = Array.make k 0;
        stack =
          [
            {
              node = Store.document;
              has_text = false;
              hash = Hash.empty;
              states = Array.map (fun m -> m.mid) machines;
            };
          ];
        root_closed = false;
      }
    in
    (* slots for the pre-existing document row *)
    let range = Store.node_range store in
    while Bigvec.Int.length t.hv < range do
      Bigvec.Int.push t.hv (Hash.to_int Hash.empty)
    done;
    Array.iteri
      (fun i v ->
        while Bigvec.Int.length v < range do
          Bigvec.Int.push v machines.(i).mid
        done)
      t.sv;
    t

  let top t =
    match t.stack with
    | f :: _ -> f
    | [] -> invalid_arg "Ingest.Builder: no open node"

  let sync_slots t =
    let range = Store.node_range t.store in
    while Bigvec.Int.length t.hv < range do
      Bigvec.Int.push t.hv (Hash.to_int Hash.empty)
    done;
    Array.iteri
      (fun i v ->
        while Bigvec.Int.length v < range do
          Bigvec.Int.push v t.machines.(i).mid
        done)
      t.sv

  let stage_hash t n h =
    Bigvec.Int.set t.hv n (Hash.to_int h);
    if n > t.max_assigned then t.max_assigned <- n

  let stage_state t i n st = Bigvec.Int.set t.sv.(i) n st
  let posting t h n = Bigvec.Int.push t.posts (String_index.pack_key h n)

  let push_complete t i n v =
    let bits = Int64.bits_of_float v in
    Bigvec.Int.push t.comp_nodes.(i) n;
    Bigvec.Int.push t.comp_hi.(i)
      (Int64.to_int (Int64.shift_right_logical bits 32));
    Bigvec.Int.push t.comp_lo.(i)
      (Int64.to_int (Int64.logand bits 0xFFFF_FFFFL))

  (* Viability/acceptance at finalization; [lexical] is forced only for
     accepting states (string-value reconstruction on elements). *)
  let typed_finalize t n states lexical =
    Array.iteri
      (fun i m ->
        let st = states.(i) in
        if Sct.is_viable m.msct st then begin
          t.viable.(i) <- t.viable.(i) + 1;
          if Sct.is_accepting m.msct st then
            match m.spec.Lexical_types.parse (lexical ()) with
            | Some v -> push_complete t i n v
            | None -> ()
        end)
      t.machines

  (* Finalize a leaf (text or attribute) with content [txt]; returns
     its fields for the caller to fold into the parent accumulator. *)
  let leaf t n txt =
    let h = Hash.hash txt in
    stage_hash t n h;
    posting t h n;
    let states =
      Array.map (fun m -> Sct.of_string m.msct txt) t.machines
    in
    Array.iteri (fun i st -> stage_state t i n st) states;
    typed_finalize t n states (fun () -> txt);
    (h, states)

  let feed t ev =
    match ev with
    | Sax.Start_element { name; attrs } ->
        let parent = (top t).node in
        let e = Store.append_element t.store ~parent name in
        sync_slots t;
        List.iter
          (fun (an, av) ->
            let a =
              Store.append_attribute t.store ~element:e ~name:an ~value:av
            in
            sync_slots t;
            ignore (leaf t a av : Hash.t * int array))
          attrs;
        t.stack <-
          {
            node = e;
            has_text = false;
            hash = Hash.empty;
            states = Array.map (fun m -> m.mid) t.machines;
          }
          :: t.stack
    | Sax.End_element _ -> (
        match t.stack with
        | f :: (p :: _ as rest) ->
            t.stack <- rest;
            posting t f.hash f.node;
            if f.has_text then begin
              stage_hash t f.node f.hash;
              Array.iteri (fun i st -> stage_state t i f.node st) f.states
            end;
            typed_finalize t f.node f.states (fun () ->
                Store.string_value t.store f.node);
            if f.has_text then begin
              p.hash <- Hash.combine p.hash f.hash;
              Array.iteri
                (fun i m ->
                  p.states.(i) <- Sct.compose m.msct p.states.(i) f.states.(i))
                t.machines;
              p.has_text <- true
            end;
            (match rest with [ _document ] -> t.root_closed <- true | _ -> ())
        | _ -> invalid_arg "Ingest.Builder.feed: unbalanced End_element")
    | Sax.Text txt | Sax.Cdata txt ->
        let f = top t in
        let n = Store.append_text t.store ~parent:f.node txt in
        sync_slots t;
        let h, states = leaf t n txt in
        f.hash <- Hash.combine f.hash h;
        Array.iteri
          (fun i m -> f.states.(i) <- Sct.compose m.msct f.states.(i) states.(i))
          t.machines;
        f.has_text <- true
    | Sax.Comment c ->
        (* Trailing misc is parsed but not stored, as in [Parser]. *)
        if not t.root_closed then begin
          ignore (Store.append_comment t.store ~parent:(top t).node c
                  : Store.node);
          sync_slots t
        end
    | Sax.Pi { target; body } ->
        if not t.root_closed then begin
          ignore (Store.append_pi t.store ~parent:(top t).node ~target body
                  : Store.node);
          sync_slots t
        end

  let rows t = Store.node_range t.store
  let pending_rows t = Store.node_range t.store - t.row_mark
  let batches t = t.nbatches

  (* Sort the posting span [lo, hi) in place.  With a pool, slices are
     sorted per domain and merged back — output identical to the serial
     sort since keys are distinct. *)
  let sort_run t lo hi =
    let len = hi - lo in
    let write_back arr =
      Array.iteri (fun j v -> Bigvec.Int.set t.posts (lo + j) v) arr
    in
    match t.pool with
    | Some pool when Pool.parallelism pool > 1 && len > 4096 ->
        let slices = Pool.slices len (Pool.parallelism pool) in
        let parts =
          Pool.map pool
            (fun k ->
              let a, b = slices.(k) in
              let arr =
                Array.init (b - a) (fun j -> Bigvec.Int.get t.posts (lo + a + j))
              in
              Array.sort Int.compare arr;
              arr)
            (Array.length slices)
        in
        let k = Array.length parts in
        let idx = Array.make k 0 in
        for o = lo to hi - 1 do
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
          Bigvec.Int.set t.posts o !best_v;
          idx.(!best) <- idx.(!best) + 1
        done
    | _ ->
        let arr = Array.init len (fun j -> Bigvec.Int.get t.posts (lo + j)) in
        Array.sort Int.compare arr;
        write_back arr

  let flush_batch t =
    let lo = t.run_start and hi = Bigvec.Int.length t.posts in
    if hi > lo then begin
      sort_run t lo hi;
      t.runs <- (lo, hi) :: t.runs;
      t.run_start <- hi;
      t.nbatches <- t.nbatches + 1
    end;
    t.row_mark <- Store.node_range t.store

  (* Ascending k-way merge over the sorted runs: a binary min-heap of
     run heads feeding the B+tree bulk loader one key at a time. *)
  let run_merger posts runs =
    let k = Array.length runs in
    let pos = Array.make (max k 1) 0 and stop = Array.make (max k 1) 0 in
    let hkey = Array.make (max k 1) 0 and hrun = Array.make (max k 1) 0 in
    let hsize = ref 0 in
    let swap i j =
      let tk = hkey.(i) and tr = hrun.(i) in
      hkey.(i) <- hkey.(j);
      hrun.(i) <- hrun.(j);
      hkey.(j) <- tk;
      hrun.(j) <- tr
    in
    let rec sift_up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if hkey.(i) < hkey.(parent) then begin
          swap i parent;
          sift_up parent
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < !hsize && hkey.(l) < hkey.(!smallest) then smallest := l;
      if r < !hsize && hkey.(r) < hkey.(!smallest) then smallest := r;
      if !smallest <> i then begin
        swap i !smallest;
        sift_down !smallest
      end
    in
    Array.iteri
      (fun i (lo, hi) ->
        pos.(i) <- lo;
        stop.(i) <- hi;
        if lo < hi then begin
          hkey.(!hsize) <- Bigvec.Int.get posts lo;
          hrun.(!hsize) <- i;
          incr hsize;
          sift_up (!hsize - 1)
        end)
      runs;
    fun () ->
      if !hsize = 0 then invalid_arg "Ingest: posting merge exhausted";
      let key = hkey.(0) and r = hrun.(0) in
      pos.(r) <- pos.(r) + 1;
      if pos.(r) < stop.(r) then begin
        hkey.(0) <- Bigvec.Int.get posts pos.(r);
        sift_down 0
      end
      else begin
        decr hsize;
        if !hsize > 0 then begin
          hkey.(0) <- hkey.(!hsize);
          hrun.(0) <- hrun.(!hsize);
          sift_down 0
        end
      end;
      key

  let finish t =
    (* finalize the document node *)
    (match t.stack with
    | [ d ] ->
        posting t d.hash d.node;
        if d.has_text then begin
          stage_hash t d.node d.hash;
          Array.iteri (fun i st -> stage_state t i d.node st) d.states
        end;
        typed_finalize t d.node d.states (fun () ->
            Store.string_value t.store d.node)
    | _ -> invalid_arg "Ingest.Builder.finish: unclosed elements");
    t.stack <- [];
    flush_batch t;
    (* replay staged fields through [Indexer.set]: same column as the
       serial pass (identity holes included) *)
    let hash_fields = Indexer.empty_fields Indexer.hash_ops in
    for n = 0 to t.max_assigned do
      Indexer.set hash_fields n (Hash.of_int (Bigvec.Int.get t.hv n))
    done;
    let typed =
      List.mapi
        (fun i spec ->
          let m = t.machines.(i) in
          let fields = Indexer.empty_fields (Indexer.sct_ops m.msct) in
          for n = 0 to t.max_assigned do
            Indexer.set fields n (Bigvec.Int.get t.sv.(i) n)
          done;
          let len = Bigvec.Int.length t.comp_nodes.(i) in
          let complete =
            Array.init len (fun j ->
                let n = Bigvec.Int.get t.comp_nodes.(i) j in
                let bits =
                  Int64.logor
                    (Int64.shift_left (Int64.of_int (Bigvec.Int.get t.comp_hi.(i) j)) 32)
                    (Int64.of_int (Bigvec.Int.get t.comp_lo.(i) j))
                in
                (n, Int64.float_of_bits bits))
          in
          Array.sort (fun (a, _) (b, _) -> Int.compare a b) complete;
          Typed_index.of_streamed spec fields ~viable_count:t.viable.(i)
            ~complete)
        t.config.Db.Config.types
    in
    let count = Bigvec.Int.length t.posts in
    let next = run_merger t.posts (Array.of_list (List.rev t.runs)) in
    let strings = String_index.of_key_seq hash_fields ~count next in
    Db.assemble ~config:t.config ~store:t.store ~strings ~typed

  let staging_bytes t =
    let vec = Bigvec.Int.memory_bytes in
    let sum = Array.fold_left (fun acc v -> acc + vec v) 0 in
    vec t.hv + sum t.sv + vec t.posts + sum t.comp_nodes + sum t.comp_hi
    + sum t.comp_lo
end

type progress = { rows : int; batches : int; consumed : int }

let default_batch_rows = 65536

let load ?(config = Db.Config.default) ?(batch_rows = default_batch_rows)
    ?pool ?(progress = fun (_ : progress) -> ()) source =
  let batch_rows = max 1 batch_rows in
  let sax = Sax.make source in
  let b = Builder.create ?pool config in
  let report () =
    progress
      {
        rows = Builder.rows b;
        batches = Builder.batches b;
        consumed = Sax.consumed sax;
      }
  in
  let rec go () =
    match Sax.next sax with
    | Error e -> Error e
    | Ok None ->
        let db = Builder.finish b in
        report ();
        Ok db
    | Ok (Some (ev, _pos)) ->
        Builder.feed b ev;
        if Builder.pending_rows b >= batch_rows then begin
          Builder.flush_batch b;
          report ()
        end;
        go ()
  in
  go ()
