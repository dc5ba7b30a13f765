(* D2 must stay quiet: the tree and the index column are written before
   publication, and what is published is a snapshot of them. *)

module Btree = struct
  type t = { mutable n : int }

  let insert t k () = t.n <- t.n + k
  let snapshot t = { n = t.n }
end

module Indexer = struct
  type fields = { mutable v : int }

  let set f (_ : int) v = f.v <- v
  let snapshot f = { v = f.v }
end

type db = { postings : Btree.t; fields : Indexer.fields }
type t = { lock : Mutex.t; published : db Atomic.t; master : db }

let insert_then_publish t k =
  Mutex.lock t.lock;
  Btree.insert t.master.postings k ();
  Indexer.set t.master.fields 0 k;
  Atomic.set t.published
    {
      postings = Btree.snapshot t.master.postings;
      fields = Indexer.snapshot t.master.fields;
    };
  Mutex.unlock t.lock
