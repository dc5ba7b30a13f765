(* D2 must fire on copy-on-write index structures too: a B+tree insert
   or an index-column write after the epoch was published in the same
   critical section lands in nodes and chunks the readers share. *)

module Btree = struct
  type t = { mutable n : int }

  let insert t k () = t.n <- t.n + k
end

module Indexer = struct
  type fields = { mutable v : int }

  let set f (_ : int) v = f.v <- v
end

type db = { postings : Btree.t; fields : Indexer.fields }
type t = { lock : Mutex.t; published : db Atomic.t; master : db }

let publish_then_insert t k =
  Mutex.lock t.lock;
  Atomic.set t.published t.master;
  Btree.insert t.master.postings k ();
  Mutex.unlock t.lock

let publish_then_set_field t n v =
  Mutex.lock t.lock;
  Atomic.set t.published t.master;
  Indexer.set t.master.fields n v;
  Mutex.unlock t.lock
