(* What one run knows: its configuration, its failure tally, and the
   state its set-up built. *)

module Db = Xvi_core.Db
module Store = Xvi_xml.Store

type workload = Lookup | Update | Ingest

let workload_name = function Lookup -> "lookup" | Update -> "update" | Ingest -> "ingest"

type inject = No_inject | Wrong_expected | Drop_ack

type cfg = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** XMark factor of the workload's document *)
  xvi : string;  (** bin/xvi.exe of the same build *)
  out : string;  (** the benchmark's untracked output directory *)
  work : string;  (** this run's scratch directory, under [out] *)
  inject : inject;  (** a deliberate defect, for the benchmark's own tests *)
}

(* Operations attempted and failed, across domains.  A failure is an
   [err]/[conflict] reply, a transport error or a wrong answer. *)
module Tally = struct
  let attempted = Atomic.make 0
  let failed = Atomic.make 0
  let notes : string list Atomic.t = Atomic.make []

  let ok () = Atomic.incr attempted

  let fail msg =
    Atomic.incr attempted;
    Atomic.incr failed;
    let l = Atomic.get notes in
    if List.length l < 20 then ignore (Atomic.compare_and_set notes l (msg :: l) : bool)

  let check cond msg = if cond then ok () else fail msg
end

type state = {
  doc_path : string;
  doc_bytes : int;
  reference : Db.t;  (** in-process database over the same XML *)
  nodes : int;  (** live nodes, document node excluded *)
  probes : Setup.probes;
  dir : string;  (** the durable directory `xvi ingest` made (lookup, update) *)
  snapshot_bytes : int;
  wal_bytes : int;
  ingest_ns : int;  (** the set-up's `xvi ingest` wall time *)
  ingest_log : string;
  server : (Setup.server * Wire.t) option;
}

let sock cfg name =
  let s = Filename.concat cfg.work (name ^ ".sock") in
  (* sun_path holds 108 bytes; the path is relative to the checkout *)
  if String.length s >= 100 then failwith (Printf.sprintf "socket path too long: %s" s);
  s
