(** Transactional value updates without ancestor locks (paper §5.1).

    The challenge the paper raises: every text update changes the hash
    of {e all} its ancestors, so naive value-index locking would
    serialise every transaction on the document root. Its answer: the
    combination function [C] is written so that ancestor recombination
    commutes — a committing transaction re-reads the {e latest} fields
    of the updated node's siblings and recombines bottom-up, and even if
    concurrent commits changed those siblings in the meantime, the
    result is the same as any serial order.

    This module simulates that protocol with optimistic concurrency:

    - a transaction buffers text writes; no locks are taken;
    - at commit, write-write conflicts on the {e updated nodes
      themselves} (never on ancestors) abort the transaction;
    - the commit then runs the Figure 8 maintenance, which re-reads
      current sibling fields — the paper's "re-read the latest value of
      all ancestor nodes ... and their direct children".

    A manager may carry a {!durability} hook (installed by
    {!Xvi_wal.Durable}): the winning commit's write set is handed to
    the hook {e before} any store or index byte changes — the
    write-ahead invariant — and a post-visibility callback fires after
    maintenance, where the durable layer checks its auto-checkpoint
    threshold.

    The test suite checks the headline property: disjoint transactions
    committed in any interleaving leave byte-identical indices. *)

type manager
type t

type conflict = { node : Xvi_xml.Store.node; reason : string }

type durability = {
  log_commit :
    (Xvi_xml.Store.node * string) list -> [ `Synced | `Deferred ];
      (** Called with the write set of a commit that has passed the
          conflict check, before the store or any index is touched. The
          return says whether the log record already reached stable
          storage ([`Synced]) or is waiting for a group-commit window /
          explicit sync ([`Deferred]) — tallied in {!stats}. An
          exception aborts the commit with the store untouched. *)
  committed : unit -> unit;
      (** Called after the commit is fully applied and visible. *)
}

val manager : ?durability:durability -> Xvi_core.Db.t -> manager
(** A fresh manager over [db]. Without [durability] commits are
    memory-only (exactly the pre-WAL behaviour). *)

val db : manager -> Xvi_core.Db.t

val begin_ : manager -> t

val update_text :
  t ->
  Xvi_xml.Store.node ->
  string ->
  (unit, [ `Finished | `Not_text ]) result
(** Buffer a text-node write. Later writes to the same node within the
    transaction overwrite earlier ones. [Error `Finished] if the
    transaction already committed or aborted; [Error `Not_text] if the
    node is not a text or attribute node. *)

val write_set : t -> Xvi_xml.Store.node list

val is_active : t -> bool
(** Neither committed nor aborted yet — the only state {!commit} /
    {!abort} accept. Boundaries that must not raise (the serve engine)
    check this instead of catching [Invalid_argument]. *)

type commit_info = {
  durability : [ `Memory | `Synced | `Deferred ];
      (** [`Memory]: no durability hook ran (memory-only manager, or an
          empty write set — nothing reached the log). [`Synced] /
          [`Deferred]: what the hook reported, see {!durability}. *)
  writes : int;  (** size of the committed write set *)
}

val commit_r : t -> (commit_info, conflict) result
(** {!commit}, but telling the caller what the commit did — whether its
    log record is already on stable storage and whether it wrote
    anything at all. The serve engine's group-commit ack tracking needs
    both: a [`Deferred] commit must not be acked until a later fsync
    covers its LSN, and an empty commit must not advance any watermark. *)

val commit : t -> (unit, conflict) result
(** First-committer-wins on each written node; ancestors are never part
    of the conflict check. A written node that a structural delete has
    tombstoned since {!update_text} validated it is also a conflict —
    structural operations bypass the version table, so the kind is
    re-checked against the store here, before anything can reach the
    durability hook's log. On success the write set is logged through
    the manager's durability hook (when present) and only then applied:
    the store and all value indices are updated atomically
    (single-threaded simulation). Callers must not discard the [Error]
    case silently — a lost conflict is a lost update. *)

val abort : t -> unit

type stats = {
  committed : int;  (** commits with a non-empty write set *)
  empty : int;
      (** commits with no writes: nothing logged, applied or published.
          [committed + empty + aborted] is every finished transaction *)
  aborted : int;  (** conflict aborts and explicit {!abort}s together *)
  conflicts : int;  (** commit attempts lost to first-committer-wins *)
  wal_synced : int;
      (** durable commits whose log record was fsynced inline
          ([sync_mode = Always], or a group window that closed) *)
  wal_deferred : int;
      (** durable commits batched into a later group-commit fsync (or
          left to the OS under [sync_mode = Never]) — [wal_synced +
          wal_deferred = committed] on a durable manager with non-empty
          write sets, and the split is the group-commit batching
          observable *)
}

val stats : manager -> stats
