(** Chunked, Bigarray-backed off-heap vectors with copy-on-write
    snapshots.

    The columnar node store keeps its columns here so that multi-GB
    documents do not live on the OCaml heap: the GC never scans chunk
    contents, and epoch publication ({!Int.snapshot}) shares chunks
    between the writer and pinned readers instead of deep-copying whole
    columns. A shared chunk is cloned the first time either side writes
    into it — the vector is copy-on-write at chunk granularity.

    Determinism contract (so that marshalling a vector, as the store
    codec's raw blobs do, is a pure function of its logical state):

    - the chunk table always holds exactly [max 1 (ceil len / chunk)]
      chunks — no capacity slack, whatever the growth history;
    - fresh chunks are zero-filled, so the bytes past [length] are
      always zero for append-only columns;
    - every {!Int.snapshot} product carries all-shared chunk flags,
      while fresh (or codec-decoded) vectors carry all-owned flags.

    Under that contract two vectors with the same construction history
    marshal to identical bytes. *)

val chunk_log : unit -> int
(** Current log2 of the chunk size in elements (default 12, i.e. 4k
    elements — 32 KiB per int chunk). Small chunks keep copy-on-write
    cheap: after every epoch snapshot, a commit's scattered writes each
    clone one chunk, and cloned chunks are off-heap memory the GC paces
    its major cycles by (at 2^15 a 4-write commit on XMark ×1 cloned
    megabytes and forced a major collection almost every commit). *)

val with_chunk_log_for_testing : int -> (unit -> 'a) -> 'a
(** Run a thunk with a different chunk size for vectors created inside
    it, so tests can cross chunk boundaries cheaply. The previous value
    is restored on exit. Test-only: mixing vectors of different chunk
    sizes across a codec or digest boundary breaks the determinism
    contract. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** The [capacity] hint is accepted for drop-in compatibility with
      [Vec.Int] but ignored: the chunk table must stay a pure function
      of [length] (see the determinism contract above). *)

  val length : t -> int

  val get : t -> int -> int
  (** @raise Invalid_argument when out of bounds. *)

  val set : t -> int -> int -> unit
  (** Clones the target chunk first when it is shared with a snapshot. *)

  val push : t -> int -> unit

  val snapshot : t -> t
  (** O(chunks) logical copy: the result shares every chunk with [t] and
      both sides clone on their next write. *)

  val iteri : (int -> int -> unit) -> t -> unit
  val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a
  val to_array : t -> int array
  val of_array : int array -> t

  val memory_bytes : t -> int
  (** Off-heap bytes held by the chunk table (allocated, not just
      used). *)
end

module Float : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val get : t -> int -> float
  val set : t -> int -> float -> unit
  val push : t -> float -> unit
  val snapshot : t -> t
  val memory_bytes : t -> int
end

module Byte : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val get : t -> int -> char
  val set : t -> int -> char -> unit
  val push : t -> char -> unit

  val append_string : t -> string -> int
  (** Append all bytes of the string; returns the offset of its first
      byte. *)

  val sub_string : t -> int -> int -> string
  (** [sub_string t off len] copies [len] bytes starting at [off] back
      onto the heap. *)

  val snapshot : t -> t
  val memory_bytes : t -> int
end
