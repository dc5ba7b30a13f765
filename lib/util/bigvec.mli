(** Paged, Bigarray-backed off-heap vectors with copy-on-write
    snapshots.

    The columnar node store and the index columns keep their data here
    so that multi-GB documents do not live on the OCaml heap: the GC
    never scans page contents.

    A vector is a two-level structure: a small top array of directories,
    each directory an array of up to 2^6 references to fixed-size
    off-heap pages (2 KiB: 2^8 ints or floats, 2^11 bytes). A read is a
    bounds check, then directory, page and element loads.

    Copy-on-write uses owner tokens, as [Btree] does. The
    vector, each directory and each page slot carry the token of the
    vector that made them, and a vector writes only into what carries its
    current token. {!Int.snapshot} gives both sides fresh tokens and
    copies only the top array, so epoch publication costs O(directories)
    and shares every page. The first write on either side into a page
    then copies that page and its directory (2 KiB plus 1 KiB), not a
    whole column or chunk.

    Determinism contract (so that marshalling a vector is a pure function
    of its history):

    - the tables are exact-size: [ceil (length / page)] pages, every
      directory full but the last, which holds only the remaining
      pages — whatever the growth path (element pushes, bulk appends,
      {!Int.init});
    - fresh pages are zero-filled, so the bytes past [length] are
      always zero for append-only columns;
    - tokens are fresh [ref ()]s and marshal by sharing, so equal
      histories give isomorphic token graphs.

    Under that contract two vectors with the same construction history
    marshal to identical bytes. *)

val chunk_log : unit -> int
(** log2 of the page size in elements of an int or float vector created
    now: 8 by default (2 KiB pages; byte vectors use pages of the same
    byte size). Directories hold 2^6 pages. Both constants were chosen by
    measuring a 4-write commit right after each epoch publication on
    XMark ×1: smaller pages and directories copy less per commit, while
    larger ones keep bulk builds and the top array cheap. Only
    {!with_chunk_log_for_testing} changes it. *)

val with_chunk_log_for_testing : int -> (unit -> 'a) -> 'a
(** Run a thunk with [2^log]-element pages and [2^log]-page directories
    for vectors created inside it, so tests cross page and directory
    boundaries cheaply ([log] in [4 .. 22]). The previous sizes are
    restored on exit. Test-only: mixing vectors of different sizes
    across a codec or digest boundary breaks the determinism
    contract. *)

val cow_pages : unit -> int
(** Process-wide count of pages cloned by copy-on-write since start. *)

val cow_bytes : unit -> int
(** Process-wide bytes copied by copy-on-write since start: cloned pages
    plus the copied directories (two words per page slot). Growth —
    appending fresh pages and directories — is not counted. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** The [capacity] hint is accepted for drop-in compatibility with
      [Vec.Int] but ignored: the tables must stay a pure function of
      [length] (see the determinism contract above). *)

  val length : t -> int

  val get : t -> int -> int
  (** @raise Invalid_argument when out of bounds. *)

  val set : t -> int -> int -> unit
  (** Clones the target page (and its directory) first when a snapshot
      still shares it. *)

  val push : t -> int -> unit
  (** Stores into the cached tail page; ownership is settled once per
      page, not per element. *)

  val snapshot : t -> t
  (** O(directories) logical copy: the result shares every page with [t]
      and both sides clone on their next write. *)

  val init : int -> (int -> int) -> t
  (** [init n f] is a fresh vector of [f 0 .. f (n-1)], filled a page at
      a time. *)

  val iteri : (int -> int -> unit) -> t -> unit
  val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a
  val to_array : t -> int array
  val of_array : int array -> t

  val memory_bytes : t -> int
  (** Off-heap bytes held by the pages (allocated, not just used). *)
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
  (** Append all bytes of the string, a page at a time; returns the
      offset of its first byte. *)

  val append_substring : t -> string -> int -> int -> int
  (** [append_substring t s off len] appends [String.sub s off len]
      without building it; returns the offset of its first byte.
      @raise Invalid_argument when [off, len] is not inside [s]. *)

  val sub_string : t -> int -> int -> string
  (** [sub_string t off len] copies [len] bytes starting at [off] back
      onto the heap, a page at a time. *)

  val snapshot : t -> t
  val memory_bytes : t -> int
end
