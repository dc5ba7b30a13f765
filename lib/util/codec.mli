(** Byte-level primitives of the snapshot format: a buffered writer and
    a bounds-checked reader over LEB128 varints, zigzag deltas and raw
    bytes.

    Every decoder built on {!Source} is {e total}: malformed input
    raises {!Malformed} (never [Invalid_argument], [Not_found] or an
    out-of-bounds read), which the snapshot layer turns into a typed
    error. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** [malformed fmt ...] raises {!Malformed} with the formatted message. *)

module Sink : sig
  type t
  (** A reused fixed-size byte buffer handed to [flush] whenever it
      fills, so encoding a section never holds more than one buffer of
      it in memory. *)

  val create : (Bytes.t -> int -> int -> unit) -> t
  (** [create flush]: [flush buf off len] receives each full 64 KiB
      buffer (and the rest on {!drain}). *)

  val drain : t -> unit
  (** Hand every buffered byte to [flush]. *)

  val byte : t -> int -> unit
  (** The low 8 bits. *)

  val varint : t -> int -> unit
  (** Unsigned LEB128 of a non-negative int (1 byte below 128).
      @raise Invalid_argument on a negative value. *)

  val zigzag : t -> int -> unit
  (** Signed varint: [0, -1, 1, -2, ...] as [0, 1, 2, 3, ...]. *)

  val string : t -> string -> unit
  (** Varint length, then the bytes. *)

  val bytes : t -> string -> int -> int -> unit
  (** [bytes t s off len]: raw bytes, no length. *)
end

module Source : sig
  type t
  (** A cursor over a string; every read checks the remaining length. *)

  val of_string : string -> t

  val remaining : t -> int

  val byte : t -> int

  val varint : t -> int
  (** Rejects encodings longer than 9 bytes or above [max_int]. *)

  val zigzag : t -> int

  val string : t -> string
  (** Rejects a length past the end of the input. *)

  val raw : t -> int -> (string -> int -> int -> 'a) -> 'a
  (** [raw t len f] is [f src off len] over the next [len] bytes of the
      underlying string, without copying them. *)

  val finish : t -> unit
  (** @raise Malformed unless every byte was consumed. *)
end
