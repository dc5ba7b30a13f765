(** The paper's hash function [H] and combination function [C]
    (Section 3, Figures 2–4).

    A hash value is a packed 32-bit word: the 27 most significant bits
    (the {e c-array}) accumulate characters with a circular XOR at
    stride 5; the 5 least significant bits (the {e offc} field) record
    the offset at which the next character would be XOR-ed, i.e. 5 times
    the string length mod 27.

    The crucial algebraic property (proved in the paper by induction,
    and property-tested here) is that {!combine} is an associative
    homomorphism of concatenation:

    {[ hash (a ^ b) = combine (hash a) (hash b) ]}

    so the hash of an element node — whose XDM string value is the
    concatenation of its descendant text values — can be recomputed from
    its children's hashes alone.

    Beyond the paper: the set of hash values under [combine] is in fact
    a {e group} (a semidirect product of the XOR group on 27 bits with
    the cyclic offset group), so every value has an {!inverse}. This
    enables delta-maintenance without re-reading sibling hashes; the
    ablation bench quantifies the gain. *)

type t = private int
(** A packed hash value; always within [0, 2^32). *)

val empty : t
(** [hash "" = empty]; the identity of {!combine}. *)

val hash : string -> t
(** The paper's [H] (Figure 2). Characters contribute their 7 low bits
    (ASCII, or UTF-8 bytes masked to 7 bits, per the paper's footnote). *)

val hash_sub : string -> int -> int -> t
(** [hash_sub s off len] is [hash (String.sub s off len)], without the
    copy. *)

val combine : t -> t -> t
(** The paper's [C] (Figure 4): [combine (hash a) (hash b) = hash (a ^ b)]. *)

val inverse : t -> t
(** Group inverse: [combine h (inverse h) = empty = combine (inverse h) h]. *)

val replace : old_child:t -> new_child:t -> prefix:t -> t -> t
(** [replace ~old_child ~new_child ~prefix h] is the delta update: given
    a parent hash [h = combine prefix (combine old_child suffix)] where
    [prefix] is the combined hash of the children before the changed one,
    the result equals [combine prefix (combine new_child suffix)] without
    touching [suffix]. Extension over the paper (uses {!inverse}). *)

val c_array : t -> int
(** The 27-bit character accumulator (bits 5–31). *)

val offset : t -> int
(** The offc field (bits 0–4); a value in [0, 27). *)

val pack : c_array:int -> offset:int -> t
(** Inverse of ({!c_array}, {!offset}). Masks out-of-range inputs. *)

val to_int : t -> int

val of_int : int -> t
(** Re-admit a value produced by {!to_int} — used by builders that
    stage hashes in unboxed int columns. Masks to 32 bits. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Prints as [c-array|offc] in hex, e.g. [365ef1d|03]. *)
