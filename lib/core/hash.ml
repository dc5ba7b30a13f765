type t = int

let mask27 = 0x7FF_FFFF (* 2^27 - 1 *)
let empty = 0

(* 27-bit circular left rotation; [k] must be in [0, 27). *)
let rotl27 x k =
  if k = 0 then x land mask27
  else ((x lsl k) lor (x lsr (27 - k))) land mask27

(* Figure 2. The c-array is kept in the low 27 bits during the loop and
   packed above the offc field at the end. Masking after each XOR plays
   the role of the 32-bit overflow in the paper's C code. *)
let hash_sub s off len =
  let carr = ref 0 in
  let offset = ref 0 in
  for i = off to off + len - 1 do
    let c = Char.code (String.unsafe_get s i) land 127 in
    carr := !carr lxor (c lsl !offset);
    if !offset > 20 then carr := !carr lxor (c lsr (27 - !offset));
    carr := !carr land mask27;
    offset := !offset + 5;
    if !offset > 26 then offset := !offset - 27
  done;
  (!carr lsl 5) lor !offset

let hash s = hash_sub s 0 (String.length s)

let c_array h = (h lsr 5) land mask27
let offset h = h land 31

let pack ~c_array:carr ~offset:off =
  ((carr land mask27) lsl 5) lor (off mod 27)

(* Figure 4. The c-array of the right operand is rotated left by the
   left operand's offset (continuing the circular XOR where the left
   string stopped) and XOR-ed in; offsets add modulo 27. *)
let combine hl hr =
  let carr = c_array hl lxor rotl27 (c_array hr) (offset hl) in
  let off = (offset hl + offset hr) mod 27 in
  (carr lsl 5) lor off

let inverse h =
  let off = offset h in
  let inv_off = (27 - off) mod 27 in
  (* rotate right by [off] = rotate left by [27 - off] *)
  let carr = rotl27 (c_array h) inv_off in
  (carr lsl 5) lor inv_off

let replace ~old_child ~new_child ~prefix h =
  (* h = prefix . old . suffix  ==>  suffix = old^-1 . prefix^-1 . h
     result = prefix . new . suffix *)
  let suffix = combine (inverse old_child) (combine (inverse prefix) h) in
  combine prefix (combine new_child suffix)

let to_int h = h
let of_int v = v land 0xFFFF_FFFF
let equal = Int.equal
let compare = Int.compare
let pp fmt h = Format.fprintf fmt "%07x|%02d" (c_array h) (offset h)
