type request =
  | Hello
  | Pin
  | Lookup_string of string
  | Lookup_contains of string
  | Lookup_element_contains of string
  | Lookup_named of string
  | Lookup_typed of string * float option * float option
  | Value of int
  | Begin
  | Set of int * string
  | Commit
  | Commit_deferred
  | Abort
  | Insert of int * string
  | Delete of int
  | Stats
  | Sync
  | Quit
  | Shutdown
  | Repl_info
  | Repl_snapshot of int  (** byte offset into the snapshot file *)
  | Repl_pull of { from_lsn : int; max_bytes : int }
  | Repl_digest of { anchor : int; lsn : int }
      (** chain digest over the log prefix [anchor..lsn] *)
  | Promote

type response =
  | Ok_
  | Epoch of { epoch : int; lsn : int; commits : int }
  | Nodes of int list
  | Nodes_lsn of int list * int
  | Value_r of string
  | Lsn of int
  | Stats_r of (string * string) list
  | Conflict_r of { node : int; reason : string }
  | Err of string
  | Bye
  | Repl_info_r of {
      role : string;
      last_lsn : int;
      durable_lsn : int;
      checkpoint_lsn : int;
      applied_lsn : int;
      leader_lsn : int;
    }
  | Chunk of { total : int; data : string }
  | Frames_r of { durable_lsn : int; data : string }
  | Digest_r of string option
      (** chain digest in hex; [None] = log does not span the range *)
  | Snapshot_needed_r of int  (** records [<= base] only exist in a snapshot *)

(* --- writer --- *)

(* Every encoding runs twice over the same code: first on a sizing
   writer, which only advances [pos], then on a writer over a buffer of
   exactly that many bytes. A reply is thus one allocation, filled in
   place: no per-token strings, no concatenation, no second copy. *)
type writer = { buf : Bytes.t; mutable pos : int; sizing : bool }

let add_char w c =
  if not w.sizing then Bytes.set w.buf w.pos c;
  w.pos <- w.pos + 1

let add_string w s =
  if not w.sizing then Bytes.blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

(* bytes in [string_of_int n], by comparison rather than division *)
let decimal_length n =
  (* [p = 10^d]; max_int has 19 digits, and 10^19 would overflow *)
  let rec digits m p d = if d = 19 || m < p then d else digits m (p * 10) (d + 1) in
  if n >= 0 then digits n 10 1 else if n = min_int then 20 else 1 + digits (-n) 10 1

(* [string_of_int n], written digit by digit from the right. *)
let add_int w n =
  let len = decimal_length n in
  if not w.sizing then begin
    let first = if n < 0 then (Bytes.set w.buf w.pos '-'; w.pos + 1) else w.pos in
    (* on the non-positive side, which also holds min_int *)
    let m = ref (if n < 0 then n else -n) in
    for i = w.pos + len - 1 downto first do
      let q = !m / 10 in
      Bytes.set w.buf i (Char.unsafe_chr (48 + ((q * 10) - !m)));
      m := q
    done
  end;
  w.pos <- w.pos + len

(* '=' is structural: stats pairs are spelled <key>=<value> and decoded
   at the first raw '=', so escaped tokens must never contain one *)
let[@inline] must_escape c =
  let b = Char.code c in
  b < 0x21 || b = 0x7f || c = '%' || c = '='

let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    if must_escape (String.unsafe_get s i) then n := !n + 2
  done;
  !n

let hex_digits = "0123456789ABCDEF"

let add_escaped w s =
  if w.sizing then w.pos <- w.pos + escaped_length s
  else begin
    let b = w.buf and o = ref w.pos in
    for i = 0 to String.length s - 1 do
      let c = String.unsafe_get s i in
      if must_escape c then begin
        Bytes.set b !o '%';
        Bytes.set b (!o + 1) hex_digits.[Char.code c lsr 4];
        Bytes.set b (!o + 2) hex_digits.[Char.code c land 15];
        o := !o + 3
      end
      else begin
        Bytes.set b !o c;
        incr o
      end
    done;
    w.pos <- !o
  end

(* [emit]'s bytes in a buffer of exactly their size, behind the frame
   header [<len>\n] when [framed]. *)
let render ~framed emit =
  let sizing = { buf = Bytes.empty; pos = 0; sizing = true } in
  emit sizing;
  let len = sizing.pos in
  let head = if framed then decimal_length len + 1 else 0 in
  let w = { buf = Bytes.create (head + len); pos = 0; sizing = false } in
  if framed then begin
    add_int w len;
    add_char w '\n'
  end;
  emit w;
  w.buf

let escape s =
  let n = escaped_length s in
  if n = String.length s then s
  else begin
    let w = { buf = Bytes.create n; pos = 0; sizing = false } in
    add_escaped w s;
    Bytes.unsafe_to_string w.buf
  end

(* --- encoders --- *)

(* a payload is its verb, then one space before every argument *)
let arg_int w n =
  add_char w ' ';
  add_int w n

let arg_str w s =
  add_char w ' ';
  add_escaped w s

external format_float : string -> float -> string = "caml_format_float"

(* [Printf.sprintf "%.17g"]: both are this C formatter *)
let arg_bound w = function
  | None -> add_string w " _"
  | Some v ->
      add_char w ' ';
      add_string w (format_float "%.17g" v)

let encode_request w = function
  | Hello -> add_string w "hello"
  | Pin -> add_string w "pin"
  | Lookup_string v -> add_string w "lookup-string"; arg_str w v
  | Lookup_contains v -> add_string w "lookup-contains"; arg_str w v
  | Lookup_element_contains v -> add_string w "lookup-element-contains"; arg_str w v
  | Lookup_named v -> add_string w "lookup-named"; arg_str w v
  | Lookup_typed (ty, lo, hi) ->
      add_string w "lookup-typed"; arg_str w ty; arg_bound w lo; arg_bound w hi
  | Value n -> add_string w "value"; arg_int w n
  | Begin -> add_string w "begin"
  | Set (n, v) -> add_string w "set"; arg_int w n; arg_str w v
  | Commit -> add_string w "commit"
  | Commit_deferred -> add_string w "commit-deferred"
  | Abort -> add_string w "abort"
  | Insert (parent, frag) -> add_string w "insert"; arg_int w parent; arg_str w frag
  | Delete n -> add_string w "delete"; arg_int w n
  | Stats -> add_string w "stats"
  | Sync -> add_string w "sync"
  | Quit -> add_string w "quit"
  | Shutdown -> add_string w "shutdown"
  | Repl_info -> add_string w "repl-info"
  | Repl_snapshot offset -> add_string w "repl-snapshot"; arg_int w offset
  | Repl_pull { from_lsn; max_bytes } ->
      add_string w "repl-pull"; arg_int w from_lsn; arg_int w max_bytes
  | Repl_digest { anchor; lsn } -> add_string w "repl-digest"; arg_int w anchor; arg_int w lsn
  | Promote -> add_string w "promote"

(* [<count> <id>*]; the sizing pass measures the list in one walk *)
let arg_ids w ids =
  if w.sizing then begin
    let rec measure count bytes = function
      | [] -> w.pos <- w.pos + 1 + decimal_length count + bytes
      | id :: rest -> measure (count + 1) (bytes + 1 + decimal_length id) rest
    in
    measure 0 0 ids
  end
  else begin
    arg_int w (List.length ids);
    List.iter (arg_int w) ids
  end

let encode_response w = function
  | Ok_ -> add_string w "ok"
  | Epoch { epoch; lsn; commits } ->
      add_string w "epoch"; arg_int w epoch; arg_int w lsn; arg_int w commits
  | Nodes ids -> add_string w "nodes"; arg_ids w ids
  | Nodes_lsn (ids, lsn) -> add_string w "nodes-lsn"; arg_int w lsn; arg_ids w ids
  | Value_r v -> add_string w "value"; arg_str w v
  | Lsn lsn -> add_string w "lsn"; arg_int w lsn
  | Stats_r kvs ->
      add_string w "stats";
      List.iter
        (fun (k, v) ->
          arg_str w k;
          add_char w '=';
          add_escaped w v)
        kvs
  | Conflict_r { node; reason } -> add_string w "conflict"; arg_int w node; arg_str w reason
  | Err m -> add_string w "err"; arg_str w m
  | Bye -> add_string w "bye"
  | Repl_info_r { role; last_lsn; durable_lsn; checkpoint_lsn; applied_lsn; leader_lsn } ->
      add_string w "repl-info"; arg_str w role; arg_int w last_lsn; arg_int w durable_lsn;
      arg_int w checkpoint_lsn; arg_int w applied_lsn; arg_int w leader_lsn
  | Chunk { total; data } -> add_string w "chunk"; arg_int w total; arg_str w data
  | Frames_r { durable_lsn; data } -> add_string w "frames"; arg_int w durable_lsn; arg_str w data
  | Digest_r None -> add_string w "digest"; add_string w " _"
  | Digest_r (Some hex) -> add_string w "digest"; arg_str w hex
  | Snapshot_needed_r base -> add_string w "snapshot-needed"; arg_int w base

let max_frame = 16 * 1024 * 1024

let send fd b =
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let write_frame fd payload = send fd (render ~framed:true (fun w -> add_string w payload))
let write_response fd r = send fd (render ~framed:true (fun w -> encode_response w r))

(* the string forms of the writer-based encoders above *)
let encode_request r = Bytes.unsafe_to_string (render ~framed:false (fun w -> encode_request w r))
let encode_response r = Bytes.unsafe_to_string (render ~framed:false (fun w -> encode_response w r))

(* --- decoder cursor --- *)

(* Tokens are separated by single spaces and may be empty: an empty
   string argument escapes to an empty token ("lookup-string " is a
   lookup for ""). So a payload with k spaces holds k + 1 tokens, and
   only the empty payload holds none. [pos] is the start of the next
   token, past the end of [line] once none is left. *)
type cursor = { line : string; mutable pos : int; mutable verb : string }

exception Malformed of string

let cursor line = { line; pos = (if line = "" then 1 else 0); verb = "" }
let at_end c = c.pos > String.length c.line
let quote s = "\"" ^ String.escaped s ^ "\""

(* the first [ch] in [s.[i .. j-1]], or [j] *)
let rec find s ch i j = if i < j && String.unsafe_get s i <> ch then find s ch (i + 1) j else i

(* Steps over the next token and returns its start; it ends at
   [c.pos - 1]. *)
let take c =
  let i = c.pos in
  if i > String.length c.line then raise (Malformed "missing token");
  c.pos <- find c.line ' ' i (String.length c.line) + 1;
  i

let raw c =
  let i = take c in
  String.sub c.line i (c.pos - 1 - i)

let verb c =
  if at_end c then raise (Malformed "empty payload");
  c.verb <- raw c;
  c.verb

let finish c v = if at_end c then v else raise (Malformed "trailing tokens")

let bad_int s i j = raise (Malformed ("bad integer " ^ quote (String.sub s i (j - i))))

(* [m * 10 - d] stays in range while [m > cutoff], or [m = cutoff] and
   [d <= last] *)
let cutoff = min_int / 10
let last = -(min_int mod 10)

(* Only what [add_int] writes: [0|-?[1-9][0-9]*] within [int]'s range,
   scanned in the same pass that finds the token's end. *)
let int c =
  let s = c.line and i = c.pos in
  let n = String.length s in
  if i > n then raise (Malformed "missing token");
  let neg = i < n && String.unsafe_get s i = '-' in
  let k = if neg then i + 1 else i in
  (* accumulated negatively: the non-positive side holds min_int *)
  let m = ref 0 and p = ref k in
  while !p < n && String.unsafe_get s !p <> ' ' do
    let d = Char.code (String.unsafe_get s !p) - 48 in
    if d < 0 || d > 9 || !m < cutoff || (!m = cutoff && d > last) then
      bad_int s i (find s ' ' !p n);
    m := (!m * 10) - d;
    incr p
  done;
  let j = !p in
  c.pos <- j + 1;
  if k = j || (String.unsafe_get s k = '0' && (neg || j - k > 1)) then bad_int s i j;
  if neg then !m else if !m = min_int then bad_int s i j else - !m

(* [count] ids in order, straight into the list *)
let[@tail_mod_cons] rec ids c count =
  if count = 0 then
    if at_end c then [] else raise (Malformed "count mismatch")
  else if at_end c then raise (Malformed "count mismatch")
  else
    let id = int c in
    id :: ids c (count - 1)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* the bytes [s.[i .. j-1]] spell, %-escapes decoded *)
let unescape_range s i j =
  let b = Bytes.create (j - i) in
  let rec go i o =
    if i >= j then Bytes.sub_string b 0 o
    else if s.[i] <> '%' then begin
      Bytes.set b o s.[i];
      go (i + 1) (o + 1)
    end
    else if i + 2 >= j then raise (Malformed "truncated %-escape")
    else
      let hi = hex_val s.[i + 1] and lo = hex_val s.[i + 2] in
      if hi < 0 || lo < 0 then raise (Malformed ("bad %-escape at offset " ^ string_of_int i))
      else begin
        Bytes.set b o (Char.chr ((hi * 16) + lo));
        go (i + 3) (o + 1)
      end
  in
  go i 0

let unescape s =
  match unescape_range s 0 (String.length s) with
  | v -> Ok v
  | exception Malformed m -> Error m

let str c =
  let i = take c in
  unescape_range c.line i (c.pos - 1)

(* A plain decimal of at most 17 digits, such as "0.1" typed at
   [xvi client]: no exponent, sign, '_' or hex. *)
let plain_decimal tok =
  let rec go i digits dots =
    if i = String.length tok then digits >= 1 && digits <= 17 && dots <= 1
    else
      match tok.[i] with
      | '0' .. '9' -> go (i + 1) (digits + 1) dots
      | '.' -> go (i + 1) digits (dots + 1)
      | '-' when i = 0 -> go 1 digits dots
      | _ -> false
  in
  go 0 0 0

(* A bound as [arg_bound] writes it, or a plain decimal. [float_of_string]
   alone also takes "1_0", "0x1p3" and digits past the 17th, which
   re-encode as other bytes. *)
let bound c =
  match raw c with
  | "_" -> None
  | tok -> (
      match float_of_string_opt tok with
      | Some v when plain_decimal tok || String.equal (format_float "%.17g" v) tok -> Some v
      | _ -> raise (Malformed ("bad float " ^ quote tok)))

(* every [<key>=<value>] token left, split at its only raw '=' *)
let[@tail_mod_cons] rec pairs c =
  if at_end c then []
  else
    let s = c.line and i = take c in
    let j = c.pos - 1 in
    let e = find s '=' i j in
    if e = j || find s '=' (e + 1) j < j then
      raise (Malformed ("bad pair " ^ quote (String.sub s i (j - i))))
    else
      let kv = (unescape_range s i e, unescape_range s (e + 1) j) in
      kv :: pairs c

let decode_request line =
  let c = cursor line in
  try
    Ok
      (match verb c with
      | "hello" -> finish c Hello
      | "pin" -> finish c Pin
      | "lookup-string" -> finish c (Lookup_string (str c))
      | "lookup-contains" -> finish c (Lookup_contains (str c))
      | "lookup-element-contains" -> finish c (Lookup_element_contains (str c))
      | "lookup-named" -> finish c (Lookup_named (str c))
      | "lookup-typed" ->
          let ty = str c in
          let lo = bound c in
          let hi = bound c in
          finish c (Lookup_typed (ty, lo, hi))
      | "value" -> finish c (Value (int c))
      | "begin" -> finish c Begin
      | "set" ->
          let n = int c in
          finish c (Set (n, str c))
      | "commit" -> finish c Commit
      | "commit-deferred" -> finish c Commit_deferred
      | "abort" -> finish c Abort
      | "insert" ->
          let parent = int c in
          finish c (Insert (parent, str c))
      | "delete" -> finish c (Delete (int c))
      | "stats" -> finish c Stats
      | "sync" -> finish c Sync
      | "quit" -> finish c Quit
      | "shutdown" -> finish c Shutdown
      | "repl-info" -> finish c Repl_info
      | "repl-snapshot" -> finish c (Repl_snapshot (int c))
      | "repl-pull" ->
          let from_lsn = int c in
          let max_bytes = int c in
          finish c (Repl_pull { from_lsn; max_bytes })
      | "repl-digest" ->
          let anchor = int c in
          let lsn = int c in
          finish c (Repl_digest { anchor; lsn })
      | "promote" -> finish c Promote
      | _ -> raise (Malformed "unknown verb"))
  with Malformed m -> Error ("malformed request " ^ quote c.verb ^ ": " ^ m)

let decode_response line =
  let c = cursor line in
  try
    Ok
      (match verb c with
      | "ok" -> finish c Ok_
      | "epoch" ->
          let epoch = int c in
          let lsn = int c in
          let commits = int c in
          finish c (Epoch { epoch; lsn; commits })
      | "nodes" ->
          let count = int c in
          Nodes (ids c count)
      | "nodes-lsn" ->
          let lsn = int c in
          let count = int c in
          Nodes_lsn (ids c count, lsn)
      | "value" -> finish c (Value_r (str c))
      | "lsn" -> finish c (Lsn (int c))
      | "stats" -> Stats_r (pairs c)
      | "conflict" ->
          let node = int c in
          finish c (Conflict_r { node; reason = str c })
      | "err" -> finish c (Err (str c))
      | "bye" -> finish c Bye
      | "repl-info" ->
          let role = str c in
          let last_lsn = int c in
          let durable_lsn = int c in
          let checkpoint_lsn = int c in
          let applied_lsn = int c in
          let leader_lsn = int c in
          finish c
            (Repl_info_r
               { role; last_lsn; durable_lsn; checkpoint_lsn; applied_lsn; leader_lsn })
      | "chunk" ->
          let total = int c in
          finish c (Chunk { total; data = str c })
      | "frames" ->
          let durable_lsn = int c in
          finish c (Frames_r { durable_lsn; data = str c })
      | "digest" ->
          let tok = raw c in
          finish c
            (Digest_r
               (if String.equal tok "_" then None
                else Some (unescape_range tok 0 (String.length tok))))
      | "snapshot-needed" -> finish c (Snapshot_needed_r (int c))
      | _ -> raise (Malformed "unknown verb"))
  with Malformed m -> Error ("malformed response " ^ quote c.verb ^ ": " ^ m)

(* --- reading frames --- *)

(* The header is read ahead without ever passing the frame's end: while
   it is incomplete, its digits so far, [v], bound the frame from below
   — either '\n' and [v] payload bytes follow, or more digits and a
   payload of at least [10 * v] — so [v + 1] more bytes are always
   safe, and 2 before any digit ("0\n" is the shortest frame). A frame
   whose header and payload arrive together thus takes 2 reads, or 3
   with a header of 3 or more digits. *)
type header = Frame of { len : int; start : int } | Digits of int | Bad of string

(* [head.[0 .. got-1]] as a frame header: complete, a canonical digit
   prefix of value [v] so far, or malformed *)
let parse_header head got =
  let rec go i v =
    if i >= got then Digits v
    else
      match Bytes.get head i with
      | '\n' when i > 0 -> Frame { len = v; start = i + 1 }
      | '0' .. '9' as ch when i = 0 || Bytes.get head 0 <> '0' ->
          let v = (v * 10) + Char.code ch - 48 in
          if v > max_frame then
            Bad ("frame length out of bounds (max " ^ string_of_int max_frame ^ ")")
          else go (i + 1) v
      | _ -> Bad ("bad frame header " ^ quote (Bytes.sub_string head 0 (i + 1)))
  in
  go 0 0

let read_frame fd =
  let head = Bytes.create 128 in
  let rec read_head got want =
    match Unix.read fd head got (min want (Bytes.length head - got)) with
    | 0 -> if got = 0 then Error `Closed else Error (`Malformed "eof inside frame header")
    | k -> (
        let got = got + k in
        match parse_header head got with
        | Frame { len; start } -> Ok (len, start, got)
        | Digits v -> read_head got (v + 1)
        | Bad m -> Error (`Malformed m))
  in
  match read_head 0 2 with
  | Error _ as e -> e
  | Ok (len, start, got) ->
      let have = got - start in
      if have = len then Ok (Bytes.sub_string head start len)
      else begin
        let payload = Bytes.create len in
        Bytes.blit head start payload 0 have;
        let rec fill off =
          if off >= len then Ok (Bytes.unsafe_to_string payload)
          else
            match Unix.read fd payload off (len - off) with
            | 0 -> Error (`Malformed "eof inside frame payload")
            | k -> fill (off + k)
        in
        fill have
      end
