(* Streaming pull lexer over an incremental byte source — the tree's
   one XML lexer.  [Parser] appends its events to a [Store]; ingest
   feeds them to the one-pass index builder.

   The pending input lives in a refillable window.  Names, text runs,
   attribute values, comments, CDATA sections and PI bodies are found
   by scanning ahead in the window without consuming, then sliced out
   of it in one copy; only entity references and DOCTYPE skipping step
   a byte at a time. *)

type error = { line : int; col : int; offset : int; message : string }

let error_to_string e = Printf.sprintf "%d:%d: %s" e.line e.col e.message

type source = unit -> bytes option
type position = { line : int; col : int; offset : int }

type event =
  | Start_element of { name : string; attrs : (string * string) list }
  | End_element of string
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of { target : string; body : string }

type mode = Prolog | Content | Epilog

type t = {
  source : source;
  strip_ws : bool;
  (* Window of not-yet-consumed source bytes: [buf.[pos .. len-1]] are
     pending, [base] is the absolute offset of [buf.[0]].  Refilling
     compacts so [base + pos] — the absolute consume offset — is
     invariant across refills. *)
  mutable buf : bytes;
  mutable len : int;
  mutable pos : int;
  mutable base : int;
  mutable src_eof : bool;
  mutable line : int;
  mutable bol : int; (* absolute offset of beginning of current line *)
  mutable stack : string list; (* open element names, innermost first *)
  mutable depth : int;
  mutable mode : mode;
  top : mode; (* the mode at depth 0 once the first top-level node ends *)
  mutable xmldecl_checked : bool;
  (* Position of the current event's token, kept unboxed so that
     draining the lexer with [iter] allocates no position. *)
  mutable tok_line : int;
  mutable tok_col : int;
  mutable tok_offset : int;
  (* A self-closing tag yields two events from one token. *)
  mutable pending : event option;
  mutable failed : error option;
}

exception Fail of error

let abs t = t.base + t.pos

let fail t fmt =
  Printf.ksprintf
    (fun message ->
      raise
        (Fail
           { line = t.line; col = abs t - t.bol + 1; offset = abs t; message }))
    fmt

(* --- window management --- *)

let refill t =
  if t.pos > 0 then begin
    let rem = t.len - t.pos in
    Bytes.blit t.buf t.pos t.buf 0 rem;
    t.base <- t.base + t.pos;
    t.pos <- 0;
    t.len <- rem
  end;
  match t.source () with
  | None -> t.src_eof <- true
  | Some chunk ->
      let n = Bytes.length chunk in
      if t.len + n > Bytes.length t.buf then begin
        let cap = ref (max 64 (2 * Bytes.length t.buf)) in
        while t.len + n > !cap do
          cap := 2 * !cap
        done;
        let grown = Bytes.create !cap in
        Bytes.blit t.buf 0 grown 0 t.len;
        t.buf <- grown
      end;
      Bytes.blit chunk 0 t.buf t.len n;
      t.len <- t.len + n

(* Make [n] bytes pending, or return false at end of input: a
   [looking_at] near the end of input is false, never an error. *)
let ensure t n =
  while t.len - t.pos < n && not t.src_eof do
    refill t
  done;
  t.len - t.pos >= n

let at_eof t = t.pos >= t.len && not (ensure t 1)
let peek t = Bytes.get t.buf t.pos

let advance t =
  if Bytes.get t.buf t.pos = '\n' then begin
    t.line <- t.line + 1;
    t.bol <- abs t + 1
  end;
  t.pos <- t.pos + 1

(* Consume the next [n] pending bytes, all already in the window. *)
let skip t n =
  let stop = t.pos + n in
  for i = t.pos to stop - 1 do
    if Bytes.unsafe_get t.buf i = '\n' then begin
      t.line <- t.line + 1;
      t.bol <- t.base + i + 1
    end
  done;
  t.pos <- stop

(* Consume the next [n] pending bytes and return them. *)
let take t n =
  let s = Bytes.sub_string t.buf t.pos n in
  skip t n;
  s

(* Number of pending bytes before the first one [stop] accepts, or
   before the end of input; all of them are then in the window. *)
let span t stop =
  let rec scan i =
    let j = t.pos + i in
    if j < t.len then if stop (Bytes.unsafe_get t.buf j) then i else scan (i + 1)
    else if ensure t (i + 1) then scan i
    else i
  in
  scan 0

let matches t i s =
  let n = String.length s in
  let rec eq k = k = n || (Bytes.get t.buf (i + k) = s.[k] && eq (k + 1)) in
  eq 0

(* Offset from [pos] of the first occurrence of [delim] in the pending
   input, or [None] when the input ends first. *)
let find t delim =
  let m = String.length delim in
  let rec scan i =
    if ensure t (i + m) then if matches t (t.pos + i) delim then Some i else scan (i + 1)
    else None
  in
  scan 0

let next_ch t =
  if at_eof t then fail t "unexpected end of input";
  let c = peek t in
  advance t;
  c

let expect t c =
  let got = next_ch t in
  if got <> c then fail t "expected %C, found %C" c got

let looking_at t s = ensure t (String.length s) && matches t t.pos s
let is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let skip_ws t =
  while (not (at_eof t)) && is_ws (peek t) do
    advance t
  done

(* The current event's token starts here. *)
let mark t =
  t.tok_line <- t.line;
  t.tok_col <- abs t - t.bol + 1;
  t.tok_offset <- abs t

(* --- tokens --- *)

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let lex_name t =
  if at_eof t || not (is_name_start (peek t)) then fail t "expected a name";
  take t (span t (fun c -> not (is_name_char c)))

let add_utf8 buf code =
  if code < 0 || code > 0x10FFFF then invalid_arg "add_utf8"
  else if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* Resolve a reference after '&' has been consumed. *)
let lex_reference t buf =
  if at_eof t then fail t "unterminated entity reference";
  if peek t = '#' then begin
    advance t;
    let hex = (not (at_eof t)) && (peek t = 'x' || peek t = 'X') in
    if hex then advance t;
    let digits = take t (span t (fun c -> c = ';')) in
    expect t ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail t "bad character reference &#%s;" digits
    in
    try add_utf8 buf code
    with Invalid_argument _ -> fail t "character reference out of range"
  end
  else begin
    let name = lex_name t in
    expect t ';';
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "apos" -> Buffer.add_char buf '\''
    | "quot" -> Buffer.add_char buf '"'
    | other -> fail t "unknown entity &%s;" other
  end

(* [first], a run of literal bytes already taken, then — while the
   next byte is '&' — a reference and the run up to the next byte
   [stop] accepts.  Without references [first] is returned as sliced
   from the window. *)
let with_references t first stop =
  if at_eof t || peek t <> '&' then first
  else begin
    let buf = Buffer.create (String.length first + 16) in
    Buffer.add_string buf first;
    while (not (at_eof t)) && peek t = '&' do
      advance t;
      lex_reference t buf;
      Buffer.add_string buf (take t (span t stop))
    done;
    Buffer.contents buf
  end

let lex_attr_value t =
  let quote = next_ch t in
  if quote <> '"' && quote <> '\'' then fail t "expected quoted attribute value";
  let stop c = c = quote || c = '&' || c = '<' in
  let value = with_references t (take t (span t stop)) stop in
  if next_ch t = '<' then fail t "'<' in attribute value";
  value

(* [None] when the run was whitespace-only and stripped.  Any
   reference marks the run non-blank, even one resolving to
   whitespace. *)
let lex_text t =
  let stop c = c = '<' || c = '&' in
  let run = take t (span t stop) in
  if at_eof t || peek t <> '&' then
    if t.strip_ws && String.for_all is_ws run then None else Some (Text run)
  else Some (Text (with_references t run stop))

(* Consume the rest of the input and fail at its end; [find] returning
   [None] has already pulled all of it into the window. *)
let run_out t =
  skip t (t.len - t.pos);
  fail t "unexpected end of input"

(* The body of a construct up to [delim], consumed with it. *)
let lex_until t delim =
  match find t delim with
  | Some n ->
      let body = take t n in
      skip t (String.length delim);
      body
  | None -> run_out t

let lex_comment t =
  (* after "<!--" *)
  match find t "--" with
  | Some n ->
      let body = take t n in
      if not (looking_at t "-->") then fail t "'--' inside comment";
      skip t 3;
      body
  | None -> run_out t

let lex_pi t =
  (* after "<?" *)
  let target = lex_name t in
  skip_ws t;
  (target, lex_until t "?>")

let skip_doctype t =
  (* after "<!DOCTYPE" *)
  let depth = ref 1 in
  while !depth > 0 do
    match next_ch t with
    | '<' -> incr depth
    | '>' -> decr depth
    | '[' ->
        let sub = ref 1 in
        while !sub > 0 do
          match next_ch t with
          | '[' -> incr sub
          | ']' -> decr sub
          | _ -> ()
        done
    | _ -> ()
  done

(* --- grammar steps --- *)

(* Attributes then ">" or "/>"; source order preserved. *)
let lex_attributes t =
  let rec go acc =
    skip_ws t;
    if at_eof t then fail t "unterminated start tag"
    else if peek t = '>' then begin
      advance t;
      (List.rev acc, false)
    end
    else if looking_at t "/>" then begin
      skip t 2;
      (List.rev acc, true)
    end
    else begin
      let name = lex_name t in
      skip_ws t;
      expect t '=';
      skip_ws t;
      let value = lex_attr_value t in
      go ((name, value) :: acc)
    end
  in
  go []

(* '<' already consumed. *)
let start_tag t =
  let name = lex_name t in
  let attrs, self_closing = lex_attributes t in
  if self_closing then begin
    t.pending <- Some (End_element name);
    if t.depth = 0 then t.mode <- t.top
  end
  else begin
    t.stack <- name :: t.stack;
    t.depth <- t.depth + 1;
    t.mode <- Content
  end;
  Start_element { name; attrs }

let end_tag t =
  (* after "</" *)
  let close = lex_name t in
  match t.stack with
  | open_tag :: rest ->
      if not (String.equal close open_tag) then
        fail t "mismatched end tag </%s> for <%s>" close open_tag;
      skip_ws t;
      expect t '>';
      t.stack <- rest;
      t.depth <- t.depth - 1;
      if t.depth = 0 then t.mode <- t.top;
      End_element close
  | [] ->
      (* [Content] mode at depth 0 only exists in a fragment, which
         rejects the "</" before getting here. *)
      assert false

let rec step_prolog t =
  skip_ws t;
  if not t.xmldecl_checked then begin
    t.xmldecl_checked <- true;
    (* The XML declaration is consumed and dropped — as is any PI whose
       target merely starts with "xml". *)
    if looking_at t "<?xml" then begin
      skip t 2;
      ignore (lex_pi t : string * string)
    end;
    skip_ws t
  end;
  mark t;
  if looking_at t "<!--" then begin
    skip t 4;
    Some (Comment (lex_comment t))
  end
  else if looking_at t "<!DOCTYPE" then begin
    skip t 9;
    skip_doctype t;
    step_prolog t
  end
  else if looking_at t "<?" then begin
    skip t 2;
    let target, body = lex_pi t in
    Some (Pi { target; body })
  end
  else begin
    if at_eof t || peek t <> '<' then fail t "expected root element";
    advance t;
    Some (start_tag t)
  end

let rec step_content t =
  mark t;
  if at_eof t then
    if t.depth = 0 then None else fail t "unexpected end of input"
  else if peek t <> '<' then begin
    match lex_text t with Some _ as text -> text | None -> step_content t
  end
  else if looking_at t "</" then begin
    if t.depth = 0 then fail t "unexpected end-tag in fragment";
    skip t 2;
    Some (end_tag t)
  end
  else if looking_at t "<!--" then begin
    skip t 4;
    Some (Comment (lex_comment t))
  end
  else if looking_at t "<![CDATA[" then begin
    skip t 9;
    let txt = lex_until t "]]>" in
    if String.length txt > 0 then Some (Cdata txt) else step_content t
  end
  else if looking_at t "<?" then begin
    skip t 2;
    let target, body = lex_pi t in
    Some (Pi { target; body })
  end
  else begin
    advance t;
    Some (start_tag t)
  end

let step_epilog t =
  skip_ws t;
  mark t;
  if at_eof t then None
  else if looking_at t "<!--" then begin
    skip t 4;
    Some (Comment (lex_comment t))
  end
  else if looking_at t "<?" then begin
    skip t 2;
    let target, body = lex_pi t in
    Some (Pi { target; body })
  end
  else fail t "content after the root element"

(* --- public interface --- *)

let start ~mode ~top ?(strip_ws = true) source =
  {
    source;
    strip_ws;
    buf = Bytes.empty;
    len = 0;
    pos = 0;
    base = 0;
    src_eof = false;
    line = 1;
    bol = 0;
    stack = [];
    depth = 0;
    mode;
    top;
    xmldecl_checked = false;
    tok_line = 1;
    tok_col = 1;
    tok_offset = 0;
    pending = None;
    failed = None;
  }

let make ?strip_ws source = start ~mode:Prolog ~top:Epilog ?strip_ws source
let fragment ?strip_ws source = start ~mode:Content ~top:Content ?strip_ws source

let step t =
  match t.pending with
  | Some ev ->
      t.pending <- None;
      Some ev
  | None -> (
      match t.mode with
      | Prolog -> step_prolog t
      | Content -> step_content t
      | Epilog -> step_epilog t)

let next t =
  match t.failed with
  | Some e -> Error e
  | None -> (
      match step t with
      | Some ev ->
          Ok
            (Some
               (ev, { line = t.tok_line; col = t.tok_col; offset = t.tok_offset }))
      | None -> Ok None
      | exception Fail e ->
          t.failed <- Some e;
          Error e)

let iter t f =
  let rec go () =
    match step t with
    | Some ev ->
        f ev;
        go ()
    | None -> Ok ()
  in
  match t.failed with
  | Some e -> Error e
  | None -> (
      try go ()
      with Fail e ->
        t.failed <- Some e;
        Error e)

let consumed t = abs t
let depth t = t.depth

(* A source handing out [read]'s bytes [chunk_size] at a time. *)
let chunks chunk_size read =
  let buf = Bytes.create chunk_size in
  fun () ->
    let n = read buf chunk_size in
    if n = 0 then None
    else if n = chunk_size then Some buf
    else Some (Bytes.sub buf 0 n)

let of_string s =
  let pos = ref 0 in
  chunks
    (max 1 (min 65536 (String.length s)))
    (fun buf len ->
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf 0 n;
      pos := !pos + n;
      n)

let of_channel ?(chunk_size = 65536) ic =
  chunks (max 1 chunk_size) (fun buf len -> input ic buf 0 len)
