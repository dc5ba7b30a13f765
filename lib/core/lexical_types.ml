type spec = {
  type_name : string;
  sct : Sct.t;
  parse : string -> float option;
}

let strip s = String.trim s

(* --- xs:double (paper Figure 5) ---

   ws . sign? . ( D+ (dot D.star)? | dot D+ ) . ( [eE] sign? D+ )? . ws
   (ws parts repeated zero or more times)

   1 start/ws --sign--> 2 --D--> 3 (int digits, final)
   3 --.--> 5 (fraction, final; "78." is complete)
   1,2 --.--> 4 (bare dot: potential only) --D--> 5
   3,5 --[eE]--> 6 --sign--> 7 --D--> 8 (exp digits, final)
   3,5,8 --ws--> 9 (trailing ws, final) *)
let double_dfa () =
  Dfa.build ~name:"xs:double" ~n_states:10 ~start:1 ~sink:0
    ~finals:[ 3; 5; 8; 9 ]
    ~classes:[ (" \t\r\n", 0); ("+-", 1); ("0-9", 2); (".", 3); ("eE", 4) ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "+-", 2);
        (1, "0-9", 3);
        (1, ".", 4);
        (2, "0-9", 3);
        (2, ".", 4);
        (3, "0-9", 3);
        (3, ".", 5);
        (3, "eE", 6);
        (3, " \t\r\n", 9);
        (4, "0-9", 5);
        (5, "0-9", 5);
        (5, "eE", 6);
        (5, " \t\r\n", 9);
        (6, "+-", 7);
        (6, "0-9", 8);
        (7, "0-9", 8);
        (8, "0-9", 8);
        (8, " \t\r\n", 9);
        (9, " \t\r\n", 9);
      ]

(* Only ever called on DFA-accepted lexical forms, so the laxer corners
   of [float_of_string] (hex, inf, nan, underscores) are unreachable.
   Overflowing literals like "1E999" cast to infinity, which is a
   perfectly good (and correctly ordered) index key. *)
let parse_double s = float_of_string_opt (strip s)

(* --- xs:integer --- ws* sign? D+ ws* *)
let integer_dfa () =
  Dfa.build ~name:"xs:integer" ~n_states:5 ~start:1 ~sink:0 ~finals:[ 3; 4 ]
    ~classes:[ (" \t\r\n", 0); ("+-", 1); ("0-9", 2) ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "+-", 2);
        (1, "0-9", 3);
        (2, "0-9", 3);
        (3, "0-9", 3);
        (3, " \t\r\n", 4);
        (4, " \t\r\n", 4);
      ]

(* The key is a float: exact to 2^53; huge literals saturate toward
   infinity while remaining order-consistent for index purposes. *)
let parse_integer s = float_of_string_opt (strip s)

(* --- xs:boolean --- ws* (true | false | 1 | 0) ws* *)
let boolean_dfa () =
  Dfa.build ~name:"xs:boolean" ~n_states:12 ~start:1 ~sink:0 ~finals:[ 5; 6 ]
    ~classes:
      [
        (" \t\r\n", 0);
        ("t", 1);
        ("r", 2);
        ("u", 3);
        ("e", 4);
        ("f", 5);
        ("a", 6);
        ("l", 7);
        ("s", 8);
        ("01", 9);
      ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "t", 2);
        (2, "r", 3);
        (3, "u", 4);
        (4, "e", 5);
        (1, "f", 7);
        (7, "a", 8);
        (8, "l", 9);
        (9, "s", 10);
        (10, "e", 5);
        (1, "01", 5);
        (5, " \t\r\n", 6);
        (6, " \t\r\n", 6);
      ]

let parse_boolean s =
  match strip s with
  | "true" | "1" -> Some 1.0
  | "false" | "0" -> Some 0.0
  | _ -> None

(* --- xs:dateTime --- ws* D4-D2-D2 T D2:D2:D2 (.D+)? (Z | ±D2:D2)? ws* *)
let datetime_dfa () =
  Dfa.build ~name:"xs:dateTime" ~n_states:30 ~start:1 ~sink:0
    ~finals:[ 20; 22; 28; 29 ]
    ~classes:
      [
        (" \t\r\n", 0);
        ("0-9", 1);
        ("-", 2);
        (":", 3);
        ("T", 4);
        ("Z", 5);
        (".", 6);
        ("+", 7);
      ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "0-9", 2);
        (2, "0-9", 3);
        (3, "0-9", 4);
        (4, "0-9", 5);
        (5, "-", 6);
        (6, "0-9", 7);
        (7, "0-9", 8);
        (8, "-", 9);
        (9, "0-9", 10);
        (10, "0-9", 11);
        (11, "T", 12);
        (12, "0-9", 13);
        (13, "0-9", 14);
        (14, ":", 15);
        (15, "0-9", 16);
        (16, "0-9", 17);
        (17, ":", 18);
        (18, "0-9", 19);
        (19, "0-9", 20);
        (20, ".", 21);
        (21, "0-9", 22);
        (22, "0-9", 22);
        (20, "Z", 28);
        (22, "Z", 28);
        (20, "-", 23);
        (20, "+", 23);
        (22, "-", 23);
        (22, "+", 23);
        (23, "0-9", 24);
        (24, "0-9", 25);
        (25, ":", 26);
        (26, "0-9", 27);
        (27, "0-9", 28);
        (28, " \t\r\n", 29);
        (20, " \t\r\n", 29);
        (22, " \t\r\n", 29);
        (29, " \t\r\n", 29);
      ]

(* Howard Hinnant's days_from_civil: days since 1970-01-01, proleptic
   Gregorian. *)
let days_from_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (month + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let parse_datetime s =
  let s = strip s in
  (* Shape is guaranteed by the DFA; parse positionally. *)
  let len = String.length s in
  let digits at n =
    let v = ref 0 in
    for i = at to at + n - 1 do
      v := (!v * 10) + (Char.code s.[i] - Char.code '0')
    done;
    !v
  in
  if len < 19 then None
  else
    try
      let year = digits 0 4
      and month = digits 5 2
      and day = digits 8 2
      and hour = digits 11 2
      and minute = digits 14 2
      and second = digits 17 2 in
      if month < 1 || month > 12 || day < 1 || day > 31 then None
      else begin
        let pos = ref 19 in
        let frac = ref 0.0 in
        if !pos < len && s.[!pos] = '.' then begin
          incr pos;
          let start = !pos in
          while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
            incr pos
          done;
          (* the grammar is [(.s+)?]: a dot with no digits is not a
             complete lexical form *)
          if !pos = start then raise Exit;
          frac := float_of_string ("0." ^ String.sub s start (!pos - start))
        end;
        let tz_seconds =
          if !pos < len && s.[!pos] = 'Z' then begin
            incr pos;
            0
          end
          else if !pos < len && (s.[!pos] = '+' || s.[!pos] = '-') then begin
            let sign = if s.[!pos] = '-' then -1 else 1 in
            let h = digits (!pos + 1) 2 and m = digits (!pos + 4) 2 in
            pos := !pos + 6;
            sign * ((h * 3600) + (m * 60))
          end
          else 0
        in
        if !pos <> len then None
        else
          let days = days_from_civil ~year ~month ~day in
          let secs =
            (float_of_int days *. 86400.0)
            +. float_of_int ((hour * 3600) + (minute * 60) + second)
            +. !frac
            -. float_of_int tz_seconds
          in
          Some secs
      end
    with Exit | Failure _ | Invalid_argument _ ->
      (* Exit: dot with no fraction digits; Failure: float_of_string on
         a malformed fraction; Invalid_argument: positional reads past
         the end of a short timezone.  Anything else must propagate. *)
      None

(* --- xs:decimal --- like double but without an exponent part *)
let decimal_dfa () =
  Dfa.build ~name:"xs:decimal" ~n_states:7 ~start:1 ~sink:0 ~finals:[ 3; 5; 6 ]
    ~classes:[ (" \t\r\n", 0); ("+-", 1); ("0-9", 2); (".", 3) ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "+-", 2);
        (1, "0-9", 3);
        (1, ".", 4);
        (2, "0-9", 3);
        (2, ".", 4);
        (3, "0-9", 3);
        (3, ".", 5);
        (3, " \t\r\n", 6);
        (4, "0-9", 5);
        (5, "0-9", 5);
        (5, " \t\r\n", 6);
        (6, " \t\r\n", 6);
      ]

let parse_decimal s = float_of_string_opt (strip s)

(* --- xs:date --- ws* D4-D2-D2 (Z | +-D2:D2)? ws*; key = days since
   epoch shifted by the timezone as XML Schema's starting-instant
   order prescribes *)
let date_dfa () =
  Dfa.build ~name:"xs:date" ~n_states:19 ~start:1 ~sink:0 ~finals:[ 11; 17; 18 ]
    ~classes:
      [ (" \t\r\n", 0); ("0-9", 1); ("-", 2); (":", 3); ("Z", 4); ("+", 5) ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "0-9", 2);
        (2, "0-9", 3);
        (3, "0-9", 4);
        (4, "0-9", 5);
        (5, "-", 6);
        (6, "0-9", 7);
        (7, "0-9", 8);
        (8, "-", 9);
        (9, "0-9", 10);
        (10, "0-9", 11);
        (11, "Z", 17);
        (11, "-", 12);
        (11, "+", 12);
        (12, "0-9", 13);
        (13, "0-9", 14);
        (14, ":", 15);
        (15, "0-9", 16);
        (16, "0-9", 17);
        (17, " \t\r\n", 18);
        (11, " \t\r\n", 18);
        (18, " \t\r\n", 18);
      ]

let parse_tz s pos len =
  (* optional Z or +-hh:mm at [pos]; returns (seconds, end position) *)
  if pos < len && s.[pos] = 'Z' then (0, pos + 1)
  else if pos < len && (s.[pos] = '+' || s.[pos] = '-') then begin
    let sign = if s.[pos] = '-' then -1 else 1 in
    let d i = Char.code s.[i] - Char.code '0' in
    let h = (10 * d (pos + 1)) + d (pos + 2)
    and m = (10 * d (pos + 4)) + d (pos + 5) in
    (sign * ((h * 3600) + (m * 60)), pos + 6)
  end
  else (0, pos)

let parse_date s =
  let s = strip s in
  let len = String.length s in
  if len < 10 then None
  else
    try
      let d i = Char.code s.[i] - Char.code '0' in
      let year = (1000 * d 0) + (100 * d 1) + (10 * d 2) + d 3 in
      let month = (10 * d 5) + d 6 in
      let day = (10 * d 8) + d 9 in
      if month < 1 || month > 12 || day < 1 || day > 31 then None
      else begin
        let tz, pos = parse_tz s 10 len in
        if pos <> len then None
        else
          Some
            ((float_of_int (days_from_civil ~year ~month ~day) *. 86400.0)
            -. float_of_int tz)
      end
    with Invalid_argument _ ->
      (* positional digit reads past the end of a short timezone *)
      None

(* --- xs:time --- ws* D2:D2:D2 (.D+)? (Z | +-D2:D2)? ws* *)
let time_dfa () =
  Dfa.build ~name:"xs:time" ~n_states:19 ~start:1 ~sink:0 ~finals:[ 8; 10; 16; 18 ]
    ~classes:
      [ (" \t\r\n", 0); ("0-9", 1); (":", 2); (".", 3); ("Z", 4); ("+-", 5) ]
    ~transitions:
      [
        (1, " \t\r\n", 1);
        (1, "0-9", 2);
        (2, "0-9", 3);
        (3, ":", 4);
        (4, "0-9", 5);
        (5, "0-9", 6);
        (6, ":", 7);
        (7, "0-9", 17);
        (17, "0-9", 8);
        (8, ".", 9);
        (9, "0-9", 10);
        (10, "0-9", 10);
        (8, "Z", 16);
        (10, "Z", 16);
        (8, "+-", 11);
        (10, "+-", 11);
        (11, "0-9", 12);
        (12, "0-9", 13);
        (13, ":", 14);
        (14, "0-9", 15);
        (15, "0-9", 16);
        (16, " \t\r\n", 18);
        (8, " \t\r\n", 18);
        (10, " \t\r\n", 18);
        (18, " \t\r\n", 18);
      ]

let parse_time s =
  let s = strip s in
  let len = String.length s in
  if len < 8 then None
  else
    try
      let d i = Char.code s.[i] - Char.code '0' in
      let hour = (10 * d 0) + d 1
      and minute = (10 * d 3) + d 4
      and second = (10 * d 6) + d 7 in
      if hour > 24 || minute > 59 || second > 60 then None
      else begin
        let pos = ref 8 in
        let frac = ref 0.0 in
        if !pos < len && s.[!pos] = '.' then begin
          incr pos;
          let start = !pos in
          while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
            incr pos
          done;
          if !pos = start then raise Exit;
          frac := float_of_string ("0." ^ String.sub s start (!pos - start))
        end;
        let tz, pos = parse_tz s !pos len in
        if pos <> len then None
        else
          Some
            (float_of_int ((hour * 3600) + (minute * 60) + second - tz)
            +. !frac)
      end
    with Exit | Failure _ | Invalid_argument _ ->
      (* same escape hatches as [parse_datetime]: incomplete fraction,
         malformed float, or a positional read past the end *)
      None

let make name dfa parse =
  lazy { type_name = name; sct = Sct.of_dfa (dfa ()); parse }

let double_spec = make "xs:double" double_dfa parse_double
let integer_spec = make "xs:integer" integer_dfa parse_integer
let boolean_spec = make "xs:boolean" boolean_dfa parse_boolean
let datetime_spec = make "xs:dateTime" datetime_dfa parse_datetime
let decimal_spec = make "xs:decimal" decimal_dfa parse_decimal
let date_spec = make "xs:date" date_dfa parse_date
let time_spec = make "xs:time" time_dfa parse_time

let double () = Lazy.force double_spec
let integer () = Lazy.force integer_spec
let boolean () = Lazy.force boolean_spec
let datetime () = Lazy.force datetime_spec
let decimal () = Lazy.force decimal_spec
let date () = Lazy.force date_spec
let time () = Lazy.force time_spec

(* by name, so [of_name] derives only the SCT it returns *)
let registry =
  [
    ("xs:double", double_spec);
    ("xs:integer", integer_spec);
    ("xs:boolean", boolean_spec);
    ("xs:dateTime", datetime_spec);
    ("xs:decimal", decimal_spec);
    ("xs:date", date_spec);
    ("xs:time", time_spec);
  ]

let all () = List.map (fun (_, spec) -> Lazy.force spec) registry
let of_name name = Option.map Lazy.force (List.assoc_opt name registry)
