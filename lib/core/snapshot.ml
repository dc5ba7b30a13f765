module Codec = Xvi_util.Codec

let version = 5
let prefix = "XVI-SNAPSHOT-"
let magic = prefix ^ string_of_int version ^ "\n"

type error =
  | Not_a_snapshot
  | Unsupported_version of int
  | Corrupted of string
  | Io_error of string

let error_to_string = function
  | Not_a_snapshot -> "not an xvi snapshot"
  | Unsupported_version v ->
      Printf.sprintf
        "snapshot format v%d is not readable by this build (it reads v%d); \
         re-create it from the XML"
        v version
  | Corrupted what -> "corrupt snapshot: " ^ what
  | Io_error msg -> msg

(* Format v5 (integers little-endian):

     magic          "XVI-SNAPSHOT-5\n" — the digit is the format version
     count          1 byte: the number of sections
     section table  per section: tag (1 byte), payload length (u64),
                    MD5 of the payload (16 bytes)
     payloads       back to back, in table order; the file ends exactly
                    at the last one

   The sections, in this order:

     Config   LSN, jobs, substring flag, typed-index type names
     Store    the columnar store ([Store.encode])
     Strings  the string index ([String_index.encode])
     Typed    one per configured type, in config order
              ([Typed_index.encode])

   Nothing is marshalled and no code pointer is stored: a type machine
   is persisted by its registry name ([Lexical_types.of_name]), so any
   build that reads v5 reads every v5 file. Each decoder is total, and
   the index decoders check what they load against the store, so a
   section whose digest was forged still loads only as an [Error] or as
   a database equal to a rebuild. The substring and name indices are
   derived from the store and rebuilt on load. *)

type section = Config | Store | Strings | Typed

let section_tag = function Config -> 1 | Store -> 2 | Strings -> 3 | Typed -> 4

let section_of_tag = function
  | 1 -> Some Config
  | 2 -> Some Store
  | 3 -> Some Strings
  | 4 -> Some Typed
  | _ -> None

let section_name = function
  | Config -> "config"
  | Store -> "store"
  | Strings -> "strings"
  | Typed -> "typed"

let entry_bytes = 1 + 8 + 16
let header_bytes db =
  String.length magic + 1 + (entry_bytes * (3 + List.length (Db.typed_indices db)))

(* Domain pools larger than this cannot be spawned, so no valid config
   asks for more. *)
let max_jobs = 128

let encode_config ~lsn (config : Db.Config.t) sink =
  Codec.Sink.varint sink lsn;
  Codec.Sink.varint sink (Int.min max_jobs (Int.max 0 config.jobs));
  Codec.Sink.byte sink (Bool.to_int config.substring);
  Codec.Sink.varint sink (List.length config.types);
  List.iter
    (fun spec -> Codec.Sink.string sink spec.Lexical_types.type_name)
    config.types

let decode_config src =
  let lsn = Codec.Source.varint src in
  let jobs = Codec.Source.varint src in
  if jobs > max_jobs then Codec.malformed "jobs %d above %d" jobs max_jobs;
  let substring =
    match Codec.Source.byte src with
    | 0 -> false
    | 1 -> true
    | b -> Codec.malformed "substring flag %d" b
  in
  let ntypes = Codec.Source.varint src in
  if ntypes > Codec.Source.remaining src then
    Codec.malformed "%d typed indices past the input" ntypes;
  let types =
    List.init ntypes (fun _ ->
        let name = Codec.Source.string src in
        match Lexical_types.of_name name with
        | Some spec -> spec
        | None -> Codec.malformed "unknown index type %S" name)
  in
  (lsn, { Db.Config.types; substring; jobs })

(* fsync a directory so a rename inside it survives power loss; needs a
   read-only descriptor on the directory itself. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ ->
      (* some filesystems refuse to open directories; the rename is then
         only as durable as the platform allows *)
      ()

(* Each section streams through one reused 64 KiB buffer into the temp
   file, so no string ever holds a section, let alone the payload. A
   section's digest is then read back from the file (the page cache),
   and the table is written into the slot reserved for it. *)
let save ?(lsn = 0) db path =
  let sections =
    (Config, encode_config ~lsn (Db.config db))
    :: (Store, Xvi_xml.Store.encode (Db.store db))
    :: (Strings, String_index.encode (Db.string_index db))
    :: List.map (fun ti -> (Typed, Typed_index.encode ti)) (Db.typed_indices db)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      let table_pos = pos_out oc in
      output_string oc
        (String.make (1 + (entry_bytes * List.length sections)) '\000');
      let sink = Codec.Sink.create (fun b off len -> output oc b off len) in
      let spans =
        List.map
          (fun (section, encode) ->
            let start = pos_out oc in
            encode sink;
            Codec.Sink.drain sink;
            (section, start, pos_out oc - start))
          sections
      in
      flush oc;
      let table = Buffer.create (1 + (entry_bytes * List.length spans)) in
      Buffer.add_uint8 table (List.length spans);
      let ic = open_in_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          List.iter
            (fun (section, start, len) ->
              seek_in ic start;
              Buffer.add_uint8 table (section_tag section);
              Buffer.add_int64_le table (Int64.of_int len);
              Buffer.add_string table (Digest.channel ic len))
            spans);
      seek_out oc table_pos;
      Buffer.output_buffer oc table;
      (* the atomic-rename guarantee needs the bytes on the platter
         before the rename is: flush the channel, then fsync the file *)
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* ... and the rename itself recorded in the directory *)
  fsync_dir (Filename.dirname path)

(* The magic line: [Ok ()] for v5, else which error. *)
let read_magic ic =
  let n = String.length prefix in
  if in_channel_length ic < n || not (String.equal (really_input_string ic n) prefix)
  then Error Not_a_snapshot
  else begin
    let digits = Buffer.create 4 in
    let rec line () =
      match input_char ic with
      | '\n' -> ()
      | '0' .. '9' as c when Buffer.length digits < 6 ->
          Buffer.add_char digits c;
          line ()
      | _ -> Codec.malformed "unreadable format version"
    in
    line ();
    match int_of_string_opt (Buffer.contents digits) with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Unsupported_version v)
    | None -> Codec.malformed "unreadable format version"
  end

(* The section table, checked against the file size: every byte of the
   file is either framing or exactly one section's payload. *)
let read_table ic =
  let count = input_byte ic in
  if count < 3 then Codec.malformed "%d sections" count;
  let raw = really_input_string ic (entry_bytes * count) in
  let entries =
    List.init count (fun i ->
        let at = i * entry_bytes in
        let section =
          match section_of_tag (Char.code raw.[at]) with
          | Some s -> s
          | None -> Codec.malformed "unknown section tag %d" (Char.code raw.[at])
        in
        let len = Int64.to_int (String.get_int64_le raw (at + 1)) in
        if len < 0 || len > in_channel_length ic then
          Codec.malformed "section %d length %d" i len;
        (section, len, String.sub raw (at + 9) 16))
  in
  let total = List.fold_left (fun acc (_, len, _) -> acc + len) 0 entries in
  if pos_in ic + total <> in_channel_length ic then
    Codec.malformed "sections cover %d bytes, the file holds %d after the table"
      total
      (in_channel_length ic - pos_in ic);
  (match List.map (fun (s, _, _) -> s) entries with
  | Config :: Store :: Strings :: typed
    when List.for_all (fun s -> s = Typed) typed ->
      ()
  | _ -> Codec.malformed "sections out of order");
  entries

(* A load allocates only what it keeps, much of it off-heap column
   pages. The runtime paces major collections by off-heap allocation
   relative to the major heap, which is still small while a load runs,
   so at [xvi serve]'s ratio of 20 the store section alone set off 18
   major cycles at XMark x2 that could find no garbage. The pacing is
   relaxed for the load and restored after it. *)
let loading f =
  let ratio = (Gc.get ()).Gc.custom_major_ratio in
  Gc.set { (Gc.get ()) with Gc.custom_major_ratio = Int.max ratio 1000 };
  Fun.protect
    ~finally:(fun () ->
      Gc.set { (Gc.get ()) with Gc.custom_major_ratio = ratio })
    f

let load_with_lsn ?config path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        loading @@ fun () ->
        match read_magic ic with
        | Error e -> Error e
        | Ok () ->
            let entries = read_table ic in
            (* one section in memory at a time, its digest checked
               before a byte of it is decoded *)
            let next (section, len, digest) decode =
              let payload = really_input_string ic len in
              if not (String.equal (Digest.string payload) digest) then
                Codec.malformed "%s section digest mismatch"
                  (section_name section);
              let src = Codec.Source.of_string payload in
              let v = decode src in
              Codec.Source.finish src;
              v
            in
            let entries = Array.of_list entries in
            let lsn, stored = next entries.(0) decode_config in
            if List.length stored.Db.Config.types <> Array.length entries - 3
            then Codec.malformed "config names %d typed indices, the file holds %d"
                (List.length stored.Db.Config.types) (Array.length entries - 3);
            let store = next entries.(1) Xvi_xml.Store.decode in
            match config with
            | Some config ->
                (* Re-index the loaded store under the new configuration
                   (different types, substring index, or a parallel
                   rebuild); the stored indices are digest-checked only. *)
                for i = 2 to Array.length entries - 1 do
                  next entries.(i) (fun src ->
                      Codec.Source.raw src (Codec.Source.remaining src)
                        (fun _ _ _ -> ()))
                done;
                Ok (Db.of_store ~config store, lsn)
            | None ->
                (* every index field from the store, in one pass *)
                let hash = Indexer.empty_fields Indexer.hash_ops in
                let states =
                  List.map
                    (fun spec ->
                      ( spec,
                        Indexer.empty_fields
                          (Indexer.sct_ops spec.Lexical_types.sct) ))
                    stored.Db.Config.types
                in
                Indexer.fill store
                  (Indexer.Packed (Indexer.hash_ops, hash)
                  :: List.map
                       (fun (spec, fields) ->
                         Indexer.Packed
                           (Indexer.sct_ops spec.Lexical_types.sct, fields))
                       states);
                let strings = next entries.(2) (String_index.decode store hash) in
                let typed =
                  List.mapi
                    (fun i (spec, fields) ->
                      next entries.(3 + i) (Typed_index.decode store spec fields))
                    states
                in
                Ok (Db.assemble ~config:stored ~store ~strings ~typed, lsn))
  with
  | Sys_error msg -> Error (Io_error msg)
  | End_of_file -> Error (Corrupted "truncated file")
  | Codec.Malformed what -> Error (Corrupted what)

let load ?config path = Result.map fst (load_with_lsn ?config path)

let load_exn ?config path =
  match load ?config path with
  | Ok db -> db
  | Error e -> failwith ("Snapshot.load: " ^ error_to_string e)

let is_snapshot path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = String.length prefix in
        in_channel_length ic >= n && String.equal (really_input_string ic n) prefix)
  with Sys_error _ -> false
