let magic = "XVI-SNAPSHOT-4\n"

(* A fingerprint of the running binary: closure marshalling embeds code
   pointers, so a snapshot is only valid for the exact executable that
   wrote it. Digesting the executable file captures that precisely. *)
let fingerprint =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unknown")

type error =
  | Not_a_snapshot
  | Binary_mismatch
  | Corrupted of string
  | Io_error of string

let error_to_string = function
  | Not_a_snapshot -> "not an xvi snapshot"
  | Binary_mismatch ->
      "snapshot was written by a different build of this binary"
  | Corrupted what -> "corrupt snapshot: " ^ what
  | Io_error msg -> msg

(* Format (all header fields end in '\n'):

     magic                 "XVI-SNAPSHOT-4\n"
     fingerprint           hex digest of the executable
     payload length        decimal byte count
     payload digest        hex MD5 of the payload bytes
     payload               Marshal output of [(lsn, store blob, shell)]

   The explicit length makes truncation detectable without touching
   [Marshal]; the digest makes any byte flip in the payload detectable.
   [Marshal.from_string] is only ever called on bytes whose digest
   matched, so its undefined behaviour on corrupt input is unreachable
   through this API.

   v3 over v2: the payload carries the LSN, so the WAL position the
   snapshot covers travels under the same digest as the data — a flipped
   LSN is as detectable as a flipped index byte.

   v4 over v3: the database is persisted as its two halves — the
   off-heap columnar store through [Store.Codec] (raw fixed-width column
   blobs; Bigarray contents would otherwise round-trip through Marshal's
   slower custom serialiser) and the GC-heap shell (indexes,
   configuration) marshalled with closures as before. The shell holds
   each index's persisted image ([Db.shell]): index columns as int
   arrays at their logical length, so an off-heap column costs the
   snapshot what its contents cost, never whole chunks. *)

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

let save ?(lsn = 0) db path =
  let store, shell = Db.deconstruct db in
  let payload =
    Marshal.to_string
      (lsn, Xvi_xml.Store.Codec.encode store, shell)
      [ Marshal.Closures ]
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_string oc (Lazy.force fingerprint);
      output_char oc '\n';
      output_string oc (string_of_int (String.length payload));
      output_char oc '\n';
      output_string oc (Digest.to_hex (Digest.string payload));
      output_char oc '\n';
      output_string oc payload;
      (* the atomic-rename guarantee needs the bytes on the platter
         before the rename is: flush the channel, then fsync the file *)
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* ... and the rename itself recorded in the directory *)
  fsync_dir (Filename.dirname path)

let load_with_lsn ?config path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let buf = really_input_string ic (String.length magic) in
        if not (String.equal buf magic) then Error Not_a_snapshot
        else begin
          let fp = input_line ic in
          if not (String.equal fp (Lazy.force fingerprint)) then
            Error Binary_mismatch
          else
            match int_of_string_opt (input_line ic) with
            | None -> Error (Corrupted "unreadable payload length")
            | Some len when len < 0 ->
                Error (Corrupted "unreadable payload length")
            | Some len ->
                let digest = input_line ic in
                (* Strict framing: the payload must be exactly the rest
                   of the file, so truncation and trailing garbage are
                   both rejected before any byte is read. *)
                if in_channel_length ic - pos_in ic <> len then
                  Error (Corrupted "payload length mismatch")
                else
                  let payload = really_input_string ic len in
                  if
                    not
                      (String.equal digest
                         (Digest.to_hex (Digest.string payload)))
                  then Error (Corrupted "payload digest mismatch")
                  else
                    let lsn, blob, shell =
                      (Marshal.from_string payload 0 : int * string * Db.shell)
                    in
                    let db =
                      Db.reconstruct (Xvi_xml.Store.Codec.decode blob) shell
                    in
                    (match config with
                    | None -> Ok (db, lsn)
                    | Some config ->
                        (* Re-index the loaded store under the new
                           configuration (different types, substring
                           index, or a parallel rebuild). *)
                        Ok (Db.of_store ~config (Db.store db), lsn))
        end)
  with
  | Sys_error msg -> Error (Io_error msg)
  | End_of_file -> Error Not_a_snapshot
  | Failure msg ->
      (* [Marshal.from_string] on a payload that collides with its
         digest, or [input_line] overflow — never let it escape the
         result type. *)
      Error (Corrupted msg)

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
        let n = String.length magic in
        in_channel_length ic >= n && String.equal (really_input_string ic n) magic)
  with Sys_error _ -> false
