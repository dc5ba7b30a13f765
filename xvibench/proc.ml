(* Child processes of the benchmark: the [xvi] servers and ingests it
   drives.  Every child is registered at spawn and killed + reaped on
   every exit path (normal exit, uncaught exception, SIGINT/SIGTERM), so
   no server outlives a run. *)

let live : int list ref = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid : int * Unix.process_status)
      with Unix.Unix_error _ -> ())
    !live;
  live := []

let () =
  at_exit kill_all;
  let stop (_ : int) = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Spawn [argv] with stdout/stderr appended to [log]; [env] adds
   variables to the inherited environment. *)
let spawn ?(env = []) ~log argv =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let nul = devnull () in
  let environment = Array.append (Array.of_list env) (Unix.environment ()) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close nul)
      (fun () -> Unix.create_process_env argv.(0) argv environment nul out out)
  in
  live := pid :: !live;
  pid

let code_of = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> 128 + abs s
  | Unix.WSTOPPED s -> 256 + abs s

(* Block until [pid] exits; its exit code (128+n when killed by a signal). *)
let wait pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  forget pid;
  code_of st

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st ->
      forget pid;
      Some (code_of st)
  | exception Unix.Unix_error _ -> Some 255

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait pid : int)

(* Peak resident set (VmHWM) of a live process, in kB; 0 once it is gone. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception (End_of_file | Sys_error _) -> 0 (* Sys_error: it exited meanwhile *)
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            else scan ()
      in
      scan ()

(* Run [argv] to completion while a second domain samples its VmHWM
   every millisecond: the exit code, the wall time (ns) and the highest
   VmHWM seen (kB). *)
let run_sampled ?env ~log argv =
  let t0 = Clock.now_ns () in
  let pid = spawn ?env ~log argv in
  let stop = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let peak = ref 0 in
        while not (Atomic.get stop) do
          peak := max !peak (vm_hwm_kb pid);
          Unix.sleepf 0.001
        done;
        !peak)
  in
  let code = wait pid in
  let ns = Clock.now_ns () - t0 in
  Atomic.set stop true;
  (code, ns, Domain.join sampler)

let rm_rf path =
  let rec go p =
    match Unix.lstat p with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
  in
  go path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The index just past the first [key] in [text], if any (scans logs). *)
let find_after text key =
  let n = String.length key and m = String.length text in
  let rec go i =
    if i + n > m then None else if String.equal (String.sub text i n) key then Some (i + n) else go (i + 1)
  in
  go 0

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)
