(* Child processes (the xseq CLI: index builds and the server under test)
   and what the benchmark reads about them from /proc.  Every child is
   reaped: servers are stopped with SIGTERM (SIGKILL after a grace
   period) and waited for; [live] lists the ones still running, for the
   benchmark's exit handler. *)

let live = ref []

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Starts [prog args] with stdout and stderr appended to [log]. *)
let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = dev_null () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out out)
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (( <> ) pid) !live

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let exited pid =
  match waitpid_noeintr [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status ->
    forget pid;
    Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    forget pid;
    Some (Unix.WEXITED 0)

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Runs [prog args] to completion; [Error] names a non-zero exit. *)
let run ~log prog args =
  let pid = spawn ~log prog args in
  let _, status = waitpid_noeintr [] pid in
  forget pid;
  match status with
  | Unix.WEXITED 0 -> Ok ()
  | s -> Error (Printf.sprintf "%s %s: %s" prog (String.concat " " args) (status_text s))

let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match exited pid with
    | Some _ -> ()
    | None when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_noeintr [] pid);
      forget pid
  in
  wait ()

(* Stdout of a short helper command, or [None] if it is missing or fails. *)
let output_of prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = dev_null () in
  match Unix.create_process prog (Array.of_list (prog :: args)) null wr null with
  | exception Unix.Unix_error _ ->
    List.iter Unix.close [ rd; wr; null ];
    None
  | pid ->
    Unix.close wr;
    Unix.close null;
    let ic = Unix.in_channel_of_descr rd in
    let text = In_channel.input_all ic in
    close_in ic;
    (match waitpid_noeintr [] pid with
     | _, Unix.WEXITED 0 -> Some (String.trim text)
     | _ -> None)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of [pid], in clock ticks (/proc/<pid>/stat fields 14-15;
   the command name in field 2 may hold spaces, so split after its ')'). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _sid :: _tty :: _tpgid :: _flags :: _minflt
    :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
    int_of_string utime + int_of_string stime
  | _ -> failwith "unexpected /proc/<pid>/stat layout"

let clock_ticks_per_s =
  lazy
    (match Option.bind (output_of "getconf" [ "CLK_TCK" ]) int_of_string_opt with
     | Some n when n > 0 -> n
     | _ -> 100)

(* Peak resident set size (VmHWM) in KiB. *)
let peak_rss_kib pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
         | _ -> None)
  |> Option.value ~default:0

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_bytes path = (Unix.stat path).Unix.st_size

(* Bytes of the regular files directly inside [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc name ->
      match Unix.stat (Filename.concat dir name) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)
