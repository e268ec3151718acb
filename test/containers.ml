(* The containers a test writes a store or an index in: xseqcol2 as
   [Store.write] writes it, plain or compressed. *)

module Store = Xstorage.Store

type t = Plain | Compressed

let name = function
  | Plain -> "plain xseqcol2"
  | Compressed -> "compressed xseqcol2"

let write ?page_size t store path =
  match t with
  | Plain -> Store.write ?page_size store path
  | Compressed -> Store.write ?page_size ~compress:true store path

(* [index] saved in container [t]. *)
let save t index path =
  match t with
  | Plain -> Xseq.save index path
  | Compressed -> Xseq.save ~compress:true index path

(* Gives the file at [path] the magic of xseqcol1, the container older
   builds wrote, which nothing reads any more: the store refuses it
   before it reads anything else. *)
let stamp_col1 path =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> ignore (Unix.write_substring fd "xseqcol1" 0 8 : int))

(* Whether [needle] occurs in [hay]. *)
let contains hay needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
  in
  at 0

(* The CLI binary beside the test's build directory, if it is built. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "xseq_cli.exe")

(* [xseq args], its output discarded: the exit code. *)
let run_cli args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      let pid =
        Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null
          null
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED code -> code
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n)
