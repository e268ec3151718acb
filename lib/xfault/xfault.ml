(* Deterministic fault injection for the I/O stack.  See xfault.mli. *)

type op = Open | Read | Write | Fsync | Rename | Send | Recv | Connect

type fault =
  | Short of int
  | Eintr of int
  | Enospc
  | Eio
  | Conn_reset
  | Delay of float
  | Fail_stop
  | Black_hole of int
  | Half_open of int
  | Slow_link of float * int

type rule = { at : int; on : op; fault : fault }
type schedule = rule list

exception Crashed

let op_index = function
  | Open -> 0
  | Read -> 1
  | Write -> 2
  | Fsync -> 3
  | Rename -> 4
  | Send -> 5
  | Recv -> 6
  | Connect -> 7

let n_ops = 8

let op_to_string = function
  | Open -> "open"
  | Read -> "read"
  | Write -> "write"
  | Fsync -> "fsync"
  | Rename -> "rename"
  | Send -> "send"
  | Recv -> "recv"
  | Connect -> "connect"

(* Shortest decimal form that parses back to exactly [f]: schedules
   printed in a failure report must replay bit-identically. *)
let float_repr f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let fault_to_string = function
  | Short n -> Printf.sprintf "short:%d" n
  | Eintr n -> Printf.sprintf "eintr:%d" n
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Conn_reset -> "conn_reset"
  | Delay s -> Printf.sprintf "delay:%s" (float_repr s)
  | Fail_stop -> "fail_stop"
  | Black_hole n -> Printf.sprintf "black_hole:%d" n
  | Half_open n -> Printf.sprintf "half_open:%d" n
  | Slow_link (s, n) -> Printf.sprintf "slow:%sx%d" (float_repr s) n

let rule_to_string { at; on; fault } =
  Printf.sprintf "%s@%d:%s" (op_to_string on) at (fault_to_string fault)

let schedule_to_string sched =
  if sched = [] then "(empty)" else String.concat " " (List.map rule_to_string sched)

let op_of_string = function
  | "open" -> Some Open
  | "read" -> Some Read
  | "write" -> Some Write
  | "fsync" -> Some Fsync
  | "rename" -> Some Rename
  | "send" -> Some Send
  | "recv" -> Some Recv
  | "connect" -> Some Connect
  | _ -> None

let fault_of_string s =
  let int_arg prefix =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      int_of_string_opt (String.sub s plen (String.length s - plen))
    else None
  in
  match s with
  | "enospc" -> Some Enospc
  | "eio" -> Some Eio
  | "conn_reset" -> Some Conn_reset
  | "fail_stop" -> Some Fail_stop
  | _ -> (
      match int_arg "short:" with
      | Some n -> Some (Short n)
      | None -> (
          match int_arg "eintr:" with
          | Some n -> Some (Eintr n)
          | None -> (
              match int_arg "black_hole:" with
              | Some n -> Some (Black_hole n)
              | None -> (
                  match int_arg "half_open:" with
                  | Some n -> Some (Half_open n)
                  | None ->
                      if String.length s > 6 && String.sub s 0 6 = "delay:"
                      then
                        float_of_string_opt
                          (String.sub s 6 (String.length s - 6))
                        |> Option.map (fun f -> Delay f)
                      else if String.length s > 5 && String.sub s 0 5 = "slow:"
                      then
                        let body = String.sub s 5 (String.length s - 5) in
                        match String.index_opt body 'x' with
                        | None -> None
                        | Some i -> (
                            match
                              ( float_of_string_opt (String.sub body 0 i),
                                int_of_string_opt
                                  (String.sub body (i + 1)
                                     (String.length body - i - 1)) )
                            with
                            | Some f, Some n -> Some (Slow_link (f, n))
                            | _ -> None)
                      else None))))

let rule_of_string s =
  (* "op@k:fault" — the exact form rule_to_string prints. *)
  match String.index_opt s '@' with
  | None -> None
  | Some at -> (
      match String.index_from_opt s at ':' with
      | None -> None
      | Some colon -> (
          let op = String.sub s 0 at in
          let k = String.sub s (at + 1) (colon - at - 1) in
          let fault = String.sub s (colon + 1) (String.length s - colon - 1) in
          match (op_of_string op, int_of_string_opt k, fault_of_string fault)
          with
          | Some on, Some at, Some fault when at >= 0 ->
              Some { at; on; fault }
          | _ -> None))

let schedule_of_string s =
  (* Inverse of [schedule_to_string]: whitespace-separated rules, or
     "(empty)".  [Error] names the first token that does not parse. *)
  if String.trim s = "" || String.trim s = "(empty)" then Ok []
  else
    let toks =
      String.split_on_char ' ' s |> List.filter (fun t -> t <> "")
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> (
          match rule_of_string t with
          | Some r -> go (r :: acc) rest
          | None -> Error (Printf.sprintf "bad fault rule %S" t))
    in
    go [] toks

let default_ops = [ Open; Read; Write; Fsync; Rename ]
let socket_ops = [ Send; Recv; Connect ]

let random_schedule ~seed ?(ops = default_ops) ?(horizon = 200) ?(faults = 4) ()
    =
  if ops = [] then invalid_arg "Xfault.random_schedule: empty op list";
  let st = Random.State.make [| seed; 0x5eed; horizon |] in
  let pick_op () = List.nth ops (Random.State.int st (List.length ops)) in
  let pick_fault on =
    (* Weighted over faults that make sense for the class.  Fail_stop is
       rare (it ends the run); Delay is kept tiny so tests stay fast. *)
    let socket = match on with Send | Recv | Connect -> true | _ -> false in
    match Random.State.int st 100 with
    | n when n < 25 -> Short (1 + Random.State.int st 7)
    | n when n < 45 -> Eintr (1 + Random.State.int st 3)
    | n when n < 65 -> if socket then Conn_reset else Enospc
    | n when n < 80 -> if socket then Conn_reset else Eio
    | n when n < 92 -> Delay (0.001 +. (Random.State.float st 0.004))
    | _ -> Fail_stop
  in
  let rules =
    List.init (max 0 faults) (fun _ ->
        let on = pick_op () in
        let at = Random.State.int st (max 1 horizon) in
        { at; on; fault = pick_fault on })
  in
  (* Sort for a stable printed form; order is irrelevant to semantics
     (rules key on per-class counters, not list position). *)
  List.sort
    (fun a b ->
      match compare (op_index a.on) (op_index b.on) with
      | 0 -> compare a.at b.at
      | c -> c)
    rules

let random_partition_schedule ~seed ?(ops = socket_ops) ?(horizon = 400)
    ?(faults = 6) () =
  if ops = [] then invalid_arg "Xfault.random_partition_schedule: empty op list";
  let st = Random.State.make [| seed; 0x9a27; horizon |] in
  let pick_op () = List.nth ops (Random.State.int st (List.length ops)) in
  let pick_fault () =
    (* Network weather: mostly partitions and slow links, with the
       transport-level resets/shorts mixed in.  No Fail_stop — a
       partition schedule exercises reconnection, not crash points. *)
    match Random.State.int st 100 with
    | n when n < 30 -> Black_hole (2 + Random.State.int st 30)
    | n when n < 50 -> Half_open (1 + Random.State.int st 12)
    | n when n < 70 ->
        Slow_link
          (0.001 +. Random.State.float st 0.004, 2 + Random.State.int st 10)
    | n when n < 85 -> Conn_reset
    | n when n < 95 -> Short (1 + Random.State.int st 7)
    | _ -> Delay (0.001 +. Random.State.float st 0.004)
  in
  let rules =
    List.init (max 0 faults) (fun _ ->
        let on = pick_op () in
        let at = Random.State.int st (max 1 horizon) in
        { at; on; fault = pick_fault () })
  in
  List.sort
    (fun a b ->
      match compare (op_index a.on) (op_index b.on) with
      | 0 -> compare a.at b.at
      | c -> c)
    rules

(* ------------------------------------------------------------------ *)

module Injector = struct
  type t = {
    schedule : schedule;  (** as given, for [describe] *)
    mutable pending : rule list;  (** rules not yet fired *)
    counts : int array;  (** per-class operations seen *)
    storms : int array;  (** per-class EINTR calls still owed *)
    holes : int array;  (** per-class black-holed calls still owed *)
    halves : int array;  (** per-class half-open calls still owed *)
    slow_left : int array;  (** per-class slowed calls still owed *)
    slow_delay : float array;  (** per-class slow-link latency *)
    mutable fired_n : int;
    mutable crashed_f : bool;
    m : Mutex.t;
  }

  type action =
    | Pass
    | Clamp of int
    | Die  (* raise Crashed *)
    | Swallow  (* claim the write succeeded in full; move no bytes *)
    | Eof  (* report end-of-stream (recv returns 0) *)

  let create schedule =
    {
      schedule;
      pending = schedule;
      counts = Array.make n_ops 0;
      storms = Array.make n_ops 0;
      holes = Array.make n_ops 0;
      halves = Array.make n_ops 0;
      slow_left = Array.make n_ops 0;
      slow_delay = Array.make n_ops 0.;
      fired_n = 0;
      crashed_f = false;
      m = Mutex.create ();
    }

  let describe t = schedule_to_string t.schedule

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let op_count t op = locked t (fun () -> t.counts.(op_index op))
  let fired t = locked t (fun () -> t.fired_n)
  let crashed t = locked t (fun () -> t.crashed_f)

  let unix_err e name = raise (Unix.Unix_error (e, name, ""))

  (* A link state (black hole / half open / slow link) is active for
     this class: consume one owed call and translate it to the class's
     behaviour.  Sockets lose writes silently and starve or close
     reads; the file classes (never targeted by partition schedules,
     but defended anyway) surface EIO.  Called under the lock. *)
  let apply_link t i op name =
    if t.holes.(i) > 0 then begin
      t.holes.(i) <- t.holes.(i) - 1;
      match op with
      | Send -> Some (None, Swallow)
      | Recv | Connect -> unix_err Unix.ETIMEDOUT name
      | Open | Read | Write | Fsync | Rename -> unix_err Unix.EIO name
    end
    else if t.halves.(i) > 0 then begin
      t.halves.(i) <- t.halves.(i) - 1;
      match op with
      | Send -> Some (None, Swallow)
      | Recv -> Some (None, Eof)
      | Connect -> unix_err Unix.ECONNREFUSED name
      | Open | Read | Write | Fsync | Rename -> unix_err Unix.EIO name
    end
    else if t.slow_left.(i) > 0 then begin
      t.slow_left.(i) <- t.slow_left.(i) - 1;
      Some (Some t.slow_delay.(i), Pass)
    end
    else None

  (* Count the operation, fire at most one matching rule.  Faults that
     are exceptions are raised from inside (with the mutex released by
     Fun.protect); [Clamp]/[Pass]/[Swallow]/[Eof] are returned for the
     caller to apply.  [Delay] and slow links sleep outside the lock. *)
  let decide t op =
    let name = op_to_string op in
    let delay, action =
      locked t (fun () ->
          if t.crashed_f then raise Crashed;
          let i = op_index op in
          let k = t.counts.(i) in
          t.counts.(i) <- k + 1;
          if t.storms.(i) > 0 then begin
            t.storms.(i) <- t.storms.(i) - 1;
            unix_err Unix.EINTR name
          end;
          match apply_link t i op name with
          | Some r -> r
          | None -> (
              let rec split acc = function
                | [] -> (None, List.rev acc)
                | r :: rest when r.on = op && r.at = k ->
                    (Some r, List.rev_append acc rest)
                | r :: rest -> split (r :: acc) rest
              in
              match split [] t.pending with
              | None, _ -> (None, Pass)
              | Some r, rest -> (
                  t.pending <- rest;
                  t.fired_n <- t.fired_n + 1;
                  match r.fault with
                  | Short n -> (None, Clamp (max 1 n))
                  | Eintr n ->
                      (* This call plus the next n-1 of the class. *)
                      t.storms.(i) <- max 0 (n - 1);
                      unix_err Unix.EINTR name
                  | Enospc -> unix_err Unix.ENOSPC name
                  | Eio -> unix_err Unix.EIO name
                  | Conn_reset -> unix_err Unix.ECONNRESET name
                  | Delay s -> (Some s, Pass)
                  | Black_hole n ->
                      (* This call plus the next n-1 of the class. *)
                      t.holes.(i) <- max 1 n;
                      (match apply_link t i op name with
                      | Some r -> r
                      | None -> assert false)
                  | Half_open n ->
                      t.halves.(i) <- max 1 n;
                      (match apply_link t i op name with
                      | Some r -> r
                      | None -> assert false)
                  | Slow_link (s, n) ->
                      t.slow_left.(i) <- max 1 n;
                      t.slow_delay.(i) <- s;
                      (match apply_link t i op name with
                      | Some r -> r
                      | None -> assert false)
                  | Fail_stop ->
                      t.crashed_f <- true;
                      (None, Die))))
    in
    (match delay with Some s -> Thread.delay s | None -> ());
    match action with Die -> raise Crashed | a -> a
end

(* ------------------------------------------------------------------ *)

let current : Injector.t option Atomic.t = Atomic.make None
let install inj = Atomic.set current (Some inj)
let uninstall () = Atomic.set current None
let active () = Atomic.get current

let with_injector inj f =
  install inj;
  Fun.protect ~finally:uninstall f

(* ------------------------------------------------------------------ *)

module Io = struct
  let consult op =
    match Atomic.get current with
    | None -> Injector.Pass
    | Some inj -> Injector.decide inj op

  let openfile path flags perm =
    match consult Open with
    | Pass | Clamp _ | Swallow | Eof -> Unix.openfile path flags perm
    | Die -> assert false

  (* Reads: [Eof] reports end of stream without touching the fd;
     [Swallow] never targets a read class but degrades to EOF too. *)
  let do_read fd buf pos len action =
    match action with
    | Injector.Pass -> Unix.read fd buf pos len
    | Injector.Clamp n -> Unix.read fd buf pos (min len n)
    | Injector.Swallow | Injector.Eof -> 0
    | Injector.Die -> assert false (* decide raised *)

  (* Writes: [Swallow] claims full success while moving nothing — the
     black-holed packet.  [Eof] never targets a write class. *)
  let do_write real len action =
    match action with
    | Injector.Pass -> real len
    | Injector.Clamp n -> real (min len n)
    | Injector.Swallow | Injector.Eof -> len
    | Injector.Die -> assert false

  let read fd buf pos len = do_read fd buf pos len (consult Read)

  let write fd buf pos len =
    do_write (fun l -> Unix.write fd buf pos l) len (consult Write)

  let write_substring fd s pos len =
    do_write (fun l -> Unix.write_substring fd s pos l) len (consult Write)

  let fsync fd =
    match consult Fsync with
    | Pass | Clamp _ | Swallow | Eof -> Unix.fsync fd
    | Die -> assert false

  let rename src dst =
    match consult Rename with
    | Pass | Clamp _ | Swallow | Eof -> Unix.rename src dst
    | Die -> assert false

  let connect fd addr =
    match consult Connect with
    | Pass | Clamp _ | Swallow | Eof -> Unix.connect fd addr
    | Die -> assert false

  let send fd buf pos len =
    do_write (fun l -> Unix.write fd buf pos l) len (consult Send)

  let send_substring fd s pos len =
    do_write (fun l -> Unix.write_substring fd s pos l) len (consult Send)

  let recv fd buf pos len = do_read fd buf pos len (consult Recv)

  let rec retry_eintr f =
    try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

  let write_all fd s pos len =
    let w = ref 0 in
    while !w < len do
      w :=
        !w + retry_eintr (fun () -> write_substring fd s (pos + !w) (len - !w))
    done
end
