(* The utility layer: binary searches, the domain pool and the event
   loop. *)

module Bs = Xutil.Binsearch
module Pool = Xutil.Domain_pool

let test_binsearch () =
  let a = [| 1; 3; 3; 3; 7; 9 |] in
  let len = Array.length a in
  Alcotest.(check int) "lower_bound hit" 1 (Bs.lower_bound a ~len 3);
  Alcotest.(check int) "lower_bound miss" 4 (Bs.lower_bound a ~len 4);
  Alcotest.(check int) "lower_bound before" 0 (Bs.lower_bound a ~len 0);
  Alcotest.(check int) "lower_bound after" 6 (Bs.lower_bound a ~len 100);
  Alcotest.(check int) "upper_bound hit" 4 (Bs.upper_bound a ~len 3);
  Alcotest.(check int) "upper_bound after" 6 (Bs.upper_bound a ~len 9);
  Alcotest.(check int) "floor hit" 3 (Bs.floor_index a ~len 3);
  Alcotest.(check int) "floor miss" 3 (Bs.floor_index a ~len 6);
  Alcotest.(check int) "floor before" (-1) (Bs.floor_index a ~len 0);
  (* len smaller than the physical array restricts the view *)
  Alcotest.(check int) "restricted len" 2 (Bs.upper_bound a ~len:2 5)

let prop_bounds =
  QCheck.Test.make ~name:"bounds agree with linear scans" ~count:500
    QCheck.(pair (list small_nat) small_nat)
    (fun (l, x) ->
      let a = Array.of_list (List.sort Stdlib.compare l) in
      let len = Array.length a in
      let lb = ref len and ub = ref len in
      (try
         for i = 0 to len - 1 do
           if a.(i) >= x then begin
             lb := i;
             raise Exit
           end
         done
       with Exit -> ());
      (try
         for i = 0 to len - 1 do
           if a.(i) > x then begin
             ub := i;
             raise Exit
           end
         done
       with Exit -> ());
      Xutil.Binsearch.lower_bound a ~len x = !lb
      && Xutil.Binsearch.upper_bound a ~len x = !ub
      && Xutil.Binsearch.floor_index a ~len x = !ub - 1)

(* --- domain pool ----------------------------------------------------------- *)

exception Boom of int

let test_pool_ordering () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          Alcotest.(check int) "size" domains (Pool.size p);
          let thunks = Array.init 37 (fun i () -> i * i) in
          Alcotest.(check (array int))
            (Printf.sprintf "run order (%d domains)" domains)
            (Array.init 37 (fun i -> i * i))
            (Pool.run p thunks);
          (* several batches on the same pool *)
          Alcotest.(check (array int))
            "second batch"
            (Array.init 5 (fun i -> i + 1))
            (Pool.run p (Array.init 5 (fun i () -> i + 1)))))
    [ 1; 2; 4 ]

let test_pool_map_matches_sequential () =
  let arr = Array.init 101 (fun i -> i - 50) in
  let f x = (x * 3) + 1 in
  let expect = Array.map f arr in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          Alcotest.(check (array int)) "map" expect (Pool.map p f arr);
          Alcotest.(check (array int))
            "map, 3 chunks" expect
            (Pool.map ~chunks:3 p f arr);
          Alcotest.(check (array int))
            "mapi"
            (Array.mapi (fun i x -> i + x) arr)
            (Pool.mapi p (fun i x -> i + x) arr);
          Alcotest.(check (array int)) "empty" [||] (Pool.map p f [||])))
    [ 1; 2; 4 ]

let test_pool_iter () =
  Pool.with_pool ~domains:3 (fun p ->
      let hits = Array.make 20 0 in
      (* Distinct slots per element: no two domains write the same cell. *)
      Pool.iter p (fun i -> hits.(i) <- hits.(i) + 1) (Array.init 20 Fun.id);
      Alcotest.(check (array int)) "each exactly once" (Array.make 20 1) hits)

let test_pool_exception_lowest_index () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let thunks =
            Array.init 16 (fun i () ->
                if i mod 5 = 3 then raise (Boom i) else i)
          in
          (* Failing tasks are 3, 8, 13; the lowest index must win
             regardless of completion order. *)
          match Pool.run p thunks with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "lowest failing index (%d domains)" domains)
              3 i))
    [ 1; 2; 4 ]

let test_pool_shutdown () =
  let p = Pool.create ~domains:2 () in
  Alcotest.(check (array int)) "works" [| 1 |] (Pool.run p [| (fun () -> 1) |]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "closed" (Invalid_argument "Domain_pool.run: pool is shut down")
    (fun () -> ignore (Pool.run p [| (fun () -> 1); (fun () -> 2) |]));
  Alcotest.check_raises "bad size" (Invalid_argument "Domain_pool.create: domains < 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let prop_pool_map =
  QCheck.Test.make ~name:"pool map agrees with Array.map" ~count:60
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (l, domains) ->
      let arr = Array.of_list l in
      let f x = (x * 7) mod 13 in
      Pool.with_pool ~domains (fun p -> Pool.map p f arr = Array.map f arr))

(* --- event loop ------------------------------------------------------------ *)

module Ev = Xutil.Evloop

(* One battery run against both backends: readiness semantics must be
   identical whether the kernel offers epoll or only select. *)
let evloop_battery ~force_select () =
  let ev = Ev.create ~force_select () in
  Fun.protect
    ~finally:(fun () -> Ev.close ev)
    (fun () ->
      if force_select then
        Alcotest.(check string) "forced backend" "select" (Ev.backend_name ev);
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
        (fun () ->
          Ev.add ev a ~read:true ~write:false;
          (* Nothing buffered: a bounded wait returns no events. *)
          Alcotest.(check int) "idle wait is empty" 0
            (List.length (Ev.wait ev ~timeout_ms:10));
          (* A byte lands: the fd reports readable. *)
          ignore (Unix.write_substring b "x" 0 1);
          (match Ev.wait ev ~timeout_ms:1000 with
           | [ { Ev.fd; readable = true; _ } ] when fd = a -> ()
           | evs -> Alcotest.failf "want [a readable], got %d events"
                      (List.length evs));
          ignore (Unix.read a (Bytes.create 8) 0 8);
          (* Interest flips to write-only: a socket with buffer space is
             immediately writable, and the pending-read edge is gone. *)
          Ev.modify ev a ~read:false ~write:true;
          (match Ev.wait ev ~timeout_ms:1000 with
           | [ { Ev.fd; writable = true; _ } ] when fd = a -> ()
           | _ -> Alcotest.fail "want [a writable]");
          (* Removed: silence, even with data pending. *)
          ignore (Unix.write_substring b "y" 0 1);
          Ev.remove ev a;
          Alcotest.(check int) "removed fd is silent" 0
            (List.length (Ev.wait ev ~timeout_ms:10));
          (* Removing twice (or an unknown fd) is a no-op, not an error. *)
          Ev.remove ev a;
          (* EOF surfaces as readable (read will not block: it returns 0). *)
          Ev.add ev a ~read:true ~write:false;
          Unix.close b;
          (match Ev.wait ev ~timeout_ms:1000 with
           | { Ev.fd; readable = true; _ } :: _ when fd = a -> ()
           | _ -> Alcotest.fail "want EOF readability");
          Ev.remove ev a);
      (* Wakeup from another thread interrupts a long wait promptly, is
         drained internally, and coalesces. *)
      let t0 = Unix.gettimeofday () in
      let waker =
        Thread.create
          (fun () ->
            Thread.delay 0.05;
            Ev.wakeup ev;
            Ev.wakeup ev)
          ()
      in
      let evs = Ev.wait ev ~timeout_ms:5000 in
      let dt = Unix.gettimeofday () -. t0 in
      Thread.join waker;
      Alcotest.(check int) "wakeup surfaces no event" 0 (List.length evs);
      Alcotest.(check bool) "wakeup was prompt" true (dt < 2.0);
      (* Both wakeups were coalesced and drained: the next wait times
         out instead of spinning on a stale wakeup byte. *)
      Alcotest.(check int) "wakeup drained" 0
        (List.length (Ev.wait ev ~timeout_ms:10)))

let test_evloop_native () = evloop_battery ~force_select:false ()
let test_evloop_select () = evloop_battery ~force_select:true ()

let test_evloop_writev () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* Scattered slices — including offsets and a zero-length one —
         land as one contiguous byte stream. *)
      let slices =
        [|
          (Bytes.of_string "xxhello", 2, 5);
          (Bytes.of_string " ", 0, 1);
          (Bytes.of_string "", 0, 0);
          (Bytes.of_string "worldyy", 0, 5);
        |]
      in
      let n = Ev.writev a slices in
      Alcotest.(check int) "all bytes taken" 11 n;
      let buf = Bytes.create 32 in
      let got = Unix.read b buf 0 32 in
      Alcotest.(check string) "stream order preserved" "hello world"
        (Bytes.sub_string buf 0 got);
      Alcotest.(check bool) "iov_max sane" true (Ev.iov_max >= 1))

let () =
  Alcotest.run "xutil"
    [
      ("binsearch", [ Alcotest.test_case "cases" `Quick test_binsearch ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_bounds ]);
      ( "domain pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "map matches sequential" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "iter" `Quick test_pool_iter;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          QCheck_alcotest.to_alcotest prop_pool_map;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "native backend" `Quick test_evloop_native;
          Alcotest.test_case "select backend" `Quick test_evloop_select;
          Alcotest.test_case "writev" `Quick test_evloop_writev;
        ] );
    ]
