(* The pager — Store's buffer pool: its LRU eviction policy
   (Xstorage.Lru) and the page accounting of paged columns. *)

module Lru = Xstorage.Lru
module Store = Xstorage.Store

let test_lru_on_evict () =
  let evicted = ref [] in
  let l = Lru.create ~on_evict:(fun pg -> evicted := pg :: !evicted) 2 in
  ignore (Lru.access l 1);
  ignore (Lru.access l 2);
  ignore (Lru.access l 3);
  (* capacity 2: page 1 is the LRU victim *)
  Alcotest.(check (list int)) "evicted LRU page" [ 1 ] !evicted;
  Alcotest.(check bool) "new page resident" true (Lru.mem l 3);
  Alcotest.(check bool) "victim gone" false (Lru.mem l 1);
  Alcotest.(check int) "size at capacity" 2 (Lru.size l)

let test_lru_hits () =
  let l = Lru.create 2 in
  Alcotest.(check bool) "first access misses" false (Lru.access l 0);
  Alcotest.(check bool) "second access hits" true (Lru.access l 0)

let test_lru_eviction () =
  let l = Lru.create 2 in
  ignore (Lru.access l 0);
  ignore (Lru.access l 1);
  (* page 2 evicts page 0 (LRU) *)
  ignore (Lru.access l 2);
  Alcotest.(check bool) "evicted page misses" false (Lru.access l 0);
  (* page 0 evicted page 1; page 2 was recently used: hit *)
  Alcotest.(check bool) "recent page hits" true (Lru.access l 2)

let test_lru_recency_update () =
  let l = Lru.create 2 in
  ignore (Lru.access l 0);
  ignore (Lru.access l 1);
  (* refresh page 0; page 1 is now LRU *)
  ignore (Lru.access l 0);
  (* evicts page 1 *)
  ignore (Lru.access l 2);
  Alcotest.(check bool) "refreshed page hits" true (Lru.access l 0);
  Alcotest.(check bool) "evicted page misses" false (Lru.access l 1)

(* Element [i] of a test column.  A [wide] column needs 64 bits, so the
   writer keeps 8-byte elements (two per 16-byte page); a narrow one
   fits in 32 bits and is written at four bytes (four per page). *)
let value ~wide i = if wide then (i * 10) + (1 lsl 40) else i * 10
let per_page ~wide = if wide then 2 else 4

(* A paged store over one int column of [n] elements with 16-byte pages,
   in a temporary file. *)
let with_paged ~wide n f =
  let path = Filename.temp_file "xseq_pager" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Store.memory () in
      Store.add_int_array s "col" (Array.init n (value ~wide));
      Store.write ~page_size:16 s path;
      let s = Store.open_file ~mode:Store.Paged ~pool_pages:1_000 path in
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () -> f s (Store.ints s "col")))

let test_touch_counting ~wide () =
  let k = per_page ~wide in
  with_paged ~wide 8 (fun s col ->
      (* elements 0 and k - 1 share page 0; element k is on page 1 *)
      List.iter
        (fun i ->
          Alcotest.(check int) "element" (value ~wide i) (Store.get col i))
        [ 0; k - 1; k ];
      Alcotest.(check int) "two distinct pages read" 2 (Store.page_reads s);
      Alcotest.(check int) "the shared page hits" 1 (Store.page_hits s))

(* Property: over any trace of element reads, with a pool that never
   evicts, page reads are exactly the distinct pages touched and reads
   plus hits are exactly the reads issued. *)
let prop_accounting ~wide name =
  QCheck.Test.make ~name ~count:100
    QCheck.(list (int_bound 63))
    (fun trace ->
      with_paged ~wide 64 (fun s col ->
          List.iter
            (fun i -> assert (Store.get col i = value ~wide i))
            trace;
          let distinct =
            List.sort_uniq Stdlib.compare
              (List.map (fun i -> i / per_page ~wide) trace)
          in
          Store.page_reads s = List.length distinct
          && Store.page_reads s + Store.page_hits s = List.length trace))

let () =
  Alcotest.run "storage"
    [
      ( "pager",
        [
          Alcotest.test_case "touch counting" `Quick
            (test_touch_counting ~wide:true);
          Alcotest.test_case "lru on_evict" `Quick test_lru_on_evict;
          Alcotest.test_case "lru hits" `Quick test_lru_hits;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "lru recency" `Quick test_lru_recency_update;
          Alcotest.test_case "touch counting (32-bit elements)" `Quick
            (test_touch_counting ~wide:false);
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_accounting ~wide:true "accounting invariants");
          QCheck_alcotest.to_alcotest
            (prop_accounting ~wide:false
               "accounting invariants (32-bit elements)");
        ] );
    ]
