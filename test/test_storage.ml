(* The pager — Store's buffer pool: its LRU eviction policy
   (Xstorage.Lru) and the page accounting of paged (xseqcol2) columns. *)

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

(* Element [i] of a test column.  A [wide] column needs 64 bits and
   its deltas take five varint bytes; a narrow one fits in 32 bits and
   its deltas take one.  Either way a paged column is an xseqcol2 one:
   its delta blocks stay in the file and come through the pool. *)
let value ~wide i = if wide then (i * (1 lsl 33)) + (1 lsl 40) else i * 10

(* A paged store over one int column of [n] elements with 16-byte pages,
   in a temporary file, a pool that never evicts, and for each block of
   the column the file pages its delta bytes span (none for a block of
   one element, which the skip table holds). *)
let with_paged ~wide n f =
  let path = Filename.temp_file "xseq_pager" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Store.memory () in
      Store.add_int_array s "col" (Array.init n (value ~wide));
      Store.write ~page_size:16 ~format:Store.Col2 s path;
      let s = Store.open_file ~mode:Store.Paged ~pool_pages:1_000 path in
      let r = List.find (fun r -> r.Store.r_name = "col") (Store.regions s) in
      let data =
        In_channel.with_open_bin path (fun ic ->
            In_channel.seek ic (Int64.of_int r.Store.r_offset);
            Option.get (In_channel.really_input_string ic r.Store.r_stored))
      in
      let ph =
        Xsuccinct.Packed.parse ~name:"col" ~fetch:(String.sub data)
          ~length:r.Store.r_stored
      in
      let pages b =
        let at, len = Xsuccinct.Packed.block_span ph b in
        let first = (r.Store.r_offset + at) / 16 in
        let last = (r.Store.r_offset + at + len - 1) / 16 in
        List.init (if len = 0 then 0 else last - first + 1) (fun k -> first + k)
      in
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () ->
          f s (Store.ints s "col") (Xsuccinct.Packed.block_size ph)
            (Array.init (Xsuccinct.Packed.nblocks ph) pages)))

(* The pool requests and the distinct pages a trace of element reads
   fetches: every element but a block's first (a skip pointer) needs its
   block, fetched once into the decoded-block cache (which holds every
   block of these columns) and requested page by page from the pool. *)
let fetches bs spans trace =
  let fetched = Hashtbl.create 8 in
  List.fold_left
    (fun (requests, pages) i ->
      let b = i / bs in
      if i mod bs = 0 || Hashtbl.mem fetched b then (requests, pages)
      else begin
        Hashtbl.add fetched b ();
        (requests + List.length spans.(b), spans.(b) @ pages)
      end)
    (0, []) trace

let test_touch_counting ~wide () =
  with_paged ~wide 512 (fun s col bs spans ->
      (* The last page of block 0 is the first of block 1. *)
      let last0 = List.nth spans.(0) (List.length spans.(0) - 1) in
      Alcotest.(check int) "blocks 0 and 1 share a page" last0
        (List.hd spans.(1));
      (* A skip pointer reads nothing, element 1 fetches block 0, element
         2 finds it decoded, element bs + 1 fetches block 1. *)
      List.iter
        (fun (i, reads) ->
          Alcotest.(check int) "element" (value ~wide i) (Store.get col i);
          Alcotest.(check int)
            (Printf.sprintf "pages read after element %d" i)
            reads (Store.page_reads s))
        [
          (0, 0);
          (1, List.length spans.(0));
          (2, List.length spans.(0));
          (bs + 1, List.length spans.(0) + List.length spans.(1) - 1);
        ];
      Alcotest.(check int) "the shared page hits" 1 (Store.page_hits s))

(* Property: over any trace of element reads, with a pool that never
   evicts, page reads are exactly the distinct pages of the blocks
   fetched, and reads plus hits are exactly the pool's page requests. *)
let prop_accounting ~wide name =
  QCheck.Test.make ~name ~count:100
    QCheck.(list (int_bound 1023))
    (fun trace ->
      with_paged ~wide 1024 (fun s col bs spans ->
          List.iter
            (fun i -> assert (Store.get col i = value ~wide i))
            trace;
          let requests, pages = fetches bs spans trace in
          Store.page_reads s = List.length (List.sort_uniq compare pages)
          && Store.page_reads s + Store.page_hits s = requests))

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
