(* Unit tests for the server's prepared-plan LRU cache, using plain
   strings as plans (the cache is polymorphic precisely so its eviction
   logic is testable without building indexes).

   Covered: LRU eviction order under capacity pressure, the disabled
   capacity-0 cache, recency refresh on re-insert and on lookup,
   generation-stamp invalidation, and counter bookkeeping. *)

module C = Xserver.Plan_cache

let find c key = C.find c ~generation:1 key
let add c key v = C.add c ~generation:1 key v

let test_basic () =
  let c = C.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (C.capacity c);
  Alcotest.(check (option string)) "empty miss" None (find c "a");
  add c "a" "A";
  Alcotest.(check (option string)) "hit" (Some "A") (find c "a");
  Alcotest.(check int) "length" 1 (C.length c);
  Alcotest.(check int) "hits" 1 (C.hits c);
  Alcotest.(check int) "misses" 1 (C.misses c)

(* Filling past capacity evicts in least-recently-used order. *)
let test_lru_eviction_order () =
  let c = C.create ~capacity:3 in
  add c "a" "A";
  add c "b" "B";
  add c "c" "C";
  (* Touch "a" so "b" becomes the LRU entry. *)
  Alcotest.(check (option string)) "touch a" (Some "A") (find c "a");
  add c "d" "D";
  Alcotest.(check int) "still at capacity" 3 (C.length c);
  Alcotest.(check (option string)) "b evicted" None (find c "b");
  Alcotest.(check (option string)) "a survives" (Some "A") (find c "a");
  Alcotest.(check (option string)) "c survives" (Some "C") (find c "c");
  Alcotest.(check (option string)) "d cached" (Some "D") (find c "d");
  (* Those three lookups re-ranked recency to a < c < d, so the next
     insert evicts "a" — lookups are touches too. *)
  add c "e" "E";
  Alcotest.(check (option string)) "a evicted next" None (find c "a");
  Alcotest.(check (option string)) "c still in" (Some "C") (find c "c");
  Alcotest.(check (option string)) "d still in" (Some "D") (find c "d")

(* Re-inserting an existing key refreshes both its value and its
   recency: it must become the most-recently-used entry. *)
let test_reinsert_refreshes_recency () =
  let c = C.create ~capacity:3 in
  add c "a" "A";
  add c "b" "B";
  add c "c" "C";
  (* Re-insert the oldest key with a new value. *)
  add c "a" "A2";
  Alcotest.(check int) "no growth on re-insert" 3 (C.length c);
  add c "d" "D";
  (* "b" was the LRU (a was refreshed), so it goes first. *)
  Alcotest.(check (option string)) "b evicted" None (find c "b");
  Alcotest.(check (option string)) "refreshed value" (Some "A2") (find c "a");
  add c "e" "E";
  Alcotest.(check (option string)) "c evicted" None (find c "c");
  Alcotest.(check (option string)) "a outlives both" (Some "A2") (find c "a")

(* capacity <= 0 is the [--plan-cache 0] server: every lookup misses,
   every insert is dropped, and the counters still count. *)
let test_capacity_zero () =
  let c = C.create ~capacity:0 in
  Alcotest.(check int) "capacity" 0 (C.capacity c);
  add c "a" "A";
  Alcotest.(check int) "nothing stored" 0 (C.length c);
  Alcotest.(check (option string)) "always a miss" None (find c "a");
  add c "a" "A";
  add c "b" "B";
  Alcotest.(check int) "still nothing" 0 (C.length c);
  Alcotest.(check int) "hits" 0 (C.hits c);
  Alcotest.(check int) "misses counted" 1 (C.misses c);
  (* Negative capacity behaves identically. *)
  let c = C.create ~capacity:(-3) in
  add c "x" "X";
  Alcotest.(check (option string)) "negative = disabled" None (find c "x")

(* A generation mismatch is a miss that also drops the stale entry. *)
let test_generation_invalidation () =
  let c = C.create ~capacity:4 in
  C.add c ~generation:1 "q" "old-plan";
  Alcotest.(check (option string))
    "same generation hits" (Some "old-plan")
    (C.find c ~generation:1 "q");
  Alcotest.(check (option string))
    "new generation misses" None
    (C.find c ~generation:2 "q");
  Alcotest.(check int) "stale entry dropped" 0 (C.length c);
  (* Re-cached under the new generation. *)
  C.add c ~generation:2 "q" "new-plan";
  Alcotest.(check (option string))
    "fresh plan hits" (Some "new-plan")
    (C.find c ~generation:2 "q")

let test_clear () =
  let c = C.create ~capacity:4 in
  add c "a" "A";
  add c "b" "B";
  ignore (find c "a" : string option);
  let hits0 = C.hits c and misses0 = C.misses c in
  C.clear c;
  Alcotest.(check int) "empty after clear" 0 (C.length c);
  Alcotest.(check (option string)) "entries gone" None (find c "a");
  Alcotest.(check int) "hit counter kept" hits0 (C.hits c);
  Alcotest.(check bool) "miss counter kept (and counting)" true
    (C.misses c > misses0)

(* A capacity-1 cache degenerates to "remember the last plan". *)
let test_capacity_one () =
  let c = C.create ~capacity:1 in
  add c "a" "A";
  add c "b" "B";
  Alcotest.(check (option string)) "a evicted" None (find c "a");
  Alcotest.(check (option string)) "b kept" (Some "B") (find c "b")

let () =
  Alcotest.run "xserver plan cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basic hit/miss" `Quick test_basic;
          Alcotest.test_case "eviction follows recency" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "re-insert refreshes recency" `Quick
            test_reinsert_refreshes_recency;
          Alcotest.test_case "capacity one" `Quick test_capacity_one;
        ] );
      ( "edges",
        [
          Alcotest.test_case "capacity zero disables" `Quick test_capacity_zero;
          Alcotest.test_case "generation invalidates" `Quick
            test_generation_invalidation;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
    ]
