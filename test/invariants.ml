(* The index invariants an oracle asserts on every index it builds,
   loads, seals or compacts: [Xindex.Labeled.check] (Section 4.1 and
   Definition 2), and that the records the index decodes by Theorem 1
   are the ones it was given. *)

let check what index =
  match Xindex.Labeled.check (Xseq.labeled index) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: index invariant broken: %s" what msg

(* [check], and each document is [T.equal] to [docs.(i)]. *)
let check_documents what index docs =
  check what index;
  Alcotest.(check int) (what ^ ": documents") (Array.length docs)
    (Xseq.doc_count index);
  Array.iteri
    (fun i d ->
      if not (Xmlcore.Xml_tree.equal d (Xseq.document index i)) then
        Alcotest.failf "%s: document %d differs from its record" what i)
    docs
