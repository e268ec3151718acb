(* Durable ingestion store: WAL + delta segments + tombstones +
   compaction.  See xlog.mli for the design contract.  The store core
   is {!Core}; {!Layout} names the files of a store directory;
   {!Transfer} (snapshot shipping) and {!Scrub} (anti-entropy) work
   beside it. *)

include Core
module Wal = Wal
module Transfer = Transfer
module Scrub = Scrub
