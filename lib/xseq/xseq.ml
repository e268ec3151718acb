module Pattern = Xquery.Pattern
module Xpath = Xquery.Xpath_parser
module T = Xmlcore.Xml_tree
module Strategy = Sequencing.Strategy
module Encoder = Sequencing.Encoder
module Decoder = Sequencing.Decoder
module Symtab = Sequencing.Symtab
module Path = Symtab.Path
module Domain_pool = Xutil.Domain_pool
module Store = Xstorage.Store

type sequencing =
  | Depth_first of { canonical : bool }
  | Breadth_first of { canonical : bool }
  | Random of int
  | Probability
  | Probability_weighted of (Symtab.t -> Path.t -> float)
  | Custom of (Symtab.t -> Strategy.t)

type config = {
  sequencing : sequencing;
  value_mode : Encoder.value_mode;
  sample_fraction : float;
  sample_seed : int;
}

let default_config =
  {
    sequencing = Probability;
    value_mode = Encoder.Hashed;
    sample_fraction = 1.0;
    sample_seed = 42;
  }

(* The index holds no records: [document] (and through it Xlog
   compaction) and the [Too_many] scan fallback rebuild them from the
   links by Theorem 1, once, and keep the trees.  Sibling order is what
   a sequence does not fix; [order] gives the exceptions the decode
   needs besides the sequences, packed as the snapshot's [sibling_order]
   region holds them: per record that has any, by ascending id, the id,
   the number of pairs, then its (sequence position, sibling rank) pairs
   ({!Encoder.sequence_ordered}).  A built index holds the array; a
   loaded one reads the region on the first decode. *)
type t = {
  labeled : Xindex.Labeled.t;
  strategy : Strategy.t;
  value_mode : Encoder.value_mode;
  order : unit -> int array;
  decoded : T.t array option Atomic.t;
  lock : Mutex.t; (* serialises the one decode *)
  ndocs : int;
  total_seq_len : int;
  stats : Xschema.Stats.t option;
  built_config : config; (* for persistence: how the strategy was derived *)
  generation : int; (* process-unique stamp; see [generation] in the mli *)
}

(* Every index constructed in this process — built, loaded, or rebuilt by
   an [Xlog] compaction — gets a distinct generation, so a prepared query
   can prove it belongs to the index it is run against.  The counter is
   atomic because builds may race (e.g. a background compaction while a
   server hot-swaps snapshots). *)
let generation_counter = Atomic.make 1
let next_generation () = Atomic.fetch_and_add generation_counter 1

(* The strategy over the paths of [symbols]; [stats ()] collects the
   [gbest] statistics, which only the probability strategies ask for. *)
let resolve_strategy config symbols stats =
  match config.sequencing with
  | Depth_first _ -> (Strategy.Depth_first, None)
  | Breadth_first _ -> (Strategy.Breadth_first, None)
  | Random seed -> (Strategy.Random seed, None)
  | Custom s -> (s symbols, None)
  | Probability | Probability_weighted _ ->
    let stats = stats () in
    let base = Xschema.Stats.priority stats in
    let prio =
      match config.sequencing with
      | Probability_weighted w ->
        let w = w symbols in
        fun p -> base p *. w p
      | _ -> base
    in
    (Strategy.Probability prio, Some stats)

(* Runs [f] with the caller's pool when one is supplied, otherwise with a
   transient pool of [domains] workers (default 1 = inline, no domains
   spawned — the exact sequential code path). *)
let with_pool_opt ?domains ?pool f =
  match pool with
  | Some p -> f p
  | None ->
    let domains = match domains with Some d -> d | None -> 1 in
    Domain_pool.with_pool ~domains f

(* Per-path counts over the flat records, indexed by path id: [stamp]
   is the last record that contained the path, so a path seen again
   under the same stamp occurs twice in that record ([multi], the global
   identical-sibling trigger), and a path seen under a new stamp adds
   one to its record frequency [freq] when the record is [counted].
   Every path of [flats] is in [symbols] already. *)
type census = {
  stamp : int array;
  freq : Xschema.Stats.counts;
  multi : Bytes.t;
}

let count_paths symbols ~counted flats =
  let width = Symtab.path_count symbols in
  let c =
    {
      stamp = Array.make width (-1);
      freq = Xschema.Stats.counts width;
      multi = Bytes.make width '\000';
    }
  in
  Array.iteri
    (fun record flat ->
      let counted = counted record in
      Array.iter
        (fun p ->
          let p = Path.to_int p in
          if c.stamp.(p) = record then Bytes.set c.multi p '\001'
          else begin
            c.stamp.(p) <- record;
            if counted then Xschema.Stats.add_count c.freq p 1
          end)
        (Encoder.paths flat))
    flats;
  c

(* The records' sibling-order exceptions, one region's worth (see [t]). *)
let pack_order exceptions =
  let size =
    Array.fold_left
      (fun n e -> if Array.length e = 0 then n else n + 2 + Array.length e)
      0 exceptions
  in
  let packed = Array.make size 0 and at = ref 0 in
  Array.iteri
    (fun id e ->
      let len = Array.length e in
      if len > 0 then begin
        packed.(!at) <- id;
        packed.(!at + 1) <- len / 2;
        Array.blit e 0 packed (!at + 2) len;
        at := !at + 2 + len
      end)
    exceptions;
  packed

let build ?domains ?pool ?on_phase ?(config = default_config) docs =
  let phase name f =
    match on_phase with
    | None -> f ()
    | Some report ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      report name (Unix.gettimeofday () -. t0);
      r
  in
  (* Phase discipline (DESIGN.md §9): the index's symbol table is
     written only by the sequential walk below, in a fixed order; the
     parallel phase only reads it.  That makes the parallel build
     label-identical to the sequential one. *)
  let symbols = Symtab.create () in
  let ndocs = Array.length docs in
  let value_mode = config.value_mode in
  (* The probability model counts a Bernoulli sample of the records, or
     all of them. *)
  let sample =
    match config.sequencing with
    | (Probability | Probability_weighted _)
      when config.sample_fraction < 1.0 ->
      Some
        (Xschema.Stats.sample_members ~fraction:config.sample_fraction
           ~seed:config.sample_seed ndocs)
    | Probability | Probability_weighted _ | Depth_first _ | Breadth_first _
    | Random _ | Custom _ ->
      None
  in
  let canonical =
    match config.sequencing with
    | Depth_first { canonical } | Breadth_first { canonical } -> canonical
    | Random _ | Probability | Probability_weighted _ | Custom _ -> false
  in
  (* Phase 1 (sequential, interns): one walk per record flattens it.
     Sampled records go first, then the rest, both in record order. *)
  (* The build owns its flattening buffers: builds may run concurrently
     on threads of one domain (a seal beside a background compaction). *)
  let scratch = Encoder.create_scratch () in
  let flats =
    phase "flatten+intern" (fun () ->
        let flats = Array.make ndocs None in
        let walk i =
          flats.(i) <-
            Some (Encoder.flatten ~value_mode ~scratch symbols docs.(i))
        in
        (match sample with
         | Some m ->
           Array.iteri (fun i keep -> if keep then walk i) m;
           Array.iteri (fun i keep -> if not keep then walk i) m
         | None -> for i = 0 to ndocs - 1 do walk i done);
        Array.map Option.get flats)
  in
  (* Phase 2 (sequential): per-path counts over the flat records, the
     statistics they give, and the encoder's priority of every path. *)
  let census, strategy, stats, encode_strategy =
    phase "counts" (fun () ->
        let census =
          count_paths symbols flats ~counted:(fun i ->
              match sample with Some m -> m.(i) | None -> true)
        in
        let strategy, stats =
          resolve_strategy config symbols (fun () ->
              let docs =
                match sample with
                | Some m ->
                  Array.fold_left (fun n b -> if b then n + 1 else n) 0 m
                | None -> ndocs
              in
              Xschema.Stats.of_counts symbols ~docs census.freq)
        in
        (* Each path's priority is computed once, not once per node. *)
        let encode_strategy =
          match strategy with
          | Strategy.Probability f ->
            let prio =
              Array.init (Array.length census.stamp) (fun p ->
                  if census.stamp.(p) >= 0 then f (Path.of_int symbols p)
                  else 0.)
            in
            Strategy.Probability (fun p -> prio.(Path.to_int p))
          | Strategy.Depth_first | Strategy.Breadth_first | Strategy.Random _ ->
            strategy
        in
        (census, strategy, stats, encode_strategy))
  in
  let ident p = Bytes.get census.multi (Path.to_int p) <> '\000' in
  (* Phase 3 (parallel, read-only): encoding from the flat records, with
     each record's sibling-order exceptions.  Canonical modes sequence
     the tag-sorted records instead, flattened first and sequentially
     (their paths are all in the table already), against the order of
     the records themselves. *)
  let seqs, order =
    phase "encode" (fun () ->
        let flats =
          if canonical then
            Array.map
              (Encoder.flatten ~value_mode ~scratch ~sorted:true symbols)
              docs
          else flats
        in
        let exceptions = Array.make ndocs [||] in
        let sequence =
          Encoder.sequence_ordered ~ident ~strategy:encode_strategy symbols
        in
        let seqs =
          with_pool_opt ?domains ?pool (fun p ->
              Domain_pool.mapi p
                (fun i flat ->
                  let seq, e = sequence flat in
                  exceptions.(i) <- e;
                  seq)
                flats)
        in
        (seqs, pack_order exceptions))
  in
  let total_seq_len = Array.fold_left (fun n s -> n + Array.length s) 0 seqs in
  (* Phase 4 (sequential): the sequences are sorted and labelled in one
     sweep. *)
  let labeled =
    phase "sort+label" (fun () -> Xindex.Labeled.build symbols seqs)
  in
  {
    labeled;
    strategy;
    value_mode;
    order = Fun.const order;
    decoded = Atomic.make None;
    lock = Mutex.create ();
    ndocs;
    total_seq_len;
    stats;
    built_config = config;
    generation = next_generation ();
  }

(* Each record's exceptions in the packed [order] of [ndocs] records
   (see [t]), checked as they are indexed. *)
let unpack_order ndocs order =
  let bad () = invalid_arg "Xseq.document: corrupt sibling order" in
  let first = Array.make ndocs (-1) in
  let at = ref 0 and last = ref (-1) in
  while !at < Array.length order do
    let id = order.(!at) in
    if id <= !last || id >= ndocs || !at + 1 >= Array.length order then bad ();
    let pairs = order.(!at + 1) in
    if pairs < 1 || pairs > (Array.length order - !at - 2) / 2 then bad ();
    first.(id) <- !at;
    last := id;
    at := !at + 2 + (2 * pairs)
  done;
  fun id ->
    match first.(id) with
    | -1 -> [||]
    | at -> Array.sub order (at + 2) (2 * order.(at + 1))

(* Every record, rebuilt from the index by Theorem 1: each document's
   sequence is its chain of trie nodes ([Labeled.sequences]), decoded
   with the record's sibling-order exceptions. *)
let decode_index t =
  let bad msg = invalid_arg ("Xseq.document: " ^ msg) in
  let labeled = t.labeled in
  let order_of = unpack_order t.ndocs (t.order ()) in
  let seqs = Xindex.Labeled.sequences labeled in
  if Array.length seqs <> t.ndocs then bad "document table size";
  let docs = Array.make t.ndocs (T.Value "") in
  let filled = Bytes.make t.ndocs '\000' in
  let symbols = Xindex.Labeled.symbols labeled in
  let decode = Decoder.decoder ~value_mode:t.value_mode symbols in
  Array.iteri
    (fun e seq ->
      let id = Xindex.Labeled.doc_id_at labeled e in
      if id < 0 || id >= t.ndocs || Bytes.get filled id <> '\000' then
        bad "document ids are not a permutation";
      Bytes.set filled id '\001';
      docs.(id) <-
        (try decode ~order:(order_of id) seq
         with Decoder.Invalid_sequence msg -> bad msg))
    seqs;
  docs

let records t =
  match Atomic.get t.decoded with
  | Some docs -> docs
  | None ->
    (* At most one decode: domains racing here wait for the first. *)
    Mutex.protect t.lock (fun () ->
        match Atomic.get t.decoded with
        | Some docs -> docs
        | None ->
          let docs = decode_index t in
          Atomic.set t.decoded (Some docs);
          docs)

let query ?stats t pattern =
  match
    Xquery.Engine.query ?stats ~strategy:t.strategy
      ~value_mode:t.value_mode t.labeled pattern
  with
  | ids -> ids
  | exception Xquery.Instantiate.Too_many _ ->
    (* Pathological wildcard/expansion blow-up: degrade to an exact
       linear scan of the records, rebuilt from the index once. *)
    Xquery.Embedding.filter pattern (records t)

let query_xpath ?stats t s = query ?stats t (Xpath.parse s)

(* --- batched execution ---------------------------------------------------- *)

let query_batch ?domains ?pool ?stats t patterns =
  (* One stats record per query: the matcher's counters are
     unsynchronised, so concurrent queries must never share one (see
     Xquery.Matcher's thread-safety note).  They merge afterwards. *)
  let answered =
    with_pool_opt ?domains ?pool (fun p ->
        Domain_pool.map p
          (fun pattern ->
            let s = Xquery.Matcher.create_stats () in
            (query ~stats:s t pattern, s))
          patterns)
  in
  Option.iter
    (fun into ->
      Array.iter (fun (_, s) -> Xquery.Matcher.merge_stats ~into s) answered)
    stats;
  Array.map fst answered

type prepared = {
  plans : Xquery.Query_seq.compiled list;
  prepared_gen : int; (* generation of the index this was compiled for *)
}

let prepare t pattern =
  {
    plans =
      Xquery.Engine.compile ~strategy:t.strategy ~value_mode:t.value_mode
        t.labeled pattern;
    prepared_gen = t.generation;
  }

let run_prepared ?stats t prepared =
  (* Compiled sequences embed label ranges of one specific index; running
     them elsewhere would silently return garbage ids.  The generation
     stamp turns that into a checked error — the server's plan cache
     relies on this to invalidate entries across [Reload] hot swaps. *)
  if prepared.prepared_gen <> t.generation then
    invalid_arg
      (Printf.sprintf
         "Xseq.run_prepared: prepared query belongs to index generation %d, \
          not %d"
         prepared.prepared_gen t.generation);
  Xquery.Matcher.run_collect ?stats t.labeled prepared.plans

let explain t pattern =
  Xquery.Engine.explain ~strategy:t.strategy ~value_mode:t.value_mode t.labeled
    pattern

let document t i =
  if i < 0 || i >= t.ndocs then invalid_arg "Xseq.document: unknown id";
  (records t).(i)

let doc_count t = t.ndocs
let node_count t = Xindex.Labeled.node_count t.labeled
let distinct_paths t = Xindex.Labeled.distinct_paths t.labeled
let size_bytes t = Xindex.Labeled.size_bytes t.labeled ~record_count:t.ndocs
let strategy t = t.strategy
let value_mode t = t.value_mode
let labeled t = t.labeled
let symbols t = Xindex.Labeled.symbols t.labeled
let generation t = t.generation

let average_sequence_length t =
  if t.ndocs = 0 then 0.
  else float_of_int t.total_seq_len /. float_of_int t.ndocs

let stats t = t.stats

(* --- persistence ---------------------------------------------------------- *)

(* Snapshots are columnar {!Xstorage.Store} files: the labelled index as
   flat int-column regions (see Xindex.Labeled.add_to_store), the
   records' sibling-order exceptions ([sibling_order], see [t]) and a
   small [xseq_meta] region recording how the strategy was derived.
   Nothing is marshalled — every byte is decoded through bounds-checked
   readers, so a foreign or damaged file is rejected with a diagnostic,
   never interpreted.

   One version is written and read: version 5, with no record region
   (the index is the data), a compact path dictionary (its paths in
   build id order, its designators in (name, kind) order), a one-field
   index [meta] and only the link data the index cannot derive (see
   [Xindex.Labeled.add_to_store]).  Under a fixed
   configuration the index is a function of its records (Theorem 1), so
   a file of any other version is refused with the one remedy there is:
   build it again from its records. *)

let snapshot_version = 5

let check_version v =
  if v <> snapshot_version then
    invalid_arg
      (Printf.sprintf
         "Xseq.load: snapshot version %d is not read (this build reads \
          version %d); %s"
         v snapshot_version Store.rebuild_remedy)

(* Only strategies that can be deterministically recomputed from the
   records survive a round trip: (tag, argument) as [xseq_meta] stores
   them. *)
let persisted_sequencing = function
  | Depth_first { canonical } -> Some (0, Bool.to_int canonical)
  | Breadth_first { canonical } -> Some (1, Bool.to_int canonical)
  | Random seed -> Some (2, seed)
  | Probability -> Some (3, 0)
  | Probability_weighted _ | Custom _ -> None

let built_under t config =
  let a = t.built_config in
  (match persisted_sequencing a.sequencing with
   | Some p -> persisted_sequencing config.sequencing = Some p
   | None -> false)
  && a.value_mode = config.value_mode
  && Int64.equal
       (Int64.bits_of_float a.sample_fraction)
       (Int64.bits_of_float config.sample_fraction)
  && a.sample_seed = config.sample_seed

let save ?compress t path =
  let seq_tag, seq_arg =
    match persisted_sequencing t.built_config.sequencing with
    | Some p -> p
    | None -> invalid_arg "Xseq.save: custom strategies cannot be persisted"
  in
  let vm = match t.value_mode with Encoder.Hashed -> 0 | Encoder.Text -> 1 in
  (* The sampling fraction must survive bit-exactly, or the reloaded
     probability model could diverge from the stored labels. *)
  let bits = Int64.bits_of_float t.built_config.sample_fraction in
  let frac_lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
  let frac_hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let store = Store.memory () in
  (* A staged array: a fraction's words are unsigned 32-bit values, and
     a region holding one beyond [Int32.max_int] keeps 8-byte
     elements. *)
  Store.add_int_array store "xseq_meta"
    [|
      snapshot_version;
      seq_tag;
      seq_arg;
      vm;
      frac_lo;
      frac_hi;
      t.built_config.sample_seed;
      t.total_seq_len;
      t.ndocs;
    |];
  Store.add_int_array store "sibling_order" (t.order ());
  Xindex.Labeled.add_to_store t.labeled store;
  Store.write ?compress store path

(* The [gbest] statistics of a loaded index, read off its document table
   instead of its records (see [Xindex.Labeled.path_frequencies]); a
   sampled model counts the same Bernoulli sample [Stats.sample] drew at
   build time. *)
let index_stats config labeled ndocs =
  let module Stats = Xschema.Stats in
  let symbols = Xindex.Labeled.symbols labeled in
  let count ?member docs =
    let counts = Stats.counts (Symtab.path_count symbols) in
    Xindex.Labeled.path_frequencies ?member labeled (Stats.add_count counts);
    Stats.of_counts symbols ~docs counts
  in
  if config.sample_fraction >= 1.0 then count ndocs
  else begin
    let m =
      Stats.sample_members ~fraction:config.sample_fraction
        ~seed:config.sample_seed ndocs
    in
    let member id = id >= 0 && id < ndocs && m.(id) in
    count ~member (Array.fold_left (fun n b -> if b then n + 1 else n) 0 m)
  end

let restore store =
  let bad msg = invalid_arg ("Xseq.load: " ^ msg) in
  if not (Store.mem store "xseq_meta") then
    bad "not an xseq index snapshot (missing xseq_meta region)";
  let meta = Store.int_array store "xseq_meta" in
  if Array.length meta = 0 then bad "malformed xseq_meta region";
  check_version meta.(0);
  if Array.length meta <> 9 then bad "malformed xseq_meta region";
  let sequencing =
    match (meta.(1), meta.(2)) with
    | 0, c -> Depth_first { canonical = c <> 0 }
    | 1, c -> Breadth_first { canonical = c <> 0 }
    | 2, seed -> Random seed
    | 3, _ -> Probability
    | _ -> bad "unknown sequencing strategy tag"
  in
  let value_mode =
    match meta.(3) with
    | 0 -> Encoder.Hashed
    | 1 -> Encoder.Text
    | _ -> bad "unknown value mode"
  in
  let sample_fraction =
    Int64.float_of_bits
      (Int64.logor
         (Int64.logand (Int64.of_int meta.(4)) 0xFFFFFFFFL)
         (Int64.shift_left (Int64.of_int meta.(5)) 32))
  in
  let ndocs = meta.(8) in
  let config =
    { sequencing; value_mode; sample_fraction; sample_seed = meta.(6) }
  in
  (* The labelled regions as they are; the sibling order stays in the
     file until a decode reads it. *)
  if not (Store.mem store "sibling_order") then
    bad "missing sibling_order region";
  let labeled = Xindex.Labeled.of_store store in
  if Xindex.Labeled.doc_count labeled <> ndocs then
    bad "record count disagrees with the document table";
  (* Recompute the strategy exactly as [build] derived it. *)
  let strategy, stats =
    resolve_strategy config (Xindex.Labeled.symbols labeled) (fun () ->
        index_stats config labeled ndocs)
  in
  Store.check_unread store;
  {
    labeled;
    strategy;
    value_mode;
    order = (fun () -> Store.int_array store "sibling_order");
    decoded = Atomic.make None;
    lock = Mutex.create ();
    ndocs;
    total_seq_len = meta.(7);
    stats;
    built_config = config;
    generation = next_generation ();
  }

let load ?mode ?pool_pages path =
  (* Each region is checked by the read that first uses it, and the rest
     once [restore] is done with the file ([Store.check_unread]): every
     byte is hashed once, none used before its check. *)
  let store = Store.open_file ?mode ?pool_pages ~deferred:true path in
  (* A rejected file must not keep a paged store's fd and buffer pool. *)
  match restore store with
  | t -> t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Store.close store;
    Printexc.raise_with_backtrace e bt

let backing_store t = Xindex.Labeled.backing_store t.labeled
