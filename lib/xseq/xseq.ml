module Pattern = Xquery.Pattern
module Xpath = Xquery.Xpath_parser
module T = Xmlcore.Xml_tree
module Strategy = Sequencing.Strategy
module Encoder = Sequencing.Encoder
module Symtab = Sequencing.Symtab
module Path = Symtab.Path
module Domain_pool = Xutil.Domain_pool

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
  keep_documents : bool;
}

let default_config =
  {
    sequencing = Probability;
    value_mode = Encoder.Hashed;
    sample_fraction = 1.0;
    sample_seed = 42;
    keep_documents = true;
  }

(* The original records.  A loaded index keeps the snapshot's record
   region exactly as stored and decodes it on first use: queries never
   touch the trees, only [document], the [Too_many] scan fallback and
   Xlog compaction do. *)
type records =
  | Dropped (* built with [keep_documents = false] *)
  | Trees of T.t array
  | Encoded of {
      blob : string;
      decoded : T.t array option Atomic.t;
      lock : Mutex.t; (* serialises the one decode *)
    }

type t = {
  labeled : Xindex.Labeled.t;
  strategy : Strategy.t;
  value_mode : Encoder.value_mode;
  records : records;
  ndocs : int;
  total_seq_len : int;
  stats : Xschema.Stats.t option;
  built_config : config; (* for persistence: how the strategy was derived *)
  generation : int; (* process-unique stamp; see [generation] in the mli *)
  resequenced : bool; (* loaded from a version-1 snapshot, see [restore] *)
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
type census = { stamp : int array; freq : int array; multi : Bytes.t }

let count_paths symbols ~counted flats =
  let width = Symtab.path_count symbols in
  let c =
    {
      stamp = Array.make width (-1);
      freq = Array.make width 0;
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
            if counted then c.freq.(p) <- c.freq.(p) + 1
          end)
        (Encoder.paths flat))
    flats;
  c

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
              let counts = ref [] in
              for p = Array.length census.freq - 1 downto 0 do
                if census.freq.(p) > 0 then
                  counts := (Path.of_int symbols p, census.freq.(p)) :: !counts
              done;
              let docs =
                match sample with
                | Some m ->
                  Array.fold_left (fun n b -> if b then n + 1 else n) 0 m
                | None -> ndocs
              in
              Xschema.Stats.of_path_counts symbols ~docs
                (Array.of_list !counts))
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
  (* Phase 3 (parallel, read-only): encoding from the flat records.
     Canonical modes sequence the tag-sorted records instead, flattened
     first and sequentially; their paths are all in the table already. *)
  let seqs =
    phase "encode" (fun () ->
        let flats =
          if canonical then
            Array.map
              (fun d ->
                Encoder.flatten ~value_mode ~scratch symbols (T.sort_by_tag d))
              docs
          else flats
        in
        with_pool_opt ?domains ?pool (fun p ->
            Domain_pool.map p
              (Encoder.sequence ~ident ~strategy:encode_strategy symbols)
              flats))
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
    records = (if config.keep_documents then Trees docs else Dropped);
    ndocs;
    total_seq_len;
    stats;
    built_config = config;
    generation = next_generation ();
    resequenced = false;
  }

(* --- record region -------------------------------------------------------- *)

(* Documents serialise as a pre-order walk with explicit child counts:
   u8 kind (0 = element, 1 = value), u32 LE name/text length, bytes, and
   for elements a u32 LE child count. *)
let encode_docs docs =
  let b = Buffer.create 4096 in
  let add_str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  let rec node = function
    | T.Element (name, cs) ->
      Buffer.add_uint8 b 0;
      add_str name;
      Buffer.add_int32_le b (Int32.of_int (List.length cs));
      List.iter node cs
    | T.Value s ->
      Buffer.add_uint8 b 1;
      add_str s
  in
  Array.iter node docs;
  Buffer.contents b

let corrupt_docs () = invalid_arg "Xseq.load: corrupt document region"

(* Bounds-checked reads of a record region, advancing [pos]. *)
type cursor = { blob : string; mutable pos : int }

let u8 c =
  if c.pos >= String.length c.blob then corrupt_docs ();
  let v = Char.code (String.unsafe_get c.blob c.pos) in
  c.pos <- c.pos + 1;
  v

let u32 c =
  let len = String.length c.blob in
  if c.pos + 4 > len then corrupt_docs ();
  let v = Int32.to_int (String.get_int32_le c.blob c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 || v > len then corrupt_docs ();
  v

(* Skips a length-prefixed name or text and returns where its bytes
   start; they end at the new [pos]. *)
let field c =
  let n = u32 c in
  if c.pos + n > String.length c.blob then corrupt_docs ();
  let at = c.pos in
  c.pos <- at + n;
  at

let decode_docs blob ndocs =
  if ndocs < 0 || ndocs > String.length blob then corrupt_docs ();
  let c = { blob; pos = 0 } in
  let str () =
    let at = field c in
    String.sub blob at (c.pos - at)
  in
  let rec node () =
    match u8 c with
    | 0 ->
      let name = str () in
      let n = u32 c in
      T.Element (name, children n [])
    | 1 -> T.Value (str ())
    | _ -> corrupt_docs ()
  and children n acc =
    (* Every child consumes at least one byte, so a lying count runs out
       of input and fails the bounds checks above. *)
    if n = 0 then List.rev acc else children (n - 1) (node () :: acc)
  in
  let docs = Array.init ndocs (fun _ -> node ()) in
  if c.pos <> String.length blob then corrupt_docs ();
  docs

(* Rejects exactly the record regions [decode_docs] rejects, without
   building any tree.  The walk needs no stack: the pre-order layout is
   consumed node by node while counting the nodes still owed. *)
let validate_records blob ndocs =
  if ndocs < 0 || ndocs > String.length blob then corrupt_docs ();
  let c = { blob; pos = 0 } in
  let owed = ref ndocs in
  while !owed > 0 do
    decr owed;
    match u8 c with
    | 0 ->
      ignore (field c);
      owed := !owed + u32 c
    | 1 -> ignore (field c)
    | _ -> corrupt_docs ()
  done;
  if c.pos <> String.length blob then corrupt_docs ()

let records t =
  match t.records with
  | Dropped -> None
  | Trees docs -> Some docs
  | Encoded e ->
    (match Atomic.get e.decoded with
     | Some docs -> Some docs
     | None ->
       (* At most one decode: domains racing here wait for the first. *)
       Mutex.protect e.lock (fun () ->
           match Atomic.get e.decoded with
           | Some _ as docs -> docs
           | None ->
             let docs = Some (decode_docs e.blob t.ndocs) in
             Atomic.set e.decoded docs;
             docs))

let query ?stats t pattern =
  match
    Xquery.Engine.query ?stats ~strategy:t.strategy
      ~value_mode:t.value_mode t.labeled pattern
  with
  | ids -> ids
  | exception Xquery.Instantiate.Too_many _ ->
    (* Pathological wildcard/expansion blow-up: degrade to an exact
       linear scan rather than failing, when the records are at hand. *)
    (match records t with
     | Some docs -> Xquery.Embedding.filter pattern docs
     | None -> raise (Xquery.Instantiate.Too_many 0))

let query_xpath ?stats t s = query ?stats t (Xpath.parse s)
let contains t pattern doc = List.mem doc (query t pattern)

(* --- batched execution ---------------------------------------------------- *)

(* Contiguous ranges of [n] items split into at most [chunks] pieces. *)
let chunk_ranges n chunks =
  let chunks = max 1 (min n chunks) in
  Array.init chunks (fun c ->
      let lo = c * n / chunks and hi = (c + 1) * n / chunks in
      (lo, hi - lo))

let query_batch ?domains ?pool ?stats t patterns =
  let n = Array.length patterns in
  let chunked =
    with_pool_opt ?domains ?pool (fun p ->
        (* One worker-private stats record per chunk: the matcher's
           counters are unsynchronised, so concurrent queries must never
           share one (see Xquery.Matcher's thread-safety note). *)
        let ranges = chunk_ranges n (4 * Domain_pool.size p) in
        Domain_pool.run p
          (Array.map
             (fun (lo, len) () ->
               let s = Xquery.Matcher.create_stats () in
               let ids =
                 Array.init len (fun k -> query ~stats:s t patterns.(lo + k))
               in
               (ids, s))
             ranges))
  in
  (match stats with
   | Some into ->
     Array.iter
       (fun (_, s) -> Xquery.Matcher.merge_stats ~into s)
       chunked
   | None -> ());
  Array.concat (Array.to_list (Array.map fst chunked))

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
  match records t with
  | Some docs when i >= 0 && i < Array.length docs -> docs.(i)
  | Some _ -> invalid_arg "Xseq.document: unknown id"
  | None -> invalid_arg "Xseq.document: documents were not kept"

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

module Store = Xstorage.Store

(* Snapshots are columnar {!Xstorage.Store} files: the labelled index as
   flat int-column regions (see Xindex.Labeled.add_to_store), the
   original records as a structural blob, and a small [xseq_meta] region
   recording how the strategy was derived.  Nothing is marshalled — every
   byte is decoded through bounds-checked readers, so a foreign or
   damaged file is rejected with a diagnostic, never interpreted.

   Version 2 sequences under the index's own symbol table: canonical
   modes sort siblings by tag name and [gbest] breaks ties on depth,
   then path id.  Version 1 sorted canonical siblings by process-wide
   tag id and broke ties on the build's path ids, so queries compiled
   under today's rules can miss its labels; [restore] re-sequences its
   records instead of reading its index regions. *)

let snapshot_version = 2

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
  (not t.resequenced)
  && (match persisted_sequencing a.sequencing with
     | Some p -> persisted_sequencing config.sequencing = Some p
     | None -> false)
  && a.value_mode = config.value_mode
  && Int64.equal
       (Int64.bits_of_float a.sample_fraction)
       (Int64.bits_of_float config.sample_fraction)
  && a.sample_seed = config.sample_seed

let save ?(format = Store.Col1) t path =
  (* A loaded index writes its record region back verbatim, decoded or
     not. *)
  let blob =
    match t.records with
    | Encoded e -> e.blob
    | Trees docs -> encode_docs docs
    | Dropped ->
      invalid_arg "Xseq.save: index was built with keep_documents = false"
  in
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
  Store.add_ints store "xseq_meta"
    (Store.heap
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
       |]);
  Store.add_blob store "docs" blob;
  Xindex.Labeled.add_to_store ~compact:(format = Store.Col2) t.labeled store;
  (* Compressed regions are small; 4 KiB alignment would waste a large
     fraction of the file (and of the buffer pool) on padding. *)
  let page_size = match format with Store.Col1 -> 4096 | Store.Col2 -> 1024 in
  Store.write ~page_size ~format store path

(* The [gbest] statistics of a loaded index, read off its document table
   instead of its records (see [Xindex.Labeled.path_doc_counts]); a
   sampled model counts the same Bernoulli sample [Stats.sample] drew at
   build time. *)
let index_stats config labeled ndocs =
  let module Stats = Xschema.Stats in
  let symbols = Xindex.Labeled.symbols labeled in
  if config.sample_fraction >= 1.0 then
    Stats.of_path_counts symbols ~docs:ndocs
      (Xindex.Labeled.path_doc_counts labeled)
  else begin
    let m =
      Stats.sample_members ~fraction:config.sample_fraction
        ~seed:config.sample_seed ndocs
    in
    let member id = id >= 0 && id < ndocs && m.(id) in
    Stats.of_path_counts symbols
      ~docs:(Array.fold_left (fun n b -> if b then n + 1 else n) 0 m)
      (Xindex.Labeled.path_doc_counts ~member labeled)
  end

let restore store =
  let bad msg = invalid_arg ("Xseq.load: " ^ msg) in
  if not (Store.mem store "xseq_meta" && Store.mem store "docs") then
    bad "not an xseq index snapshot (missing xseq_meta/docs regions)";
  let meta = Store.to_array (Store.ints store "xseq_meta") in
  if Array.length meta <> 9 then bad "malformed xseq_meta region";
  if meta.(0) <> 1 && meta.(0) <> snapshot_version then
    bad (Printf.sprintf "unsupported snapshot version %d" meta.(0));
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
  (* The records stay encoded; they are only validated. *)
  let blob = Store.blob store "docs" in
  let ndocs = meta.(8) in
  validate_records blob ndocs;
  let config =
    {
      default_config with
      sequencing;
      value_mode;
      sample_fraction;
      sample_seed = meta.(6);
    }
  in
  if meta.(0) = 1 then begin
    (* The rebuilt index reads nothing more from the file. *)
    let docs = decode_docs blob ndocs in
    Store.close store;
    let t = build ~config:{ config with keep_documents = true } docs in
    { t with resequenced = true }
  end
  else
    let labeled = Xindex.Labeled.of_store store in
    if Xindex.Labeled.doc_count labeled <> ndocs then
      bad "record count disagrees with the document table";
    (* Recompute the strategy exactly as [build] derived it. *)
    let strategy, stats =
      resolve_strategy config (Xindex.Labeled.symbols labeled) (fun () ->
          index_stats config labeled ndocs)
    in
    {
      labeled;
      strategy;
      value_mode;
      records =
        Encoded { blob; decoded = Atomic.make None; lock = Mutex.create () };
      ndocs;
      total_seq_len = meta.(7);
      stats;
      built_config = config;
      generation = next_generation ();
      resequenced = false;
    }

let load ?mode ?pool_pages ?verify path =
  let store = Store.open_file ?mode ?pool_pages ?verify path in
  (* A rejected file must not keep a paged store's fd and buffer pool. *)
  match restore store with
  | t -> t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Store.close store;
    Printexc.raise_with_backtrace e bt

let backing_store t = Xindex.Labeled.backing_store t.labeled
