module Pattern = Xquery.Pattern
module Xpath = Xquery.Xpath_parser
module T = Xmlcore.Xml_tree
module Strategy = Sequencing.Strategy
module Encoder = Sequencing.Encoder
module Symtab = Sequencing.Symtab
module Path = Symtab.Path
module Domain_pool = Xutil.Domain_pool
module Store = Xstorage.Store
module Varint = Xsuccinct.Varint

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

(* The original records.  A loaded index leaves them in its snapshot's
   record region, read from the file on use: queries never touch them.
   [document] (and through it Xlog compaction) decodes them once and
   keeps the trees; the [Too_many] scan fallback tests them one at a
   time and keeps nothing; [save] copies the region. *)
type records =
  | Dropped (* built with [keep_documents = false] *)
  | Trees of T.t array
  | Stored of {
      store : Store.t;
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
  upgraded : bool; (* rebuilt from an older layout or read from xseqcol1 *)
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
              let docs =
                match sample with
                | Some m ->
                  Array.fold_left (fun n b -> if b then n + 1 else n) 0 m
                | None -> ndocs
              in
              Xschema.Stats.of_frequencies symbols ~docs census.freq)
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
    upgraded = false;
  }

(* --- record region -------------------------------------------------------- *)

(* The records serialise as one pre-order walk with explicit child
   counts.  Version 3 regions open with a name table: a uvarint count,
   then each element name's uvarint length and bytes, in first-seen
   pre-order.  A node is then an element, uvarint (2 * name id) and a
   uvarint child count, or a value, uvarint (2 * length + 1) and its
   bytes.  Versions 1 and 2 spell every node out: a u8 kind (0 =
   element, 1 = value), the u32 LE length and bytes of its name or
   text, and for an element a u32 LE child count.  Either way every node
   takes at least one byte.  Only the upgrade of an older file reads the
   spelled layout; [save] writes version 3. *)

(* One record in pre-order: each node through [uv] (a uvarint) and [str]
   (raw bytes).  An element name gets the next id in [ids] the first
   time it is seen, and [named] hears of it. *)
let walk_record ids ~named ~uv ~str doc =
  let rec node = function
    | T.Element (name, cs) ->
      let id =
        match Hashtbl.find ids name with
        | id -> id
        | exception Not_found ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids name id;
          named name;
          id
      in
      uv (2 * id);
      uv (List.length cs);
      List.iter node cs
    | T.Value s ->
      uv ((2 * String.length s) + 1);
      str s
  in
  node doc

(* Records in memory are walked twice: once to size the region and name
   the ids, once to write it into a buffer of exactly that size. *)
let encode_docs docs =
  let ids = Hashtbl.create 64 in
  let names = ref [] and size = ref 0 in
  let add n = size := !size + n in
  Array.iter
    (walk_record ids
       ~named:(fun name ->
         names := name :: !names;
         add (Varint.uvarint_size (String.length name) + String.length name))
       ~uv:(fun v -> add (Varint.uvarint_size v))
       ~str:(fun s -> add (String.length s)))
    docs;
  let count = Hashtbl.length ids in
  let b = Bytes.create (Varint.uvarint_size count + !size) in
  let pos = ref (Varint.set_uvarint b 0 count) in
  let uv v = pos := Varint.set_uvarint b !pos v in
  let str s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  List.iter
    (fun name ->
      uv (String.length name);
      str name)
    (List.rev !names);
  Array.iter (walk_record ids ~named:ignore ~uv ~str) docs;
  Bytes.unsafe_to_string b

let corrupt_docs () = invalid_arg "Xseq.load: corrupt document region"

(* Bounds-checked reads of a record region streamed from its store a
   chunk at a time.  Positions are region offsets: the chunk in [buf]
   holds bytes [lo, hi), and [pos] may run ahead of [hi] past skipped
   bytes, which the next read streams through.  [name] is the name of
   the element [header] read last. *)
type cursor = {
  stream : Store.blob_stream;
  len : int; (* region bytes *)
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable pos : int;
  mutable name : string;
}

(* Streams chunks until the one holding byte [pos]; the caller has
   checked [pos < len]. *)
let rec fill c =
  if c.pos >= c.hi then begin
    let buf, n = Store.stream_next c.stream in
    if n = 0 then corrupt_docs ();
    c.buf <- buf;
    c.lo <- c.hi;
    c.hi <- c.hi + n;
    fill c
  end

let byte c =
  fill c;
  let v = Char.code (Bytes.unsafe_get c.buf (c.pos - c.lo)) in
  c.pos <- c.pos + 1;
  v

let u8 c =
  if c.pos >= c.len then corrupt_docs ();
  byte c

let u32 c =
  if c.pos + 4 > c.len then corrupt_docs ();
  fill c;
  let v =
    if c.pos + 4 <= c.hi then begin
      let v = Int32.to_int (Bytes.get_int32_le c.buf (c.pos - c.lo)) in
      c.pos <- c.pos + 4;
      v
    end
    else
      (* Straddles two chunks: byte by byte, sign-extended as above. *)
      let b0 = byte c in
      let b1 = byte c in
      let b2 = byte c in
      let b3 = byte c in
      let x = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
      (x lxor 0x8000_0000) - 0x8000_0000
  in
  if v < 0 || v > c.len then corrupt_docs ();
  v

(* A LEB128 varint as [Xsuccinct.Varint] writes it, byte by byte, so it
   may straddle two chunks: at most 9 bytes, and no final zero byte
   after the first, which would spell a shorter value at length. *)
let rec uvarint_from c v shift =
  let b = u8 c in
  let v = v lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then begin
    if b = 0 && shift > 0 then corrupt_docs ();
    v
  end
  else if shift = 56 then corrupt_docs ()
  else uvarint_from c v (shift + 7)

let uvarint c = uvarint_from c 0 0

(* [uvarint] as a count of whole things in the rest of the region, each
   at least a byte long. *)
let count c =
  let n = uvarint c in
  if n < 0 || n > c.len - c.pos then corrupt_docs ();
  n

(* The length of a length-prefixed name or text, whose bytes start at
   [pos]. *)
let field c =
  let n = u32 c in
  if c.pos + n > c.len then corrupt_docs ();
  n

let skip c n = c.pos <- c.pos + n

(* The next [n] bytes, copied out of however many chunks hold them. *)
let take c n =
  let b = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    fill c;
    let k = min (n - !filled) (c.hi - c.pos) in
    Bytes.blit c.buf (c.pos - c.lo) b !filled k;
    c.pos <- c.pos + k;
    filled := !filled + k
  done;
  Bytes.unsafe_to_string b

(* How a region spells its nodes: in full (versions 1 and 2), or
   against the name table it opens with (version 3). *)
type layout = Spelled | Coded of string array

(* The next node's header.  An element gives its child count and leaves
   its name in [c.name] (a spelled name only when [named]); a value
   gives [-1 - length], its bytes next at the cursor. *)
let header layout ~named c =
  match layout with
  | Spelled -> (
    match u8 c with
    | 0 ->
      let n = field c in
      if named then c.name <- take c n else skip c n;
      u32 c
    | 1 -> -1 - field c
    | _ -> corrupt_docs ())
  | Coded names ->
    let tag = uvarint c in
    let arg = tag lsr 1 in
    if tag land 1 = 0 then begin
      if arg >= Array.length names then corrupt_docs ();
      c.name <- Array.unsafe_get names arg;
      count c
    end
    else begin
      if arg > c.len - c.pos then corrupt_docs ();
      -1 - arg
    end

(* Runs [f] over a cursor on the record region of [store], and [ndocs]
   records that must consume it exactly.  The region's checksum is
   checked before any verdict: a failure of [f] is reported only once the
   rest of the region was read and found intact, and so is its result. *)
let with_records store ndocs f =
  let stream = Store.stream_blob store "docs" in
  let c =
    { stream; len = Store.stream_length stream; buf = Bytes.empty; lo = 0;
      hi = 0; pos = 0; name = "" }
  in
  let verdict =
    match
      if ndocs < 0 || ndocs > c.len then corrupt_docs ();
      let r = f c in
      if c.pos <> c.len then corrupt_docs ();
      r
    with
    | r -> Ok r
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Store.stream_finish stream;
  match verdict with
  | Ok r -> r
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* The name table a version-3 region opens with. *)
let coded c = Coded (Array.init (count c) (fun _ -> take c (count c)))

(* The record at the cursor, which moves past it.  A version-3 record
   shares its names with the name table. *)
let decode_record layout c =
  let rec node () =
    let h = header layout ~named:true c in
    if h >= 0 then
      let name = c.name in
      T.Element (name, children h [])
    else T.Value (take c (-1 - h))
  and children n acc =
    (* Every child consumes at least one byte, so a lying count runs out
       of input and fails the bounds checks above. *)
    if n = 0 then List.rev acc else children (n - 1) (node () :: acc)
  in
  node ()

(* The records of a region in the version-3 layout, or with [~spelled]
   in that of versions 1 and 2. *)
let decode_docs ?(spelled = false) store ndocs =
  with_records store ndocs (fun c ->
      let layout = if spelled then Spelled else coded c in
      Array.init ndocs (fun _ -> decode_record layout c))

(* Rejects exactly the record regions [decode_docs] rejects, without
   building any tree.  The walk needs no stack: the pre-order layout is
   consumed node by node while counting the nodes still owed. *)
let validate_records store ndocs =
  with_records store ndocs (fun c ->
      let layout = coded c in
      let owed = ref ndocs in
      while !owed > 0 do
        decr owed;
        let h = header layout ~named:false c in
        if h >= 0 then owed := !owed + h else skip c (-1 - h)
      done)

let records t =
  match t.records with
  | Dropped -> None
  | Trees docs -> Some docs
  | Stored e ->
    (match Atomic.get e.decoded with
     | Some docs -> Some docs
     | None ->
       (* At most one decode: domains racing here wait for the first. *)
       Mutex.protect e.lock (fun () ->
           match Atomic.get e.decoded with
           | Some _ as docs -> docs
           | None ->
             let docs = Some (decode_docs e.store t.ndocs) in
             Atomic.set e.decoded docs;
             docs))

let query ?stats t pattern =
  match
    Xquery.Engine.query ?stats ~strategy:t.strategy
      ~value_mode:t.value_mode t.labeled pattern
  with
  | ids -> ids
  | exception Xquery.Instantiate.Too_many _ -> (
    (* Pathological wildcard/expansion blow-up: degrade to an exact
       linear scan rather than failing, when the records are at hand.
       Records still in the file are streamed, decoded and tested one
       at a time, and none outlives the scan; the answer waits for the
       region's checksum. *)
    match t.records with
    | Dropped -> raise (Xquery.Instantiate.Too_many 0)
    | Trees docs -> Xquery.Embedding.filter pattern docs
    | Stored e ->
      with_records e.store t.ndocs (fun c ->
          let layout = coded c in
          let ids = ref [] in
          for id = 0 to t.ndocs - 1 do
            if Xquery.Embedding.matches pattern (decode_record layout c) then
              ids := id :: !ids
          done;
          List.rev !ids))

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

(* Snapshots are columnar {!Xstorage.Store} files: the labelled index as
   flat int-column regions (see Xindex.Labeled.add_to_store), the
   original records as a structural blob, and a small [xseq_meta] region
   recording how the strategy was derived.  Nothing is marshalled — every
   byte is decoded through bounds-checked readers, so a foreign or
   damaged file is rejected with a diagnostic, never interpreted.

   Version 3 is written, and read as it is written: its record region
   coded against a table of element names (see "record region" above),
   a compact path dictionary in (name, kind) order and a one-field
   index [meta].  Under a fixed configuration the index is a function of
   its records, so [restore] upgrades any other layout by rebuilding:
   it decodes the records (versions 1 and 2 spell every name out) and
   sequences them again under the stored configuration.  Version 1 also
   sequenced by other rules (process-wide tag ids, ties on build path
   ids), so its labels could not be read as they are in any case. *)

let snapshot_version = 3

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
  (not t.upgraded)
  && (match persisted_sequencing a.sequencing with
     | Some p -> persisted_sequencing config.sequencing = Some p
     | None -> false)
  && a.value_mode = config.value_mode
  && Int64.equal
       (Int64.bits_of_float a.sample_fraction)
       (Int64.bits_of_float config.sample_fraction)
  && a.sample_seed = config.sample_seed

let save ?compress t path =
  (* A loaded index copies its record region from its file, decoded or
     not. *)
  let blob =
    match t.records with
    | Stored e -> Store.blob e.store "docs"
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
  Store.add_blob store "docs" blob;
  Xindex.Labeled.add_to_store t.labeled store;
  Store.write ?compress store path

(* The [gbest] statistics of a loaded index, read off its document table
   instead of its records (see [Xindex.Labeled.path_frequencies]); a
   sampled model counts the same Bernoulli sample [Stats.sample] drew at
   build time. *)
let index_stats config labeled ndocs =
  let module Stats = Xschema.Stats in
  let symbols = Xindex.Labeled.symbols labeled in
  if config.sample_fraction >= 1.0 then
    Stats.of_frequencies symbols ~docs:ndocs
      (Xindex.Labeled.path_frequencies labeled)
  else begin
    let m =
      Stats.sample_members ~fraction:config.sample_fraction
        ~seed:config.sample_seed ndocs
    in
    let member id = id >= 0 && id < ndocs && m.(id) in
    Stats.of_frequencies symbols
      ~docs:(Array.fold_left (fun n b -> if b then n + 1 else n) 0 m)
      (Xindex.Labeled.path_frequencies ~member labeled)
  end

let restore store =
  let bad msg = invalid_arg ("Xseq.load: " ^ msg) in
  if not (Store.mem store "xseq_meta" && Store.mem store "docs") then
    bad "not an xseq index snapshot (missing xseq_meta/docs regions)";
  let meta = Store.int_array store "xseq_meta" in
  if Array.length meta <> 9 then bad "malformed xseq_meta region";
  let version = meta.(0) in
  if version < 1 || version > snapshot_version then
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
  let ndocs = meta.(8) in
  let config =
    {
      default_config with
      sequencing;
      value_mode;
      sample_fraction;
      sample_seed = meta.(6);
    }
  in
  (* A current store: the version this build writes, its compact
     dictionary in (name, kind) order, no region of the retired page
     layout.  Its records stay in the file; a streamed read validates
     them. *)
  let labeled =
    if
      version = snapshot_version
      && Store.mem store "dict_desig"
      && not (Store.mem store "link_base")
    then begin
      validate_records store ndocs;
      match Xindex.Labeled.of_store store with
      | labeled -> Some labeled
      | exception Symtab.Out_of_order -> None
    end
    else None
  in
  match labeled with
  | None ->
    (* Any other store is upgraded: its records, in their layout, are
       sequenced again under the stored configuration, and the rebuilt
       index reads nothing more from the file. *)
    let docs = decode_docs ~spelled:(version < 3) store ndocs in
    Store.check_unread store;
    Store.close store;
    let t = build ~config:{ config with keep_documents = true } docs in
    { t with upgraded = true }
  | Some labeled ->
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
      records =
        Stored { store; decoded = Atomic.make None; lock = Mutex.create () };
      ndocs;
      total_seq_len = meta.(7);
      stats;
      built_config = config;
      generation = next_generation ();
      upgraded = Store.file_format store = Store.Col1;
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
