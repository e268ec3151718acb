(* xbench: one end-to-end benchmark of xseq serving.

   Each workload starts `xseq serve` as a separate process on TCP
   loopback, drives it from this process over at most two connections,
   checks every answer, and reports end-to-end metrics (what a client of
   the server sees) plus, with --trace 1, per-layer metrics from an
   in-process replay of the same seeded operation stream with a span
   around every call into a layer.

     dune exec bench/e2e/xbench.exe -- --seed 1                 all workloads
     dune exec bench/e2e/xbench.exe -- --workload twig --seed 3 --trace 1
     dune exec bench/e2e/xbench.exe -- --smoke                  tiny sizes

   The last line of stdout is one JSON object: correct, attempted, failed
   and metrics.  A wrong answer anywhere makes the run exit 1 and writes no
   result file.  bench/e2e/README.md explains the workloads and metrics. *)

module C = Xserver.Client
module Pr = Xserver.Protocol

type workload = Lookup | Twig | Twig_paged | Ingest_mix

let all_workloads = [ Lookup; Twig; Twig_paged; Ingest_mix ]

let workload_name = function
  | Lookup -> "lookup"
  | Twig -> "twig"
  | Twig_paged -> "twig_paged"
  | Ingest_mix -> "ingest_mix"

(* --- metric catalogue (names and units as in BENCHMARK.json) ------------- *)

(* End-to-end metrics carry a regression bound, so they must repeat from
   run to run.  The wire timings and the phase's peak memory do not
   (README.md, "End-to-end metrics"): the host's CPU speed drifts and each
   seed draws its own queries, so they are reported with the per-layer
   metrics, unbounded.  success_rate is 1 - error rate: a metric that
   reads 0 has no relative bound. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("success_rate", "fraction");
    ("loaded_rss_mb", "MiB");
    ("disk_bytes_per_input_byte", "ratio");
  ]

let per_layer =
  [
    ("peak_rss_mb", "MiB");
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("query_rps", "1/s");
    ("cpu_us_per_op", "us");
    ("insert_p50_ms", "ms");
    ("insert_p99_ms", "ms");
    ("xpath.parse_us", "us");
    ("compile.us", "us");
    ("compile.sequences_per_query", "count");
    ("plan_cache.hit_rate", "fraction");
    ("codec.us_per_frame", "us");
    ("codec.bytes_per_request", "bytes");
    ("codec.bytes_per_response", "bytes");
    ("wire.residual_us", "us");
    ("matcher.us", "us");
    ("matcher.probes_per_query", "count");
    ("matcher.candidates_per_query", "count");
    ("matcher.rejected_per_query", "count");
    ("matcher.useful_ratio", "fraction");
    ("matcher.ns_per_probe", "ns");
    ("store.page_reads_per_query", "count");
    ("store.pool_hit_rate", "fraction");
    ("gc.minor_words_per_query", "words");
    ("gc.major_words_per_query", "words");
    ("xml.parse_us", "us");
    ("xlog.insert_us", "us");
    ("xlog.remove_us", "us");
    ("xlog.wal_bytes_per_insert", "bytes");
    ("xlog.query_us", "us");
    ("xlog.seals", "count");
    ("xlog.compactions", "count");
    ("xlog.segments_mean", "count");
    ("trace.overhead", "ratio");
  ]

(* --- sizes and options ----------------------------------------------------- *)

type sizes = {
  dblp_records : int;
  xmark_records : int;
  live_records : int;
  lookup_distinct : int;
  twigs : int;
  ingest_lookups : int;
  ingest_twigs : int;
  writer_pairs_per_s : float;
  rounds : int;
  replay_ops : int;
  twig_replay_ops : int;  (** a twig replay of [replay_ops] takes about a minute *)
  brute_force : int;
  setups : int;
}

let full =
  {
    dblp_records = 20_000;
    xmark_records = 10_000;
    live_records = 8_000;
    lookup_distinct = 10_000;
    twigs = 64;
    ingest_lookups = 8;
    ingest_twigs = 8;
    writer_pairs_per_s = 400.;
    rounds = 10;
    replay_ops = 2_000;
    twig_replay_ops = 500;
    brute_force = 200;
    setups = 3;
  }

let smoke =
  {
    dblp_records = 500;
    xmark_records = 500;
    live_records = 500;
    lookup_distinct = 200;
    twigs = 16;
    ingest_lookups = 4;
    ingest_twigs = 4;
    writer_pairs_per_s = 100.;
    rounds = 5;
    replay_ops = 50;
    twig_replay_ops = 50;
    brute_force = 200;
    setups = 1;
  }

type opts = {
  only : workload list;
  seed : int;
  seconds : float;
  trace : bool;
  sz : sizes;
  smoke_run : bool;
  xseq : string;  (** the xseq CLI binary *)
}

(* Warm-up before the measured phase (plan cache and buffer pool fill):
   5 s ahead of a 30 s phase, in proportion for shorter ones. *)
let warmup_s o = o.seconds /. 6.

let results_dir = "bench/e2e/results"

let usage =
  "usage: xbench [--workload lookup|twig|twig_paged|ingest_mix] [--seed N] \
   [--seconds S] [--trace 0|1] [--smoke] [--xseq PATH]"

let parse_args args =
  let o =
    {
      only = all_workloads;
      seed = 1;
      seconds = 10.;
      trace = false;
      sz = full;
      smoke_run = false;
      xseq = "_build/default/bin/xseq_cli.exe";
    }
  in
  let number s = match float_of_string_opt s with Some f -> f | None -> failwith usage in
  let rec go o seconds = function
    | [] -> (o, seconds)
    | "--workload" :: w :: rest -> (
      match List.find_opt (fun x -> workload_name x = w) all_workloads with
      | Some x -> go { o with only = [ x ] } seconds rest
      | None -> failwith (Printf.sprintf "unknown workload %S\n%s" w usage))
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> go { o with seed } seconds rest
      | None -> failwith usage)
    | "--seconds" :: s :: rest -> go o (Some (number s)) rest
    | "--trace" :: (("0" | "1") as v) :: rest -> go { o with trace = v = "1" } seconds rest
    | "--smoke" :: rest -> go { o with sz = smoke; smoke_run = true } seconds rest
    | "--xseq" :: p :: rest -> go { o with xseq = p } seconds rest
    | a :: _ -> failwith (Printf.sprintf "unexpected argument %S\n%s" a usage)
  in
  let o, seconds = go o None args in
  let seconds = Option.value seconds ~default:(if o.smoke_run then 1. else o.seconds) in
  if seconds <= 0. then failwith usage;
  { o with seconds }

(* --- small helpers ---------------------------------------------------------- *)

let now = Unix.gettimeofday

let rec sleep_until t =
  let d = t -. now () in
  if d > 0. then begin
    Unix.sleepf d;
    sleep_until t
  end

(* The k-th operation of a seeded stream picks query [pick ~seed ~stream k n]:
   the wire run and the replay see the same sequence. *)
let pick ~seed ~stream k n = Hashtbl.hash (seed, stream, k) mod n

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an unsorted sample. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Progress on stderr, so a slow run shows where its time went. *)
let t_start = Unix.gettimeofday ()
let step fmt = Printf.ksprintf (fun m -> Printf.eprintf "[%6.1fs] %s\n%!" (Unix.gettimeofday () -. t_start) m) fmt

let ratio a b = if b = 0. then 0. else a /. b
let per a n = if n = 0 then 0. else a /. float_of_int n

(* Growable (completion time, latency, operation index) sample buffer, one
   per thread; [op] is -1 where the operation has no index in a stream. *)
module Samples = struct
  type t = {
    mutable at : float array;
    mutable lat : float array;
    mutable op : int array;
    mutable n : int;
  }

  let create () = { at = Array.make 1024 0.; lat = Array.make 1024 0.; op = Array.make 1024 0; n = 0 }

  let push ?(op = -1) b at lat =
    if b.n = Array.length b.at then begin
      let grow a zero = Array.append a (Array.make (Array.length a) zero) in
      b.at <- grow b.at 0.;
      b.lat <- grow b.lat 0.;
      b.op <- grow b.op 0
    end;
    b.at.(b.n) <- at;
    b.lat.(b.n) <- lat;
    b.op.(b.n) <- op;
    b.n <- b.n + 1

  let filter b keep =
    List.filter_map
      (fun i -> if keep b.at.(i) then Some b.lat.(i) else None)
      (List.init b.n Fun.id)
    |> Array.of_list
end

(* --- correctness bookkeeping ------------------------------------------------ *)

let mismatches = Atomic.make 0
let first_mismatch = Atomic.make None

let mismatch fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr mismatches;
      ignore (Atomic.compare_and_set first_mismatch None (Some msg)))
    fmt

let show_ids ids =
  let shown = List.filteri (fun i _ -> i < 8) ids in
  Printf.sprintf "[%s%s] (%d ids)"
    (String.concat "; " (List.map string_of_int shown))
    (if List.length ids > 8 then "; ..." else "")
    (List.length ids)

(* The brute-force embedding oracle (Fig. 4: no false alarms; Fig. 5: no
   false dismissals) against the index oracle, on up to [count] queries. *)
let brute_force_check ~seed ~count xpaths expected docs =
  let n = Array.length xpaths in
  let order = Array.init n Fun.id in
  let rng = Random.State.make [| seed; 5 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let checked = min count n in
  for i = 0 to checked - 1 do
    let qi = order.(i) in
    let brute = Xquery.Embedding.filter (Xquery.Xpath_parser.parse xpaths.(qi)) docs in
    let index = expected qi in
    if brute <> index then
      mismatch "brute-force oracle disagrees on %s: false alarms %s, false dismissals %s"
        xpaths.(qi)
        (show_ids (List.filter (fun id -> not (List.mem id brute)) index))
        (show_ids (List.filter (fun id -> not (List.mem id index)) brute))
  done;
  checked

(* --- the server process ------------------------------------------------------ *)

let client_policy =
  {
    C.default_policy with
    attempts = 1;
    connect_timeout_ms = 2_000;
    request_timeout_ms = 30_000;
  }

let wait_ready ~pid addr =
  let deadline = now () +. 120. in
  let rec loop () =
    match C.with_connection ~policy:client_policy addr (fun c -> C.ping ~timeout_ms:2_000 c) with
    | () -> ()
    | exception (Unix.Unix_error _ | C.Timeout _ | C.Protocol_error _ | C.Server_error _) ->
      (match Proc.exited pid with
       | Some st -> failwith ("server exited during start-up: " ^ Proc.status_text st)
       | None -> ());
      if now () > deadline then failwith "server did not answer Ping within 120 s";
      Unix.sleepf 0.005;
      loop ()
  in
  loop ()

type served = {
  pid : int;
  addr : Xserver.Server.addr;
  setup_runs : float array;
  loaded_rss_mb : float array;  (** server VmHWM when set-up ends *)
}

(* Starts `xseq serve` on a free loopback port; returns once it answers. *)
let spawn_server o ~log serve_args =
  let port = Proc.free_port () in
  let addr = Xserver.Server.Tcp ("127.0.0.1", port) in
  let pid = Proc.spawn ~log o.xseq (("serve" :: serve_args) @ [ "--port"; string_of_int port ]) in
  wait_ready ~pid addr;
  (pid, addr)

(* Set-up is repeated [sz.setups] times (each from raw XML to the first
   answered Ping); the last server stays up for the measured phase. *)
let start_server o ~log ~prepare ~serve_args =
  let runs = Array.make o.sz.setups 0. in
  let rss = Array.make o.sz.setups 0. in
  let rec go i =
    let t0 = now () in
    prepare ();
    let pid, addr = spawn_server o ~log serve_args in
    runs.(i) <- now () -. t0;
    rss.(i) <- float_of_int (Proc.peak_rss_kib pid) /. 1024.;
    if i + 1 < o.sz.setups then begin
      Proc.terminate pid;
      go (i + 1)
    end
    else { pid; addr; setup_runs = runs; loaded_rss_mb = rss }
  in
  go 0

let run_cli o ~log args =
  match Proc.run ~log o.xseq args with Ok () -> () | Error msg -> failwith msg

(* --- the measured phase ------------------------------------------------------ *)

type phase = {
  t0 : float;  (** start of the first round *)
  len : float;  (** round length *)
  rounds : int;
  ticks : int array;  (** server CPU ticks at each round boundary *)
  rss_kib : int;
}

let in_phase ph t = t >= ph.t0 && t < ph.t0 +. (ph.len *. float_of_int ph.rounds)
let round_of ph t = int_of_float ((t -. ph.t0) /. ph.len)

(* Starts the load, lets it warm up (plan cache, buffer pool), then
   measures [o.seconds] in [rounds] equal rounds; [on_round i] runs at
   each boundary, 0 included. *)
let run_phase o ~pid ~on_round start_load =
  let stop = Atomic.make false in
  let threads = start_load stop in
  Unix.sleepf (warmup_s o);
  let rounds = o.sz.rounds in
  let len = o.seconds /. float_of_int rounds in
  let t0 = now () in
  let ticks = Array.make (rounds + 1) 0 in
  ticks.(0) <- Proc.cpu_ticks pid;
  on_round 0;
  for i = 1 to rounds do
    sleep_until (t0 +. (float_of_int i *. len));
    ticks.(i) <- Proc.cpu_ticks pid;
    on_round i
  done;
  let rss_kib = Proc.peak_rss_kib pid in
  Atomic.set stop true;
  List.iter Thread.join threads;
  { t0; len; rounds; ticks; rss_kib }

(* Per-round values of a sample buffer set: (count, p50 latency). *)
let per_round ph bufs =
  let counts = Array.make ph.rounds 0 in
  let lats = Array.make ph.rounds [] in
  List.iter
    (fun (b : Samples.t) ->
      for i = 0 to b.n - 1 do
        if in_phase ph b.at.(i) then begin
          let r = round_of ph b.at.(i) in
          counts.(r) <- counts.(r) + 1;
          lats.(r) <- b.lat.(i) :: lats.(r)
        end
      done)
    bufs;
  (counts, Array.map (fun l -> median (Array.of_list l)) lats)

let phase_samples ph bufs =
  Array.concat (List.map (fun b -> Samples.filter b (in_phase ph)) bufs)

let phase_count ph bufs = Array.length (phase_samples ph bufs)

(* Mean wire latency of each query of the set (by index) over the measured
   phase, [None] for one the phase never sent; [query_of k] is the query of
   the stream's k-th operation. *)
let wire_means ph bufs ~queries ~query_of =
  let sum = Array.make queries 0. and count = Array.make queries 0 in
  List.iter
    (fun (b : Samples.t) ->
      for i = 0 to b.n - 1 do
        if in_phase ph b.at.(i) && b.op.(i) >= 0 then begin
          let q = query_of b.op.(i) in
          sum.(q) <- sum.(q) +. b.lat.(i);
          count.(q) <- count.(q) + 1
        end
      done)
    bufs;
  fun q -> if count.(q) = 0 then None else Some (sum.(q) /. float_of_int count.(q))

(* Per-round query rate, query p50 and server CPU per completed operation
   (queries plus [other_ops]); an end-to-end value is the median of its
   rounds. *)
type rounds = { rps : float array; p50_ms : float array; cpu_us : float array }

let round_values ph ~queries ~other_ops =
  let counts, p50s = per_round ph queries in
  let others, _ = per_round ph other_ops in
  let us_per_tick = 1e6 /. float_of_int (Lazy.force Proc.clock_ticks_per_s) in
  {
    rps = Array.map (fun c -> float_of_int c /. ph.len) counts;
    p50_ms = Array.map (fun p -> p *. 1e3) p50s;
    cpu_us =
      Array.init ph.rounds (fun r ->
          per
            (float_of_int (ph.ticks.(r + 1) - ph.ticks.(r)) *. us_per_tick)
            (counts.(r) + others.(r)));
  }

type load = { ok : Samples.t; bad : Samples.t }

let new_load () = { ok = Samples.create (); bad = Samples.create () }

let note_failure l what e =
  Samples.push l.bad (now ()) 0.;
  if l.bad.Samples.n <= 3 then Printf.eprintf "xbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* A closed-loop reader: sends the next query of the shared stream as soon
   as the previous answer is back, and checks every answer. *)
let reader addr ~stop ~next ~xpath_of ~check l =
  match C.connect ~policy:client_policy addr with
  | exception e -> note_failure l "connect" e
  | c ->
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        while not (Atomic.get stop) do
          let k = Atomic.fetch_and_add next 1 in
          let xpath = xpath_of k in
          let verdict = check k in
          let t0 = now () in
          match C.query c xpath with
          | ids ->
            let t1 = now () in
            Samples.push ~op:k l.ok t1 (t1 -. t0);
            verdict ids
          | exception ((C.Server_error _ | C.Timeout _ | C.Protocol_error _ | Unix.Unix_error _) as e)
            ->
            note_failure l "query" e;
            Unix.sleepf 0.001
        done)

(* --- per-workload outcome ------------------------------------------------------ *)

type outcome = {
  wl : workload;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * string) list;  (** provenance and inputs, JSON values *)
  spans : Span.span list;  (** the traced replay, [] without --trace *)
  accounting : (float * float) option;
      (** mean traced replay time of a query and untraced mean wire latency,
          in seconds: the gap is wire.residual_us *)
}

let json_float v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

let json_string s = Printf.sprintf "%S" s
let json_array a = "[" ^ String.concat ", " (Array.to_list (Array.map json_float a)) ^ "]"

let round_info rv =
  [
    ("rounds_query_rps", json_array rv.rps);
    ("rounds_query_p50_ms", json_array rv.p50_ms);
    ("rounds_cpu_us_per_op", json_array rv.cpu_us);
  ]

(* --- in-process replay (--trace) ------------------------------------------------ *)

type replay = {
  r_wall : float;
  r_spans : Span.span list;
  r_probes : int;
  r_counts : (string * float) list;  (** per-layer counters, already per op *)
}

let gc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let replay_static o ~ops ~snapshot ~paged ~xpaths ~expected ~traced =
  let index =
    if paged then Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages:64 snapshot
    else Xseq.load snapshot
  in
  let cache = Xserver.Plan_cache.create ~capacity:256 in
  let stats = Xquery.Matcher.create_stats () in
  let sp = Span.create ~enabled:traced in
  let generation = Xseq.generation index in
  let req_bytes = ref 0 and resp_bytes = ref 0 in
  let compiled = ref [] in
  let pages () =
    match Xseq.backing_store index with
    | Some s -> (Xstorage.Store.page_reads s, Xstorage.Store.page_hits s)
    | None -> (0, 0)
  in
  let reads0, hits0 = pages () in
  let minor0, major0 = gc_words () in
  let t0 = now () in
  for k = 0 to ops - 1 do
    let qi = pick ~seed:o.seed ~stream:0 k (Array.length xpaths) in
    let ids =
      Span.request sp ~req:k "request" (fun () ->
          let frame =
            Span.record sp "codec.encode_request" (fun () ->
                Pr.encode_request (Pr.Query { xpath = xpaths.(qi); timeout_ms = 0 }))
          in
          req_bytes := !req_bytes + String.length frame;
          let xpath =
            match Span.record sp "codec.decode_request" (fun () -> Pr.decode_request frame) with
            | Ok (Pr.Query { xpath; _ }) -> xpath
            | _ -> failwith "replay: request did not round-trip"
          in
          let pattern = Span.record sp "xpath.parse" (fun () -> Xseq.Xpath.parse xpath) in
          let key, hit =
            Span.record sp "plan_cache.find" (fun () ->
                let key = Xquery.Pattern.to_string pattern in
                (key, Xserver.Plan_cache.find cache ~generation key))
          in
          let plan =
            match hit with
            | Some plan -> plan
            | None ->
              let plan = Span.record sp "compile" (fun () -> Xseq.prepare index pattern) in
              Xserver.Plan_cache.add cache ~generation key plan;
              compiled := pattern :: !compiled;
              plan
          in
          let ids = Span.record sp "matcher" (fun () -> Xseq.run_prepared ~stats index plan) in
          let rframe =
            Span.record sp "codec.encode_response" (fun () ->
                Pr.encode_response (Pr.Result { generation; ids }))
          in
          resp_bytes := !resp_bytes + String.length rframe;
          match Span.record sp "codec.decode_response" (fun () -> Pr.decode_response rframe) with
          | Ok (Pr.Result { ids; _ }) -> ids
          | _ -> failwith "replay: response did not round-trip")
    in
    if ids <> expected.(qi) then
      mismatch "replay answered %s for %s, oracle %s" (show_ids ids) xpaths.(qi)
        (show_ids expected.(qi))
  done;
  let wall = now () -. t0 in
  let minor1, major1 = gc_words () in
  let reads1, hits1 = pages () in
  let sequences =
    List.fold_left
      (fun acc p ->
        acc
        + List.length
            (Xquery.Engine.compile ~strategy:(Xseq.strategy index)
               ~value_mode:(Xseq.value_mode index) (Xseq.labeled index) p))
      0 !compiled
  in
  let hits = Xserver.Plan_cache.hits cache and misses = Xserver.Plan_cache.misses cache in
  let reads = reads1 - reads0 and phits = hits1 - hits0 in
  (match Xseq.backing_store index with Some s -> Xstorage.Store.close s | None -> ());
  let m = stats in
  {
    r_wall = wall;
    r_spans = Span.spans sp;
    r_counts =
      [
        ("compile.sequences_per_query", per (float_of_int sequences) (List.length !compiled));
        ("plan_cache.hit_rate", ratio (float_of_int hits) (float_of_int (hits + misses)));
        ("codec.bytes_per_request", per (float_of_int !req_bytes) ops);
        ("codec.bytes_per_response", per (float_of_int !resp_bytes) ops);
        ("matcher.probes_per_query", per (float_of_int m.probes) ops);
        ("matcher.candidates_per_query", per (float_of_int m.candidates) ops);
        ("matcher.rejected_per_query", per (float_of_int m.rejected) ops);
        ("matcher.useful_ratio", ratio (float_of_int m.matches) (float_of_int m.candidates));
        ("store.page_reads_per_query", per (float_of_int reads) ops);
        ("store.pool_hit_rate", ratio (float_of_int phits) (float_of_int (reads + phits)));
        ("gc.minor_words_per_query", per (minor1 -. minor0) ops);
        ("gc.major_words_per_query", per (major1 -. major0) ops);
      ];
    r_probes = m.probes;
  }

let copy_dir src dst =
  Proc.mkdir_p dst;
  Array.iter
    (fun name ->
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          output_string oc (Proc.read_file (Filename.concat src name))))
    (Sys.readdir src)

(* The ingest stream, interleaved one writer op to one reader op: writer op
   w inserts fresh record w/2 (even w) or deletes the oldest live id (odd
   w), exactly as the wire writer does. *)
let replay_ingest o ~base ~dir ~seed_n ~(pool : Gen.corpus) ~xpaths ~query_of ~matches ~traced =
  Proc.rm_rf dir;
  copy_dir base dir;
  let log = Xlog.open_ dir in
  let cache = Xserver.Plan_cache.create ~capacity:256 in
  let stats = Xquery.Matcher.create_stats () in
  let sp = Span.create ~enabled:traced in
  let req_bytes = ref 0 and resp_bytes = ref 0 in
  let wal_bytes = ref 0 and inserts = ref 0 and deletes = ref 0 and queries = ref 0 in
  let roundtrip_request req =
    let frame = Span.record sp "codec.encode_request" (fun () -> Pr.encode_request req) in
    req_bytes := !req_bytes + String.length frame;
    match Span.record sp "codec.decode_request" (fun () -> Pr.decode_request frame) with
    | Ok r -> r
    | Error e -> failwith ("replay: " ^ e)
  in
  let roundtrip_response resp =
    let frame = Span.record sp "codec.encode_response" (fun () -> Pr.encode_response resp) in
    resp_bytes := !resp_bytes + String.length frame;
    match Span.record sp "codec.decode_response" (fun () -> Pr.decode_response frame) with
    | Ok r -> r
    | Error e -> failwith ("replay: " ^ e)
  in
  let minor0, major0 = gc_words () in
  let t0 = now () in
  let ops = o.sz.replay_ops in
  for k = 0 to ops - 1 do
    if k mod 2 = 0 then begin
      let w = k / 2 in
      if w mod 2 = 0 then begin
        let fresh = w / 2 in
        let before = Xlog.wal_offset log in
        let resp =
          Span.request sp ~req:k "request" (fun () ->
              match roundtrip_request (Pr.Insert { xml = pool.xmls.(seed_n + fresh) }) with
              | Pr.Insert { xml } ->
                let doc =
                  Span.record sp "xml.parse" (fun () -> Xmlcore.Xml_parser.parse_string xml)
                in
                let id = Span.record sp "xlog.insert" (fun () -> Xlog.insert log doc) in
                roundtrip_response (Pr.Inserted { id })
              | _ -> failwith "replay: insert did not round-trip")
        in
        let after = Xlog.wal_offset log in
        if after > before then wal_bytes := !wal_bytes + (after - before);
        incr inserts;
        match resp with
        | Pr.Inserted { id } when id = seed_n + fresh -> ()
        | _ -> mismatch "replay insert of record %d got the wrong id" (seed_n + fresh)
      end
      else begin
        let id = w / 2 in
        let resp =
          Span.request sp ~req:k "request" (fun () ->
              match roundtrip_request (Pr.Delete { id }) with
              | Pr.Delete { id } ->
                let existed = Span.record sp "xlog.remove" (fun () -> Xlog.remove log id) in
                roundtrip_response (Pr.Deleted { existed })
              | _ -> failwith "replay: delete did not round-trip")
        in
        incr deletes;
        match resp with
        | Pr.Deleted { existed = true } -> ()
        | _ -> mismatch "replay delete of live id %d found nothing" id
      end
    end
    else begin
      let qi = query_of (k / 2) in
      (* Served as the server serves a live store: a plan cache keyed by
         the store's generation, and the unprepared path when the plan is
         stale or the expansion explodes. *)
      let resp =
        Span.request sp ~req:k "request" (fun () ->
            match roundtrip_request (Pr.Query { xpath = xpaths.(qi); timeout_ms = 0 }) with
            | Pr.Query { xpath; _ } ->
              let pattern = Span.record sp "xpath.parse" (fun () -> Xseq.Xpath.parse xpath) in
              let generation = Xlog.generation log in
              let key, hit =
                Span.record sp "plan_cache.find" (fun () ->
                    let key = Xquery.Pattern.to_string pattern in
                    (key, Xserver.Plan_cache.find cache ~generation key))
              in
              let plan =
                match hit with
                | Some plan -> Some plan
                | None -> (
                  match Span.record sp "compile" (fun () -> Xlog.prepare log pattern) with
                  | plan ->
                    Xserver.Plan_cache.add cache ~generation key plan;
                    Some plan
                  | exception Xquery.Instantiate.Too_many _ -> None)
              in
              let ids =
                Span.record sp "xlog.query" (fun () ->
                    match plan with
                    | Some plan -> (
                      try Xlog.run_prepared ~stats log plan
                      with Invalid_argument _ -> Xlog.query ~stats log pattern)
                    | None -> Xlog.query ~stats log pattern)
              in
              roundtrip_response (Pr.Result { generation; ids })
            | _ -> failwith "replay: query did not round-trip")
      in
      incr queries;
      let lo = !deletes and hi = seed_n + !inserts in
      let want = List.filter (fun id -> id >= lo && id < hi) (Array.to_list matches.(qi)) in
      match resp with
      | Pr.Result { ids; _ } when ids = want -> ()
      | _ -> mismatch "replay query %s disagrees with the oracle" xpaths.(qi)
    end
  done;
  let wall = now () -. t0 in
  let minor1, major1 = gc_words () in
  Xlog.close log;
  Proc.rm_rf dir;
  let m = stats in
  let q = !queries in
  let hits = Xserver.Plan_cache.hits cache and misses = Xserver.Plan_cache.misses cache in
  {
    r_wall = wall;
    r_spans = Span.spans sp;
    r_counts =
      [
        ("plan_cache.hit_rate", ratio (float_of_int hits) (float_of_int (hits + misses)));
        ("codec.bytes_per_request", per (float_of_int !req_bytes) ops);
        ("codec.bytes_per_response", per (float_of_int !resp_bytes) ops);
        ("matcher.probes_per_query", per (float_of_int m.probes) q);
        ("matcher.candidates_per_query", per (float_of_int m.candidates) q);
        ("matcher.rejected_per_query", per (float_of_int m.rejected) q);
        ("matcher.useful_ratio", ratio (float_of_int m.matches) (float_of_int m.candidates));
        ("xlog.wal_bytes_per_insert", per (float_of_int !wal_bytes) !inserts);
        ("gc.minor_words_per_query", per (minor1 -. minor0) ops);
        ("gc.major_words_per_query", per (major1 -. major0) ops);
      ];
    r_probes = m.probes;
  }

(* Replays untraced (the overhead baseline and the counters) and traced
   (the spans).  [wire_mean req] is the untraced mean wire latency, in
   seconds, of the query that replayed operation [req] sends.  The
   accounting pairs each replayed query with the wire mean of the same
   query, so both sides average the same mix; what the replay does not
   explain of the wire mean is wire.residual_us. *)
let per_layer_metrics ~wire_mean replay =
  (* Both replays start from a compacted heap, so neither inherits the
     other's (or the wire phase's) garbage. *)
  step "replaying untraced";
  Gc.compact ();
  let plain = replay ~traced:false in
  step "replaying traced";
  Gc.compact ();
  let traced = replay ~traced:true in
  let selfs = Span.self_times traced.r_spans in
  let mean_us names =
    let n, total =
      List.fold_left
        (fun (n, total) ((s : Span.span), self) ->
          if List.mem s.name names then (n + 1, total +. self) else (n, total))
        (0, 0.) selfs
    in
    per (total *. 1e6) n
  in
  let query_reqs = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Span.span), _) ->
      if s.name = "matcher" || s.name = "xlog.query" then Hashtbl.replace query_reqs s.req ())
    selfs;
  let pairs =
    List.filter_map
      (fun ((s : Span.span), _) ->
        if s.parent = -1 && Hashtbl.mem query_reqs s.req then
          Option.map (fun wire -> (s.t1 -. s.t0, wire)) (wire_mean s.req)
        else None)
      selfs
  in
  let mean f = per (List.fold_left (fun acc p -> acc +. f p) 0. pairs) (List.length pairs) in
  let replay_mean = mean fst and wire_query_mean = mean snd in
  let matcher_s =
    List.fold_left
      (fun acc ((s : Span.span), _) -> if s.name = "matcher" then acc +. (s.t1 -. s.t0) else acc)
      0. selfs
  in
  let metrics =
    [
      ("xpath.parse_us", mean_us [ "xpath.parse" ]);
      ("compile.us", mean_us [ "compile" ]);
      ( "codec.us_per_frame",
        mean_us
          [
            "codec.encode_request"; "codec.decode_request"; "codec.encode_response";
            "codec.decode_response";
          ] );
      ("wire.residual_us", (wire_query_mean -. replay_mean) *. 1e6);
      ("matcher.us", mean_us [ "matcher" ]);
      ("matcher.ns_per_probe", per (matcher_s *. 1e9) plain.r_probes);
      ("xml.parse_us", mean_us [ "xml.parse" ]);
      ("xlog.insert_us", mean_us [ "xlog.insert" ]);
      ("xlog.remove_us", mean_us [ "xlog.remove" ]);
      ("xlog.query_us", mean_us [ "xlog.query" ]);
      ("trace.overhead", ratio traced.r_wall plain.r_wall);
    ]
    @ plain.r_counts
  in
  (metrics, traced.r_spans, Some (replay_mean, wire_query_mean))

(* --- read-only workloads: lookup, twig, twig_paged ------------------------------ *)

let static_workload o ~work wl =
  let sz = o.sz in
  let records = match wl with Lookup -> sz.dblp_records | _ -> sz.xmark_records in
  let corpus =
    match wl with
    | Lookup -> Gen.dblp ~seed:o.seed records
    | _ -> Gen.xmark ~seed:o.seed records
  in
  let xml = Filename.concat work "records.xml" in
  Gen.write_records xml corpus.xmls;
  (* The oracle: computed in-process before set-up, outside setup_s. *)
  let index = Xseq.build corpus.docs in
  let queries =
    match wl with
    | Lookup ->
      Gen.lookup_queries ~seed:o.seed ~count:sz.lookup_distinct
        ~max_answers:(max 10 (records / 200)) index corpus.docs
    | _ -> Gen.twig_queries ~seed:o.seed ~count:sz.twigs index corpus.docs
  in
  if Array.length queries = 0 then failwith "no queries survived selection";
  step "%d records, %d distinct queries with oracle answers" records (Array.length queries);
  let xpaths = Array.map fst queries and expected = Array.map snd queries in
  let brute =
    brute_force_check ~seed:o.seed ~count:sz.brute_force xpaths (fun qi -> expected.(qi)) corpus.docs
  in
  step "brute-force oracle agrees on %d queries" brute;
  let paged = wl = Twig_paged in
  let snapshot = Filename.concat work (if paged then "records.idxz" else "records.idx") in
  let log = Filename.concat work "server.log" in
  let srv =
    start_server o ~log
      ~prepare:(fun () ->
        (try Sys.remove snapshot with Sys_error _ -> ());
        run_cli o ~log
          ([ "index"; xml ] @ (if paged then [ "--compress" ] else []) @ [ "-o"; snapshot ]))
      ~serve_args:([ snapshot ] @ if paged then [ "--paged"; "--pool-pages"; "64" ] else [])
  in
  step "set up %d times (median %.3f s); measuring" o.sz.setups (median srv.setup_runs);
  let next = Atomic.make 0 in
  let loads = [ new_load (); new_load () ] in
  let query_of k = pick ~seed:o.seed ~stream:0 k (Array.length xpaths) in
  let replay_ops = if o.trace then (if wl = Lookup then sz.replay_ops else sz.twig_replay_ops) else 0 in
  let xpath_of k = xpaths.(query_of k) in
  let check k =
    let qi = query_of k in
    fun ids ->
      if ids <> expected.(qi) then
        mismatch "server answered %s for %s, oracle %s" (show_ids ids) xpaths.(qi)
          (show_ids expected.(qi))
  in
  let ph =
    run_phase o ~pid:srv.pid
      ~on_round:(fun _ -> ())
      (fun stop ->
        List.map
          (fun l -> Thread.create (fun () -> reader srv.addr ~stop ~next ~xpath_of ~check l) ())
          loads)
  in
  Proc.terminate srv.pid;
  let oks = List.map (fun l -> l.ok) loads and bads = List.map (fun l -> l.bad) loads in
  let rv = round_values ph ~queries:oks ~other_ops:[] in
  let lat = phase_samples ph oks in
  let failed = phase_count ph bads in
  let attempted = Array.length lat + failed in
  let e2e =
    [
      ("setup_s", median srv.setup_runs);
      ("query_p50_ms", median rv.p50_ms);
      ("query_p99_ms", percentile lat 0.99 *. 1e3);
      ("query_rps", median rv.rps);
      ("cpu_us_per_op", median rv.cpu_us);
      ( "disk_bytes_per_input_byte",
        ratio (float_of_int (Proc.file_bytes snapshot)) (float_of_int (Proc.file_bytes xml)) );
      ("loaded_rss_mb", median srv.loaded_rss_mb);
      ("peak_rss_mb", float_of_int ph.rss_kib /. 1024.);
      ("success_rate", 1. -. ratio (float_of_int failed) (float_of_int attempted));
    ]
  in
  let layer, spans, accounting =
    if not o.trace then ([], [], None)
    else
      let means = wire_means ph oks ~queries:(Array.length xpaths) ~query_of in
      per_layer_metrics
        ~wire_mean:(fun req -> means (query_of req))
        (replay_static o ~ops:replay_ops ~snapshot ~paged ~xpaths ~expected)
  in
  {
    wl;
    attempted;
    failed;
    metrics = e2e @ layer;
    info =
      [
        ("records", string_of_int records);
        ("xml_bytes", string_of_int (Proc.file_bytes xml));
        ("snapshot_bytes", string_of_int (Proc.file_bytes snapshot));
        ("distinct_queries", string_of_int (Array.length xpaths));
        ("brute_force_checked", string_of_int brute);
        ("query_samples", string_of_int (Array.length lat));
        ("connections", "2");
        ("replay_ops", string_of_int replay_ops);
        ("setup_runs_s", json_array srv.setup_runs);
        ("setup_rss_mb", json_array srv.loaded_rss_mb);
      ]
      @ round_info rv;
    spans;
    accounting;
  }

(* --- ingest_mix ----------------------------------------------------------------- *)

(* Writer progress, read by the reader to bound what a query may see: the
   live set is always the id range [deleted, seed_n + inserted). *)
type progress = {
  ins_sent : int Atomic.t;
  ins_acked : int Atomic.t;
  del_sent : int Atomic.t;
  del_acked : int Atomic.t;
}

let count_in_range sorted lo hi =
  (* elements of the sorted array in [lo, hi) *)
  let lower_bound x =
    let rec go a b = if a >= b then a else
        let m = (a + b) / 2 in
        if sorted.(m) < x then go (m + 1) b else go a m
    in
    go 0 (Array.length sorted)
  in
  if hi <= lo then 0 else lower_bound hi - lower_bound lo

let mem_sorted sorted x =
  count_in_range sorted x (x + 1) = 1

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

type live_stats = { segments : int; pending : int; next_id : int }

(* The "live" block of the server's Stats JSON. *)
let live_stats json =
  let from = Option.value ~default:0 (find_sub json "\"live\"" 0) in
  let field key =
    let pat = Printf.sprintf "\"%s\": " key in
    Option.bind (find_sub json pat from) (fun i ->
        let j = i + String.length pat in
        Scanf.sscanf_opt (String.sub json j (String.length json - j)) "%d" Fun.id)
  in
  match (field "segments", field "pending", field "next_id") with
  | Some segments, Some pending, Some next_id -> Some { segments; pending; next_id }
  | _ -> None

let wal_index dir =
  Array.fold_left
    (fun acc name ->
      match Scanf.sscanf_opt name "wal-%06d.log%!" Fun.id with Some i -> max acc i | None -> acc)
    0 (Sys.readdir dir)

(* Flush + compact a live store (the Reload op) until no memtable or delta
   segment is left.  Reload does nothing while a background compaction
   holds the store, so it is retried. *)
let settle_live c =
  let deadline = now () +. 60. in
  let rec go () =
    ignore (C.reload c : int);
    match live_stats (C.stats c) with
    | Some { segments = 0; pending = 0; _ } -> ()
    | _ when now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | _ -> failwith "the live store never settled after flush + compact"
  in
  go ()

let ingest_workload o ~work =
  let sz = o.sz in
  let seed_n = sz.live_records in
  let rate = 2. *. sz.writer_pairs_per_s in
  let cap = int_of_float (ceil (sz.writer_pairs_per_s *. (warmup_s o +. o.seconds +. 5.))) + 16 in
  let pool = Gen.dblp ~seed:o.seed (seed_n + cap) in
  let seed_part = Gen.sub pool 0 seed_n in
  let seed_xml = Filename.concat work "seed.xml" in
  Gen.write_records seed_xml seed_part.xmls;
  (* Oracle over every record the run can make live: a read is right iff
     it equals the matches inside some live id range the writer's
     progress allows. *)
  let pool_index = Xseq.build pool.docs in
  let max_answers = max 10 (Array.length pool.docs / 200) in
  let lookups =
    Gen.lookup_queries ~seed:o.seed ~count:sz.ingest_lookups ~max_answers pool_index seed_part.docs
  in
  let twigs = Gen.twig_queries ~seed:o.seed ~count:sz.ingest_twigs pool_index seed_part.docs in
  let queries = Array.append lookups twigs in
  let xpaths = Array.map fst queries in
  let matches = Array.map (fun (_, ids) -> Array.of_list ids) queries in
  let brute =
    brute_force_check ~seed:o.seed ~count:sz.brute_force xpaths
      (fun qi -> Array.to_list matches.(qi))
      pool.docs
  in
  step "%d seed records, %d distinct queries; brute-force oracle agrees on %d" seed_n
    (Array.length xpaths) brute;
  let store = Filename.concat work "store" in
  let log = Filename.concat work "server.log" in
  (* A first server bulk-loads the store (no per-record fsync: the
     compaction makes it durable), compacts it and stops; the served store
     is then reopened from one base and no delta, whatever compactions the
     seeding left running, so every run starts alike. *)
  let srv =
    start_server o ~log
      ~prepare:(fun () ->
        Proc.rm_rf store;
        let pid, addr =
          spawn_server o ~log [ "--live"; store; "--sync-every"; "0"; seed_xml ]
        in
        C.with_connection ~policy:client_policy addr settle_live;
        Proc.terminate pid)
      ~serve_args:[ "--live"; store ]
  in
  step "set up %d times (median %.3f s); measuring" o.sz.setups (median srv.setup_runs);
  let pg =
    {
      ins_sent = Atomic.make 0;
      ins_acked = Atomic.make 0;
      del_sent = Atomic.make 0;
      del_acked = Atomic.make 0;
    }
  in
  let reads = new_load () in
  let inserts = new_load () and deletes = new_load () and lag = Samples.create () in
  let stats_wanted = Atomic.make (-1) in
  let stats_rows = Array.make (sz.rounds + 1) None in
  let wal_at = Array.make (sz.rounds + 1) 0 in
  let writer stop =
    match C.connect ~policy:client_policy srv.addr with
    | exception e -> note_failure inserts "connect" e
    | c ->
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          let start = now () in
          let i = ref 0 in
          while not (Atomic.get stop) do
            let r = Atomic.exchange stats_wanted (-1) in
            if r >= 0 then
              (match C.stats c with
               | json -> stats_rows.(r) <- live_stats json
               | exception e -> note_failure inserts "stats" e);
            let due = start +. (float_of_int !i /. rate) in
            sleep_until due;
            let sent = now () in
            Samples.push lag due (sent -. due);
            let k = !i / 2 in
            (if !i mod 2 = 0 then begin
               if seed_n + k < Array.length pool.xmls then begin
                 Atomic.set pg.ins_sent (k + 1);
                 match C.insert c pool.xmls.(seed_n + k) with
                 | id ->
                   let t1 = now () in
                   Samples.push inserts.ok t1 (t1 -. due);
                   if id <> seed_n + k then mismatch "insert of record %d got id %d" (seed_n + k) id;
                   Atomic.set pg.ins_acked (k + 1)
                 | exception ((C.Server_error _ | C.Timeout _ | C.Protocol_error _ | Unix.Unix_error _) as e) ->
                   note_failure inserts "insert" e
               end
             end
             else begin
               Atomic.set pg.del_sent (k + 1);
               match C.delete c k with
               | existed ->
                 let t1 = now () in
                 Samples.push deletes.ok t1 (t1 -. due);
                 if not existed then mismatch "delete of live id %d found nothing" k;
                 Atomic.set pg.del_acked (k + 1)
               | exception ((C.Server_error _ | C.Timeout _ | C.Protocol_error _ | Unix.Unix_error _) as e) ->
                 note_failure deletes "delete" e
             end);
            incr i
          done)
  in
  let next = Atomic.make 0 in
  let query_of k = pick ~seed:o.seed ~stream:1 k (Array.length xpaths) in
  let xpath_of k = xpaths.(query_of k) in
  let check k =
    let qi = query_of k in
    let may_lo = Atomic.get pg.del_acked and must_hi = seed_n + Atomic.get pg.ins_acked in
    fun ids ->
      let must_lo = Atomic.get pg.del_sent and may_hi = seed_n + Atomic.get pg.ins_sent in
      let m = matches.(qi) in
      let ok =
        strictly_increasing ids
        && List.for_all (fun id -> id >= may_lo && id < may_hi && mem_sorted m id) ids
        && List.length (List.filter (fun id -> id >= must_lo && id < must_hi) ids)
           = count_in_range m must_lo must_hi
      in
      if not ok then
        mismatch "server answered %s for %s; live range was within [%d..%d, %d..%d)" (show_ids ids)
          xpaths.(qi) may_lo must_lo must_hi may_hi
  in
  let ph =
    run_phase o ~pid:srv.pid
      ~on_round:(fun r ->
        wal_at.(r) <- wal_index store;
        if r < sz.rounds then Atomic.set stats_wanted r)
      (fun stop ->
        [
          Thread.create writer stop;
          Thread.create (fun () -> reader srv.addr ~stop ~next ~xpath_of ~check reads) ();
        ])
  in
  step "phase done; final checks";
  (* Final check: after a flush, every query must equal a fresh build over
     exactly the live records. *)
  let lo = Atomic.get pg.del_acked and hi = seed_n + Atomic.get pg.ins_acked in
  let live = Gen.sub pool lo (hi - lo) in
  let disk_bytes =
    C.with_connection ~policy:client_policy srv.addr (fun c ->
        stats_rows.(sz.rounds) <- live_stats (C.stats c);
        ignore (C.flush c : int);
        let fresh = Xseq.build live.docs in
        Array.iter
          (fun x ->
            let want = List.map (fun id -> id + lo) (Xseq.query_xpath fresh x) in
            let got = C.query c x in
            if got <> want then
              mismatch "after flush %s answered %s, a fresh build over the live records %s" x
                (show_ids got) (show_ids want))
          xpaths;
        settle_live c;
        Proc.dir_bytes store)
  in
  Proc.terminate srv.pid;
  let rv = round_values ph ~queries:[ reads.ok ] ~other_ops:[ inserts.ok; deletes.ok ] in
  let _, insert_p50s = per_round ph [ inserts.ok ] in
  let lat = phase_samples ph [ reads.ok ] in
  let ins_lat = phase_samples ph [ inserts.ok ] in
  let failed = phase_count ph [ reads.bad; inserts.bad; deletes.bad ] in
  let attempted = Array.length lat + phase_count ph [ inserts.ok; deletes.ok ] + failed in
  let lags = Samples.filter lag (in_phase ph) in
  (* Every seal turns over a full memtable (256 records, the serve
     default): a compaction cut follows a seal, so its own seal is empty. *)
  let seals =
    match (stats_rows.(0), stats_rows.(ph.rounds)) with
    | Some a, Some b -> float_of_int (b.next_id - a.next_id - (b.pending - a.pending)) /. 256.
    | _ -> 0.
  in
  let segments =
    List.filter_map (Option.map (fun s -> s.segments)) (Array.to_list (Array.sub stats_rows 1 ph.rounds))
  in
  let e2e =
    [
      ("setup_s", median srv.setup_runs);
      ("query_p50_ms", median rv.p50_ms);
      ("query_p99_ms", percentile lat 0.99 *. 1e3);
      ("query_rps", median rv.rps);
      ("cpu_us_per_op", median rv.cpu_us);
      ( "disk_bytes_per_input_byte",
        ratio (float_of_int disk_bytes) (float_of_int (Gen.xml_bytes live.xmls)) );
      ("loaded_rss_mb", median srv.loaded_rss_mb);
      ("peak_rss_mb", float_of_int ph.rss_kib /. 1024.);
      ("insert_p50_ms", median insert_p50s *. 1e3);
      ("insert_p99_ms", percentile ins_lat 0.99 *. 1e3);
      ("success_rate", 1. -. ratio (float_of_int failed) (float_of_int attempted));
      ("xlog.seals", seals);
      ("xlog.compactions", float_of_int (wal_at.(ph.rounds) - wal_at.(0)));
      ( "xlog.segments_mean",
        per (float_of_int (List.fold_left ( + ) 0 segments)) (List.length segments) );
    ]
  in
  let layer, spans, accounting =
    if not o.trace then ([], [], None)
    else begin
      (* One seeded base store, copied for each replay so both start from
         identical state. *)
      let base = Filename.concat work "replay-base" in
      let seed_log = Xlog.open_ ~sync_every:0 base in
      Array.iter (fun d -> ignore (Xlog.insert seed_log d : int)) seed_part.docs;
      ignore (Xlog.compact ~wait:true seed_log : bool);
      Xlog.close seed_log;
      let means = wire_means ph [ reads.ok ] ~queries:(Array.length xpaths) ~query_of in
      (* Replayed operation [req] is reader op [req / 2] when [req] is odd. *)
      per_layer_metrics
        ~wire_mean:(fun req -> means (query_of (req / 2)))
        (replay_ingest o ~base ~dir:(Filename.concat work "replay") ~seed_n ~pool ~xpaths ~query_of ~matches)
    end
  in
  {
    wl = Ingest_mix;
    attempted;
    failed;
    metrics = e2e @ layer;
    info =
      [
        ("records", string_of_int seed_n);
        ("xml_bytes", string_of_int (Gen.xml_bytes seed_part.xmls));
        ("live_records_at_end", string_of_int (hi - lo));
        ("distinct_queries", string_of_int (Array.length xpaths));
        ("brute_force_checked", string_of_int brute);
        ("query_samples", string_of_int (Array.length lat));
        ("insert_samples", string_of_int (Array.length ins_lat));
        ("connections", "2");
        ("replay_ops", string_of_int (if o.trace then sz.replay_ops else 0));
        ("writer_rate_ops_per_s", json_float rate);
        ("writer_lag_mean_ms", json_float (per (Array.fold_left ( +. ) 0. lags *. 1e3) (Array.length lags)));
        ("writer_lag_p99_ms", json_float (percentile lags 0.99 *. 1e3));
        ("writer_lag_max_ms", json_float (Array.fold_left Float.max 0. lags *. 1e3));
        ("setup_runs_s", json_array srv.setup_runs);
        ("setup_rss_mb", json_array srv.loaded_rss_mb);
      ]
      @ round_info rv;
    spans;
    accounting;
  }

(* --- output ------------------------------------------------------------------- *)

let utc_stamp t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> Option.value ~default:"" (List.assoc_opt name per_layer)

let print_outcome (r : outcome) =
  let wl = workload_name r.wl in
  Printf.printf "%s: %d attempted, %d failed\n" wl r.attempted r.failed;
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name r.metrics with
      | Some v -> Printf.printf "  %-30s %16.4f %s\n" name v (unit_of name)
      | None -> ())
    (end_to_end @ per_layer);
  (match r.accounting with
   | Some (replay, wire) ->
     Printf.printf "  replayed query %.1f us + wire.residual_us %.1f us = untraced wire mean %.1f us\n"
       (replay *. 1e6) ((wire -. replay) *. 1e6) (wire *. 1e6)
   | None -> ());
  if r.spans <> [] then begin
    let layers = Span.layers r.spans in
    let ops = List.length (List.filter (fun (s : Span.span) -> s.parent = -1) r.spans) in
    let total = List.fold_left (fun acc (l : Span.layer) -> acc +. l.self_s) 0. layers in
    Printf.printf "  self time per layer over %d replayed ops (traced):\n" ops;
    Printf.printf "    %-24s %8s %14s %8s\n" "layer" "calls" "self us/op" "share";
    List.iter
      (fun (l : Span.layer) ->
        Printf.printf "    %-24s %8d %14.3f %7.1f%%\n" l.layer l.calls
          (per (l.self_s *. 1e6) ops)
          (100. *. ratio l.self_s total))
      layers
  end

let metrics_json names (r : outcome) ~prefix =
  List.map
    (fun (name, u) ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" (prefix ^ name)
        (json_float (Option.value ~default:0. (List.assoc_opt name r.metrics)))
        u)
    names

let write_result o ~provenance ~started (r : outcome) =
  let wl = workload_name r.wl in
  let base =
    Filename.concat results_dir
      (Printf.sprintf "%s-%s-s%d%s" (utc_stamp started) wl o.seed (if o.trace then "-trace" else ""))
  in
  Proc.mkdir_p results_dir;
  let trace_file =
    if r.spans = [] then None
    else begin
      Span.write_chrome (base ^ ".trace.json") r.spans;
      Some (base ^ ".trace.json")
    end
  in
  let layers = Span.layers r.spans in
  let ops = List.length (List.filter (fun (s : Span.span) -> s.parent = -1) r.spans) in
  let fields =
    [
      ("schema", json_string "xbench-result/1");
      ("workload", json_string wl);
      ("started_utc", json_string (utc_stamp started));
      ("started_unix", json_float started);
      ("trace", string_of_bool o.trace);
      ("correct", "true");
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("provenance", "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) provenance) ^ "}");
      ("inputs", "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) r.info) ^ "}");
      ( "metrics",
        "{"
        ^ String.concat ", "
            (metrics_json
               (List.filter (fun (n, _) -> List.mem_assoc n r.metrics) (end_to_end @ per_layer))
               r ~prefix:"")
        ^ "}" );
      ( "self_time",
        "["
        ^ String.concat ", "
            (List.map
               (fun (l : Span.layer) ->
                 Printf.sprintf "{\"layer\": %S, \"calls\": %d, \"self_us_per_op\": %s}" l.layer
                   l.calls
                   (json_float (per (l.self_s *. 1e6) ops)))
               layers)
        ^ "]" );
      ("trace_file", match trace_file with Some f -> json_string f | None -> "null");
    ]
    @
    match r.accounting with
    | Some (replay, wire) ->
      [ ("replay_query_mean_us", json_float (replay *. 1e6)); ("wire_query_mean_us", json_float (wire *. 1e6)) ]
    | None -> []
  in
  Out_channel.with_open_bin (base ^ ".json") (fun oc ->
      output_string oc
        ("{\n" ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields) ^ "\n}\n"));
  Printf.printf "wrote %s.json%s\n" base
    (match trace_file with Some f -> " and " ^ f | None -> "")

let provenance o ~work =
  let nproc =
    match Option.bind (Proc.output_of "nproc" []) int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  [
    ("commit", json_string (Option.value ~default:"unknown" (Proc.output_of "git" [ "rev-parse"; "HEAD" ])));
    ("nproc", string_of_int nproc);
    ("ocaml", json_string Sys.ocaml_version);
    ("store_fs_type", json_string (Option.value ~default:"unknown" (Proc.output_of "stat" [ "-f"; "-c"; "%T"; work ])));
    ("seed", string_of_int o.seed);
    ("seconds", json_float o.seconds);
    ("rounds", string_of_int o.sz.rounds);
    ("warmup_s", json_float (warmup_s o));
    ("setups", string_of_int o.sz.setups);
    ("server", json_string "xseq serve (2 workers, plan cache 256), TCP loopback");
  ]

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  if not (Sys.file_exists o.xseq) then
    failwith (Printf.sprintf "xseq binary %s not found (dune build bin/xseq_cli.exe)" o.xseq);
  let work_root = Filename.concat "bench/e2e/work" (string_of_int (Unix.getpid ())) in
  (* Servers are stopped before their directories go. *)
  at_exit (fun () ->
      List.iter Proc.terminate !Proc.live;
      Proc.rm_rf work_root;
      try Unix.rmdir (Filename.dirname work_root) with Unix.Unix_error _ -> ());
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Proc.mkdir_p work_root;
  let provenance = provenance o ~work:work_root in
  let started = now () in
  let outcomes =
    List.map
      (fun wl ->
        let work = Filename.concat work_root (workload_name wl) in
        Proc.mkdir_p work;
        Printf.printf "== %s (seed %d, %.0f s measured) ==\n%!" (workload_name wl) o.seed o.seconds;
        let r =
          match wl with Ingest_mix -> ingest_workload o ~work | _ -> static_workload o ~work wl
        in
        print_outcome r;
        r)
      o.only
  in
  let correct = Atomic.get mismatches = 0 in
  (match Atomic.get first_mismatch with
   | Some msg ->
     Printf.printf "WRONG ANSWERS: %d mismatches; first: %s\n" (Atomic.get mismatches) msg
   | None -> ());
  if correct && not o.smoke_run then List.iter (write_result o ~provenance ~started) outcomes;
  let names = if o.trace then per_layer else end_to_end in
  let prefix r = if List.length outcomes > 1 then workload_name r.wl ^ "." else "" in
  let metrics = List.concat_map (fun r -> metrics_json names r ~prefix:(prefix r)) outcomes in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 outcomes in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (max 1 (sum (fun r -> r.attempted)))
    (sum (fun r -> r.failed))
    (String.concat ", " metrics);
  exit (if correct then 0 else 1)

let () =
  try main ()
  with Failure msg | Sys_error msg | Invalid_argument msg ->
    Printf.eprintf "xbench: %s\n%!" msg;
    exit 2
