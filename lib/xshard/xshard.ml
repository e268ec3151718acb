module Pattern = Xquery.Pattern
module Matcher = Xquery.Matcher
module Domain_pool = Xutil.Domain_pool
module F = Xfault

exception Shard_down of int * string

(* ---------- Id encoding ----------------------------------------------- *)

(* Local ids live in the low 52 bits, the shard tag above them.  OCaml's
   native int leaves 62 usable bits, so the tag has 10 of them — 1024
   shards, far beyond what one process wants.  Shard-major encoding is
   what makes scatter-gather merge-free: per-shard answers are sorted in
   local id order, and prefixing the shard tag preserves that order
   while making shard 0's ids all smaller than shard 1's. *)

let local_bits = 52
let shard_bits = 10
let max_shards = 1 lsl shard_bits
let local_mask = (1 lsl local_bits) - 1
let encode_id ~shard ~local = (shard lsl local_bits) lor local
let shard_of_id id = id lsr local_bits
let local_of_id id = id land local_mask

(* ---------- Routing ---------------------------------------------------- *)

(* A murmur-style finalizer over the insert sequence number: stateless,
   deterministic, and avalanching enough that consecutive sequence
   numbers spread evenly over any shard count.  Native-int wraparound is
   fine for a hash. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0xff51afd7ed558cc in
  let x = x lxor (x lsr 29) in
  let x = x * 0xc4ceb9fe1a85ec5 in
  (x lxor (x lsr 32)) land max_int

(* ---------- Store ------------------------------------------------------ *)

type opts = {
  sync_every : int option;
  memtable_limit : int option;
  max_segments : int option;
  config : Xseq.config option;
  probe_interval : float option;
}

type shard_state = {
  index : int;
  mutable log : Xlog.t;
  mutable down : string option;
  mutable gen_cache : int;
      (* last generation observed while live, reported while down *)
}

type t = {
  k : int;
  dir : string;
  shards : shard_state array;
  seq : int Atomic.t; (* routing sequence: one per insert attempt *)
  pool : Domain_pool.t option;
  owned_pool : Domain_pool.t option; (* shut down by [close]/[abandon] *)
  opts : opts;
  recovery : (int * Xlog.recovery) list;
  m : Mutex.t; (* shard up/down transitions only — never held during I/O *)
}

let meta_name = "xshard.meta"
let meta_path dir = Filename.concat dir meta_name
let shard_dir dir i = Filename.concat dir (Printf.sprintf "shard-%03d" i)
let is_sharded_dir dir = Sys.file_exists (meta_path dir)

(* The meta file records the shard count, fixed at creation: routing and
   id decoding both depend on it, so it is written once, durably
   (tmp + fsync + rename), and re-read on every open. *)
let write_meta dir k =
  let tmp = meta_path dir ^ ".tmp" in
  let payload = Printf.sprintf "xshard 1 %d\n" k in
  let fd = F.Io.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      F.Io.write_all fd payload 0 (String.length payload);
      F.Io.fsync fd);
  F.Io.rename tmp (meta_path dir)

let read_meta dir =
  let fd = F.Io.openfile (meta_path dir) [ O_RDONLY ] 0o644 in
  let buf = Bytes.create 64 in
  let n =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> F.Io.read fd buf 0 (Bytes.length buf))
  in
  let line = String.trim (Bytes.sub_string buf 0 n) in
  match String.split_on_char ' ' line with
  | [ "xshard"; "1"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 && k <= max_shards -> k
    | _ ->
      invalid_arg
        (Printf.sprintf "Xshard.open_: corrupt shard count in %s: %S"
           (meta_path dir) line))
  | _ ->
    invalid_arg
      (Printf.sprintf "Xshard.open_: unrecognised meta file %s: %S"
         (meta_path dir) line)

let open_ ?shards ?sync_every ?memtable_limit ?max_segments ?domains ?pool
    ?config ?probe_interval dir =
  let opts = { sync_every; memtable_limit; max_segments; config; probe_interval } in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let k =
    if is_sharded_dir dir then begin
      let recorded = read_meta dir in
      (match shards with
      | Some s when s <> recorded ->
        invalid_arg
          (Printf.sprintf
             "Xshard.open_: directory has %d shards, %d requested" recorded s)
      | _ -> ());
      recorded
    end
    else begin
      let k = Option.value shards ~default:1 in
      if k < 1 || k > max_shards then
        invalid_arg
          (Printf.sprintf "Xshard.open_: shards must be in [1, %d]" max_shards);
      write_meta dir k;
      k
    end
  in
  (* One pool shared by every shard: per-shard builds and compactions
     are independent, so a common pool keeps the domain count bounded
     by the machine, not by the shard count. *)
  let owned_pool =
    match (pool, domains) with
    | None, Some d when d > 1 -> Some (Domain_pool.create ~domains:d ())
    | _ -> None
  in
  let pool = match pool with Some _ -> pool | None -> owned_pool in
  let open_shard i =
    Xlog.open_ ?sync_every ?memtable_limit ?max_segments ?pool ?config
      ?probe_interval (shard_dir dir i)
  in
  let shards_arr =
    Array.init k (fun i ->
        let log = open_shard i in
        { index = i; log; down = None; gen_cache = Xlog.generation log })
  in
  let recovery =
    Array.to_list
      (Array.map (fun sh -> (sh.index, Xlog.recovery sh.log)) shards_arr)
  in
  (* The routing sequence is seeded from the total successful inserts
     (= sum of per-shard next ids).  After an in-flight degraded attempt
     the in-memory counter can run ahead of this sum; re-seeding on open
     merely shifts which shard future documents land on, never which
     shard an existing id decodes to. *)
  let seq =
    Array.fold_left (fun acc sh -> acc + Xlog.next_id sh.log) 0 shards_arr
  in
  {
    k;
    dir;
    shards = shards_arr;
    seq = Atomic.make seq;
    pool;
    owned_pool;
    opts;
    recovery;
    m = Mutex.create ();
  }

let shard_count t = t.k
let dir t = t.dir
let recovery t = t.recovery
let next_seq t = Atomic.get t.seq
let route_of_seq t seq = if t.k = 1 then 0 else mix seq mod t.k
let next_route t = route_of_seq t (Atomic.get t.seq)

let mark_down t i reason =
  Mutex.protect t.m (fun () ->
      let sh = t.shards.(i) in
      if sh.down = None then begin
        sh.down <- Some reason;
        (* The handle is a corpse (fail-stop semantics): release its
           fds without any disk I/O, exactly [Xlog.abandon]'s job. *)
        (try Xlog.abandon sh.log with _ -> ())
      end)

(* Run [f] against a live shard, converting a fail-stop into the
   engine-level down state: after [Xfault.Crashed] the shard's handle
   can no longer be trusted with I/O, so it is abandoned and every
   later operation routed to it raises [Shard_down] until
   [recover_shard] re-opens it from disk. *)
let with_shard t i f =
  let sh = t.shards.(i) in
  match sh.down with
  | Some reason -> raise (Shard_down (i, reason))
  | None -> (
    try f sh.log
    with F.Crashed ->
      mark_down t i "fail-stop (crashed)";
      raise F.Crashed)

let insert t doc =
  let seq = Atomic.fetch_and_add t.seq 1 in
  let s = route_of_seq t seq in
  let local = with_shard t s (fun log -> Xlog.insert log doc) in
  encode_id ~shard:s ~local

(* Sequential fallback and pool path share one shape: thunks that never
   raise (they park their exception), so a failing shard never prevents
   the other shards' share of the batch from completing. *)
let run_all ?pool thunks =
  match pool with
  | Some p when Domain_pool.size p > 1 -> ignore (Domain_pool.run p thunks)
  | _ -> Array.iter (fun f -> f ()) thunks

(* Routes [n] documents exactly as [n] consecutive inserts would, then
   runs [f shard log positions] on every shard with a share (positions
   ascending), in parallel; the first failure re-raises once every
   other shard finished. *)
let scatter ?pool t n f =
  let pool = match pool with Some _ -> pool | None -> t.pool in
  let base = Atomic.fetch_and_add t.seq n in
  let groups = Array.make t.k [] in
  for i = n - 1 downto 0 do
    let s = route_of_seq t (base + i) in
    groups.(s) <- i :: groups.(s)
  done;
  let errors = Array.make t.k None in
  let thunks =
    Array.of_list
      (List.filter_map
         (fun sh ->
           let positions = groups.(sh.index) in
           if positions = [] then None
           else
             Some
               (fun () ->
                 try with_shard t sh.index (fun log -> f sh.index log positions)
                 with e -> errors.(sh.index) <- Some e))
         (Array.to_list t.shards))
  in
  run_all ?pool thunks;
  match Array.find_map Fun.id errors with Some e -> raise e | None -> ()

let insert_batch ?pool t docs =
  let n = Array.length docs in
  let ids = Array.make n (-1) in
  if n > 0 then
    scatter ?pool t n (fun shard log positions ->
        List.iter
          (fun pos ->
            ids.(pos) <- encode_id ~shard ~local:(Xlog.insert log docs.(pos)))
          positions);
  ids

let seed ?pool t docs =
  if Array.exists (fun sh -> Xlog.next_id sh.log <> 0) t.shards then
    invalid_arg "Xshard.seed: the store is not empty";
  let n = Array.length docs in
  let ids = Array.make n (-1) in
  if n > 0 then
    scatter ?pool t n (fun shard log positions ->
        let positions = Array.of_list positions in
        let locals =
          Xlog.seed log (Array.map (fun pos -> docs.(pos)) positions)
        in
        Array.iteri
          (fun j pos -> ids.(pos) <- encode_id ~shard ~local:locals.(j))
          positions);
  ids

let remove t id =
  let s = shard_of_id id in
  if s < 0 || s >= t.k then false
  else with_shard t s (fun log -> Xlog.remove log (local_of_id id))

let iter_live t f =
  Array.iter (fun sh -> if sh.down = None then f sh) t.shards

let flush t = iter_live t (fun sh -> with_shard t sh.index Xlog.flush)
let sync t = iter_live t (fun sh -> with_shard t sh.index Xlog.sync)

let compact ?wait t =
  let all = ref true in
  iter_live t (fun sh ->
      if not (with_shard t sh.index (fun log -> Xlog.compact ?wait log)) then
        all := false);
  !all

(* ---------- Queries ---------------------------------------------------- *)

type 'a partial = {
  value : 'a;
  complete : bool;
  failed_shards : (int * string) list;
}

let encode_all shard locals =
  List.map (fun local -> encode_id ~shard ~local) locals

(* Scatter-gather core, the one walk over shards for queries: run [f]
   against every shard, skipping (and reporting) the down ones; a
   [Crashed] raised mid-query also lands in [failed_shards] rather than
   aborting the surviving shards' answers.  With a [pool], one task per
   shard. *)
let gather ?pool t f =
  let per_shard = Array.make t.k None and failed = Array.make t.k None in
  run_all ?pool
    (Array.map
       (fun sh () ->
         match sh.down with
         | Some reason -> failed.(sh.index) <- Some reason
         | None -> (
           try per_shard.(sh.index) <- Some (f sh)
           with F.Crashed ->
             mark_down t sh.index "fail-stop (crashed)";
             failed.(sh.index) <- Some "fail-stop (crashed)"))
       t.shards);
  let failed =
    List.filter_map
      (fun sh -> Option.map (fun r -> (sh.index, r)) failed.(sh.index))
      (Array.to_list t.shards)
  in
  (per_shard, { value = (); complete = failed = []; failed_shards = failed })

(* Answers concatenate in shard order, which is global id order. *)
let concat per_shard answer =
  List.concat_map
    (function Some a -> answer a | None -> [])
    (Array.to_list per_shard)

let query_detail ?stats t pat =
  let per_shard, p =
    gather t (fun sh -> encode_all sh.index (Xlog.query ?stats sh.log pat))
  in
  { p with value = concat per_shard Fun.id }

let query ?stats t pat = (query_detail ?stats t pat).value

let query_xpath ?stats t expr =
  query ?stats t (Xquery.Xpath_parser.parse expr)

let query_batch_detail ?pool ?stats t pats =
  let pool = match pool with Some _ -> pool | None -> t.pool in
  (* One task per shard, not per pattern: a task answers the whole batch
     against its shard with a private stats record, merged once at the
     end — the per-worker-then-merge discipline of [Matcher], with no
     lock anywhere on the per-query path. *)
  let own = Array.init t.k (fun _ -> Matcher.create_stats ()) in
  let per_shard, p =
    gather ?pool t (fun sh ->
        Array.map
          (fun pat ->
            encode_all sh.index
              (Xlog.query ~stats:own.(sh.index) sh.log pat))
          pats)
  in
  Option.iter
    (fun into -> Array.iter (fun s -> Matcher.merge_stats ~into s) own)
    stats;
  {
    p with
    value =
      Array.init (Array.length pats) (fun q ->
          concat per_shard (fun a -> a.(q)));
  }

let query_batch ?pool ?stats t pats =
  (query_batch_detail ?pool ?stats t pats).value

(* ---------- Prepared queries ------------------------------------------- *)

let shard_gen sh =
  match sh.down with
  | Some _ -> sh.gen_cache
  | None ->
    let g = Xlog.generation sh.log in
    sh.gen_cache <- g;
    g

let generation t = Array.fold_left (fun acc sh -> acc + shard_gen sh) 0 t.shards

type prepared = { plans : Xlog.prepared option array; gen : int }

let prepare t pat =
  let plans, _ = gather t (fun sh -> Xlog.prepare sh.log pat) in
  { plans; gen = generation t }

let run_prepared ?stats t prep =
  if prep.gen <> generation t then
    invalid_arg
      "Xshard.run_prepared: store structure changed since prepare \
       (re-prepare the pattern)";
  let per_shard, _ =
    gather t (fun sh ->
        match prep.plans.(sh.index) with
        | None -> []
        | Some plan ->
          encode_all sh.index (Xlog.run_prepared ?stats sh.log plan))
  in
  concat per_shard Fun.id

(* ---------- Degradation and recovery ----------------------------------- *)

let down_shards t =
  Array.to_list t.shards
  |> List.filter_map (fun sh ->
         Option.map (fun r -> (sh.index, r)) sh.down)

let degraded_shards t =
  Array.to_list t.shards
  |> List.filter_map (fun sh ->
         match sh.down with
         | Some r -> Some (sh.index, "down: " ^ r)
         | None ->
           Option.map
             (fun r -> (sh.index, r))
             (Xlog.degraded_reason sh.log))

let recover_shard t i =
  if i < 0 || i >= t.k then invalid_arg "Xshard.recover_shard: no such shard";
  let sh = t.shards.(i) in
  match sh.down with
  | None -> Xlog.try_recover sh.log
  | Some _ -> (
    (* Re-open from disk: checkpoint load + WAL replay, exactly the
       crash-recovery path — acknowledged synced writes survive. *)
    try
      let log =
        Xlog.open_ ?sync_every:t.opts.sync_every
          ?memtable_limit:t.opts.memtable_limit
          ?max_segments:t.opts.max_segments ?pool:t.pool ?config:t.opts.config
          ?probe_interval:t.opts.probe_interval (shard_dir t.dir i)
      in
      Mutex.protect t.m (fun () ->
          sh.log <- log;
          sh.down <- None;
          sh.gen_cache <- Xlog.generation log);
      true
    with _ -> false)

let try_recover t =
  let ok = ref true in
  Array.iter
    (fun sh -> if not (recover_shard t sh.index) then ok := false)
    t.shards;
  !ok

(* ---------- Introspection / lifecycle ----------------------------------- *)

type shard_info = {
  shard : int;
  docs : int;
  pending : int;
  segments : int;
  tombstones : int;
  next_local_id : int;
  wal_offset : int;
  degraded : string option;
  down : string option;
}

let shard_infos t =
  Array.map
    (fun sh ->
      (* Down shards still answer the in-memory counters (the abandoned
         handle keeps its view); guard anyway so introspection never
         raises. *)
      let read f d = try f sh.log with _ -> d in
      {
        shard = sh.index;
        docs = read Xlog.doc_count 0;
        pending = read Xlog.pending 0;
        segments = read Xlog.segments 0;
        tombstones = read Xlog.tombstones 0;
        next_local_id = read Xlog.next_id 0;
        wal_offset = read Xlog.wal_offset 0;
        degraded = (match sh.down with Some _ -> None | None -> Xlog.degraded_reason sh.log);
        down = sh.down;
      })
    t.shards

let doc_count t =
  Array.fold_left
    (fun acc sh -> acc + (try Xlog.doc_count sh.log with _ -> 0))
    0 t.shards

let close t =
  iter_live t (fun sh -> Xlog.close sh.log);
  match t.owned_pool with Some p -> Domain_pool.shutdown p | None -> ()

let abandon t =
  Array.iter (fun sh -> try Xlog.abandon sh.log with _ -> ()) t.shards;
  match t.owned_pool with Some p -> Domain_pool.shutdown p | None -> ()
