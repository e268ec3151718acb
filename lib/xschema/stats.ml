module D = Xmlcore.Designator
module Path = Sequencing.Path
module Encoder = Sequencing.Encoder

module PMap = Map.Make (Path)

type t = {
  mutable docs : int;
  freq : (Path.t, int) Hashtbl.t; (* #docs containing the path *)
  weights : (Path.t, float) Hashtbl.t;
  memo : float PMap.t Atomic.t; (* fallback p_root cache *)
      (* [freq] and [weights] are frozen once sequencing starts, but the
         fallback cache is written lazily from whatever domain happens to
         price an unseen path first — during parallel encoding or batched
         query compilation.  It used to be a mutex'd hashtable, which put
         a lock acquisition on every fallback lookup of every query in a
         batch; it is now an immutable map published by CAS, so the
         per-query hot path reads it with a single atomic load and only
         a genuinely new path pays a (retried) publication. *)
}

let create () =
  {
    docs = 0;
    freq = Hashtbl.create 1024;
    weights = Hashtbl.create 16;
    memo = Atomic.make PMap.empty;
  }

let add_document ?value_mode t doc =
  t.docs <- t.docs + 1;
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.replace seen p ();
        let n = try Hashtbl.find t.freq p with Not_found -> 0 in
        Hashtbl.replace t.freq p (n + 1)
      end)
    (Encoder.paths_of_tree ?value_mode doc)

let of_documents ?value_mode docs =
  let t = create () in
  List.iter (add_document ?value_mode t) docs;
  t

let of_documents_array ?value_mode docs =
  let t = create () in
  Array.iter (add_document ?value_mode t) docs;
  t

let sample_members ~fraction ~seed n =
  let rng = Random.State.make [| seed |] in
  let m = Array.init n (fun _ -> Random.State.float rng 1.0 < fraction) in
  if n > 0 && not (Array.mem true m) then m.(0) <- true;
  m

let sample ?value_mode ~fraction ~seed docs =
  let t = create () in
  let m = sample_members ~fraction ~seed (Array.length docs) in
  Array.iteri (fun i d -> if m.(i) then add_document ?value_mode t d) docs;
  t

let of_path_counts ~docs counts =
  let t = create () in
  t.docs <- docs;
  Array.iter (fun (p, n) -> if n > 0 then Hashtbl.replace t.freq p n) counts;
  t

let doc_count t = t.docs

let rec p_root t path =
  if Path.equal path Path.epsilon then 1.0
  else
    match Hashtbl.find_opt t.freq path with
    | Some n -> float_of_int n /. float_of_int (max 1 t.docs)
    | None ->
      (* Lock-free cache probe; the recursive estimate itself runs
         unsynchronised (a racing domain at worst recomputes the same
         deterministic value), and publication retries by CAS so a
         concurrent writer's entries are never lost. *)
      (match PMap.find_opt path (Atomic.get t.memo) with
       | Some p -> p
       | None ->
         let p = p_root t (Path.parent path) *. 0.1 in
         let rec publish () =
           let cur = Atomic.get t.memo in
           if PMap.mem path cur then ()
           else if not (Atomic.compare_and_set t.memo cur (PMap.add path p cur))
           then publish ()
         in
         publish ();
         p)

let p_parent t path =
  if Path.equal path Path.epsilon then 1.0
  else begin
    let pp = p_root t (Path.parent path) in
    if pp <= 0. then 0. else p_root t path /. pp
  end

let set_weight t path w = Hashtbl.replace t.weights path w

let set_tag_weight t d w =
  Hashtbl.iter
    (fun path _ ->
      if (not (Path.equal path Path.epsilon)) && D.equal (Path.tag path) d then
        Hashtbl.replace t.weights path w)
    t.freq

let weight t path = try Hashtbl.find t.weights path with Not_found -> 1.0
let priority t path = p_root t path *. weight t path
let strategy t = Sequencing.Strategy.Probability (priority t)
let distinct_paths t = Hashtbl.length t.freq
