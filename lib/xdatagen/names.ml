let first_names =
  [|
    "James"; "Mary"; "John"; "Patricia"; "Robert"; "Jennifer"; "Michael";
    "Linda"; "William"; "Elizabeth"; "David"; "Barbara"; "Richard"; "Susan";
    "Joseph"; "Jessica"; "Thomas"; "Sarah"; "Charles"; "Karen"; "Christopher";
    "Nancy"; "Daniel"; "Lisa"; "Matthew"; "Margaret"; "Anthony"; "Betty";
    "Mark"; "Sandra"; "Donald"; "Ashley"; "Steven"; "Dorothy"; "Paul";
    "Kimberly"; "Andrew"; "Emily"; "Joshua"; "Donna"; "Kenneth"; "Michelle";
    "Kevin"; "Carol"; "Brian"; "Amanda"; "George"; "Melissa"; "Haixun";
    "Xiaofeng"; "Wei"; "Ling"; "Jun"; "Yan"; "Hong"; "Mei";
  |]

let last_names =
  [|
    "Smith"; "Johnson"; "Williams"; "Brown"; "Jones"; "Garcia"; "Miller";
    "Davis"; "Rodriguez"; "Martinez"; "Hernandez"; "Lopez"; "Gonzalez";
    "Wilson"; "Anderson"; "Thomas"; "Taylor"; "Moore"; "Jackson"; "Martin";
    "Lee"; "Perez"; "Thompson"; "White"; "Harris"; "Sanchez"; "Clark";
    "Ramirez"; "Lewis"; "Robinson"; "Walker"; "Young"; "Allen"; "King";
    "Wright"; "Scott"; "Torres"; "Nguyen"; "Hill"; "Flores"; "Green";
    "Adams"; "Nelson"; "Baker"; "Hall"; "Rivera"; "Campbell"; "Mitchell";
    "Wang"; "Meng"; "Chen"; "Zhang"; "Liu"; "Yang"; "Maier"; "David";
  |]

let words =
  [|
    "adaptive"; "index"; "query"; "structure"; "tree"; "sequence"; "pattern";
    "matching"; "database"; "system"; "efficient"; "dynamic"; "semistructured";
    "data"; "path"; "expression"; "join"; "optimization"; "storage"; "schema";
    "distribution"; "performance"; "holistic"; "twig"; "label"; "encoding";
    "search"; "wildcard"; "document"; "record"; "attribute"; "value"; "node";
    "ancestor"; "descendant"; "prefix"; "suffix"; "probability"; "strategy";
    "constraint"; "equivalence"; "traversal"; "depth"; "breadth"; "random";
    "analysis"; "evaluation"; "scalable"; "processing"; "language";
  |]

let cities =
  [|
    "boston"; "newyork"; "chicago"; "seattle"; "austin"; "denver"; "atlanta";
    "portland"; "sandiego"; "phoenix"; "dallas"; "houston"; "miami";
    "detroit"; "columbus"; "memphis"; "baltimore"; "milwaukee"; "albany";
    "trenton"; "beijing"; "shanghai"; "london"; "paris"; "tokyo"; "berlin";
  |]

let countries =
  [|
    "United States"; "United States"; "United States"; "United States";
    "Germany"; "France"; "United Kingdom"; "China"; "Japan"; "Canada";
    "Italy"; "Spain"; "Australia"; "Brazil"; "India"; "Netherlands";
    "Sweden"; "Switzerland"; "Korea"; "Mexico";
  |]

let journals =
  [|
    "TODS"; "VLDBJ"; "TKDE"; "SIGMOD Record"; "Information Systems";
    "JACM"; "CACM"; "Computer Journal"; "DKE"; "IPL"; "TOIS"; "TOCS";
    "Algorithmica"; "Acta Informatica"; "JCSS"; "Distributed Computing";
  |]

let conferences =
  [|
    "SIGMOD"; "VLDB"; "ICDE"; "PODS"; "EDBT"; "CIKM"; "WWW"; "KDD";
    "SODA"; "STOC"; "FOCS"; "ICDT"; "DASFAA"; "WebDB"; "XSym"; "SSDBM";
  |]

let categories =
  [|
    "antiques"; "books"; "computers"; "electronics"; "jewelry"; "music";
    "photography"; "sports"; "toys"; "travel"; "art"; "coins"; "stamps";
    "clothing"; "furniture"; "garden"; "automotive"; "health";
  |]

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Zipf by inverse-CDF over precomputed harmonic weights would need a
   table per (s, n); rejection-free approximation: draw u uniform and map
   through u^(1/(1-s'))-style skew.  We instead use the simple and exact
   linear scan over cumulative weights, cached per n. *)
let zipf_cache : (int * int, float array) Hashtbl.t = Hashtbl.create 8

let zipf_cdf ~s n =
  let key = (int_of_float (s *. 1000.), n) in
  match Hashtbl.find_opt zipf_cache key with
  | Some c -> c
  | None ->
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let c = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i x ->
        acc := !acc +. (x /. total);
        c.(i) <- !acc)
      w;
    Hashtbl.replace zipf_cache key c;
    c

let zipf_index rng ?(s = 1.0) n =
  let c = zipf_cdf ~s n in
  let u = Random.State.float rng 1.0 in
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if c.(mid) < u then bisect (mid + 1) hi else bisect lo mid
  in
  bisect 0 (n - 1)

let pick_zipf rng ?s a = a.(zipf_index rng ?s (Array.length a))
