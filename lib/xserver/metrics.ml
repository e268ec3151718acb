(* All counters live behind one mutex; rendering takes the same lock so
   a [Stats] response is a consistent snapshot (e.g. the end-to-end test
   reconciles per-op counts against requests it actually sent). *)

module Matcher = Xquery.Matcher

(* Upper bounds of the latency histogram, in milliseconds.  A request
   is counted in the first bucket whose bound contains it. *)
let bucket_bounds_ms =
  [| 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0;
     1000.0 |]

type t = {
  m : Mutex.t;
  by_op : (string, int) Hashtbl.t;
  by_error : (string, int) Hashtbl.t;
  buckets : int array; (* length bucket_bounds_ms + 1; last = overflow *)
  mutable latency_sum_s : float;
  mutable bytes_received : int;
  mutable bytes_sent : int;
  mutable connections_opened : int;
  mutable connections_closed : int;
  matcher : Matcher.stats;
}

let create () =
  {
    m = Mutex.create ();
    by_op = Hashtbl.create 8;
    by_error = Hashtbl.create 8;
    buckets = Array.make (Array.length bucket_bounds_ms + 1) 0;
    latency_sum_s = 0.;
    bytes_received = 0;
    bytes_sent = 0;
    connections_opened = 0;
    connections_closed = 0;
    matcher = Matcher.create_stats ();
  }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let bump tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let bucket_index latency_ms =
  let n = Array.length bucket_bounds_ms in
  let rec go i = if i >= n || latency_ms <= bucket_bounds_ms.(i) then i else go (i + 1) in
  go 0

let record_request t ~op ~latency_s =
  with_lock t (fun () ->
      bump t.by_op op 1;
      t.latency_sum_s <- t.latency_sum_s +. latency_s;
      let i = bucket_index (latency_s *. 1e3) in
      t.buckets.(i) <- t.buckets.(i) + 1)

let record_error t ~code = with_lock t (fun () -> bump t.by_error code 1)

let add_bytes t ~received ~sent =
  with_lock t (fun () ->
      t.bytes_received <- t.bytes_received + received;
      t.bytes_sent <- t.bytes_sent + sent)

let connection_opened t =
  with_lock t (fun () -> t.connections_opened <- t.connections_opened + 1)

let connection_closed t =
  with_lock t (fun () -> t.connections_closed <- t.connections_closed + 1)

let merge_matcher t s = with_lock t (fun () -> Matcher.merge_stats ~into:t.matcher s)

let sum_tbl tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --- JSON ----------------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?(extra = []) t =
  with_lock t (fun () ->
      let b = Buffer.create 512 in
      let obj fields =
        "{" ^ String.concat ", " fields ^ "}"
      in
      let kv k v = Printf.sprintf "\"%s\": %s" (escape k) v in
      Buffer.add_string b "{\n";
      let total = sum_tbl t.by_op in
      let fields =
        [
          kv "requests_total" (string_of_int total);
          kv "requests_by_op"
            (obj
               (List.map
                  (fun (k, v) -> kv k (string_of_int v))
                  (sorted_bindings t.by_op)));
          kv "errors_total" (string_of_int (sum_tbl t.by_error));
          kv "errors_by_code"
            (obj
               (List.map
                  (fun (k, v) -> kv k (string_of_int v))
                  (sorted_bindings t.by_error)));
          kv "latency_ms_sum" (Printf.sprintf "%.3f" (t.latency_sum_s *. 1e3));
          kv "latency_ms_buckets"
            (obj
               (Array.to_list
                  (Array.mapi
                     (fun i c ->
                       let bound =
                         if i < Array.length bucket_bounds_ms then
                           Printf.sprintf "%g" bucket_bounds_ms.(i)
                         else "+inf"
                       in
                       kv ("le_" ^ bound) (string_of_int c))
                     t.buckets)));
          kv "bytes_received" (string_of_int t.bytes_received);
          kv "bytes_sent" (string_of_int t.bytes_sent);
          kv "connections_opened" (string_of_int t.connections_opened);
          kv "connections_closed" (string_of_int t.connections_closed);
          kv "matcher"
            (obj
               [
                 kv "probes" (string_of_int t.matcher.Matcher.probes);
                 kv "candidates" (string_of_int t.matcher.Matcher.candidates);
                 kv "rejected" (string_of_int t.matcher.Matcher.rejected);
                 kv "matches" (string_of_int t.matcher.Matcher.matches);
               ]);
        ]
        @ List.map (fun (k, v) -> kv k v) extra
      in
      List.iteri
        (fun i f ->
          Buffer.add_string b "  ";
          Buffer.add_string b f;
          if i < List.length fields - 1 then Buffer.add_char b ',';
          Buffer.add_char b '\n')
        fields;
      Buffer.add_string b "}";
      Buffer.contents b)
