(* In-memory spans around calls into each layer's public functions.
   Spans are recorded only from the benchmark's own replay loop; nothing
   inside lib/ is instrumented.  They are written out once, at the end, as
   Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev). *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** the replayed operation this span belongs to *)
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable req : int;
}

let create ~enabled = { enabled; spans = []; next_id = 0; stack = []; req = -1 }

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { name; id; parent; req = t.req; t0; t1 } :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A root span for replayed operation [req]. *)
let request t ~req name f =
  t.req <- req;
  record t name f

let spans t = List.rev t.spans

(* Self time: a span's duration minus the part its children cover. *)
let self_times spans =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child_sum s.id)))
    spans

type layer = { layer : string; calls : int; self_s : float; total_s : float }

(* Per-name aggregate, largest self time first. *)
let layers spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let calls, self_s, total_s =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (calls + 1, self_s +. self, total_s +. (s.t1 -. s.t0)))
    (self_times spans);
  Hashtbl.fold
    (fun layer (calls, self_s, total_s) acc -> { layer; calls; self_s; total_s } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (b.self_s, a.layer) (a.self_s, b.layer))

let write_chrome path spans =
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"cat\": \"xbench\", \"ph\": \"X\", \"ts\": %.3f, \
             \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"req\": %d, \"id\": \
             %d, \"parent\": %d}}"
            (if i = 0 then "" else ",\n")
            s.name
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.req s.id s.parent)
        spans;
      output_string oc "\n]}\n")
