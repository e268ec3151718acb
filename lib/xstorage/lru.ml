(* LRU pool over page ids: hashtable into an intrusive doubly-linked list. *)

type node = {
  page : int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  on_evict : int -> unit;
  table : (int, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable size : int;
}

let create ?(on_evict = fun _ -> ()) capacity =
  {
    capacity;
    on_evict;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    size = 0;
  }

let capacity t = t.capacity
let size t = t.size

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Returns [true] when the page was already resident. *)
let access t page =
  match Hashtbl.find_opt t.table page with
  | Some n ->
    unlink t n;
    push_front t n;
    true
  | None ->
    if t.capacity > 0 then begin
      if t.size >= t.capacity then begin
        match t.tail with
        | Some victim ->
          unlink t victim;
          Hashtbl.remove t.table victim.page;
          t.size <- t.size - 1;
          t.on_evict victim.page
        | None -> ()
      end;
      let n = { page; prev = None; next = None } in
      push_front t n;
      Hashtbl.replace t.table page n;
      t.size <- t.size + 1
    end;
    false

let mem t page = Hashtbl.mem t.table page

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.size <- 0
