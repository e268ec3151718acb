type spec = {
  prio : int -> float;
  depth : int -> int;
  path_id : int -> int;
  rank : int -> int;
  iter_children : int -> (int -> unit) -> unit;
  has_identical : int -> bool;
}

module Heap = struct
  type entry = { prio : float; depth : int; path : int; rank : int; item : int }
  type t = { mutable data : entry array; mutable size : int }

  let dummy = { prio = 0.; depth = 0; path = 0; rank = 0; item = 0 }
  let create () = { data = Array.make 16 dummy; size = 0 }
  let is_empty h = h.size = 0

  let before a b =
    a.prio > b.prio
    || a.prio = b.prio
       && (a.depth < b.depth
          || a.depth = b.depth
             && (a.path < b.path || (a.path = b.path && a.rank < b.rank)))

  let push h e =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.data.(!i) <- e;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if before h.data.(!i) h.data.(p) then begin
        let tmp = h.data.(p) in
        h.data.(p) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := p
      end
      else continue := false
    done

  let pop h =
    assert (h.size > 0);
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.size && before h.data.(l) h.data.(!best) then best := l;
      if r < h.size && before h.data.(r) h.data.(!best) then best := r;
      if !best <> !i then begin
        let tmp = h.data.(!best) in
        h.data.(!best) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !best
      end
      else continue := false
    done;
    top.item
end

let emit spec ~root =
  let out = ref [] in
  let push_children heap i =
    spec.iter_children i (fun c ->
        Heap.push heap
          {
            Heap.prio = spec.prio c;
            depth = spec.depth c;
            path = spec.path_id c;
            rank = spec.rank c;
            item = c;
          })
  in
  let rec sequentialize i =
    out := i :: !out;
    let heap = Heap.create () in
    push_children heap i;
    while not (Heap.is_empty heap) do
      let c = Heap.pop heap in
      if spec.has_identical c then sequentialize c
      else begin
        out := c :: !out;
        push_children heap c
      end
    done
  in
  sequentialize root;
  List.rev !out
