type spec = {
  prio : Float.Array.t;
  key : int array;
  iter_children : int -> (int -> unit) -> unit;
  has_identical : int -> bool;
}

let key ~depth ~path_id = (depth lsl 31) lor path_id

(* One binary heap of node ids per call.  The heap of a nesting level
   holds the slots [base, !size): a level's children are pushed above
   whatever its enclosing levels hold, and it pops until [!size] is back
   at [base].  Every node but the root is pushed once, so [n] slots
   suffice. *)
let emit spec ~root out =
  let prio = spec.prio and key = spec.key in
  let heap = Array.make (Float.Array.length prio) 0 in
  let size = ref 0 and emitted = ref 0 in
  (* The innermost level's base, which [push] pushes onto. *)
  let base = ref 0 in
  let before a b =
    let pa = Float.Array.unsafe_get prio a
    and pb = Float.Array.unsafe_get prio b in
    pa > pb
    || pa = pb
       &&
       let ka = Array.unsafe_get key a and kb = Array.unsafe_get key b in
       ka < kb || (ka = kb && a < b)
  in
  let push v =
    let base = !base in
    let i = ref (!size - base) in
    incr size;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let pv = heap.(base + p) in
      if before v pv then begin
        heap.(base + !i) <- pv;
        i := p
      end
      else continue := false
    done;
    heap.(base + !i) <- v
  in
  let pop base =
    let top = heap.(base) in
    decr size;
    let len = !size - base in
    if len > 0 then begin
      let v = heap.(base + len) in
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= len then continue := false
        else begin
          let c =
            if l + 1 < len && before heap.(base + l + 1) heap.(base + l) then
              l + 1
            else l
          in
          let cv = heap.(base + c) in
          if before cv v then begin
            heap.(base + !i) <- cv;
            i := c
          end
          else continue := false
        end
      done;
      heap.(base + !i) <- v
    end;
    top
  in
  let emit_one v =
    out !emitted v;
    incr emitted
  in
  let rec sequentialize v =
    emit_one v;
    let outer = !base in
    let mine = !size in
    base := mine;
    spec.iter_children v push;
    while !size > mine do
      let c = pop mine in
      if spec.has_identical c then sequentialize c
      else begin
        emit_one c;
        spec.iter_children c push
      end
    done;
    base := outer
  in
  sequentialize root
