module Labeled = Xindex.Labeled

type mode = Constraint | Naive

type stats = {
  mutable probes : int;
  mutable candidates : int;
  mutable rejected : int;
  mutable matches : int;
}

let create_stats () = { probes = 0; candidates = 0; rejected = 0; matches = 0 }

let merge_stats ~into s =
  into.probes <- into.probes + s.probes;
  into.candidates <- into.candidates + s.candidates;
  into.rejected <- into.rejected + s.rejected;
  into.matches <- into.matches + s.matches

let run ?(mode = Constraint) ?stats idx (q : Query_seq.compiled) ~on_doc
    =
  (* A fresh sink per call when the caller does not supply one: a shared
     mutable default would be a data race once queries run on several
     domains. *)
  let stats = match stats with Some s -> s | None -> create_stats () in
  let qlen = Array.length q.paths in
  assert (qlen > 0);
  let links = Array.map (Labeled.link idx) q.paths in
  if Array.for_all Option.is_some links then begin
    let links = Array.map Option.get links in
    let probe () = stats.probes <- stats.probes + 1 in
    (* Binary searches counted entry by entry. *)
    let lower_bound l x =
      let lo = ref 0 and hi = ref (Labeled.link_length l) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        probe ();
        if Labeled.link_pre l mid < x then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    (* Deepest same-encoding ancestor of serial [x] in link [l]: the
       last entry at or before [x] (an upper bound, whose search has read
       that entry's pre), then up its nesting. *)
    let nearest l x =
      let lo = ref 0 and hi = ref (Labeled.link_length l) and last = ref 0 in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        probe ();
        let pre = Labeled.link_pre l mid in
        if pre <= x then begin
          lo := mid + 1;
          last := pre
        end
        else hi := mid
      done;
      let rec climb i pre =
        if i < 0 then -1
        else begin
          probe ();
          if pre + Labeled.link_span l i >= x then i
          else
            let up = Labeled.link_up l i in
            climb up (if up < 0 then 0 else Labeled.link_pre l up)
        end
      in
      climb (!lo - 1) !last
    in
    (* The identical-sibling test reads the entry and its successor — both
       count, exactly like any other probe. *)
    let same_desc l i ~post =
      probe ();
      if i + 1 < Labeled.link_length l then probe ();
      Labeled.link_same_desc l i ~post
    in
    (* The document table is located by binary search too, so its probes
       count entry by entry like link probes do. *)
    let doc_lower x =
      let lo = ref 0 and hi = ref (Labeled.doc_len idx) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        probe ();
        if Labeled.doc_pre_at idx mid < x then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let doc_upper x =
      let lo = ref 0 and hi = ref (Labeled.doc_len idx) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        probe ();
        if Labeled.doc_pre_at idx mid <= x then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    (* Per query position, the link entry matched there and its post. *)
    let mpos = Array.make qlen (-1) and mpost = Array.make qlen 0 in
    let rec search i lo hi =
      if i = qlen then begin
        stats.matches <- stats.matches + 1;
        (* Documents whose sequence ends under the last matched node:
           serial range [lo - 1, hi]. *)
        let dlo = lo - 1 and dhi = hi in
        let first = doc_lower dlo in
        let last = doc_upper dhi - 1 in
        if first <= last then Labeled.docs_between idx ~first ~last ~f:on_doc
      end
      else begin
        let l = links.(i) in
        let first = lower_bound l lo in
        let stop = Labeled.link_length l in
        let pos = ref first in
        let continue = ref true in
        while !continue && !pos < stop do
          probe ();
          let pre = Labeled.link_pre l !pos in
          if pre > hi then continue := false
          else begin
            stats.candidates <- stats.candidates + 1;
            let ok =
              match mode with
              | Naive -> true
              | Constraint ->
                let pi = q.parents.(i) in
                pi < 0
                ||
                let pl = links.(pi) and ppos = mpos.(pi) in
                (* Only identical siblings can break the forward-prefix
                   relation (Algorithm 1's ins set). *)
                (not (same_desc pl ppos ~post:mpost.(pi)))
                || nearest pl pre = ppos
            in
            if ok then begin
              let post = pre + Labeled.link_span l !pos in
              mpos.(i) <- !pos;
              mpost.(i) <- post;
              search (i + 1) (pre + 1) post
            end
            else stats.rejected <- stats.rejected + 1;
            incr pos
          end
        done
      end
    in
    search 0 1 (Labeled.root_post idx)
  end

let run_collect ?mode ?stats idx compiled_list =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun q ->
      run ?mode ?stats idx q ~on_doc:(fun d ->
          if not (Hashtbl.mem seen d) then Hashtbl.replace seen d ()))
    compiled_list;
  List.sort Stdlib.compare (Hashtbl.fold (fun d () acc -> d :: acc) seen [])
