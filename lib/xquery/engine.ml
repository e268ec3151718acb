(* Names resolve against the index's own symbol table, read-only. *)
let instantiate ?limit ?max_expansions ~strategy ~value_mode idx pattern =
  let symbols = Xindex.Labeled.symbols idx in
  let flagged = Xindex.Labeled.path_multiple idx in
  let cnodes = Instantiate.run ?limit ~value_mode symbols pattern in
  ( cnodes,
    List.concat_map
      (Query_seq.compile ?max_expansions ~flagged ~strategy symbols)
      cnodes )

let compile ?limit ?max_expansions ~strategy ~value_mode idx pattern =
  snd (instantiate ?limit ?max_expansions ~strategy ~value_mode idx pattern)

let query ?mode ?stats ?limit ?max_expansions ~strategy ~value_mode idx
    pattern =
  let compiled = compile ?limit ?max_expansions ~strategy ~value_mode idx pattern in
  Matcher.run_collect ?mode ?stats idx compiled

type explanation = {
  pattern : string;
  instantiations : int;
  sequences : int;
  sequence_texts : string list;
  results : int;
  stats : Matcher.stats;
}

let explain ?mode ?limit ?max_expansions ~strategy ~value_mode idx pattern =
  let cnodes, compiled =
    instantiate ?limit ?max_expansions ~strategy ~value_mode idx pattern
  in
  let stats = Matcher.create_stats () in
  let results = Matcher.run_collect ?mode ~stats idx compiled in
  let render (q : Query_seq.compiled) =
    String.concat " "
      (List.map
         (Sequencing.Symtab.Path.to_string (Xindex.Labeled.symbols idx))
         (Array.to_list q.paths))
  in
  {
    pattern = Pattern.to_string pattern;
    instantiations = List.length cnodes;
    sequences = List.length compiled;
    sequence_texts = List.map render compiled;
    results = List.length results;
    stats;
  }
