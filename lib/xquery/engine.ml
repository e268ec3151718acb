let compile ?limit ?max_expansions ~strategy ~value_mode idx pattern =
  let mem p = Option.is_some (Xindex.Labeled.link idx p) in
  let flagged = Xindex.Labeled.path_multiple idx in
  let cnodes = Instantiate.run ?limit ~mem ~value_mode pattern in
  List.concat_map (Query_seq.compile ?max_expansions ~flagged ~strategy) cnodes

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
  let mem p = Option.is_some (Xindex.Labeled.link idx p) in
  let flagged = Xindex.Labeled.path_multiple idx in
  let cnodes = Instantiate.run ?limit ~mem ~value_mode pattern in
  let compiled =
    List.concat_map (Query_seq.compile ?max_expansions ~flagged ~strategy) cnodes
  in
  let stats = Matcher.create_stats () in
  let results = Matcher.run_collect ?mode ~stats idx compiled in
  let render (q : Query_seq.compiled) =
    String.concat " "
      (List.map Sequencing.Path.to_string (Array.to_list q.paths))
  in
  {
    pattern = Pattern.to_string pattern;
    instantiations = List.length cnodes;
    sequences = List.length compiled;
    sequence_texts = List.map render compiled;
    results = List.length results;
    stats;
  }
