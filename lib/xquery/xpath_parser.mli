(** Parser for the XPath fragment used throughout the paper (Table 4).

    Supported syntax:
    - location steps separated by [/] (child) or [//] (descendant);
    - name tests and the [*] wildcard;
    - predicates: [\[relpath\]], [\[relpath='literal'\]],
      [\[text='literal'\]] (also [text()='literal']),
      [\[@attr='literal'\]] and the prefix-match extension
      [\[text^='literal'\]];
    - relative paths inside predicates may themselves use [/], [//] and
      [*].

    The self and parent steps ([.], [..]) are not supported: a step that
    starts with a dot is a {!Syntax_error} at the dot's position.

    Since the query interface is {e Tree Pattern → P(Doc Ids)}, the result
    of parsing is just the pattern tree; there is no notion of a selected
    step. *)

exception Syntax_error of { pos : int; msg : string }

val parse : string -> Pattern.t
(** @raise Syntax_error on malformed input. *)
