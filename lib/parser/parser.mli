(** The parser layer (Fig. 1).  As in Clang, the parser steers the front
    end: it pulls preprocessed tokens and pushes every recognised construct
    to Sema ([Mc_sema.Sema] / [Mc_sema.Omp_sema]) to create the AST nodes,
    so all type checking and OpenMP analysis happens during the parse.

    [#pragma omp]/[#pragma clang loop] items produced by the preprocessor
    are parsed in statement position: the directive's clauses come from the
    pragma's token stream, its associated statement from the main stream
    (which may itself start with another pragma — that is what makes
    transformation directives composable, §1.1). *)

val default_bracket_depth : int
(** 256, Clang's [-fbracket-depth] default. *)

val parse_translation_unit :
  ?bracket_depth:int ->
  Mc_sema.Sema.t ->
  Mc_pp.Preprocessor.item list ->
  Mc_ast.Tree.translation_unit
(** [?bracket_depth] bounds expression/statement nesting (the
    [-fbracket-depth] recursion guard): exceeding it is diagnosed and
    recovered from instead of overflowing the stack. *)

val parse_measured :
  ?bracket_depth:int ->
  Mc_sema.Sema.t ->
  Mc_pp.Preprocessor.item list ->
  Mc_ast.Tree.translation_unit * int
(** {!parse_translation_unit}, also returning the deepest nesting level
    the parse entered: the least [?bracket_depth] under which it runs
    unchanged. *)
