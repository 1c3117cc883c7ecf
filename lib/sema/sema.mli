(** The semantic analyzer (Clang's Sema layer, Fig. 1).

    Following Clang's architecture, the parser drives this module: every
    syntactic construct it recognises is pushed here through an [act_on_*]
    entry point, which performs name lookup, type checking, the implicit
    conversions of C (producing [Implicit_cast] nodes), and builds the typed
    AST node.  OpenMP-specific analysis lives in {!Omp_sema}, which this
    module hosts the state for. *)

open Mc_ast.Tree

type mode = Classic | Irbuilder
(** Which loop-transformation representation Sema builds: shadow ASTs (§2)
    or [OMPCanonicalLoop] (§3); the analogue of Clang's
    [-fopenmp-enable-irbuilder]. *)

type t

val default_loop_nest_limit : int
(** 64: the default cap on how deep a directive-requested loop nest may be
    ([-floop-nest-limit]); guards against e.g. [collapse(1000000)] blowing
    the analysis stack. *)

val create :
  ?mode:mode -> ?loop_nest_limit:int -> Mc_diag.Diagnostics.t -> t
val diagnostics : t -> Mc_diag.Diagnostics.t
val mode : t -> mode

val loop_nest_limit : t -> int
(** The configured [-floop-nest-limit] (clamped to at least 1). *)

val check_nest_depth : t -> int -> bool
(** [check_nest_depth t d]: may a directive collect a loop nest of depth
    [d] under the limit?  Every check also raises {!deepest_nest}. *)

val deepest_nest : t -> int
(** The deepest directive loop nest checked since {!create} or the last
    {!reset_deepest_nest}: the least [-floop-nest-limit] under which the
    analysis so far runs unchanged. *)

val reset_deepest_nest : t -> unit

(* ---- scopes and declarations ---------------------------------------- *)

val push_scope : t -> unit
val pop_scope : t -> unit

val act_on_var_decl :
  t -> name:string -> ty:ctype -> init:expr option -> loc:loc -> var
(** Declares a local/global variable (checking redeclaration) with its
    initialiser converted to the declared type. *)

val declare_function :
  t -> name:string -> ret:ctype -> params:(string * ctype) list ->
  variadic:bool -> loc:loc -> fn
(** Declares (or re-finds) a function.  Redeclaration with a different type
    is diagnosed. *)

val start_function_definition : t -> fn -> unit
(** Enters the function scope with its parameters; diagnoses redefinition. *)

val finish_function_definition : t -> fn -> stmt -> unit

val adopt_tu_decl : t -> tu_decl -> unit
(** Adopt a top-level declaration recovered from a per-function cache
    artifact as if this sema had just analysed it: the symbol becomes
    visible to later slices and the decl joins the translation unit in
    arrival order.  Only valid at file scope. *)

val lookup_var : t -> string -> var option
val lookup_fn : t -> string -> fn option
val current_function : t -> fn option

val enter_loop : t -> unit
val exit_loop : t -> unit
(** Break/continue context tracking. *)

val enter_switch : t -> unit
val exit_switch : t -> unit

(* ---- expressions ------------------------------------------------------ *)

val act_on_int_literal :
  t -> value:int64 -> unsigned:bool -> long:bool -> loc:loc -> expr
(** Literal typing per C: [int] unless the value or a suffix demands a wider
    or unsigned type. *)

val act_on_float_literal : t -> value:float -> loc:loc -> expr
val act_on_char_literal : t -> value:int -> loc:loc -> expr
val act_on_string_literal : t -> value:string -> loc:loc -> expr

val act_on_recovery : t -> ?subexprs:expr list -> loc:loc -> unit -> expr
(** Builds a [Recovery_expr] (Clang's RecoveryExpr): an [int]-typed
    placeholder carrying any sub-expressions recognised before the error.
    The node and every ancestor get [contains_errors] set, which codegen
    and the interpreter refuse cleanly. *)

val act_on_decl_ref : t -> name:string -> loc:loc -> expr
(** Diagnoses undeclared identifiers; recovers with a [Recovery_expr]. *)

val act_on_paren : t -> expr -> expr
val act_on_unary : t -> unop -> expr -> loc:loc -> expr
val act_on_binary : t -> binop -> expr -> expr -> loc:loc -> expr
val act_on_assign : t -> binop option -> expr -> expr -> loc:loc -> expr
val act_on_conditional : t -> expr -> expr -> expr -> loc:loc -> expr
val act_on_call : t -> expr -> expr list -> loc:loc -> expr
val act_on_subscript : t -> expr -> expr -> loc:loc -> expr
val act_on_cast : t -> ctype -> expr -> loc:loc -> expr
val act_on_sizeof : t -> ctype -> loc:loc -> expr

val rvalue : t -> expr -> expr
(** Lvalue-to-rvalue conversion plus array decay (the Clang implicit
    casts). *)

val convert : t -> expr -> ctype -> expr
(** Implicit conversion to a target type; diagnoses incompatibility. *)

val condition : t -> expr -> expr
(** Converts to a scalar usable as a branch condition. *)

val is_lvalue : expr -> bool

(* ---- statements -------------------------------------------------------- *)

val act_on_expr_stmt : t -> expr -> stmt
val act_on_decl_stmt : t -> var list -> loc:loc -> stmt
val act_on_compound : t -> stmt list -> loc:loc -> stmt
val act_on_if : t -> expr -> stmt -> stmt option -> loc:loc -> stmt
val act_on_while : t -> expr -> stmt -> loc:loc -> stmt
val act_on_do_while : t -> stmt -> expr -> loc:loc -> stmt

val act_on_for :
  t -> init:stmt option -> cond:expr option -> inc:expr option -> body:stmt ->
  loc:loc -> stmt

val act_on_range_for :
  t -> var:var -> byref:bool -> range:expr -> body:stmt -> loc:loc -> stmt
(** Builds the [CXXForRangeStmt] analogue including its de-sugared helper
    variables (__range/__begin/__end) and the Fig. 8c equivalent loop. *)

val act_on_switch : t -> expr -> stmt -> loc:loc -> stmt
val act_on_case : t -> expr -> stmt -> loc:loc -> stmt
(** Validates the constant, uniqueness, and switch context. *)

val act_on_default : t -> stmt -> loc:loc -> stmt
val act_on_break : t -> loc:loc -> stmt
val act_on_continue : t -> loc:loc -> stmt
val act_on_return : t -> expr option -> loc:loc -> stmt

(* ---- helpers shared with OpenMP analysis ------------------------------- *)

val intexpr : t -> int64 -> ctype -> loc -> expr
(** A literal of an arbitrary integer type (for synthesised code). *)

val mk_ref : var -> expr
(** A [Decl_ref] lvalue of the variable's type. *)

val translation_unit : t -> translation_unit
(** All top-level declarations seen so far, in order. *)

type decl_mark
(** A point in the unit's top-level declaration sequence. *)

val decl_mark : t -> decl_mark
(** The current end of the sequence. *)

val decls_since : t -> decl_mark -> tu_decl list
(** The top-level declarations added after [mark] was taken, in order —
    in time proportional to their number, not to the unit's size. *)

val defined_builtins : t -> int
(** How many builtins ([record], [omp_get_thread_num], ...) a definition
    has given a body so far.  Such a body lands in the record [create]
    made, which belongs to no declaration; it is never emitted, and only
    makes a later definition of the same name an error. *)
