(** The [clang::CompilerInvocation] analogue: a pure, immutable record of
    everything one driver run was asked to do — inputs, action, and
    options — decoupled from the mutable pipeline state (which
    {!Mc_core.Instance} owns).  Being a plain value, an invocation can be
    parsed once from argv and then shared freely across the domains of a
    {!Mc_core.Batch} compilation, or marshalled to a daemon.

    This module owns mcc's one flag grammar: [mcc] builds its invocation
    with {!of_argv}, {!to_argv} renders one back (an ICE bundle's
    [repro.sh] replays through the same parser), and {!usage} is the
    [-help] text.  {!Driver.options} is the narrower per-compile option
    set the pipeline reads; {!to_driver_options} projects onto it. *)

type action =
  | Run (* compile and execute on the IR interpreter (the default) *)
  | Ast_dump
  | Ast_dump_shadow
  | Ast_print
  | Print_transformed
  | Emit_ir
  | Emit_transformed (* apply the transfo script, print the rewritten C *)
  | Syntax_only
  | Analyze (* run the dataflow analyses, print the report *)

type input =
  | File of string (* path, or "-" for stdin *)
  | Source of { name : string; contents : string } (* in-memory unit *)

type t = {
  inputs : input list;
  action : action;
  use_irbuilder : bool; (* -fopenmp-enable-irbuilder *)
  opt_level : int; (* -O LEVEL; > 0 runs the O1 pipeline *)
  fold : bool; (* IRBuilder on-the-fly folding *)
  defines : (string * string) list; (* -D name=value *)
  extra_files : (string * string) list; (* virtual #include targets *)
  jobs : int; (* -j N: batch compilation domains *)
  cache_enabled : bool; (* --cache: content-addressed stage cache *)
  cache_dir : string option; (* --cache-dir DIR: persist the stage cache
                                on disk ({!Store}); implies cache *)
  incremental : bool; (* --incremental: recompile after the cold batch,
                         reporting per-stage reuse (implies cache) *)
  daemon : bool; (* --daemon: compile through a running mccd, falling
                    back in-process when none is reachable *)
  daemon_socket : string option; (* --daemon-socket PATH (implies daemon;
                                    default: Client.default_socket) *)
  daemon_timeout : float option; (* --daemon-timeout SECONDS: client
                                    connect/send/receive deadlines
                                    (implies daemon) *)
  daemon_retries : int option; (* --daemon-retries N: max retries after
                                  Resp_busy sheds (implies daemon) *)
  num_threads : int; (* simulated OpenMP team size *)
  stage_timings : bool;
  time_report : bool; (* -ftime-report *)
  print_stats : bool; (* -print-stats *)
  error_limit : int; (* -ferror-limit N (0 = unlimited) *)
  bracket_depth : int; (* -fbracket-depth N parser recursion guard *)
  loop_nest_limit : int; (* -floop-nest-limit N directive depth cap *)
  transfo_script : input option; (* --transfo-script FILE ({!Mc_transfo}
                                    script applied before the lexer) *)
  transfo_check : bool; (* differential oracle per script step; the
                           --no-transfo-check flag disables *)
  analyze : string list option; (* --analyze[=p1,p2] pass selection;
                                   Some [] = every pass *)
  analyze_format : string; (* --analyze-format text|json (presentation
                              only; no cache key reads it) *)
  gen_reproducer : bool; (* write ICE reproducer bundles (default on);
                            -fno-crash-diagnostics disables *)
}

val default : t
(** No inputs, [Run] action, [Driver.default_options] settings, 1 job. *)

val to_driver_options : t -> Driver.options
(** The per-compile options of an invocation: the projection every
    {!Instance} entry point runs under.  A [File] transfo script is read
    here (an unreadable one gives no script). *)

val input_name : input -> string

val read_input : input -> (string * string, string) result
(** [(name, contents)], reading files ([Error] carries the IO failure). *)

val load_inputs : t -> ((string * string) list, string) result
(** Reads every input in order; fails on the first unreadable one. *)

val load_transfo_script : t -> (t, string) result
(** Resolves a [File] transfo script to an in-memory [Source] (so the
    invocation can travel to a daemon); the identity when there is no
    script or it is already loaded. *)

val usage : string
(** The [-help] text, naming every flag {!of_argv} accepts. *)

val of_argv : string array -> (t, string) result
(** Parses a full argv (element 0 is the program name) with the mcc flag
    grammar: single- or double-dash long options ([-emit-ir],
    [--emit-ir]), [-fsyntax-only] and [-syntax-only] as synonyms,
    [-j N]/[-jN]/[-jobs N], [-O 0]/[-O0]/[-O1],
    [-D NAME=VALUE]/[-DNAME=VALUE],
    [--cache], [--cache-dir DIR], [--incremental], [--daemon],
    [--daemon-socket PATH], [--daemon-timeout SECONDS],
    [--daemon-retries N], [-num-threads N], [-ftime-report],
    [-print-stats],
    [-stage-timings], the resource limits [-ferror-limit N],
    [-fbracket-depth N], [-floop-nest-limit N], the transfo-script
    options [--transfo-script FILE] and [--no-transfo-check], the
    analysis options [--analyze], [--analyze=pass1,pass2] and
    [--analyze-format text|json] (bare [--analyze] deliberately takes no
    separate argument, so [--analyze foo.c] keeps foo.c an input), the
    reproducer toggles
    [-gen-reproducer]/[-fno-crash-diagnostics], and positional input
    files ([-] for stdin).  The last action flag wins, except
    [--analyze], which wins over every other in any order.  [Error]
    names an unknown option, a bad value or the missing inputs.
    [-help]/[--help] prints {!usage} to stdout and exits 0. *)

val to_argv : t -> string list
(** Renders the invocation back to mcc flags — the inverse of {!of_argv}
    minus the inputs, which the caller appends itself.  Only non-default
    settings are emitted; used to write the re-runnable command line of
    an ICE reproducer bundle ({!Reproducer}). *)
