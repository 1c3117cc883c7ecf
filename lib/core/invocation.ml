(* CompilerInvocation analogue: a pure, immutable description of one
   driver run — what to compile and how — separated from the mutable
   pipeline state that Instance owns.  The flag grammar lives here, and
   only here: [of_argv] is what mcc runs, [to_argv] is its inverse (the
   ICE reproducer's command line) and [usage] is its -help text. *)

type action =
  | Run
  | Ast_dump
  | Ast_dump_shadow
  | Ast_print
  | Print_transformed
  | Emit_ir
  | Emit_transformed
  | Syntax_only
  | Analyze

type input = File of string | Source of { name : string; contents : string }

type t = {
  inputs : input list;
  action : action;
  use_irbuilder : bool;
  opt_level : int;
  fold : bool;
  defines : (string * string) list;
  extra_files : (string * string) list;
  jobs : int;
  cache_enabled : bool;
  cache_dir : string option;
  incremental : bool;
  daemon : bool;
  daemon_socket : string option;
  daemon_timeout : float option;
  daemon_retries : int option;
  num_threads : int;
  stage_timings : bool;
  time_report : bool;
  print_stats : bool;
  error_limit : int;
  bracket_depth : int;
  loop_nest_limit : int;
  transfo_script : input option;
  transfo_check : bool;
  analyze : string list option; (* Some [] = every analysis pass *)
  analyze_format : string; (* "text" | "json"; presentation only *)
  gen_reproducer : bool;
}

let default =
  {
    inputs = [];
    action = Run;
    use_irbuilder = false;
    opt_level = 1;
    fold = true;
    defines = [];
    extra_files = [];
    jobs = 1;
    cache_enabled = false;
    cache_dir = None;
    incremental = false;
    daemon = false;
    daemon_socket = None;
    (* None: the client's default resilience policy applies. *)
    daemon_timeout = None;
    daemon_retries = None;
    num_threads = 4;
    stage_timings = false;
    time_report = false;
    print_stats = false;
    (* Resource limits default to the driver's, so
       [to_driver_options default = Driver.default_options] holds. *)
    error_limit = Driver.default_options.Driver.error_limit;
    bracket_depth = Driver.default_options.Driver.bracket_depth;
    loop_nest_limit = Driver.default_options.Driver.loop_nest_limit;
    transfo_script = None;
    transfo_check = true;
    analyze = None;
    analyze_format = "text";
    gen_reproducer = true;
  }

let input_name = function
  | File path -> path
  | Source { name; _ } -> name

let read_input = function
  | Source { name; contents } -> Ok (name, contents)
  | File "-" -> Ok ("<stdin>", In_channel.input_all In_channel.stdin)
  | File path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> Ok (path, contents)
    | exception Sys_error msg -> Error msg)

let load_transfo_script inv =
  match inv.transfo_script with
  | None | Some (Source _) -> Ok inv
  | Some (File _ as f) -> (
    match read_input f with
    | Ok (name, contents) ->
      Ok { inv with transfo_script = Some (Source { name; contents }) }
    | Error msg -> Error msg)

let to_driver_options inv =
  {
    Driver.use_irbuilder = inv.use_irbuilder;
    optimize = inv.opt_level > 0;
    fold = inv.fold;
    defines = inv.defines;
    extra_files = inv.extra_files;
    error_limit = inv.error_limit;
    bracket_depth = inv.bracket_depth;
    loop_nest_limit = inv.loop_nest_limit;
    transfo_script =
      (match inv.transfo_script with
      | None -> None
      | Some (Source { contents; _ }) -> Some contents
      | Some (File _ as f) -> (
        match read_input f with Ok (_, c) -> Some c | Error _ -> None));
    transfo_check = inv.transfo_check;
    analyze = inv.analyze;
  }

let load_inputs inv =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | input :: rest -> (
      match read_input input with
      | Ok pair -> go (pair :: acc) rest
      | Error msg -> Error msg)
  in
  go [] inv.inputs

(* ---- argv parsing ------------------------------------------------------- *)

(* What -help prints.  Kept next to the grammar below: every flag
   [of_argv] accepts is named here, and the suite checks that [to_argv]
   renders nothing this text leaves out. *)
let usage =
  {|usage: mcc [options] FILE...    (FILE '-' reads stdin)

Options take one or two dashes; a value follows as -flag=V or -flag V.
Actions (default: compile, then run on the IR interpreter).  The last
action flag wins, except -analyze, which wins over every other:
  -ast-dump, -ast-dump-shadow  print the AST (-shadow: and the shadow AST)
  -ast-print                   unparse the AST back to C
  -print-transformed           unparse every transformation's generated loop
  -emit-ir                     print the IR
  -emit-transformed            print the program -transfo-script rewrote
  -fsyntax-only, -syntax-only  stop after semantic analysis
  -analyze[=PASSES]            print the dataflow report and exit 1 on a
                               finding; PASSES is a comma list of uninit,
                               unreachable, leak, deps (default: all)
Options:
  -fopenmp-enable-irbuilder    lower through the OpenMPIRBuilder (paper §3)
  -O0, -O1, -O N               optimization level (default 1)
  -no-builder-folding          no IRBuilder on-the-fly simplification
  -D NAME[=VALUE]              predefine a macro (VALUE defaults to 1)
  -transfo-script FILE         apply a transformation script first
  -no-transfo-check            skip the differential check of each step
  -analyze-format text|json    rendering of the -analyze report
  -ferror-limit N              stop after N errors (0: no limit; default 20)
  -fbracket-depth N            parser nesting limit (default 256)
  -floop-nest-limit N          loop depth a directive may ask for (default 64)
  -j N, -jobs N                compile the inputs on N domains
  -cache                       in-process content-addressed stage cache
  -cache-dir DIR               persist the stage cache in DIR (implies -cache)
  -incremental                 recompile every unit warm, report stage reuse
  -daemon                      compile through a running mccd, else in-process
  -daemon-socket PATH          the mccd socket (implies -daemon)
  -daemon-timeout SECONDS      deadline per daemon round-trip (implies -daemon)
  -daemon-retries N            retries after a busy reply (default 3; implies
                               -daemon)
  -num-threads N               simulated OpenMP team size (default 4)
  -stage-timings               per-unit stage times
  -ftime-report                per-stage wall-clock report
  -print-stats                 statistic counters
  -gen-reproducer              write ICE reproducer bundles (the default)
  -fno-crash-diagnostics       write no ICE reproducer bundles
  -help                        print this text
|}

(* Clang spells long options with a single dash (-ftime-report); accept
   both single- and double-dash spellings uniformly. *)
let strip_dashes arg =
  if String.length arg >= 2 && String.sub arg 0 2 = "--" then
    Some (String.sub arg 2 (String.length arg - 2))
  else if String.length arg >= 1 && arg.[0] = '-' && arg <> "-" then
    Some (String.sub arg 1 (String.length arg - 1))
  else None

let drop_prefix prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

let split_define s =
  match String.index_opt s '=' with
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "1")

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "invalid %s argument %S" what s)

let parse_float what s =
  match float_of_string_opt s with
  | Some f when f > 0.0 -> Ok f
  | Some _ -> Error (Printf.sprintf "%s must be positive, got %S" what s)
  | None -> Error (Printf.sprintf "invalid %s argument %S" what s)

let of_argv argv =
  let args = match Array.to_list argv with _prog :: rest -> rest | [] -> [] in
  let rec go inv = function
    | [] ->
      if inv.inputs = [] then Error "no input files"
      else
        Ok
          {
            inv with
            inputs = List.rev inv.inputs;
            (* -analyze wins over every other action, in any order. *)
            action = (if inv.analyze <> None then Analyze else inv.action);
          }
    | arg :: rest -> (
      match strip_dashes arg with
      | None -> go { inv with inputs = File arg :: inv.inputs } rest
      | Some flag -> (
        let with_value name k =
          (* Accepts "-flag value", "-flag=value", and — for single-char
             flags — the attached "-j4" / "-DN=3" spellings. *)
          if flag = name then
            match rest with
            | v :: rest' -> Some (k v rest')
            | [] -> Some (Error (Printf.sprintf "-%s expects an argument" name))
          else if String.starts_with ~prefix:(name ^ "=") flag then
            Some (k (drop_prefix (name ^ "=") flag) rest)
          else if String.length name = 1 && String.starts_with ~prefix:name flag
          then Some (k (drop_prefix name flag) rest)
          else None
        in
        match flag with
        | "help" ->
          print_string usage;
          exit 0
        | "ast-dump" -> go { inv with action = Ast_dump } rest
        | "ast-dump-shadow" -> go { inv with action = Ast_dump_shadow } rest
        | "ast-print" -> go { inv with action = Ast_print } rest
        | "print-transformed" -> go { inv with action = Print_transformed } rest
        | "emit-ir" -> go { inv with action = Emit_ir } rest
        | "emit-transformed" -> go { inv with action = Emit_transformed } rest
        | "syntax-only" | "fsyntax-only" -> go { inv with action = Syntax_only } rest
        (* Bare -analyze runs every pass; -analyze=p1,p2 selects.  Not a
           [with_value] flag: "-analyze foo.c" must keep foo.c an input. *)
        | "analyze" -> go { inv with analyze = Some [] } rest
        | "fopenmp-enable-irbuilder" -> go { inv with use_irbuilder = true } rest
        | "no-builder-folding" -> go { inv with fold = false } rest
        | "cache" -> go { inv with cache_enabled = true } rest
        | "incremental" ->
          (* Incremental recompilation rides on the stage cache. *)
          go { inv with incremental = true; cache_enabled = true } rest
        | "daemon" -> go { inv with daemon = true } rest
        | "no-transfo-check" -> go { inv with transfo_check = false } rest
        | "fno-crash-diagnostics" -> go { inv with gen_reproducer = false } rest
        | "gen-reproducer" -> go { inv with gen_reproducer = true } rest
        | "stage-timings" -> go { inv with stage_timings = true } rest
        | "ftime-report" -> go { inv with time_report = true } rest
        | "print-stats" -> go { inv with print_stats = true } rest
        | "O0" -> go { inv with opt_level = 0 } rest
        | "O1" -> go { inv with opt_level = 1 } rest
        | _ when String.starts_with ~prefix:"analyze=" flag ->
          let passes = String.split_on_char ',' (drop_prefix "analyze=" flag) in
          go { inv with analyze = Some (List.filter (( <> ) "") passes) } rest
        | _ -> (
          let numeric name field =
            with_value name (fun v rest' ->
                match parse_int name v with
                | Ok n -> go (field inv n) rest'
                | Error e -> Error e)
          in
          let first_some l = List.find_map (fun f -> f ()) l in
          match
            first_some
              [
                (* "jobs" before "j", which would take "-jobs" as "-j obs". *)
                (fun () -> numeric "jobs" (fun inv n -> { inv with jobs = n }));
                (fun () -> numeric "j" (fun inv n -> { inv with jobs = n }));
                (fun () -> numeric "O" (fun inv n -> { inv with opt_level = n }));
                (fun () ->
                  numeric "num-threads" (fun inv n ->
                      { inv with num_threads = n }));
                (fun () ->
                  numeric "ferror-limit" (fun inv n ->
                      { inv with error_limit = max 0 n }));
                (fun () ->
                  numeric "fbracket-depth" (fun inv n ->
                      { inv with bracket_depth = max 1 n }));
                (fun () ->
                  numeric "floop-nest-limit" (fun inv n ->
                      { inv with loop_nest_limit = max 1 n }));
                (fun () ->
                  with_value "D" (fun v rest' ->
                      let name, value = split_define v in
                      go
                        { inv with defines = inv.defines @ [ (name, value) ] }
                        rest'));
                (fun () ->
                  with_value "cache-dir" (fun v rest' ->
                      (* A persistent cache directory implies caching. *)
                      go
                        { inv with cache_dir = Some v; cache_enabled = true }
                        rest'));
                (fun () ->
                  with_value "daemon-socket" (fun v rest' ->
                      go
                        { inv with daemon_socket = Some v; daemon = true }
                        rest'));
                (fun () ->
                  with_value "daemon-timeout" (fun v rest' ->
                      match parse_float "daemon-timeout" v with
                      | Ok t ->
                        go
                          { inv with daemon_timeout = Some t; daemon = true }
                          rest'
                      | Error e -> Error e));
                (fun () ->
                  numeric "daemon-retries" (fun inv n ->
                      {
                        inv with
                        daemon_retries = Some (max 0 n);
                        daemon = true;
                      }));
                (fun () ->
                  with_value "transfo-script" (fun v rest' ->
                      go { inv with transfo_script = Some (File v) } rest'));
                (fun () ->
                  with_value "analyze-format" (fun v rest' ->
                      if v = "text" || v = "json" then
                        go { inv with analyze_format = v } rest'
                      else
                        Error
                          (Printf.sprintf
                             "invalid -analyze-format %S (expected text or json)"
                             v)));
              ]
          with
          | Some r -> r
          | None -> Error (Printf.sprintf "unknown option %S" arg))))
  in
  go { default with inputs = [] } args

(* ---- argv rendering ------------------------------------------------------ *)

(* The inverse of [of_argv] for everything but the inputs: the caller —
   notably the ICE reproducer writer — supplies its own file names.  Only
   non-default settings are emitted so the rendered command stays short;
   the result round-trips through [of_argv]. *)
let to_argv inv =
  let d = default in
  let flag cond f = if cond then [ f ] else [] in
  let action_flags =
    match inv.action with
    | Run -> []
    | Ast_dump -> [ "-ast-dump" ]
    | Ast_dump_shadow -> [ "-ast-dump-shadow" ]
    | Ast_print -> [ "-ast-print" ]
    | Print_transformed -> [ "-print-transformed" ]
    | Emit_ir -> [ "-emit-ir" ]
    | Emit_transformed -> [ "-emit-transformed" ]
    | Syntax_only -> [ "-syntax-only" ]
    | Analyze -> (
      match inv.analyze with
      | Some (_ :: _ as ps) -> [ "-analyze=" ^ String.concat "," ps ]
      | _ -> [ "-analyze" ])
  in
  action_flags
  @ flag inv.use_irbuilder "-fopenmp-enable-irbuilder"
  @ (if inv.opt_level <> d.opt_level then
       [ Printf.sprintf "-O%d" inv.opt_level ]
     else [])
  @ flag (not inv.fold) "-no-builder-folding"
  @ List.map (fun (n, v) -> Printf.sprintf "-D%s=%s" n v) inv.defines
  @ (if inv.jobs <> d.jobs then [ Printf.sprintf "-j%d" inv.jobs ] else [])
  @ flag
      (inv.cache_enabled && not inv.incremental && inv.cache_dir = None)
      "-cache"
  @ (match inv.cache_dir with
    | Some d -> [ Printf.sprintf "-cache-dir=%s" d ]
    | None -> [])
  @ flag inv.incremental "-incremental"
  @ flag
      (inv.daemon && inv.daemon_socket = None && inv.daemon_timeout = None
     && inv.daemon_retries = None)
      "-daemon"
  @ (match inv.daemon_socket with
    | Some s -> [ Printf.sprintf "-daemon-socket=%s" s ]
    | None -> [])
  @ (match inv.daemon_timeout with
    | Some t -> [ Printf.sprintf "-daemon-timeout=%g" t ]
    | None -> [])
  @ (match inv.daemon_retries with
    | Some r -> [ Printf.sprintf "-daemon-retries=%d" r ]
    | None -> [])
  @ (if inv.num_threads <> d.num_threads then
       [ Printf.sprintf "-num-threads=%d" inv.num_threads ]
     else [])
  @ flag inv.stage_timings "-stage-timings"
  @ flag inv.time_report "-ftime-report"
  @ flag inv.print_stats "-print-stats"
  @ (if inv.error_limit <> d.error_limit then
       [ Printf.sprintf "-ferror-limit=%d" inv.error_limit ]
     else [])
  @ (if inv.bracket_depth <> d.bracket_depth then
       [ Printf.sprintf "-fbracket-depth=%d" inv.bracket_depth ]
     else [])
  @ (if inv.loop_nest_limit <> d.loop_nest_limit then
       [ Printf.sprintf "-floop-nest-limit=%d" inv.loop_nest_limit ]
     else [])
  @ (match inv.transfo_script with
    | Some input -> [ Printf.sprintf "-transfo-script=%s" (input_name input) ]
    | None -> [])
  @ flag (not inv.transfo_check) "-no-transfo-check"
  @ (if inv.analyze_format <> d.analyze_format then
       [ "-analyze-format=" ^ inv.analyze_format ]
     else [])
  @ flag (not inv.gen_reproducer) "-fno-crash-diagnostics"
