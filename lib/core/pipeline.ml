(* The stage-graph pipeline: Fig. 1's layer stack made explicit.

   Source -> PPTokens -> AST(+Sema/shadow/canonical) -> IR -> OptIR is a
   linear DAG of typed stages.  Each stage produces an artifact whose
   fingerprint is the hash of its input artifact plus the stage-relevant
   slice of the options, so a per-stage cache can answer "has this exact
   stage input been processed under these exact options before?":

     lex    : hash(source)                      — no options reach the lexer
     pp     : hash(source, -D slice)           + #include-set validation
     ast    : hash(canonical PPTokens stream, sema slice)
     ir     : hash(ast fp, codegen slice)
     optir  : hash(ir fp, pass slice)

   Content-addressing the AST stage on the preprocessor's *output* is what
   makes a comment-only edit (lex/pp re-run, same expanded stream) reuse
   everything from the AST stage onward, while a -D that changes expansion
   or a -floop-nest-limit change invalidates exactly the stages whose
   input or slice it touches.  -ferror-limit is deliberately in no slice:
   only diagnostic-free stage outputs are ever cached, and a
   diagnostic-free run is identical under any error limit.

   From the parser on, the unit is worked in top-level slices
   ({!slice_unit}): parsed one by one against a shared sema, emitted,
   analysed and optimised per slice, then relinked ({!link_minis}).  That
   is the one compile algorithm, cached or not; a cache adds per-slice
   artifacts ("fnast", "fnir", "fnanalysis", "fnoptir") under the unit
   ones, so a body edit re-runs one slice.  Without a cache no fingerprint
   is computed and nothing is marshalled.

   Warm paths read and write only what their callers use:

   - the unit "ast" and "ir" artifacts are manifests.  "ast" holds the
     AST id watermark and the fnast fingerprints of the slices that
     declare something; "ir" holds those slices' fnir fingerprints.
     Decls and pre-pass snapshots are stored once, per slice;
   - the "pp" artifact carries the canonical digest of its item stream,
     which keys the AST stage, and keeps the items as bytes that only a
     parse opens;
   - past the AST stage the per-slice lookup order is fnoptir → fnir →
     fnast.  Each declaring slice looks up "fnoptir" (and "fnanalysis")
     first; it reads its "fnir" snapshot only when its passes or analysis
     must run, and its "fnast" decls only when its codegen must run.  A
     hit on the ast, ir and optir unit artifacts reads no per-slice
     artifact at all.

   A manifest member may be missing when it is needed: evicted, corrupt,
   or lost to a faulted read.  The stage that served the manifest then
   counts a miss after all ({!Cache.reject}): a missing fnir snapshot is
   re-emitted from the slice's decls, and a missing fnast artifact re-runs
   the per-slice walk in unit order, which re-parses exactly the slices
   whose artifacts are gone.  The IR is the same either way.

   Caching policy: a stage artifact is stored only when the compilation
   has produced no diagnostics at all by the end of that stage (a hit
   must never swallow a warning replay), and storing is the last act of a
   successfully executed stage — an ICE mid-stage can never have been
   stored.  Mutable artifacts (source managers, ASTs, IR modules) are
   marshalled on store and unmarshalled fresh per hit, so no two
   compilations ever alias one cached structure; the IR artifact is
   snapshotted *before* the pass pipeline mutates the module in place.

   Determinism: every execution starts by rewinding the domain-local
   AST/IR id and gensym counters, so a cached artifact is byte-identical
   to the one a cold compilation would rebuild — cold vs warm and 1 vs N
   domains produce the same IR printout. *)

module Diag = Mc_diag.Diagnostics
module Srcmgr = Mc_srcmgr.Source_manager
module Fmgr = Mc_srcmgr.File_manager
module Buf = Mc_srcmgr.Memory_buffer
module Stats = Mc_support.Stats
module Clock = Mc_support.Clock
module Crash_recovery = Mc_support.Crash_recovery
module Loc = Mc_srcmgr.Source_location

type options = {
  use_irbuilder : bool;
  optimize : bool;
  fold : bool;
  verify_ir : bool;
  defines : (string * string) list;
  extra_files : (string * string) list;
  error_limit : int;
  bracket_depth : int;
  loop_nest_limit : int;
  transfo_script : string option;
  transfo_check : bool;
  analyze : string list option;
      (* Some [] = every analysis pass; Some ps = that selection; the
         report lands in [result.analysis].  Keyed on pre-pass IR, so it
         caches per slice. *)
}

let default_options =
  {
    use_irbuilder = false;
    optimize = true;
    fold = true;
    verify_ir = true;
    defines = [];
    extra_files = [];
    error_limit = 20;
    bracket_depth = Mc_parser.Parser.default_bracket_depth;
    loop_nest_limit = Mc_sema.Sema.default_loop_nest_limit;
    transfo_script = None;
    transfo_check = true;
    analyze = None;
  }

type timings = {
  t_lex : float;
  t_preprocess : float;
  t_parse_sema : float;
  t_codegen : float;
  t_passes : float;
}

type result = {
  diag : Diag.t;
  srcmgr : Srcmgr.t;
  ir : Mc_ir.Ir.modul option;
  codegen_error : string option;
  timings : timings;
  unroll_stats : Mc_passes.Loop_unroll.stats;
  stats : Stats.snapshot;
  transformed : (string * string) option;
  analysis : Mc_analysis.Report.t option;
}

type stage = Transfo | Lex | Preprocess | Parse_sema | Codegen | Passes

let stages = [ Transfo; Lex; Preprocess; Parse_sema; Codegen; Passes ]

(* -ftime-report / crash-phase labels: stable since PR 1. *)
let stage_name = function
  | Transfo -> "transfo"
  | Lex -> "lex"
  | Preprocess -> "preprocess"
  | Parse_sema -> "parse-sema"
  | Codegen -> "codegen"
  | Passes -> "passes"

(* Artifact tags in the stage cache and its [cache.<tag>-*] counters. *)
let stage_tag = function
  | Transfo -> "transfo"
  | Lex -> "lex"
  | Preprocess -> "pp"
  | Parse_sema -> "ast"
  | Codegen -> "ir"
  | Passes -> "optir"

type outcome = Executed | Cache_hit | Partial

type trace = (stage * outcome) list

let outcome_name = function
  | Executed -> "run"
  | Cache_hit -> "hit"
  | Partial -> "partial"

let render_trace tr =
  String.concat " "
    (List.map (fun (s, o) -> stage_tag s ^ ":" ^ outcome_name o) tr)

let render_fn_trace fns =
  String.concat " " (List.map (fun (n, o) -> n ^ ":" ^ outcome_name o) fns)

type exec = {
  x_result : result;
  x_trace : trace;
  x_full_hit : bool;
  x_fn_trace : (string * outcome) list;
      (** Per-slice outcomes (definition names, reused or parsed), in
          unit order; empty when the unit's AST manifest was reused. *)
}

(* ---- fingerprints ------------------------------------------------------- *)

let hash s = Digest.to_hex (Digest.string s)

(* The stage-relevant slice of the options, canonically rendered.  A flag
   change invalidates exactly the stages whose slice mentions it. *)
let option_slice stage o =
  match stage with
  | Transfo ->
    (* Keyed on the *canonical* script (comments and whitespace stripped):
       editing a comment in the script stays a warm hit, editing a step
       invalidates. *)
    (match o.transfo_script with
    | Some script ->
      Printf.sprintf "check=%b;script=%s" o.transfo_check
        (Mc_transfo.Script.canonical script)
    | None -> "")
  | Lex -> "" (* no option reaches the lexer *)
  | Preprocess ->
    String.concat "\x01" (List.map (fun (k, v) -> k ^ "\x02" ^ v) o.defines)
  | Parse_sema ->
    Printf.sprintf "irbuilder=%b;bdepth=%d;nlimit=%d" o.use_irbuilder
      o.bracket_depth o.loop_nest_limit
  | Codegen ->
    Printf.sprintf "irbuilder=%b;fold=%b;verify=%b" o.use_irbuilder o.fold
      o.verify_ir
  | Passes -> Printf.sprintf "optimize=%b;verify=%b" o.optimize o.verify_ir

let source_fingerprint ~name source = hash ("src\x00" ^ name ^ "\x00" ^ source)

let stage_fingerprint stage o ~input =
  hash (stage_tag stage ^ "\x00" ^ input ^ "\x00" ^ option_slice stage o)

(* ---- counters ----------------------------------------------------------- *)

(* Whole-pipeline aggregates over the per-stage counters [Cache] owns: a
   "hit" is a compilation that reused every stage from the parser onward
   (no parse, sema, codegen or pass work ran). *)
let stat_full_hits =
  Stats.counter ~group:"cache" ~name:"hits"
    ~desc:"whole-pipeline cache hits (every stage from parse onward reused)" ()

let stat_full_misses =
  Stats.counter ~group:"cache" ~name:"misses"
    ~desc:"compilations that executed at least one stage from parse onward" ()

let codegen_errors_counter =
  Stats.counter ~group:"driver" ~name:"codegen-errors"
    ~desc:"compilations refused by CodeGen (unsupported construct / errors)" ()

(* Function-granular aggregates: one event per slice a cached
   compilation parses or adopts (a unit-level AST hit consults no slice
   and counts nothing here). *)
let stat_fn_hits =
  Stats.counter ~group:"cache" ~name:"fn-hits"
    ~desc:"top-level slices whose sema'd AST was reused from a fnast artifact"
    ()

let stat_fn_misses =
  Stats.counter ~group:"cache" ~name:"fn-misses"
    ~desc:"top-level slices that had to be re-parsed and re-analysed" ()

let stat_fn_relinks =
  Stats.counter ~group:"cache" ~name:"fn-relinks"
    ~desc:"functions stitched into a unit IR module from per-function modules"
    ()

(* Analysis-stage aggregates, same shape as the fn cache counters: one
   event per slice module whenever a cached compilation runs --analyze. *)
let stat_an_fn_hits =
  Stats.counter ~group:"analysis" ~name:"fn-hits"
    ~desc:"functions whose analysis report was reused from a fnanalysis artifact"
    ()

let stat_an_fn_misses =
  Stats.counter ~group:"analysis" ~name:"fn-misses"
    ~desc:"functions analysed afresh (no fnanalysis artifact)" ()

(* ---- execution ---------------------------------------------------------- *)

(* Stage timing on the monotonic wall clock; every interval also lands in
   the current [Stats] registry for -ftime-report, and the active stage
   doubles as the crash-recovery phase watermark so an ICE report can say
   which pipeline stage blew up. *)
let time stage f =
  let label = stage_name stage in
  Crash_recovery.set_phase label;
  let start = Clock.now () in
  let v = f () in
  let dt = Clock.now () -. start in
  Stats.record (Stats.timer ~group:"driver" ~name:label) dt;
  (v, dt)

(* Every execution starts from a known state: every domain-local name/id
   generator rewound, so the same source always produces byte-identical
   ASTs and IR no matter how many compilations preceded it in this
   process or which domain runs it.  (The stats registry needs no reset:
   each execution runs in its own scoped registry.) *)
let reset_compilation_state () =
  Mc_ast.Tree.reset_ids ();
  Mc_ir.Ir.reset_ids ();
  Mc_ompbuilder.Omp_builder.reset_gensym ();
  Mc_codegen.Codegen.reset_gensym ()

let marshal v = Marshal.to_string v []

(* An artifact in two parts: a head, read on every hit, then a body that
   stays bytes until [body] unmarshals it. *)
let pack head body = marshal head ^ marshal body
let head payload = Marshal.from_string payload 0
let body payload =
  Marshal.from_string payload
    (Marshal.total_size (Bytes.unsafe_of_string payload) 0)

(* The PPTokens artifact's head: the canonical digest of the parser-ready
   stream (the AST stage's input), the source manager its token locations
   refer to, and the #include set (path + content digest) the
   preprocessing actually entered — validated against the current file
   manager before the entry may be reused.  Its body is the stream. *)
type pp_head = {
  pl_digest : string;
  pl_srcmgr : Srcmgr.t;
  pl_includes : (string * string) list;
}

(* ---- slicing ------------------------------------------------------------ *)

(* A run of top-level declarations of the preprocessed stream — the unit
   in which the pipeline parses, caches, emits and optimises.  Usually a
   single declaration; [sl_fn_def] marks a lone function definition,
   whose interface to later slices stops at its body. *)
type slice = {
  sl_defs : string list; (* the function definitions it holds, in order *)
  sl_fn_def : bool;
  sl_items : Mc_pp.Preprocessor.item list;
}

let slice_label sl =
  match sl.sl_defs with [] -> "<decl>" | defs -> String.concat "+" defs

(* Split the preprocessed stream into slices by bracket tracking: a slice
   ends at a depth-0 [;] or at the [}] closing a top-level function body,
   and the end-of-file token joins the last slice, so the slices always
   concatenate back to [items].  The split is total:

   - a stream it cannot split — a file-scope pragma, unbalanced brackets,
     a top-level brace group that is no function body, tokens after the
     last declaration — stays one slice, which the parser then sees
     exactly as the unsplit stream;
   - a slice declaring a function (the name before its first top-level
     '(') is merged with every slice back to the earliest earlier
     non-definition slice that mentions the name.  Sema writes a
     definition's body, and a redeclaration's parameter names, into the
     record the first prototype created; merging keeps that write inside
     one slice, whose artifact can hold it. *)
let slice_unit items =
  let module Tk = Mc_lexer.Token in
  let module Pp = Mc_pp.Preprocessor in
  let exception Unsliceable in
  let split () =
    let slices = ref [] in
    let cur = ref [] and eof = ref [] in
    let paren = ref 0 and brace = ref 0 and bracket = ref 0 in
    let name = ref None in
    let name_locked = ref false in (* saw the depth-0 '(' that froze it *)
    let fn_like = ref false in (* that '(' was later followed by a top-level '{' *)
    let at_top () = !paren = 0 && !brace = 0 && !bracket = 0 in
    let finish ~fn_def =
      let declared = if !name_locked then !name else None in
      let sl =
        {
          sl_defs = (if fn_def then Option.to_list declared else []);
          sl_fn_def = fn_def;
          sl_items = List.rev !cur;
        }
      in
      slices := (sl, declared) :: !slices;
      cur := [];
      name := None;
      name_locked := false;
      fn_like := false
    in
    List.iter
      (fun item ->
        if !eof <> [] then raise Unsliceable;
        match item with
        | Pp.Prag _ ->
          if !brace = 0 && !paren = 0 then raise Unsliceable;
          cur := item :: !cur
        | Pp.Tok tok -> (
          match tok.Tk.kind with
          | Tk.Eof ->
            if !cur <> [] then raise Unsliceable;
            eof := [ item ]
          | kind ->
            cur := item :: !cur;
            (match kind with
            | Tk.Ident id ->
              if at_top () && not !name_locked then name := Some id
            | Tk.Punct Tk.LParen ->
              if at_top () && !name <> None then name_locked := true;
              incr paren
            | Tk.Punct Tk.RParen ->
              decr paren;
              if !paren < 0 then raise Unsliceable
            | Tk.Punct Tk.LBracket -> incr bracket
            | Tk.Punct Tk.RBracket ->
              decr bracket;
              if !bracket < 0 then raise Unsliceable
            | Tk.Punct Tk.LBrace ->
              if at_top () then
                if !name_locked then fn_like := true else raise Unsliceable;
              incr brace
            | Tk.Punct Tk.RBrace ->
              decr brace;
              if !brace < 0 then raise Unsliceable;
              if at_top () then begin
                if not !fn_like then raise Unsliceable;
                finish ~fn_def:true
              end
            | Tk.Punct Tk.Semi -> if at_top () then finish ~fn_def:false
            | _ -> ())))
      items;
    if !cur <> [] || not (at_top ()) then raise Unsliceable;
    (Array.of_list (List.rev !slices), !eof)
  in
  let merge raw =
    let n = Array.length raw in
    (* reach.(i): the last slice that must share a slice with slice i. *)
    let reach = Array.init n Fun.id in
    let first_mention = Hashtbl.create 16 in
    Array.iteri
      (fun k (sl, declared) ->
        (match declared with
        | Some nm -> (
          match Hashtbl.find_opt first_mention nm with
          | Some j -> reach.(j) <- k
          | None -> ())
        | None -> ());
        if not sl.sl_fn_def then
          List.iter
            (function
              | Pp.Tok { Tk.kind = Tk.Ident id; _ } ->
                if not (Hashtbl.mem first_mention id) then
                  Hashtbl.add first_mention id k
              | _ -> ())
            sl.sl_items)
      raw;
    let rec groups i acc =
      if i >= n then List.rev acc
      else begin
        let stop = ref reach.(i) and j = ref i in
        while !j < !stop do
          incr j;
          stop := max !stop reach.(!j)
        done;
        let sl =
          if !stop = i then fst raw.(i)
          else
            let members =
              List.init (!stop - i + 1) (fun d -> fst raw.(i + d))
            in
            {
              sl_defs = List.concat_map (fun s -> s.sl_defs) members;
              sl_fn_def = false;
              sl_items = List.concat_map (fun s -> s.sl_items) members;
            }
        in
        groups (!stop + 1) (sl :: acc)
      end
    in
    groups 0 []
  in
  match split () with
  | exception Unsliceable ->
    [ { sl_defs = []; sl_fn_def = false; sl_items = items } ]
  | raw, eof -> (
    match List.rev (merge raw) with
    | [] -> [ { sl_defs = []; sl_fn_def = false; sl_items = eof } ]
    | last :: earlier ->
      List.rev ({ last with sl_items = last.sl_items @ eof } :: earlier))

(* The context a slice's analysis can observe from earlier slices: full
   token content for most slices, and the tokens up to the body-opening
   brace for a lone function definition — so a body edit changes no later
   slice's context while a signature or global edit changes them all. *)
let slice_interface sl =
  let buf = Buffer.create 256 in
  if not sl.sl_fn_def then Cache.canonical_items buf sl.sl_items
  else begin
    let module Tk = Mc_lexer.Token in
    let module Pp = Mc_pp.Preprocessor in
    (try
       List.iter
         (fun item ->
           match item with
           | Pp.Tok tok ->
             Buffer.add_string buf (Tk.spelling tok);
             Buffer.add_char buf '\x00';
             if tok.Tk.kind = Tk.Punct Tk.LBrace then raise Exit
           | Pp.Prag _ -> raise Exit (* unreachable: pre-brace is pragma-free *))
         sl.sl_items
     with Exit -> ());
    Buffer.add_string buf "\x02{}"
  end;
  Buffer.contents buf

let slice_digest sl =
  let buf = Buffer.create 512 in
  Cache.canonical_items buf sl.sl_items;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- per-slice artifacts ------------------------------------------------- *)

(* A slice past the AST stage: its "fnast" fingerprint ("" uncached) and
   its sema'd decls, as far as this compilation has read them — held in
   memory, still the bytes of a fnast artifact the walk looked up, or not
   yet looked up because the unit's AST manifest named the slice. *)
type decls = Held of Mc_ast.Tree.tu_decl list | Stored of string | Unread

type ast_slice = { a_fp : string; mutable a_decls : decls }

(* A fnast artifact: head (AST id watermark, whether the slice declares
   anything), body the decls. *)
let fnast_payload decls = pack (Mc_ast.Tree.current_id (), decls <> []) decls

(* The manifest lists only slices that declare something: the others
   emit nothing and have no backend artifacts. *)
let declares s =
  match s.a_decls with
  | Held decls -> decls <> []
  | Stored payload -> snd (head payload : int * bool)
  | Unread -> true

(* Open a fnast payload: claim its watermark, so ids allocated later never
   collide with the adopted nodes, and keep the decls. *)
let unpack s payload =
  let ((wm, _) : int * bool) = head payload in
  Mc_ast.Tree.claim_up_to wm;
  let decls : Mc_ast.Tree.tu_decl list = body payload in
  s.a_decls <- Held decls;
  decls

(* One slice's pre-pass IR module: emitted by this compilation, or
   served from the cache as its marshalled snapshot (module, IR id
   watermark), taken before the passes mutate it. *)
type mini_ir = Emitted of Mc_ir.Ir.modul | Cached of string

(* Link per-slice modules (in unit order) into a unit module reproducing
   exactly the function order a whole-unit codegen would have built: the
   first module to mention a name places it, later declaration copies
   are dropped, and a definition grafts over an earlier declaration in
   place.  Every [Direct] callee and [Fn_addr] operand is then rewired to
   the canonical record per name — the interpreter executes calls by
   following that very pointer. *)
let link_minis ~module_name minis =
  let by_name : (string, Mc_ir.Ir.func) Hashtbl.t = Hashtbl.create 16 in
  let order : Mc_ir.Ir.func ref list ref = ref [] in
  List.iter
    (fun (mini : Mc_ir.Ir.modul) ->
      List.iter
        (fun (f : Mc_ir.Ir.func) ->
          match Hashtbl.find_opt by_name f.Mc_ir.Ir.f_name with
          | None ->
            Hashtbl.replace by_name f.Mc_ir.Ir.f_name f;
            order := ref f :: !order;
            Stats.incr stat_fn_relinks
          | Some existing
            when existing.Mc_ir.Ir.f_is_decl && not f.Mc_ir.Ir.f_is_decl ->
            (* A definition grafts over the declaration's slot. *)
            Hashtbl.replace by_name f.Mc_ir.Ir.f_name f;
            List.iter
              (fun slot -> if !slot == existing then slot := f)
              !order;
            Stats.incr stat_fn_relinks
          | Some _ -> ())
        mini.Mc_ir.Ir.m_funcs)
    minis;
  let m = Mc_ir.Ir.create_module module_name in
  m.Mc_ir.Ir.m_funcs <- List.rev_map (fun slot -> !slot) !order;
  let resolve (f : Mc_ir.Ir.func) =
    match Hashtbl.find by_name f.Mc_ir.Ir.f_name with
    | g -> g
    | exception Not_found -> f
  in
  Mc_ir.Ir.map_function_refs resolve m;
  m

let zero_timings =
  {
    t_lex = 0.0;
    t_preprocess = 0.0;
    t_parse_sema = 0.0;
    t_codegen = 0.0;
    t_passes = 0.0;
  }

(* The transfo pre-stage rewrites the *source*, so downstream stages see
   it as ordinary input: the lex fingerprint hashes the rewritten text and
   everything from there on is content-addressed exactly as before.  The
   whole walk is mutually recursive because the engine needs a frontend
   (target resolution re-parses after every step) and the differential
   check needs full compilations of the before/after programs. *)
let rec walk ?cache ~frontend_only ~options ~name source =
  match options.transfo_script with
  | None -> walk_stages ?cache ~frontend_only ~options ~name ~transfo:None source
  | Some script -> (
    match apply_transfo ?cache ~options ~name ~script source with
    | Error msg ->
      (* A failed script is a compilation error: report it, produce no
         AST/IR, and never fall back to compiling the unrewritten
         program (Run must not execute something the user didn't ask
         for). *)
      let sm = Srcmgr.create () in
      let d = Diag.create sm in
      Diag.error d ~loc:Loc.invalid msg;
      ( {
          x_result =
            {
              diag = d;
              srcmgr = sm;
              ir = None;
              codegen_error = None;
              timings = zero_timings;
              unroll_stats = Mc_passes.Loop_unroll.empty_stats;
              stats = [];
              transformed = None;
              analysis = None;
            };
          x_trace = [ (Transfo, Executed) ];
          x_full_hit = false;
          x_fn_trace = [];
        },
        None )
    | Ok (outc, source', tr) ->
      let options = { options with transfo_script = None } in
      walk_stages ?cache ~frontend_only ~options ~name
        ~transfo:(Some (outc, source', tr)) source')

(* The transfo stage proper: cache-consult, else run the engine.  The
   fingerprint covers the input source, the canonical script and the
   check flag; the payload is (rewritten source, rendered step trace). *)
and apply_transfo ?cache ~options ~name ~script source =
  let fp =
    stage_fingerprint Transfo
      { options with transfo_script = Some script }
      ~input:(source_fingerprint ~name source)
  in
  let cached =
    match cache with
    | None -> None
    | Some c -> Cache.find c ~stage:(stage_tag Transfo) fp
  in
  match cached with
  | Some payload ->
    let (src', tr) : string * string = Marshal.from_string payload 0 in
    Ok (Cache_hit, src', tr)
  | None -> (
    let fe_options = { options with transfo_script = None } in
    let config =
      {
        Mc_transfo.Engine.frontend =
          (fun ~name source -> frontend ~options:fe_options ~name source);
        check =
          (if options.transfo_check then
             Some (fun ~name ~before ~after ->
                 differential_check ~options ~name ~before ~after)
           else None);
      }
    in
    let outcome, _dt =
      time Transfo (fun () ->
          Mc_transfo.Engine.run config ~name ~script ~source)
    in
    match outcome with
    | Error _ as e -> e
    | Ok o ->
      let src' = o.Mc_transfo.Engine.out_source in
      let tr = Mc_transfo.Engine.render_trace o in
      (match cache with
      | None -> ()
      | Some c ->
        (* Engine success implies the intermediate programs were all
           diagnostic-free, so storing is unconditional here. *)
        Cache.store c ~stage:(stage_tag Transfo) fp (marshal (src', tr)));
      Ok (Executed, src', tr))

(* The semantic oracle: both programs compiled classic -O0 (one fixed,
   deterministic configuration) and run on the IR interpreter; the step
   is accepted only if every observable — stdout, the record trace, the
   return value, or the trap — is identical. *)
and differential_check ~options ~name ~before ~after =
  let check_options =
    { options with transfo_script = None; use_irbuilder = false;
      optimize = false }
  in
  let observe source =
    let x = execute ~options:check_options ~name source in
    let r = x.x_result in
    if Diag.has_errors r.diag then
      Error ("does not compile:\n" ^ Diag.render_all r.diag)
    else
      match r.ir with
      | None ->
        Error
          (match r.codegen_error with
          | Some e -> "codegen: " ^ e
          | None -> "no IR produced")
      | Some m -> (
        match Mc_interp.Interp.run_main m with
        | o ->
          Ok
            (`Finished
               ( o.Mc_interp.Interp.output,
                 o.Mc_interp.Interp.trace,
                 o.Mc_interp.Interp.return_value ))
        | exception Mc_interp.Interp.Trap msg -> Ok (`Trapped msg))
  in
  match observe before with
  | Error e -> Error ("the program before the step " ^ e)
  | Ok obs_before -> (
    match observe after with
    | Error e -> Error ("the program after the step " ^ e)
    | Ok obs_after ->
      if obs_before = obs_after then Ok ()
      else
        let describe = function
          | `Trapped msg -> "trap: " ^ msg
          | `Finished (out, tr, ret) ->
            Printf.sprintf "output %S, %d record(s), exit %s" out
              (List.length tr)
              (match ret with Some v -> Int64.to_string v | None -> "void")
        in
        (* Locate the likely culprit: the dependence analysis of the
           *original* program names the loop-carried dependences the
           step may have reordered — a located explanation beats a bare
           "the outputs differ".  Refusals are rare, so the extra
           compile (cache-less, -O0) is off the hot path. *)
        let dependence_notes =
          let x = execute ~options:check_options ~name before in
          let r = x.x_result in
          match r.ir with
          | None -> []
          | Some m ->
            let describe loc = Srcmgr.describe r.srcmgr loc in
            let report =
              Mc_analysis.Analyzer.run ~passes:[ "deps" ] ~describe m
            in
            List.concat_map
              (fun (lr : Mc_analysis.Report.loop_report) ->
                List.map
                  (fun (n : Mc_analysis.Report.note) ->
                    Printf.sprintf "%s: note: %s" n.Mc_analysis.Report.n_loc
                      n.Mc_analysis.Report.n_msg)
                  lr.Mc_analysis.Report.lr_notes)
              (Mc_analysis.Report.loops report)
        in
        Error
          (Printf.sprintf "behaviour diverged: before: %s; after: %s%s"
             (describe obs_before) (describe obs_after)
             (match dependence_notes with
             | [] -> ""
             | notes -> "\n" ^ String.concat "\n" notes)))

and walk_stages ?cache ~frontend_only ~options ~name ~transfo source =
  reset_compilation_state ();
  let trace = ref [] in
  let mark stage outcome = trace := (stage, outcome) :: !trace in
  (match transfo with
  | Some ((outc : outcome), _, _) -> mark Transfo outc
  | None -> ());
  let t_lex = ref 0.0
  and t_preprocess = ref 0.0
  and t_parse_sema = ref 0.0
  and t_codegen = ref 0.0
  and t_passes = ref 0.0 in
  (* The source manager and diagnostics engine are rebound when a cached
     PPTokens artifact (which carries its own source manager) is adopted;
     everything downstream reads through these refs. *)
  let srcmgr = ref (Srcmgr.create ()) in
  let fmgr = Fmgr.create () in
  List.iter
    (fun (path, contents) -> ignore (Fmgr.add_file fmgr ~path ~contents))
    options.extra_files;
  let diag = ref (Diag.create !srcmgr) in
  Diag.set_error_limit !diag options.error_limit;
  (* Let the crash-recovery watermark render "file:line:col" without
     mc_support depending on the source manager. *)
  Crash_recovery.set_position_renderer (fun ~file ~offset ->
      Srcmgr.describe !srcmgr (Loc.encode ~file_id:file ~offset));
  let clean () = Diag.diagnostics !diag = [] in
  (* The memo table.  Fingerprints only address it, so a compilation
     without a cache computes none (and keeps no input alive for one). *)
  let memo = Option.is_some cache in
  let fingerprint f = if memo then f () else "" in
  let find ?validate tag fp =
    match cache with
    | None -> None
    | Some c -> Cache.find c ~stage:tag ?validate fp
  in
  (* Storing is the last act of an executed stage, and only when the
     compilation is still diagnostic-free — so an ICE mid-stage was never
     stored, and a hit never swallows a warning replay. *)
  let store tag fp payload =
    match cache with
    | Some c when clean () -> Cache.store c ~stage:tag fp (payload ())
    | _ -> ()
  in
  let consult ?validate stage fp = find ?validate (stage_tag stage) fp in
  let save stage fp payload = store (stage_tag stage) fp payload in
  let buf = Buf.create ~name ~contents:source in
  (* The main buffer loads first — file id 1, always — so token locations
     inside cached artifacts stay valid whatever -D buffers or includes a
     particular compilation loads afterwards. *)
  let main_id = Srcmgr.load_main !srcmgr buf in
  let src_fp = fingerprint (fun () -> source_fingerprint ~name source) in

  (* Stage: lex. *)
  let lex_fp =
    fingerprint (fun () -> stage_fingerprint Lex options ~input:src_fp)
  in
  (* The token stream is only ever consumed by an *executed* preprocess
     stage, so a cached payload stays un-unmarshalled until (unless) the
     preprocessor actually needs it — on a pp hit the lex hit costs one
     digest lookup, not a deserialization proportional to unit size. *)
  let toks =
    match consult Lex lex_fp with
    | Some payload ->
      mark Lex Cache_hit;
      lazy (Marshal.from_string payload 0 : Mc_lexer.Token.t list)
    | None ->
      let toks, dt =
        time Lex (fun () -> Mc_lexer.Lexer.tokenize !diag ~file_id:main_id buf)
      in
      t_lex := dt;
      mark Lex Executed;
      save Lex lex_fp (fun () -> marshal toks);
      Lazy.from_val toks
  in

  (* Stage: preprocess.  Its output is the parser-ready stream and the
     stream's canonical digest, which keys the AST stage; on a hit the
     stream stays bytes until a parse needs it. *)
  let pp_fp =
    fingerprint (fun () -> stage_fingerprint Preprocess options ~input:src_fp)
  in
  let adopted = ref None in
  let validate payload =
    let (h : pp_head) = head payload in
    let ok =
      List.for_all
        (fun (path, dg) ->
          match Fmgr.get_file fmgr path with
          | Some b -> String.equal (Buf.digest b) dg
          | None -> false)
        h.pl_includes
    in
    if ok then adopted := Some (h, payload);
    ok
  in
  let items, items_digest =
    match consult ~validate Preprocess pp_fp with
    | Some _ ->
      let h, payload = Option.get !adopted in
      mark Preprocess Cache_hit;
      (* Adopt the cached compilation state wholesale: the marshalled
         source manager already holds the main buffer, -D buffers and
         every include, and the replayed tokens point into it. *)
      srcmgr := h.pl_srcmgr;
      diag := Diag.create h.pl_srcmgr;
      Diag.set_error_limit !diag options.error_limit;
      ( lazy (body payload : Mc_pp.Preprocessor.item list),
        Lazy.from_val h.pl_digest )
    | None ->
      let pp = Mc_pp.Preprocessor.create !diag !srcmgr fmgr in
      List.iter
        (fun (n, body) ->
          Mc_pp.Preprocessor.define_object_macro pp ~name:n ~body)
        options.defines;
      let items, dt =
        time Preprocess (fun () ->
            Mc_pp.Preprocessor.preprocess_tokens pp ~file_id:main_id buf
              (Lazy.force toks))
      in
      t_preprocess := dt;
      mark Preprocess Executed;
      let digest = lazy (Cache.canonical_digest items) in
      save Preprocess pp_fp (fun () ->
          pack
            {
              pl_digest = Lazy.force digest;
              pl_srcmgr = !srcmgr;
              pl_includes = Mc_pp.Preprocessor.include_digests pp;
            }
            items);
      (Lazy.from_val items, digest)
  in

  (* Stage: parse + sema (the parser drives sema, so they are one stage).
     Content-addressed on the canonical preprocessed stream, not on the
     source: a comment-only edit lands here with an unchanged input.

     The stream is parsed slice by slice ({!slice_unit}) against one
     shared sema.  Each slice has its own "fnast" artifact, addressed by
     the interfaces of the slices before it and by its own tokens, so a
     body edit re-parses exactly the edited function and adopts every
     other slice's sema'd decls.  The unit's "ast" artifact is the
     manifest of the declaring slices' fnast artifacts. *)
  let ast_fp =
    fingerprint (fun () ->
        stage_fingerprint Parse_sema options ~input:(Lazy.force items_digest))
  in
  let ir_fp =
    fingerprint (fun () -> stage_fingerprint Codegen options ~input:ast_fp)
  in
  let fn_trace = ref [] in
  (* A hit stays bytes until a later slice must be parsed against it; it
     is then adopted into the sema.  A miss parses just that slice and
     stores its new decls with earlier functions' bodies stripped, so an
     artifact carries exactly its own bodies.  After the first diagnostic
     the walk looks nothing up and stores nothing: the remaining slices
     are parsed with the same sema and diagnostics engine, as one stream
     would be. *)
  let parse_slices slices =
    let pslice = option_slice Parse_sema options in
    let sema =
      Mc_sema.Sema.create
        ~mode:
          (if options.use_irbuilder then Mc_sema.Sema.Irbuilder
           else Mc_sema.Sema.Classic)
        ~loop_nest_limit:options.loop_nest_limit !diag
    in
    (* Digest of the interfaces of the slices parsed so far. *)
    let context = ref "" in
    let defined = ref [] in
    let define decls =
      List.iter
        (function
          | Mc_ast.Tree.Tu_fn fn -> defined := fn :: !defined
          | Mc_ast.Tree.Tu_var _ -> ())
        decls
    in
    let reused = ref 0 in
    (* Hits not yet adopted, newest first. *)
    let pending = ref [] in
    let parse_one sl =
      let fp =
        fingerprint (fun () ->
            hash
              ("fnast\x00" ^ !context ^ "\x00" ^ slice_digest sl ^ "\x00"
             ^ pslice))
      in
      context :=
        fingerprint (fun () -> hash (!context ^ "\x00" ^ slice_interface sl));
      let s = { a_fp = fp; a_decls = Unread } in
      let cached = if clean () then find "fnast" fp else None in
      (match cached with
      | Some payload ->
        incr reused;
        Stats.incr stat_fn_hits;
        s.a_decls <- Stored payload;
        pending := (s, payload) :: !pending
      | None ->
        if memo then Stats.incr stat_fn_misses;
        List.iter
          (fun (s, payload) ->
            let decls = unpack s payload in
            List.iter (Mc_sema.Sema.adopt_tu_decl sema) decls;
            define decls)
          (List.rev !pending);
        pending := [];
        let start = Mc_sema.Sema.decl_mark sema in
        let builtins = Mc_sema.Sema.defined_builtins sema in
        let (_ : Mc_ast.Tree.translation_unit), dt =
          time Parse_sema (fun () ->
              Mc_parser.Parser.parse_translation_unit
                ~bracket_depth:options.bracket_depth sema sl.sl_items)
        in
        t_parse_sema := !t_parse_sema +. dt;
        let fresh = Mc_sema.Sema.decls_since sema start in
        if clean () then begin
          (* The merge rule in [slice_unit] keeps every definition in
             the slice that created its record; only a builtin's record
             predates every slice. *)
          List.iter
            (fun def ->
              if
                not
                  (List.exists
                     (function
                       | Mc_ast.Tree.Tu_fn fn ->
                         String.equal fn.Mc_ast.Tree.fn_name def
                         && fn.Mc_ast.Tree.fn_body <> None
                       | Mc_ast.Tree.Tu_var _ -> false)
                     fresh
                  ||
                  match Mc_sema.Sema.lookup_fn sema def with
                  | Some fn -> fn.Mc_ast.Tree.fn_builtin
                  | None -> false)
              then
                Crash_recovery.internal_error
                  "slice defining '%s' wrote into an earlier slice's record"
                  def)
            sl.sl_defs;
          (* A body given to a builtin lives in no decl, so no artifact
             can replay it: such a slice is parsed afresh every time. *)
          if Mc_sema.Sema.defined_builtins sema = builtins then
            store "fnast" fp (fun () ->
                let stripped =
                  List.filter_map
                    (fun fn ->
                      match fn.Mc_ast.Tree.fn_body with
                      | Some b ->
                        fn.Mc_ast.Tree.fn_body <- None;
                        Some (fn, b)
                      | None -> None)
                    !defined
                in
                Fun.protect
                  ~finally:(fun () ->
                    List.iter
                      (fun (fn, b) -> fn.Mc_ast.Tree.fn_body <- Some b)
                      stripped)
                  (fun () -> fnast_payload fresh))
        end;
        s.a_decls <- Held fresh;
        define fresh);
      fn_trace :=
        (slice_label sl, if cached = None then Executed else Cache_hit)
        :: !fn_trace;
      s
    in
    let slices = List.map parse_one slices in
    (slices, if !reused = 0 then Executed else Partial)
  in
  let slice_walk () = parse_slices (slice_unit (Lazy.force items)) in
  (* Every slice, in unit order, and the walk again after a manifest hit:
     it rebuilds the members the cache no longer holds.  Otherwise nothing
     keeps the token stream alive past this stage. *)
  let slices, walk_again =
    match consult Parse_sema ast_fp with
    | Some payload ->
      mark Parse_sema Cache_hit;
      let ((wm, fps) : int * string list) = Marshal.from_string payload 0 in
      Mc_ast.Tree.claim_up_to wm;
      (List.map (fun fp -> { a_fp = fp; a_decls = Unread }) fps, Some slice_walk)
    | None ->
      let slices, outcome = slice_walk () in
      mark Parse_sema outcome;
      save Parse_sema ast_fp (fun () ->
          marshal
            ( Mc_ast.Tree.current_id (),
              List.filter_map
                (fun s -> if declares s then Some s.a_fp else None)
                slices ));
      (slices, None)
  in
  let declaring = Array.of_list (List.filter declares slices) in
  (* A slice's decls, read on first use.  A fnast member that the manifest
     names but the cache no longer holds sends the AST stage back to the
     per-slice walk, once: the stage counts a miss after all, and the walk
     re-parses exactly the slices whose artifacts are gone. *)
  let rec decls_of s =
    match s.a_decls with
    | Held decls -> decls
    | Stored payload -> unpack s payload
    | Unread ->
      (match find "fnast" s.a_fp with
      | Some payload -> s.a_decls <- Stored payload
      | None -> rewalk (Option.get walk_again));
      decls_of s
  and rewalk slice_walk =
    Cache.reject ~stage:(stage_tag Parse_sema);
    let walked, outcome = slice_walk () in
    trace :=
      List.map
        (fun (st, o) -> if st = Parse_sema then (st, outcome) else (st, o))
        !trace;
    let walked = Array.of_list (List.filter declares walked) in
    if
      Array.map (fun s -> s.a_fp) walked
      <> Array.map (fun s -> s.a_fp) declaring
    then
      Crash_recovery.internal_error
        "the per-slice walk disagrees with the unit's AST manifest";
    Array.iteri (fun i w -> declaring.(i).a_decls <- w.a_decls) walked
  in
  (* Only the frontend reads the AST. *)
  let ast =
    if frontend_only then
      Some { Mc_ast.Tree.tu_decls = List.concat_map decls_of slices }
    else None
  in

  let timings () =
    {
      t_lex = !t_lex;
      t_preprocess = !t_preprocess;
      t_parse_sema = !t_parse_sema;
      t_codegen = !t_codegen;
      t_passes = !t_passes;
    }
  in
  let transformed = Option.map (fun (_, s, tr) -> (s, tr)) transfo in
  (* Filled by the analyze stage (if requested) before [finish] runs. *)
  let analysis_ref = ref None in
  let no_ir codegen_error =
    {
      diag = !diag;
      srcmgr = !srcmgr;
      ir = None;
      codegen_error;
      timings = timings ();
      unroll_stats = Mc_passes.Loop_unroll.empty_stats;
      stats = [];
      transformed;
      analysis = !analysis_ref;
    }
  in
  let finish ir unroll =
    {
      diag = !diag;
      srcmgr = !srcmgr;
      ir = Some ir;
      codegen_error = None;
      timings = timings ();
      unroll_stats = unroll;
      stats = [];
      transformed;
      analysis = !analysis_ref;
    }
  in
  let verify_or_ice m =
    if options.verify_ir then begin
      match Mc_ir.Verifier.check m with
      | Ok () -> ()
      | Error e ->
        invalid_arg
          (Printf.sprintf "IR verification failed after codegen:\n%s" e)
    end
  in
  let mode =
    if options.use_irbuilder then Mc_codegen.Codegen.Irbuilder
    else Mc_codegen.Codegen.Classic
  in
  let passes_of () =
    if options.optimize then Mc_passes.Pass_manager.o1
    else Mc_passes.Pass_manager.o0
  in
  let r =
    if frontend_only || Diag.has_errors !diag then no_ir None
    else begin
      let opt_fp =
        fingerprint (fun () -> stage_fingerprint Passes options ~input:ir_fp)
      in
      let cslice = option_slice Codegen options in
      let oslice = option_slice Passes options in
      let n = Array.length declaring in
      (* Each declaring slice's "fnir" fingerprint, chained off its fnast
         one: the unit "ir" manifest names them on a hit. *)
      let ir_hit, fnir =
        match consult Codegen ir_fp with
        | Some payload ->
          (true, Array.of_list (Marshal.from_string payload 0 : string list))
        | None ->
          ( false,
            Array.map
              (fun s ->
                fingerprint (fun () ->
                    hash ("fnir\x00" ^ s.a_fp ^ "\x00" ^ cslice)))
              declaring )
      in
      (* What each slice already has stored downstream of its pre-pass IR:
         a slice missing its analysis fragment or its post-pass module
         needs its pre-pass module. *)
      let need = Array.make n false in
      let lookup tag i fp =
        match find tag fp with
        | Some payload -> Ok payload
        | None ->
          need.(i) <- true;
          Error fp
      in
      let analysis =
        Option.map
          (fun sel ->
            let apasses = Mc_analysis.Analyzer.normalize_passes (Some sel) in
            let aslice = "analyze=" ^ String.concat "," apasses in
            ( apasses,
              Array.mapi
                (fun i fnir_fp ->
                  lookup "fnanalysis" i
                    (fingerprint (fun () ->
                         hash ("fnanalysis\x00" ^ fnir_fp ^ "\x00" ^ aslice))))
                fnir ))
          options.analyze
      in
      let opt_hit = consult Passes opt_fp in
      let fnoptir =
        if Option.is_some opt_hit then [||]
        else
          Array.mapi
            (fun i fnir_fp ->
              lookup "fnoptir" i
                (fingerprint (fun () ->
                     hash ("fnoptir\x00" ^ fnir_fp ^ "\x00" ^ oslice))))
            fnir
      in
      (* Stage: codegen, for exactly the slices that need a pre-pass module
         and have no "fnir" snapshot.  Gensyms reset per slice, which is
         what makes a per-slice module context-free: outlined-function and
         dispatch-site numbering restart per slice (names stay unique —
         they are prefixed by the parent function's name). *)
      let modules = Array.make n None in
      let emitted = ref 0 and ir_rejected = ref false in
      let rec emit i =
        if i = n then Ok ()
        else if not need.(i) then emit (i + 1)
        else
          match find "fnir" fnir.(i) with
          | Some snapshot ->
            modules.(i) <- Some (Cached snapshot);
            emit (i + 1)
          | None -> (
            if ir_hit && not !ir_rejected then begin
              Cache.reject ~stage:(stage_tag Codegen);
              ir_rejected := true
            end;
            let decls = decls_of declaring.(i) in
            Mc_codegen.Codegen.reset_gensym ();
            Mc_ompbuilder.Omp_builder.reset_gensym ();
            match
              time Codegen (fun () ->
                  match
                    Mc_codegen.Codegen.emit_translation_unit ~fold:options.fold
                      ~mode
                      { Mc_ast.Tree.tu_decls = decls }
                  with
                  | m -> Ok m
                  | exception Mc_codegen.Codegen.Unsupported msg -> Error msg)
            with
            (* The time codegen spent before bailing out is still real
               work; keep it so stage timings stay truthful on the error
               path. *)
            | Error msg, dt ->
              t_codegen := !t_codegen +. dt;
              Stats.incr codegen_errors_counter;
              Error msg
            | Ok m, dt ->
              t_codegen := !t_codegen +. dt;
              verify_or_ice m;
              incr emitted;
              (* Snapshot before the pass pipeline mutates it. *)
              store "fnir" fnir.(i) (fun () ->
                  marshal (m, Mc_ir.Ir.current_id ()));
              modules.(i) <- Some (Emitted m);
              emit (i + 1))
      in
      match emit 0 with
      | Error msg ->
        mark Codegen Executed;
        no_ir (Some msg)
      | Ok () -> (
        mark Codegen
          (if ir_hit && not !ir_rejected then Cache_hit
           else if !emitted < n then Partial
           else Executed);
        if not ir_hit then
          save Codegen ir_fp (fun () -> marshal (Array.to_list fnir));
        (* A slice's pre-pass module, unmarshalled from its snapshot when
           this compilation did not emit it.  [claim] when passes will
           create instructions in it. *)
        let pre_pass ~claim i =
          match Option.get modules.(i) with
          | Emitted m -> m
          | Cached snapshot ->
            let ((m, wm) : Mc_ir.Ir.modul * int) =
              Marshal.from_string snapshot 0
            in
            if claim then Mc_ir.Ir.claim_up_to wm;
            m
        in
        (* Stage: analyze (optional).  Keyed on *pre-pass* IR — the
           analyser wants allocas, not mem2reg'd SSA — and cached per
           slice: editing one body re-analyses exactly that function,
           every sibling serves its cached report fragment.  Report
           fragments are plain strings (locations are rendered at
           analysis time), so a cached fragment is byte-identical to a
           fresh one. *)
        (match analysis with
        | None -> ()
        | Some (apasses, frags) ->
          let describe loc = Srcmgr.describe !srcmgr loc in
          let frs =
            List.concat
              (List.mapi
                 (fun i -> function
                   | Ok payload ->
                     Stats.incr stat_an_fn_hits;
                     (Marshal.from_string payload 0
                       : Mc_analysis.Report.func_report list)
                   | Error fp ->
                     if memo then Stats.incr stat_an_fn_misses;
                     (* Read-only walk: analysis creates no instructions,
                        so no id claim is needed. *)
                     let frs =
                       (Mc_analysis.Analyzer.run ~passes:apasses ~describe
                          (pre_pass ~claim:false i))
                         .Mc_analysis.Report.r_funcs
                     in
                     store "fnanalysis" fp (fun () -> marshal frs);
                     frs)
                 (Array.to_list frags))
          in
          analysis_ref :=
            Some { Mc_analysis.Report.r_passes = apasses; r_funcs = frs });
        (* Stage: passes (OptIR), per slice — one "fnoptir" artifact each —
           then relinked into the unit module. *)
        match opt_hit with
        | Some payload ->
          mark Passes Cache_hit;
          let (m', unroll) : Mc_ir.Ir.modul * Mc_passes.Loop_unroll.stats =
            Marshal.from_string payload 0
          in
          finish m' unroll
        | None ->
          let hits = ref 0 in
          let agg = ref Mc_passes.Loop_unroll.empty_stats in
          let add unroll = agg := Mc_passes.Loop_unroll.add_stats !agg unroll in
          let finals =
            List.mapi
              (fun i -> function
                | Ok payload ->
                  incr hits;
                  let ((m, unroll, wm)
                        : Mc_ir.Ir.modul * Mc_passes.Loop_unroll.stats * int) =
                    Marshal.from_string payload 0
                  in
                  Mc_ir.Ir.claim_up_to wm;
                  add unroll;
                  m
                | Error fp ->
                  let m = pre_pass ~claim:true i in
                  let report, dt =
                    time Passes (fun () ->
                        Mc_passes.Pass_manager.run
                          ~verify_between:options.verify_ir
                          ~passes:(passes_of ()) m)
                  in
                  t_passes := !t_passes +. dt;
                  let unroll = report.Mc_passes.Pass_manager.unroll_stats in
                  add unroll;
                  store "fnoptir" fp (fun () ->
                      marshal (m, unroll, Mc_ir.Ir.current_id ()));
                  m)
              (Array.to_list fnoptir)
          in
          mark Passes (if !hits > 0 then Partial else Executed);
          let final =
            match finals with
            | [ m ] -> m (* one slice: nothing to link *)
            | ms ->
              let m = link_minis ~module_name:"a.out" ms in
              verify_or_ice m;
              m
          in
          save Passes opt_fp (fun () -> marshal (final, !agg));
          finish final !agg)
    end
  in
  let tr = List.rev !trace in
  let full_hit =
    r.ir <> None
    && List.exists (fun (s, _) -> s = Passes) tr
    && List.for_all
         (fun (s, o) ->
           match s with
           | Lex | Preprocess -> true
           | Transfo | Parse_sema | Codegen | Passes -> o = Cache_hit)
         tr
  in
  if memo && not frontend_only then
    Stats.incr (if full_hit then stat_full_hits else stat_full_misses);
  ( {
      x_result = r;
      x_trace = tr;
      x_full_hit = full_hit;
      x_fn_trace = List.rev !fn_trace;
    },
    ast )

and execute ?cache ?(options = default_options) ?(name = "input.c") source =
  let (x, _), registry =
    Stats.with_scoped_registry (fun () ->
        walk ?cache ~frontend_only:false ~options ~name source)
  in
  { x with x_result = { x.x_result with stats = Stats.snapshot ~registry () } }

and frontend ?(options = default_options) ?(name = "input.c") source =
  let (x, tu), _registry =
    Stats.with_scoped_registry (fun () ->
        walk ~frontend_only:true ~options ~name source)
  in
  ( x.x_result.diag,
    (* A failed transfo script yields no AST at all; frontend callers
       still get the diagnostics. *)
    Option.value tu ~default:{ Mc_ast.Tree.tu_decls = [] } )

(* The transfo pre-stage alone, for the daemon's transform requests and
   for embedders that want the rewritten source without compiling it:
   returns (cache outcome, rewritten source, rendered step trace). *)
let transform ?cache ?(options = default_options) ?(name = "input.c") ~script
    source =
  let r, _registry =
    Stats.with_scoped_registry (fun () ->
        apply_transfo ?cache ~options ~name ~script source)
  in
  r
