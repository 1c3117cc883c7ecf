module Token = Mc_lexer.Token
module Lexer = Mc_lexer.Lexer
module Loc = Mc_srcmgr.Source_location
module Diag = Mc_diag.Diagnostics
module Srcmgr = Mc_srcmgr.Source_manager
module Fmgr = Mc_srcmgr.File_manager
module Stats = Mc_support.Stats

let stat_expansions =
  Stats.counter ~group:"pp" ~name:"macro-expansions"
    ~desc:"macro expansions performed" ()
let stat_files =
  Stats.counter ~group:"pp" ~name:"files-entered"
    ~desc:"source files entered (main buffer and #includes)" ()
let stat_directives =
  Stats.counter ~group:"pp" ~name:"directives-processed"
    ~desc:"preprocessing directives handled" ()
let stat_pragmas =
  Stats.counter ~group:"pp" ~name:"pragmas-kept"
    ~desc:"omp/clang pragmas forwarded to the parser" ()

type pragma = { pragma_loc : Loc.t; pragma_toks : Token.t list }
type item = Tok of Token.t | Prag of pragma

type macro =
  | Object of Token.t list
  | Function of { params : string list; body : Token.t list }

(* A token travelling through expansion carries the set of macro names that
   must not expand inside it again (the classic hide set, simplified). *)
type ptok = { tok : Token.t; hide : string list }

type cond_state = {
  mutable taken : bool; (* some branch of this #if chain was taken *)
  mutable live : bool; (* current branch is live *)
  was_live : bool; (* the enclosing context was live *)
}

(* A token source on the include stack: a live lexer, or a replay of an
   already-lexed token list (how the stage-graph pipeline, which times
   lexing as a phase of its own, feeds the main buffer's tokens through
   preprocessing).  [ahead] holds tokens handed back to this source —
   the first token of the line after a directive — so that they follow
   whatever an #include pushes on top of it.  A drained source keeps
   handing out its [Eof] forever, as [Lexer.next] does. *)
type source = {
  mutable ahead : Token.t list;
  lexer : Lexer.t option; (* [None]: a replay of [ahead], then [eof] *)
  eof : Token.t;
}

let source_next s =
  match s.ahead with
  | tok :: rest ->
    s.ahead <- rest;
    tok
  | [] -> ( match s.lexer with Some lexer -> Lexer.next lexer | None -> s.eof)

type t = {
  diag : Diag.t;
  srcmgr : Srcmgr.t;
  fmgr : Fmgr.t;
  macros : (string, macro) Hashtbl.t;
  mutable sources : source list; (* include stack, innermost first *)
  mutable pending : ptok list; (* macro-expansion output queue *)
  mutable conds : cond_state list;
  mutable include_depth : int;
  mutable includes : (string * string) list; (* (path, digest), newest first *)
}

let create diag srcmgr fmgr =
  {
    diag;
    srcmgr;
    fmgr;
    macros = Hashtbl.create 16;
    sources = [];
    pending = [];
    conds = [];
    include_depth = 0;
    includes = [];
  }

let include_digests t = List.rev t.includes

let macro_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.macros []
  |> List.sort String.compare

let eof_token =
  {
    Token.kind = Token.Eof;
    loc = Loc.invalid;
    len = 0;
    at_line_start = true;
    has_space_before = false;
  }

let lexer_source lexer = { ahead = []; lexer = Some lexer; eof = eof_token }

(* Raw token fetch: next token from the innermost source, popping finished
   includes.  Does not consult the pending queue. *)
let rec raw_next t =
  match t.sources with
  | [] -> eof_token
  | source :: rest ->
    let tok = source_next source in
    if Token.is_eof tok && rest <> [] then begin
      t.sources <- rest;
      raw_next t
    end
    else tok

(* Fetch including the pending (expansion) queue. *)
let fetch t =
  match t.pending with
  | p :: rest ->
    t.pending <- rest;
    p
  | [] -> { tok = raw_next t; hide = [] }

let push_back t p = t.pending <- p :: t.pending

(* ---- Macro expansion ------------------------------------------------- *)

let substitutable name hide = not (List.mem name hide)

(* Collect a function-like macro's arguments.  The opening paren has been
   consumed.  Returns the arguments (token lists) in order.  The end of
   input goes back to the queue: it ends an isolated expansion too. *)
let collect_args t =
  let rec arg depth acc args =
    let p = fetch t in
    match p.tok.Token.kind with
    | Token.Eof ->
      Diag.error t.diag ~loc:p.tok.Token.loc
        "unterminated macro argument list";
      push_back t p;
      List.rev (List.rev acc :: args)
    | Token.Punct Token.LParen -> arg (depth + 1) (p :: acc) args
    | Token.Punct Token.RParen when depth = 0 -> List.rev (List.rev acc :: args)
    | Token.Punct Token.RParen -> arg (depth - 1) (p :: acc) args
    | Token.Punct Token.Comma when depth = 0 -> arg 0 [] (List.rev acc :: args)
    | _ -> arg depth (p :: acc) args
  in
  arg 0 [] []

(* One step of expansion for an identifier token: returns [true] when it
   expanded (the expansion is now in the pending queue). *)
let rec try_expand t (p : ptok) =
  match p.tok.Token.kind with
  | Token.Ident name when substitutable name p.hide -> (
    match Hashtbl.find_opt t.macros name with
    | None -> false
    | Some (Object body) ->
      Stats.incr stat_expansions;
      let hide = name :: p.hide in
      t.pending <-
        List.map (fun tok -> { tok; hide }) body @ t.pending;
      true
    | Some (Function { params; body }) -> (
      (* Only expands when followed by '('; otherwise the identifier stays. *)
      let next = fetch t in
      match next.tok.Token.kind with
      | Token.Punct Token.LParen ->
        let args = collect_args t in
        let args = if args = [ [] ] && params = [] then [] else args in
        if List.length args <> List.length params then begin
          Diag.error t.diag ~loc:p.tok.Token.loc
            (Printf.sprintf
               "macro '%s' expects %d argument(s) but %d given" name
               (List.length params) (List.length args));
          true
        end
        else begin
          Stats.incr stat_expansions;
          let binding = List.combine params args in
          let hide = name :: p.hide in
          let subst_of (btok : Token.t) =
            match btok.Token.kind with
            | Token.Ident id -> List.assoc_opt id binding
            | _ -> None
          in
          (* An argument that is no operand of # or ## is macro-replaced
             completely before it is substituted (C11 6.10.3.1), once. *)
          let expanded =
            List.combine params
              (List.map (fun arg -> lazy (expand_isolated t arg)) args)
          in
          (* The # operator keeps one space where the argument had
             whitespace between two tokens, and no other (6.10.3.2). *)
          let spell_arg arg_toks =
            let buf = Buffer.create 16 in
            List.iteri
              (fun i (a : ptok) ->
                if i > 0 && a.tok.Token.has_space_before then
                  Buffer.add_char buf ' ';
                Buffer.add_string buf (Token.spelling a.tok))
              arg_toks;
            Buffer.contents buf
          in
          (* Pass 1: the # and ## operators (on the spelling level, like a
             real preprocessor: their operands do not macro-expand). *)
          let rec operators acc = function
            | [] -> List.rev acc
            | ({ Token.kind = Token.Punct Token.Hash; _ } as h) :: rest -> (
              match rest with
              | arg_tok :: rest' -> (
                match subst_of arg_tok with
                | Some arg_toks ->
                  let text = spell_arg arg_toks in
                  let strtok =
                    { h with
                      Token.kind =
                        Token.String_lit
                          { value = text; text = "\"" ^ String.escaped text ^ "\"" } }
                  in
                  operators (`Tok strtok :: acc) rest'
                | None ->
                  Diag.error t.diag ~loc:h.Token.loc
                    "'#' must be followed by a macro parameter";
                  operators acc rest)
              | [] ->
                Diag.error t.diag ~loc:h.Token.loc
                  "'#' at end of macro body";
                List.rev acc)
            | a :: { Token.kind = Token.Punct Token.HashHash; _ } :: b :: rest ->
              (* Paste the last token of a's replacement with the first of
                 b's, re-lexing the concatenation. *)
              let left =
                match subst_of a with
                | Some toks -> List.map (fun (x : ptok) -> x.tok) toks
                | None -> [ a ]
              in
              let right =
                match subst_of b with
                | Some toks -> List.map (fun (x : ptok) -> x.tok) toks
                | None -> [ b ]
              in
              let pasted =
                match (List.rev left, right) with
                | l :: ls, r :: rs ->
                  let text = Token.spelling l ^ Token.spelling r in
                  let buf =
                    Mc_srcmgr.Memory_buffer.create ~name:"<paste>" ~contents:text
                  in
                  let id = Srcmgr.load_buffer t.srcmgr buf in
                  let relexed = Lexer.tokenize t.diag ~file_id:id buf in
                  (match relexed with
                  | [ single ] -> List.rev ls @ [ single ] @ rs
                  | _ ->
                    Diag.error t.diag ~loc:a.Token.loc
                      (Printf.sprintf
                         "pasting forms '%s', an invalid preprocessing token"
                         text);
                    List.rev ls @ relexed @ rs)
                | _, _ -> left @ right
              in
              operators (List.rev_map (fun x -> `Tok x) pasted @ acc) rest
            | tok :: rest -> operators (`Raw tok :: acc) rest
          in
          (* Pass 2: ordinary parameter substitution on what remains. *)
          let substituted =
            List.concat_map
              (function
                | `Tok tok -> [ { tok; hide } ] (* from # or ##: no expansion *)
                | `Raw (btok : Token.t) -> (
                  match btok.Token.kind with
                  | Token.Ident id when List.mem_assoc id expanded ->
                    List.map
                      (fun (a : ptok) -> { a with hide = hide @ a.hide })
                      (Lazy.force (List.assoc id expanded))
                  | _ -> [ { tok = btok; hide } ]))
              (operators [] body)
          in
          t.pending <- substituted @ t.pending;
          true
        end
      | _ ->
        push_back t next;
        false))
  | _ -> false

(* Macro-replace [toks] completely and in isolation, as the rest of a
   file that ends after them: a function-like macro name at the end stays
   as it is rather than reading on.  A macro argument before substitution,
   an #if line and a pragma line expand this way. *)
and expand_isolated t toks =
  let saved = t.pending in
  t.pending <- toks @ [ { tok = eof_token; hide = [] } ];
  let rec drain acc =
    let p = fetch t in
    if Token.is_eof p.tok then List.rev acc
    else if try_expand t p then drain acc
    else drain (p :: acc)
  in
  let out = drain [] in
  t.pending <- saved;
  out

(* ---- #if expression evaluation --------------------------------------- *)

(* Evaluates the controlling expression of an #if/#elif from an
   already-collected directive token list.  [defined X] and [defined(X)] are
   handled before macro expansion, per the standard. *)
let eval_condition t (toks : Token.t list) ~loc =
  (* Phase 1: resolve 'defined'. *)
  let rec resolve_defined = function
    | [] -> []
    | ({ Token.kind = Token.Ident "defined"; _ } as d) :: rest -> (
      let mk v =
        {
          d with
          Token.kind =
            Token.Int_lit
              {
                value = (if v then 1L else 0L);
                suffix = { suffix_unsigned = false; suffix_long = false };
                text = (if v then "1" else "0");
              };
        }
      in
      match rest with
      | { Token.kind = Token.Ident name; _ } :: rest' ->
        mk (Hashtbl.mem t.macros name) :: resolve_defined rest'
      | { Token.kind = Token.Punct Token.LParen; _ }
        :: { Token.kind = Token.Ident name; _ }
        :: { Token.kind = Token.Punct Token.RParen; _ }
        :: rest' ->
        mk (Hashtbl.mem t.macros name) :: resolve_defined rest'
      | _ ->
        Diag.error t.diag ~loc "expected identifier after 'defined'";
        mk false :: resolve_defined rest)
    | tok :: rest -> tok :: resolve_defined rest
  in
  (* Phase 2: macro-expand. *)
  let toks =
    List.map
      (fun p -> p.tok)
      (expand_isolated t
         (List.map (fun tok -> { tok; hide = [] }) (resolve_defined toks)))
  in
  (* Phase 3: recursive-descent evaluation; unknown identifiers become 0.
     Every value is an intmax_t or a uintmax_t (C11 6.10.1p4): an int64
     and whether it is unsigned, under the usual arithmetic
     conversions. *)
  let toks = ref toks in
  let peek () = match !toks with [] -> None | x :: _ -> Some x in
  let advance () = match !toks with [] -> () | _ :: r -> toks := r in
  let error msg =
    Diag.error t.diag ~loc msg;
    (0L, false)
  in
  (* Above zero while parsing an operand C leaves unevaluated: the right
     operand of a false [&&] or a true [||], and the arm [?:] does not
     take (6.5.13-6.5.15).  It is still parsed, so a syntax error stands,
     and an arm still contributes its type; only evaluation errors are
     not raised. *)
  let unevaluated = ref 0 in
  let skipping f =
    incr unevaluated;
    let v = f () in
    decr unevaluated;
    v
  in
  let eval_error msg u = if !unevaluated > 0 then (0L, u) else error msg in
  let rec primary () =
    match peek () with
    | Some { Token.kind = Token.Int_lit { value; suffix; _ }; _ } ->
      advance ();
      (* A constant too large for intmax_t is a uintmax_t. *)
      (value, suffix.Token.suffix_unsigned || Int64.compare value 0L < 0)
    | Some { Token.kind = Token.Char_lit { value; _ }; _ } ->
      advance ();
      (Int64.of_int value, false)
    | Some { Token.kind = Token.Ident _; _ } ->
      advance ();
      (0L, false)
    | Some { Token.kind = Token.Punct Token.LParen; _ } ->
      advance ();
      let v = ternary () in
      (match peek () with
      | Some { Token.kind = Token.Punct Token.RParen; _ } -> advance ()
      | _ -> ignore (error "expected ')' in preprocessor expression"));
      v
    | Some { Token.kind = Token.Punct Token.Exclaim; _ } ->
      advance ();
      ((if Int64.equal (fst (primary ())) 0L then 1L else 0L), false)
    | Some { Token.kind = Token.Punct Token.Minus; _ } ->
      advance ();
      let v, u = primary () in
      (Int64.neg v, u)
    | Some { Token.kind = Token.Punct Token.Plus; _ } ->
      advance ();
      primary ()
    | Some { Token.kind = Token.Punct Token.Tilde; _ } ->
      advance ();
      let v, u = primary () in
      (Int64.lognot v, u)
    | _ -> error "expected expression in preprocessor condition"
  and binary_level level =
    (* Precedence climbing over the usual C binary operators. *)
    let op_level (p : Token.punct) =
      match p with
      | Token.Star | Token.Slash | Token.Percent -> Some 10
      | Token.Plus | Token.Minus -> Some 9
      | Token.LessLess | Token.GreaterGreater -> Some 8
      | Token.Less | Token.LessEqual | Token.Greater | Token.GreaterEqual ->
        Some 7
      | Token.EqualEqual | Token.ExclaimEqual -> Some 6
      | Token.Amp -> Some 5
      | Token.Caret -> Some 4
      | Token.Pipe -> Some 3
      | Token.AmpAmp -> Some 2
      | Token.PipePipe -> Some 1
      | _ -> None
    in
    let apply p (a, ua) (b, ub) =
      let bool v = ((if v then 1L else 0L), false) in
      (* The usual arithmetic conversions: unsigned if either operand is;
         a shift has its left operand's type. *)
      let u = ua || ub in
      let cmp () = if u then Int64.unsigned_compare a b else Int64.compare a b in
      match (p : Token.punct) with
      | Token.Star -> (Int64.mul a b, u)
      | Token.Slash ->
        if Int64.equal b 0L then eval_error "division by zero in #if" u
        else ((if u then Int64.unsigned_div a b else Int64.div a b), u)
      | Token.Percent ->
        if Int64.equal b 0L then eval_error "modulo by zero in #if" u
        else ((if u then Int64.unsigned_rem a b else Int64.rem a b), u)
      | Token.Plus -> (Int64.add a b, u)
      | Token.Minus -> (Int64.sub a b, u)
      | Token.LessLess -> (Int64.shift_left a (Int64.to_int b land 63), ua)
      | Token.GreaterGreater ->
        let n = Int64.to_int b land 63 in
        ((if ua then Int64.shift_right_logical a n else Int64.shift_right a n), ua)
      | Token.Less -> bool (cmp () < 0)
      | Token.LessEqual -> bool (cmp () <= 0)
      | Token.Greater -> bool (cmp () > 0)
      | Token.GreaterEqual -> bool (cmp () >= 0)
      | Token.EqualEqual -> bool (Int64.equal a b)
      | Token.ExclaimEqual -> bool (not (Int64.equal a b))
      | Token.Amp -> (Int64.logand a b, u)
      | Token.Caret -> (Int64.logxor a b, u)
      | Token.Pipe -> (Int64.logor a b, u)
      | Token.AmpAmp -> bool ((not (Int64.equal a 0L)) && not (Int64.equal b 0L))
      | Token.PipePipe -> bool ((not (Int64.equal a 0L)) || not (Int64.equal b 0L))
      | _ ->
        (* [op_level] only admits the punctuators handled above. *)
        Mc_support.Crash_recovery.internal_error
          "#if evaluator applied to a non-operator punctuator"
    in
    let rec loop lhs =
      match peek () with
      | Some { Token.kind = Token.Punct p; _ } -> (
        match op_level p with
        | Some l when l >= level ->
          advance ();
          let decided =
            match p with
            | Token.AmpAmp -> Int64.equal (fst lhs) 0L
            | Token.PipePipe -> not (Int64.equal (fst lhs) 0L)
            | _ -> false
          in
          let operand () = binary_level (l + 1) in
          let rhs = if decided then skipping operand else operand () in
          loop (apply p lhs rhs)
        | _ -> lhs)
      | _ -> lhs
    in
    loop (if level > 10 then primary () else binary_level (level + 1))
  and ternary () =
    let c = binary_level 1 in
    match peek () with
    | Some { Token.kind = Token.Punct Token.Question; _ } ->
      advance ();
      let taken = not (Int64.equal (fst c) 0L) in
      let a = if taken then ternary () else skipping ternary in
      (match peek () with
      | Some { Token.kind = Token.Punct Token.Colon; _ } -> advance ()
      | _ -> ignore (error "expected ':' in preprocessor conditional"));
      let b = if taken then skipping ternary else ternary () in
      (* The result has the converted type of both branches. *)
      ((if Int64.equal (fst c) 0L then fst b else fst a), snd a || snd b)
    | _ -> c
  in
  not (Int64.equal (fst (ternary ())) 0L)

(* ---- Directive handling ----------------------------------------------- *)

(* Collect the raw tokens of one directive line: everything until the next
   token flagged [at_line_start] or the end of the *current* file — a
   directive never continues into the including file, so this must not pop
   the lexer stack.  The line-starting token goes back to its own source,
   not to the pending queue: an #include then pushes the header above it,
   and the header's tokens come first. *)
let directive_tokens t =
  match t.sources with
  | [] -> []
  | source :: _ ->
    let rec go acc =
      let tok = source_next source in
      if Token.is_eof tok then List.rev acc
      else if tok.Token.at_line_start then begin
        source.ahead <- tok :: source.ahead;
        List.rev acc
      end
      else go (tok :: acc)
    in
    go []

let live t = List.for_all (fun c -> c.live) t.conds

(* C11 6.10.3p2: a redefinition is allowed, silently, when it has the same
   parameters and a replacement list with the same spellings and the same
   whitespace separation.  Whitespace before the first replacement token
   separates nothing, so it is not compared. *)
let same_definition a b =
  let rec same_body ~first xs ys =
    match (xs, ys) with
    | [], [] -> true
    | (x : Token.t) :: xs, (y : Token.t) :: ys ->
      String.equal (Token.spelling x) (Token.spelling y)
      && (first || Bool.equal x.Token.has_space_before y.Token.has_space_before)
      && same_body ~first:false xs ys
    | _ -> false
  in
  match (a, b) with
  | Object xs, Object ys -> same_body ~first:true xs ys
  | Function f, Function g ->
    List.equal String.equal f.params g.params
    && same_body ~first:true f.body g.body
  | Object _, Function _ | Function _, Object _ -> false

let handle_define t loc toks =
  match toks with
  | { Token.kind = Token.Ident name; _ } :: rest ->
    let macro =
      match rest with
      | ({ Token.kind = Token.Punct Token.LParen; has_space_before = false; _ })
        :: after_paren ->
        (* Function-like: parse the parameter list. *)
        let rec params acc = function
          | { Token.kind = Token.Punct Token.RParen; _ } :: body ->
            (List.rev acc, body)
          | { Token.kind = Token.Ident p; _ }
            :: { Token.kind = Token.Punct Token.Comma; _ }
            :: more ->
            params (p :: acc) more
          | { Token.kind = Token.Ident p; _ }
            :: ({ Token.kind = Token.Punct Token.RParen; _ } :: _ as more) ->
            params (p :: acc) more
          | _ ->
            Diag.error t.diag ~loc "malformed macro parameter list";
            (List.rev acc, [])
        in
        let params, body = params [] after_paren in
        Function { params; body }
      | body -> Object body
    in
    (match Hashtbl.find_opt t.macros name with
    | Some old when not (same_definition old macro) ->
      Diag.warning t.diag ~loc (Printf.sprintf "'%s' macro redefined" name)
    | _ -> ());
    Hashtbl.replace t.macros name macro
  | _ -> Diag.error t.diag ~loc "macro name missing in #define"

let handle_include t loc toks =
  match toks with
  | [ { Token.kind = Token.String_lit { value = path; _ }; _ } ] -> (
    if t.include_depth > 64 then
      Diag.error t.diag ~loc "#include nested too deeply"
    else
      match Fmgr.get_file t.fmgr path with
      | None ->
        Diag.error t.diag ~loc
          (Printf.sprintf "'%s' file not found" path)
      | Some buf ->
        Stats.incr stat_files;
        (* Record what was actually included (path + content digest): the
           stage cache validates a cached PPTokens artifact against this
           set, so editing an included file invalidates the entry. *)
        t.includes <- (path, Mc_srcmgr.Memory_buffer.digest buf) :: t.includes;
        let file_id = Srcmgr.load_buffer t.srcmgr buf in
        t.include_depth <- t.include_depth + 1;
        t.sources <- lexer_source (Lexer.create t.diag ~file_id buf) :: t.sources)
  | _ -> Diag.error t.diag ~loc "expected \"FILENAME\" after #include"

(* Skip tokens of a dead conditional branch, honouring nesting.  Returns at
   the directive that reactivates this level (#elif/#else/#endif), which the
   caller then processes. *)

let rec next_item t : item option =
  let p = fetch t in
  let tok = p.tok in
  match tok.Token.kind with
  | Token.Eof ->
    if t.conds <> [] then
      Diag.error t.diag ~loc:tok.Token.loc "unterminated #if";
    None
  | Token.Punct Token.Hash when tok.Token.at_line_start ->
    handle_directive t tok
  | _ when not (live t) -> next_item t
  | Token.Ident _ -> if try_expand t p then next_item t else Some (Tok tok)
  | _ -> Some (Tok tok)

and handle_directive t hash_tok : item option =
  Stats.incr stat_directives;
  let loc = hash_tok.Token.loc in
  let toks = directive_tokens t in
  match toks with
  | [] -> next_item t (* null directive *)
  | { Token.kind = name_kind; _ } :: rest -> (
    let name =
      match name_kind with
      | Token.Ident s -> s
      | Token.Keyword kw -> Token.keyword_to_string kw
      | Token.Punct p -> Token.punct_to_string p
      | _ -> ""
    in
    match name with
    | "define" when live t ->
      handle_define t loc rest;
      next_item t
    | "undef" when live t ->
      (match rest with
      | [ { Token.kind = Token.Ident n; _ } ] -> Hashtbl.remove t.macros n
      | _ -> Diag.error t.diag ~loc "macro name missing in #undef");
      next_item t
    | "include" when live t ->
      handle_include t loc rest;
      next_item t
    | "pragma" when live t -> (
      (* Expand macros in the pragma's token stream, as OpenMP requires. *)
      let pragma_toks =
        List.map
          (fun p -> p.tok)
          (expand_isolated t (List.map (fun tok -> { tok; hide = [] }) rest))
      in
      match pragma_toks with
      | { Token.kind = Token.Ident ("omp" | "clang"); _ } :: _ ->
        Stats.incr stat_pragmas;
        Some (Prag { pragma_loc = loc; pragma_toks })
      | { Token.kind = Token.Ident other; _ } :: _ ->
        Diag.warning t.diag ~loc
          (Printf.sprintf "unknown pragma '%s' ignored" other);
        next_item t
      | _ ->
        Diag.warning t.diag ~loc "empty #pragma ignored";
        next_item t)
    | "ifdef" | "ifndef" ->
      let was_live = live t in
      let cond =
        match rest with
        | [ { Token.kind = Token.Ident n; _ } ] ->
          let defined = Hashtbl.mem t.macros n in
          if name = "ifdef" then defined else not defined
        | _ ->
          if was_live then
            Diag.error t.diag ~loc
              (Printf.sprintf "macro name missing in #%s" name);
          false
      in
      let branch = was_live && cond in
      t.conds <- { taken = branch; live = branch; was_live } :: t.conds;
      next_item t
    | "if" ->
      let was_live = live t in
      let cond = if was_live then eval_condition t rest ~loc else false in
      let branch = was_live && cond in
      t.conds <- { taken = branch; live = branch; was_live } :: t.conds;
      next_item t
    | "elif" ->
      (match t.conds with
      | [] -> Diag.error t.diag ~loc "#elif without #if"
      | c :: _ ->
        if c.taken then c.live <- false
        else begin
          let cond = c.was_live && eval_condition t rest ~loc in
          c.live <- cond;
          if cond then c.taken <- true
        end);
      next_item t
    | "else" ->
      (match t.conds with
      | [] -> Diag.error t.diag ~loc "#else without #if"
      | c :: _ ->
        c.live <- c.was_live && not c.taken;
        c.taken <- true);
      next_item t
    | "endif" ->
      (match t.conds with
      | [] -> Diag.error t.diag ~loc "#endif without #if"
      | _ :: rest_conds -> t.conds <- rest_conds);
      next_item t
    | "error" ->
      if live t then begin
        let text =
          String.concat " " (List.map Token.spelling rest)
        in
        Diag.error t.diag ~loc ("#error " ^ text)
      end;
      next_item t
    | _ ->
      if live t then
        Diag.error t.diag ~loc
          (Printf.sprintf "invalid preprocessing directive '#%s'" name);
      next_item t)

(* ---- Entry points ------------------------------------------------------ *)

let define_object_macro t ~name ~body =
  let buf = Mc_srcmgr.Memory_buffer.create ~name:("<define:" ^ name ^ ">") ~contents:body in
  let file_id = Srcmgr.load_buffer t.srcmgr buf in
  let body_toks = Mc_lexer.Lexer.tokenize t.diag ~file_id buf in
  Hashtbl.replace t.macros name (Object body_toks)

let drive t =
  t.pending <- [];
  t.conds <- [];
  let rec go acc =
    match next_item t with None -> List.rev acc | Some item -> go (item :: acc)
  in
  go []

let preprocess_main t buf =
  Stats.incr stat_files;
  let file_id = Srcmgr.load_main t.srcmgr buf in
  t.sources <- [ lexer_source (Lexer.create t.diag ~file_id buf) ];
  drive t

let preprocess_tokens t ~file_id buf toks =
  Stats.incr stat_files;
  (* Same end-of-buffer Eof a live lexer would produce: offset at the end
     of the main buffer, so "unterminated #if"-style diagnostics point to
     the same place whether the tokens were replayed or lexed. *)
  let eof =
    {
      Token.kind = Token.Eof;
      loc = Srcmgr.location t.srcmgr ~file_id ~offset:(Mc_srcmgr.Memory_buffer.length buf);
      len = 0;
      at_line_start = true;
      has_space_before = false;
    }
  in
  t.sources <- [ { ahead = toks; lexer = None; eof } ];
  drive t
