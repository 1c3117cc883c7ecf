open Mc_ast.Tree
module Token = Mc_lexer.Token
module Pp = Mc_pp.Preprocessor
module Sema = Mc_sema.Sema
module Omp_sema = Mc_sema.Omp_sema
module Ctype = Mc_ast.Ctype
module Diag = Mc_diag.Diagnostics
module Loc = Mc_srcmgr.Source_location

let stat_decls =
  Mc_support.Stats.counter ~group:"parser" ~name:"external-decls"
    ~desc:"file-scope declarations parsed" ()
let stat_omp =
  Mc_support.Stats.counter ~group:"parser" ~name:"omp-directives"
    ~desc:"OpenMP directives parsed" ()

type t = {
  sema : Sema.t;
  diag : Diag.t;
  mutable items : Pp.item list;
  bracket_depth : int; (* -fbracket-depth: max statement/expression nesting *)
  mutable depth : int; (* current nesting level *)
  mutable deepest : int; (* deepest level entered *)
}

let eof_token =
  {
    Token.kind = Token.Eof;
    loc = Loc.invalid;
    len = 0;
    at_line_start = true;
    has_space_before = false;
  }

(* The current head as a token; pragmas surface as Eof here so that plain
   token grammar never consumes them accidentally. *)
let peek t =
  match t.items with
  | Pp.Tok tok :: _ -> tok
  | Pp.Prag _ :: _ | [] -> eof_token

let peek2 t =
  match t.items with
  | _ :: Pp.Tok tok :: _ -> tok
  | _ -> eof_token

let peek_pragma t =
  match t.items with Pp.Prag p :: _ -> Some p | _ -> None

let advance t =
  match t.items with
  | [] -> ()
  | item :: rest ->
    (* Crash-recovery watermark: remember the last consumed position so an
       ICE anywhere downstream can report where in the source it happened. *)
    (match item with
    | Pp.Tok { Token.loc; _ } when Loc.is_valid loc ->
      Mc_support.Crash_recovery.note_source_position ~file:(Loc.file_id loc)
        ~offset:(Loc.offset loc)
    | _ -> ());
    t.items <- rest

let next t =
  let tok = peek t in
  advance t;
  tok

let error t ~loc fmt = Printf.ksprintf (fun s -> Diag.error t.diag ~loc s) fmt

let loc_of t = (peek t).Token.loc

let expect t punct what =
  let tok = peek t in
  if Token.is_punct tok punct then begin
    advance t;
    true
  end
  else begin
    error t ~loc:tok.Token.loc "expected '%s' %s (found %s)"
      (Token.punct_to_string punct) what
      (Token.describe tok.Token.kind);
    false
  end

(* Skip to a synchronisation point after a parse error. *)
let synchronize t =
  let rec go depth =
    let tok = peek t in
    match tok.Token.kind with
    | Token.Eof -> ()
    | Token.Punct Token.Semi when depth = 0 -> advance t
    | Token.Punct Token.LBrace ->
      advance t;
      go (depth + 1)
    | Token.Punct Token.RBrace ->
      if depth = 0 then ()
      else begin
        advance t;
        go (depth - 1)
      end
    | _ ->
      advance t;
      go depth
  in
  go 0

(* -fbracket-depth guard: expression and statement parsing recurse per
   nesting level, so pathological inputs ("((((...." or "{{{{....") would
   otherwise turn into a Stack_overflow.  The counter is bumped on the two
   recursion workhorses (parse_unary, parse_statement); crossing the limit
   is diagnosed exactly once per excursion and recovered from.  The
   deepest level entered is the least limit the parse runs unchanged
   under. *)
let enter_depth t ~loc =
  t.depth <- t.depth + 1;
  if t.depth > t.deepest then t.deepest <- t.depth;
  if t.depth = t.bracket_depth + 1 then
    error t ~loc "nesting level exceeds maximum of %d [-fbracket-depth=]"
      t.bracket_depth;
  t.depth <= t.bracket_depth

let exit_depth t = t.depth <- t.depth - 1

(* ---- types ---------------------------------------------------------------- *)

let starts_type t =
  match (peek t).Token.kind with
  | Token.Keyword
      ( Token.Kw_int | Token.Kw_long | Token.Kw_short | Token.Kw_char
      | Token.Kw_signed | Token.Kw_unsigned | Token.Kw_float | Token.Kw_double
      | Token.Kw_void | Token.Kw_bool | Token.Kw_const ) ->
    true
  | Token.Ident ("size_t" | "int64_t" | "int32_t" | "uint32_t" | "uint64_t") ->
    true
  | _ -> false

(* Declaration specifiers: base type + signedness + const (dropped). *)
let parse_type_specifier t =
  let loc = loc_of t in
  let signedness = ref None in
  let base = ref None in
  let longs = ref 0 in
  let named = ref None in
  let rec go () =
    match (peek t).Token.kind with
    | Token.Keyword Token.Kw_const ->
      advance t;
      go ()
    | Token.Keyword Token.Kw_signed ->
      advance t;
      signedness := Some true;
      go ()
    | Token.Keyword Token.Kw_unsigned ->
      advance t;
      signedness := Some false;
      go ()
    | Token.Keyword Token.Kw_long ->
      advance t;
      incr longs;
      go ()
    | Token.Keyword Token.Kw_int ->
      advance t;
      if !base = None then base := Some `Int;
      go ()
    | Token.Keyword Token.Kw_short ->
      advance t;
      base := Some `Short;
      go ()
    | Token.Keyword Token.Kw_char ->
      advance t;
      base := Some `Char;
      go ()
    | Token.Keyword Token.Kw_float ->
      advance t;
      base := Some `Float;
      go ()
    | Token.Keyword Token.Kw_double ->
      advance t;
      base := Some `Double;
      go ()
    | Token.Keyword Token.Kw_void ->
      advance t;
      base := Some `Void;
      go ()
    | Token.Keyword Token.Kw_bool ->
      advance t;
      base := Some `Bool;
      go ()
    | Token.Ident (("size_t" | "int64_t" | "int32_t" | "uint32_t" | "uint64_t") as n)
      when !base = None && !named = None && !signedness = None && !longs = 0 ->
      advance t;
      named := Some n;
      go ()
    | _ -> ()
  in
  go ();
  match !named with
  | Some "size_t" | Some "uint64_t" -> Ctype.ulong_t
  | Some "int64_t" -> Ctype.long_t
  | Some "int32_t" -> Ctype.int_t
  | Some "uint32_t" -> Ctype.uint_t
  | Some _ -> Ctype.int_t
  | None -> (
    let signed = Option.value !signedness ~default:true in
    match (!base, !longs) with
    | Some `Void, _ -> Void
    | Some `Bool, _ -> Bool
    | Some `Float, _ -> Ctype.float_t
    | Some `Double, _ -> Ctype.double_t
    | Some `Char, _ -> if signed then Ctype.char_t else Ctype.uchar_t
    | Some `Short, _ -> if signed then Ctype.short_t else Ctype.ushort_t
    | Some `Int, 0 | None, 0 -> if signed then Ctype.int_t else Ctype.uint_t
    | (Some `Int | None), _ -> if signed then Ctype.long_t else Ctype.ulong_t
    | exception _ ->
      error t ~loc "invalid type specifier";
      Ctype.int_t)

let parse_pointers t base =
  let ty = ref base in
  while Token.is_punct (peek t) Token.Star do
    advance t;
    (* const after * is accepted and dropped *)
    while Token.is_keyword (peek t) Token.Kw_const do
      advance t
    done;
    ty := Ptr !ty
  done;
  !ty

(* ---- expressions ------------------------------------------------------------ *)

let rec parse_expr t = parse_comma t

and parse_comma t =
  let lhs = parse_assignment t in
  if Token.is_punct (peek t) Token.Comma then begin
    let loc = loc_of t in
    advance t;
    let rhs = parse_comma t in
    Sema.act_on_binary t.sema B_comma lhs rhs ~loc
  end
  else lhs

and parse_assignment t =
  let lhs = parse_conditional t in
  let tok = peek t in
  let compound op =
    advance t;
    let rhs = parse_assignment t in
    Sema.act_on_assign t.sema op lhs rhs ~loc:tok.Token.loc
  in
  match tok.Token.kind with
  | Token.Punct Token.Equal -> compound None
  | Token.Punct Token.PlusEqual -> compound (Some B_add)
  | Token.Punct Token.MinusEqual -> compound (Some B_sub)
  | Token.Punct Token.StarEqual -> compound (Some B_mul)
  | Token.Punct Token.SlashEqual -> compound (Some B_div)
  | Token.Punct Token.PercentEqual -> compound (Some B_rem)
  | Token.Punct Token.LessLessEqual -> compound (Some B_shl)
  | Token.Punct Token.GreaterGreaterEqual -> compound (Some B_shr)
  | Token.Punct Token.AmpEqual -> compound (Some B_band)
  | Token.Punct Token.PipeEqual -> compound (Some B_bor)
  | Token.Punct Token.CaretEqual -> compound (Some B_bxor)
  | _ -> lhs

and parse_conditional t =
  let cond = parse_binary t 1 in
  if Token.is_punct (peek t) Token.Question then begin
    let loc = loc_of t in
    advance t;
    let then_e = parse_expr t in
    ignore (expect t Token.Colon "in conditional expression");
    let else_e = parse_assignment t in
    Sema.act_on_conditional t.sema cond then_e else_e ~loc
  end
  else cond

and binop_of_punct = function
  | Token.Star -> Some (B_mul, 13)
  | Token.Slash -> Some (B_div, 13)
  | Token.Percent -> Some (B_rem, 13)
  | Token.Plus -> Some (B_add, 12)
  | Token.Minus -> Some (B_sub, 12)
  | Token.LessLess -> Some (B_shl, 11)
  | Token.GreaterGreater -> Some (B_shr, 11)
  | Token.Less -> Some (B_lt, 10)
  | Token.Greater -> Some (B_gt, 10)
  | Token.LessEqual -> Some (B_le, 10)
  | Token.GreaterEqual -> Some (B_ge, 10)
  | Token.EqualEqual -> Some (B_eq, 9)
  | Token.ExclaimEqual -> Some (B_ne, 9)
  | Token.Amp -> Some (B_band, 8)
  | Token.Caret -> Some (B_bxor, 7)
  | Token.Pipe -> Some (B_bor, 6)
  | Token.AmpAmp -> Some (B_land, 5)
  | Token.PipePipe -> Some (B_lor, 4)
  | _ -> None

and parse_binary t min_prec =
  let lhs = ref (parse_unary t) in
  let rec loop () =
    match (peek t).Token.kind with
    | Token.Punct p -> (
      match binop_of_punct p with
      | Some (op, prec) when prec >= min_prec ->
        let loc = loc_of t in
        advance t;
        let rhs = parse_binary t (prec + 1) in
        lhs := Sema.act_on_binary t.sema op !lhs rhs ~loc;
        loop ()
      | _ -> ())
    | _ -> ()
  in
  loop ();
  !lhs

and parse_unary t =
  let tok = peek t in
  let loc = tok.Token.loc in
  if not (enter_depth t ~loc) then begin
    (* Too deep: recover with a RecoveryExpr and let the callers unwind.
       No token is consumed here — the enclosing statement loop makes
       progress on the next descent. *)
    exit_depth t;
    Sema.act_on_recovery t.sema ~loc ()
  end
  else
    Fun.protect
      ~finally:(fun () -> exit_depth t)
      (fun () -> parse_unary_guarded t tok ~loc)

and parse_unary_guarded t tok ~loc =
  let unary op =
    advance t;
    Sema.act_on_unary t.sema op (parse_unary t) ~loc
  in
  match tok.Token.kind with
  | Token.Punct Token.Plus -> unary U_plus
  | Token.Punct Token.Minus -> unary U_minus
  | Token.Punct Token.Exclaim -> unary U_lnot
  | Token.Punct Token.Tilde -> unary U_bnot
  | Token.Punct Token.Star -> unary U_deref
  | Token.Punct Token.Amp -> unary U_addrof
  | Token.Punct Token.PlusPlus -> unary U_preinc
  | Token.Punct Token.MinusMinus -> unary U_predec
  | Token.Keyword Token.Kw_sizeof ->
    advance t;
    if Token.is_punct (peek t) Token.LParen then begin
      advance t;
      let inner =
        if starts_type t then begin
          let base = parse_type_specifier t in
          let ty = parse_pointers t base in
          Sema.act_on_sizeof t.sema ty ~loc
        end
        else begin
          let e = parse_expr t in
          Sema.act_on_sizeof t.sema e.e_ty ~loc
        end
      in
      ignore (expect t Token.RParen "after sizeof");
      inner
    end
    else begin
      let e = parse_unary t in
      Sema.act_on_sizeof t.sema e.e_ty ~loc
    end
  | Token.Punct Token.LParen when starts_type_after_lparen t ->
    (* C-style cast. *)
    advance t;
    let base = parse_type_specifier t in
    let ty = parse_pointers t base in
    ignore (expect t Token.RParen "after cast type");
    Sema.act_on_cast t.sema ty (parse_unary t) ~loc
  | _ -> parse_postfix t

and starts_type_after_lparen t =
  match (peek2 t).Token.kind with
  | Token.Keyword
      ( Token.Kw_int | Token.Kw_long | Token.Kw_short | Token.Kw_char
      | Token.Kw_signed | Token.Kw_unsigned | Token.Kw_float | Token.Kw_double
      | Token.Kw_void | Token.Kw_bool | Token.Kw_const ) ->
    true
  | Token.Ident ("size_t" | "int64_t" | "int32_t" | "uint32_t" | "uint64_t") ->
    true
  | _ -> false

and parse_postfix t =
  let e = ref (parse_primary t) in
  let rec loop () =
    let tok = peek t in
    match tok.Token.kind with
    | Token.Punct Token.LParen ->
      advance t;
      let args = ref [] in
      if not (Token.is_punct (peek t) Token.RParen) then begin
        let rec more () =
          args := parse_assignment t :: !args;
          if Token.is_punct (peek t) Token.Comma then begin
            advance t;
            more ()
          end
        in
        more ()
      end;
      ignore (expect t Token.RParen "after call arguments");
      e := Sema.act_on_call t.sema !e (List.rev !args) ~loc:tok.Token.loc;
      loop ()
    | Token.Punct Token.LBracket ->
      advance t;
      let idx = parse_expr t in
      ignore (expect t Token.RBracket "after array subscript");
      e := Sema.act_on_subscript t.sema !e idx ~loc:tok.Token.loc;
      loop ()
    | Token.Punct Token.PlusPlus ->
      advance t;
      e := Sema.act_on_unary t.sema U_postinc !e ~loc:tok.Token.loc;
      loop ()
    | Token.Punct Token.MinusMinus ->
      advance t;
      e := Sema.act_on_unary t.sema U_postdec !e ~loc:tok.Token.loc;
      loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_primary t =
  let tok = next t in
  let loc = tok.Token.loc in
  match tok.Token.kind with
  | Token.Int_lit { value; suffix; _ } ->
    Sema.act_on_int_literal t.sema ~value ~unsigned:suffix.Token.suffix_unsigned
      ~long:suffix.Token.suffix_long ~loc
  | Token.Float_lit { value; _ } -> Sema.act_on_float_literal t.sema ~value ~loc
  | Token.Char_lit { value; _ } -> Sema.act_on_char_literal t.sema ~value ~loc
  | Token.String_lit { value; _ } -> Sema.act_on_string_literal t.sema ~value ~loc
  | Token.Ident name -> Sema.act_on_decl_ref t.sema ~name ~loc
  | Token.Punct Token.LParen ->
    let e = parse_expr t in
    ignore (expect t Token.RParen "after parenthesised expression");
    Sema.act_on_paren t.sema e
  | k ->
    error t ~loc "expected expression (found %s)" (Token.describe k);
    (* RecoveryExpr instead of a placeholder literal: the AST survives,
       but carries the contains-errors bit so codegen refuses it. *)
    Sema.act_on_recovery t.sema ~loc ()

(* ---- declarations ------------------------------------------------------------ *)

(* One declarator in a declaration: pointers, name, array bounds, optional
   initialiser.  Returns the created variable. *)
and parse_init_declarator t base_ty =
  let ty = parse_pointers t base_ty in
  let tok = next t in
  let loc = tok.Token.loc in
  let name =
    match tok.Token.kind with
    | Token.Ident n -> n
    | k ->
      error t ~loc "expected declarator name (found %s)" (Token.describe k);
      "<error>"
  in
  let ty = ref ty in
  let rec arrays () =
    if Token.is_punct (peek t) Token.LBracket then begin
      advance t;
      let bound =
        if Token.is_punct (peek t) Token.RBracket then None
        else begin
          let e = parse_assignment t in
          match Mc_sema.Const_eval.eval_int_as e with
          | Some n when n > 0 -> Some n
          | _ ->
            error t ~loc "array bound must be a positive integer constant";
            Some 1
        end
      in
      ignore (expect t Token.RBracket "after array bound");
      arrays ();
      ty := Array (!ty, bound)
    end
  in
  arrays ();
  let init =
    if Token.is_punct (peek t) Token.Equal then begin
      advance t;
      Some (parse_assignment t)
    end
    else None
  in
  Sema.act_on_var_decl t.sema ~name ~ty:!ty ~init ~loc

and parse_decl_stmt t =
  let loc = loc_of t in
  let base = parse_type_specifier t in
  let vars = ref [ parse_init_declarator t base ] in
  while Token.is_punct (peek t) Token.Comma do
    advance t;
    vars := parse_init_declarator t base :: !vars
  done;
  ignore (expect t Token.Semi "after declaration");
  Sema.act_on_decl_stmt t.sema (List.rev !vars) ~loc

(* ---- OpenMP pragmas ------------------------------------------------------------ *)

(* Parser-side recovery marking: a directive whose pragma line failed to
   parse (unknown clause, missing ')', …) must advertise the damage through
   [contains_errors] just like sema-side analysis failures do, so codegen
   and tooling see one uniform "this subtree is broken" bit. *)
and parse_omp_pragma t (p : Pp.pragma) : stmt =
  let errors_before = Diag.error_count t.diag in
  let stmt = parse_omp_pragma_inner t p in
  if Diag.error_count t.diag > errors_before then mark_stmt_errors stmt;
  stmt

(* A small cursor over a pragma's token list. *)
and parse_omp_pragma_inner t (p : Pp.pragma) : stmt =
  Mc_support.Stats.incr stat_omp;
  let toks = ref p.Pp.pragma_toks in
  let ploc () =
    match !toks with tok :: _ -> tok.Token.loc | [] -> p.Pp.pragma_loc
  in
  let ppeek () = match !toks with tok :: _ -> Some tok.Token.kind | [] -> None in
  let padvance () = match !toks with [] -> () | _ :: rest -> toks := rest in
  let pnext () =
    let k = ppeek () in
    padvance ();
    k
  in
  let perr fmt =
    Printf.ksprintf (fun s -> error t ~loc:(ploc ()) "%s" s) fmt
  in
  let expect_l () =
    match pnext () with
    | Some (Token.Punct Token.LParen) -> true
    | _ ->
      perr "expected '(' in OpenMP clause";
      false
  in
  let expect_r () =
    match pnext () with
    | Some (Token.Punct Token.RParen) -> true
    | _ ->
      perr "expected ')' in OpenMP clause";
      false
  in
  (* Parse an expression from the pragma stream by re-entering the main
     expression parser on a temporary item list (macro expansion already
     happened in the preprocessor). *)
  let parse_pragma_expr () =
    (* Collect tokens up to a balanced ')' or ',' at depth 0. *)
    let collected = ref [] in
    let rec go depth =
      match ppeek () with
      | None -> ()
      | Some (Token.Punct Token.RParen) when depth = 0 -> ()
      | Some (Token.Punct Token.Comma) when depth = 0 -> ()
      | Some k ->
        (match k with
        | Token.Punct Token.LParen -> ()
        | _ -> ());
        let tok = List.hd !toks in
        collected := tok :: !collected;
        padvance ();
        (match k with
        | Token.Punct Token.LParen -> go (depth + 1)
        | Token.Punct Token.RParen -> go (depth - 1)
        | _ -> go depth)
    in
    go 0;
    let saved = t.items in
    t.items <- List.map (fun tok -> Pp.Tok tok) (List.rev !collected);
    let e = parse_assignment t in
    (match t.items with
    | [] -> ()
    | _ -> perr "trailing tokens in clause argument");
    t.items <- saved;
    e
  in
  let parse_var_list () =
    let vars = ref [] in
    if expect_l () then begin
      let rec go () =
        match pnext () with
        | Some (Token.Ident name) -> (
          (match Sema.lookup_var t.sema name with
          | Some v ->
            v.v_used <- true;
            vars := v :: !vars
          | None -> perr "use of undeclared identifier '%s' in clause" name);
          match ppeek () with
          | Some (Token.Punct Token.Comma) ->
            padvance ();
            go ()
          | _ -> ignore (expect_r ()))
        | _ -> perr "expected variable name in clause"
      in
      go ()
    end;
    List.rev !vars
  in
  let positive what e = Omp_sema.act_on_clause_expr_positive t.sema ~what e ~loc:(ploc ()) in
  (* --- clause dispatch --- *)
  let rec parse_clauses acc =
    match pnext () with
    | None -> List.rev acc
    | Some (Token.Punct Token.Comma) -> parse_clauses acc
    | Some (Token.Ident _ | Token.Keyword _) as k -> (
      let name =
        match k with
        | Some (Token.Ident n) -> n
        | Some (Token.Keyword kw) -> Token.keyword_to_string kw
        | _ ->
          (* Unreachable: guarded by the enclosing Ident/Keyword pattern —
             but if the guard ever drifts, report through the ICE path
             instead of a bare Assert_failure. *)
          Mc_support.Crash_recovery.internal_error
            "pragma clause head is neither identifier nor keyword"
      in
      match name with
      | "num_threads" ->
        ignore (expect_l ());
        let e = parse_pragma_expr () in
        ignore (expect_r ());
        parse_clauses (C_num_threads (Sema.convert t.sema e Ctype.int_t) :: acc)
      | "if" ->
        ignore (expect_l ());
        let e = parse_pragma_expr () in
        ignore (expect_r ());
        parse_clauses (C_if (Sema.condition t.sema e) :: acc)
      | "schedule" ->
        ignore (expect_l ());
        let kind =
          match pnext () with
          | Some (Token.Ident "static") -> Sched_static
          | Some (Token.Ident "dynamic") -> Sched_dynamic
          | Some (Token.Ident "guided") -> Sched_guided
          | Some (Token.Ident "runtime") -> Sched_runtime
          | Some (Token.Keyword Token.Kw_auto) | Some (Token.Ident "auto") ->
            Sched_auto
          | _ ->
            perr "unknown schedule kind";
            Sched_static
        in
        let chunk =
          match ppeek () with
          | Some (Token.Punct Token.Comma) ->
            padvance ();
            Some (Sema.convert t.sema (parse_pragma_expr ()) Ctype.long_t)
          | _ -> None
        in
        ignore (expect_r ());
        parse_clauses (C_schedule (kind, chunk) :: acc)
      | "collapse" ->
        ignore (expect_l ());
        let e = parse_pragma_expr () in
        ignore (expect_r ());
        let n, e = positive "collapse" e in
        parse_clauses (C_collapse (n, e) :: acc)
      | "full" -> parse_clauses (C_full :: acc)
      | "partial" -> (
        match ppeek () with
        | Some (Token.Punct Token.LParen) ->
          padvance ();
          let e = parse_pragma_expr () in
          ignore (expect_r ());
          let n, e = positive "partial" e in
          parse_clauses (C_partial (Some (n, e)) :: acc)
        | _ -> parse_clauses (C_partial None :: acc))
      | "sizes" ->
        ignore (expect_l ());
        let sizes = ref [] in
        let rec go () =
          let e = parse_pragma_expr () in
          sizes := positive "sizes" e :: !sizes;
          match ppeek () with
          | Some (Token.Punct Token.Comma) ->
            padvance ();
            go ()
          | _ -> ignore (expect_r ())
        in
        go ();
        parse_clauses (C_sizes (List.rev !sizes) :: acc)
      | "permutation" ->
        ignore (expect_l ());
        let positions = ref [] in
        let rec go () =
          let e = parse_pragma_expr () in
          positions := positive "permutation" e :: !positions;
          match ppeek () with
          | Some (Token.Punct Token.Comma) ->
            padvance ();
            go ()
          | _ -> ignore (expect_r ())
        in
        go ();
        parse_clauses (C_permutation (List.rev !positions) :: acc)
      | "private" -> parse_clauses (C_private (parse_var_list ()) :: acc)
      | "firstprivate" ->
        parse_clauses (C_firstprivate (parse_var_list ()) :: acc)
      | "shared" -> parse_clauses (C_shared (parse_var_list ()) :: acc)
      | "reduction" ->
        ignore (expect_l ());
        let op =
          match pnext () with
          | Some (Token.Punct Token.Plus) -> Red_add
          | Some (Token.Punct Token.Star) -> Red_mul
          | Some (Token.Punct Token.Amp) -> Red_band
          | Some (Token.Punct Token.Pipe) -> Red_bor
          | Some (Token.Ident "min") -> Red_min
          | Some (Token.Ident "max") -> Red_max
          | _ ->
            perr "unknown reduction operator";
            Red_add
        in
        (match pnext () with
        | Some (Token.Punct Token.Colon) -> ()
        | _ -> perr "expected ':' in reduction clause");
        (* variable list up to ')' *)
        let vars = ref [] in
        let rec go () =
          match pnext () with
          | Some (Token.Ident name) -> (
            (match Sema.lookup_var t.sema name with
            | Some v ->
              v.v_used <- true;
              vars := v :: !vars
            | None -> perr "use of undeclared identifier '%s' in clause" name);
            match pnext () with
            | Some (Token.Punct Token.Comma) -> go ()
            | Some (Token.Punct Token.RParen) -> ()
            | _ -> perr "expected ',' or ')' in reduction clause")
          | _ -> perr "expected variable name in reduction clause"
        in
        go ();
        parse_clauses (C_reduction (op, List.rev !vars) :: acc)
      | "nowait" -> parse_clauses (C_nowait :: acc)
      | "simdlen" ->
        ignore (expect_l ());
        let e = parse_pragma_expr () in
        ignore (expect_r ());
        let n, e = positive "simdlen" e in
        parse_clauses (C_simdlen (n, e) :: acc)
      | other ->
        perr "unknown OpenMP clause '%s'" other;
        (* skip a parenthesised argument if present *)
        (match ppeek () with
        | Some (Token.Punct Token.LParen) ->
          let rec skip depth =
            match pnext () with
            | None -> ()
            | Some (Token.Punct Token.LParen) -> skip (depth + 1)
            | Some (Token.Punct Token.RParen) ->
              if depth > 1 then skip (depth - 1)
            | Some _ -> skip depth
          in
          skip 0
        | _ -> ());
        parse_clauses acc)
    | Some k ->
      perr "unexpected %s in OpenMP directive" (Token.describe k);
      parse_clauses acc
  in
  (* --- directive dispatch --- *)
  match pnext () with
  | Some (Token.Ident "omp") -> (
    let kind =
      match pnext () with
      | Some (Token.Ident "parallel") -> (
        match ppeek () with
        | Some (Token.Keyword Token.Kw_for) -> (
          padvance ();
          match ppeek () with
          | Some (Token.Ident "simd") ->
            padvance ();
            Some D_parallel_for_simd
          | _ -> Some D_parallel_for)
        | _ -> Some D_parallel)
      | Some (Token.Keyword Token.Kw_for) -> (
        match ppeek () with
        | Some (Token.Ident "simd") ->
          padvance ();
          Some D_for_simd
        | _ -> Some D_for)
      | Some (Token.Ident "simd") -> Some D_simd
      | Some (Token.Ident "unroll") -> Some D_unroll
      | Some (Token.Ident "tile") -> Some D_tile
      | Some (Token.Ident "reverse") -> Some D_reverse
      | Some (Token.Ident "interchange") -> Some D_interchange
      | Some (Token.Ident "stripe") -> Some D_stripe
      | Some (Token.Ident "fuse") -> Some D_fuse
      | Some (Token.Ident "fission") -> Some D_fission
      | Some (Token.Ident "barrier") -> Some D_barrier
      | Some (Token.Ident "single") -> Some D_single
      | Some (Token.Ident "master") -> Some D_master
      | Some (Token.Ident "critical") -> (
        (* optional parenthesised name *)
        match ppeek () with
        | Some (Token.Punct Token.LParen) -> (
          padvance ();
          match pnext () with
          | Some (Token.Ident region) ->
            ignore (expect_r ());
            Some (D_critical (Some region))
          | _ ->
            perr "expected a region name after 'critical ('";
            Some (D_critical None))
        | _ -> Some (D_critical None))
      | Some k ->
        perr "unknown OpenMP directive %s" (Token.describe k);
        None
      | None ->
        perr "expected directive name after '#pragma omp'";
        None
    in
    match kind with
    | None -> mk_stmt ~loc:p.Pp.pragma_loc (Error_stmt [])
    | Some kind ->
      let clauses = parse_clauses [] in
      let assoc =
        if kind = D_barrier then None else Some (parse_statement t)
      in
      Omp_sema.act_on_directive t.sema ~kind ~clauses ~assoc
        ~loc:p.Pp.pragma_loc)
  | Some (Token.Ident "clang") -> (
    (* #pragma clang loop unroll_count(n) / unroll(full|enable|disable) *)
    match pnext () with
    | Some (Token.Ident "loop") ->
      let hints = ref [] in
      let rec go () =
        match pnext () with
        | None -> ()
        | Some (Token.Ident "unroll_count") ->
          if expect_l () then begin
            let e = parse_pragma_expr () in
            ignore (expect_r ());
            let n, _ = positive "unroll_count" e in
            hints :=
              Loop_hint { lh_option = Hint_unroll_count; lh_value = Some n }
              :: !hints
          end;
          go ()
        | Some (Token.Ident "unroll") ->
          if expect_l () then begin
            (match pnext () with
            | Some (Token.Ident "full") ->
              hints :=
                Loop_hint { lh_option = Hint_unroll_full; lh_value = None }
                :: !hints
            | Some (Token.Ident "enable") ->
              hints :=
                Loop_hint { lh_option = Hint_unroll_enable; lh_value = None }
                :: !hints
            | Some (Token.Ident "disable") ->
              hints :=
                Loop_hint { lh_option = Hint_unroll_disable; lh_value = None }
                :: !hints
            | _ -> perr "expected full/enable/disable");
            ignore (expect_r ())
          end;
          go ()
        | Some k ->
          perr "unknown loop hint %s" (Token.describe k);
          go ()
      in
      go ();
      let sub = parse_statement t in
      mk_stmt ~loc:p.Pp.pragma_loc (Attributed (List.rev !hints, sub))
    | Some (Token.Ident "__debug") -> (
      (* Clang's deliberate-ICE pragmas ('#pragma clang __debug crash' /
         'overflow_stack'): the crash lives in the source, so a reproducer
         bundle written for it replays the failure by construction. *)
      match pnext () with
      | Some (Token.Ident "crash") ->
        Mc_support.Crash_recovery.internal_error
          "crash requested by '#pragma clang __debug crash'"
      | Some (Token.Ident "overflow_stack") ->
        let rec grow n = 1 + grow n in
        ignore (grow 0);
        mk_stmt ~loc:p.Pp.pragma_loc Null_stmt
      | k ->
        perr "unexpected debug command %s"
          (match k with Some k -> Token.describe k | None -> "<nothing>");
        mk_stmt ~loc:p.Pp.pragma_loc (Error_stmt []))
    | _ ->
      perr "unknown clang pragma";
      mk_stmt ~loc:p.Pp.pragma_loc (Error_stmt [ parse_statement t ]))
  | _ ->
    perr "unknown pragma namespace";
    mk_stmt ~loc:p.Pp.pragma_loc (Error_stmt [])

(* ---- statements ------------------------------------------------------------- *)

and parse_statement t : stmt =
  let loc0 = (peek t).Token.loc in
  if not (enter_depth t ~loc:loc0) then begin
    (* Too deep ("{{{{…"): diagnose, skip to a synchronisation point so
       the enclosing loops make progress, and recover. *)
    exit_depth t;
    synchronize t;
    mk_stmt ~loc:loc0 (Error_stmt [])
  end
  else
    Fun.protect
      ~finally:(fun () -> exit_depth t)
      (fun () -> parse_statement_guarded t)

and parse_statement_guarded t : stmt =
  match peek_pragma t with
  | Some p ->
    advance t;
    parse_omp_pragma t p
  | None -> (
    let tok = peek t in
    let loc = tok.Token.loc in
    match tok.Token.kind with
    | Token.Punct Token.LBrace ->
      advance t;
      Sema.push_scope t.sema;
      let stmts = ref [] in
      (* Progress guarantee, as at file scope: a statement past the
         -fbracket-depth limit recovers without consuming a token when
         synchronisation stops in front of it (an operand, a pragma), and
         would otherwise be parsed again forever. *)
      let statement () =
        let before = t.items in
        stmts := parse_statement t :: !stmts;
        if t.items == before then advance t
      in
      let rec go () =
        match (peek t, peek_pragma t) with
        | _, Some _ ->
          statement ();
          go ()
        | tok, None when Token.is_punct tok Token.RBrace -> advance t
        | tok, None when Token.is_eof tok ->
          error t ~loc "unterminated compound statement"
        | _ ->
          statement ();
          go ()
      in
      go ();
      Sema.pop_scope t.sema;
      Sema.act_on_compound t.sema (List.rev !stmts) ~loc
    | Token.Punct Token.Semi ->
      advance t;
      mk_stmt ~loc Null_stmt
    | Token.Keyword Token.Kw_if ->
      advance t;
      ignore (expect t Token.LParen "after 'if'");
      let cond = parse_expr t in
      ignore (expect t Token.RParen "after if condition");
      let then_s = parse_statement t in
      let else_s =
        if Token.is_keyword (peek t) Token.Kw_else then begin
          advance t;
          Some (parse_statement t)
        end
        else None
      in
      Sema.act_on_if t.sema cond then_s else_s ~loc
    | Token.Keyword Token.Kw_switch ->
      advance t;
      ignore (expect t Token.LParen "after 'switch'");
      let cond = parse_expr t in
      ignore (expect t Token.RParen "after switch condition");
      Sema.enter_switch t.sema;
      let body = parse_statement t in
      Sema.exit_switch t.sema;
      Sema.act_on_switch t.sema cond body ~loc
    | Token.Keyword Token.Kw_case ->
      advance t;
      let value = parse_conditional t in
      ignore (expect t Token.Colon "after case value");
      let sub = parse_statement t in
      Sema.act_on_case t.sema value sub ~loc
    | Token.Keyword Token.Kw_default ->
      advance t;
      ignore (expect t Token.Colon "after 'default'");
      let sub = parse_statement t in
      Sema.act_on_default t.sema sub ~loc
    | Token.Keyword Token.Kw_while ->
      advance t;
      ignore (expect t Token.LParen "after 'while'");
      let cond = parse_expr t in
      ignore (expect t Token.RParen "after while condition");
      Sema.enter_loop t.sema;
      let body = parse_statement t in
      Sema.exit_loop t.sema;
      Sema.act_on_while t.sema cond body ~loc
    | Token.Keyword Token.Kw_do ->
      advance t;
      Sema.enter_loop t.sema;
      let body = parse_statement t in
      Sema.exit_loop t.sema;
      if not (Token.is_keyword (peek t) Token.Kw_while) then
        error t ~loc "expected 'while' after do-statement body"
      else advance t;
      ignore (expect t Token.LParen "after 'while'");
      let cond = parse_expr t in
      ignore (expect t Token.RParen "after do-while condition");
      ignore (expect t Token.Semi "after do-while");
      Sema.act_on_do_while t.sema body cond ~loc
    | Token.Keyword Token.Kw_for -> parse_for t ~loc
    | Token.Keyword Token.Kw_break ->
      advance t;
      ignore (expect t Token.Semi "after 'break'");
      Sema.act_on_break t.sema ~loc
    | Token.Keyword Token.Kw_continue ->
      advance t;
      ignore (expect t Token.Semi "after 'continue'");
      Sema.act_on_continue t.sema ~loc
    | Token.Keyword Token.Kw_return ->
      advance t;
      let e =
        if Token.is_punct (peek t) Token.Semi then None else Some (parse_expr t)
      in
      ignore (expect t Token.Semi "after return statement");
      Sema.act_on_return t.sema e ~loc
    | _ when starts_type t -> parse_decl_stmt t
    | Token.Eof ->
      error t ~loc "unexpected end of file";
      mk_stmt ~loc (Error_stmt [])
    | _ ->
      let e = parse_expr t in
      ignore (expect t Token.Semi "after expression statement");
      Sema.act_on_expr_stmt t.sema e)

and parse_for t ~loc =
  advance t (* 'for' *);
  ignore (expect t Token.LParen "after 'for'");
  Sema.push_scope t.sema;
  (* Range-based for detection: TYPE ['&'] IDENT ':' *)
  let is_range_for =
    starts_type t
    &&
    (* conservative lookahead over raw items *)
    let rec scan items depth =
      match items with
      | Pp.Tok { Token.kind = Token.Punct Token.Semi; _ } :: _ -> false
      | Pp.Tok { Token.kind = Token.Punct Token.Colon; _ } :: _ -> depth = 0
      | Pp.Tok { Token.kind = Token.Punct Token.LParen; _ } :: rest ->
        scan rest (depth + 1)
      | Pp.Tok { Token.kind = Token.Punct Token.RParen; _ } :: rest ->
        depth > 0 && scan rest (depth - 1)
      | Pp.Tok { Token.kind = Token.Punct Token.Question; _ } :: _ -> false
      | _ :: rest -> scan rest depth
      | [] -> false
    in
    scan t.items 0
  in
  let result =
    if is_range_for then begin
      let base = parse_type_specifier t in
      let byref =
        if Token.is_punct (peek t) Token.Amp then begin
          advance t;
          true
        end
        else false
      in
      let base = parse_pointers t base in
      let name_tok = next t in
      let name =
        match name_tok.Token.kind with
        | Token.Ident n -> n
        | k ->
          error t ~loc "expected loop variable name (found %s)" (Token.describe k);
          "<error>"
      in
      ignore (expect t Token.Colon "in range-based for loop");
      let range = parse_expr t in
      ignore (expect t Token.RParen "after range expression");
      let var =
        Sema.act_on_var_decl t.sema ~name ~ty:base ~init:None ~loc:name_tok.Token.loc
      in
      Sema.enter_loop t.sema;
      let body = parse_statement t in
      Sema.exit_loop t.sema;
      Sema.act_on_range_for t.sema ~var ~byref ~range ~body ~loc
    end
    else begin
      let init =
        if Token.is_punct (peek t) Token.Semi then begin
          advance t;
          None
        end
        else if starts_type t then Some (parse_decl_stmt t)
        else begin
          let e = parse_expr t in
          ignore (expect t Token.Semi "after for-loop initializer");
          Some (Sema.act_on_expr_stmt t.sema e)
        end
      in
      let cond =
        if Token.is_punct (peek t) Token.Semi then None else Some (parse_expr t)
      in
      ignore (expect t Token.Semi "after for-loop condition");
      let inc =
        if Token.is_punct (peek t) Token.RParen then None else Some (parse_expr t)
      in
      ignore (expect t Token.RParen "after for-loop increment");
      Sema.enter_loop t.sema;
      let body = parse_statement t in
      Sema.exit_loop t.sema;
      Sema.act_on_for t.sema ~init ~cond ~inc ~body ~loc
    end
  in
  Sema.pop_scope t.sema;
  result

(* ---- top level ---------------------------------------------------------------- *)

let parse_params t =
  let params = ref [] in
  let variadic = ref false in
  if Token.is_punct (peek t) Token.RParen then ()
  else if
    Token.is_keyword (peek t) Token.Kw_void && Token.is_punct (peek2 t) Token.RParen
  then advance t
  else begin
    let rec go () =
      if Token.is_punct (peek t) Token.Ellipsis then begin
        advance t;
        variadic := true
      end
      else begin
        let base = parse_type_specifier t in
        let ty = ref (parse_pointers t base) in
        let name =
          match (peek t).Token.kind with
          | Token.Ident n ->
            advance t;
            n
          | _ -> Printf.sprintf "arg%d" (List.length !params)
        in
        (* Array parameters decay to pointers. *)
        while Token.is_punct (peek t) Token.LBracket do
          advance t;
          (if not (Token.is_punct (peek t) Token.RBracket) then
             ignore (parse_assignment t));
          ignore (expect t Token.RBracket "after parameter array bound");
          ty := Ptr !ty
        done;
        params := (name, !ty) :: !params;
        if Token.is_punct (peek t) Token.Comma then begin
          advance t;
          go ()
        end
      end
    in
    go ()
  end;
  ignore (expect t Token.RParen "after parameter list");
  (List.rev !params, !variadic)

let parse_external_decl t =
  Mc_support.Stats.incr stat_decls;
  let loc = loc_of t in
  if not (starts_type t) then begin
    error t ~loc "expected a declaration at file scope";
    synchronize t
  end
  else begin
    let base = parse_type_specifier t in
    let ty = parse_pointers t base in
    let name_tok = next t in
    match name_tok.Token.kind with
    | Token.Ident name when Token.is_punct (peek t) Token.LParen ->
      advance t;
      let params, variadic = parse_params t in
      let fn =
        Sema.declare_function t.sema ~name ~ret:ty ~params ~variadic
          ~loc:name_tok.Token.loc
      in
      if Token.is_punct (peek t) Token.Semi then advance t
      else begin
        Sema.start_function_definition t.sema fn;
        let body = parse_statement t in
        Sema.finish_function_definition t.sema fn body
      end
    | Token.Ident name ->
      (* Global variable(s). *)
      let rec declare name name_loc =
        let vty = ref ty in
        while Token.is_punct (peek t) Token.LBracket do
          advance t;
          let bound =
            if Token.is_punct (peek t) Token.RBracket then None
            else begin
              let e = parse_assignment t in
              match Mc_sema.Const_eval.eval_int_as e with
              | Some n when n > 0 -> Some n
              | _ ->
                error t ~loc "array bound must be a positive integer constant";
                Some 1
            end
          in
          ignore (expect t Token.RBracket "after array bound");
          vty := Array (!vty, bound)
        done;
        let init =
          if Token.is_punct (peek t) Token.Equal then begin
            advance t;
            Some (parse_assignment t)
          end
          else None
        in
        ignore
          (Sema.act_on_var_decl t.sema ~name ~ty:!vty ~init ~loc:name_loc);
        if Token.is_punct (peek t) Token.Comma then begin
          advance t;
          let tok = next t in
          match tok.Token.kind with
          | Token.Ident n -> declare n tok.Token.loc
          | k -> error t ~loc "expected declarator (found %s)" (Token.describe k)
        end
      in
      declare name name_tok.Token.loc;
      ignore (expect t Token.Semi "after global declaration")
    | k ->
      error t ~loc "expected declarator name (found %s)" (Token.describe k);
      synchronize t
  end

let default_bracket_depth = 256 (* Clang's -fbracket-depth default *)

let parse_measured ?(bracket_depth = default_bracket_depth) sema items =
  let bracket_depth = max 1 bracket_depth in
  let t =
    {
      sema;
      diag = Sema.diagnostics sema;
      items;
      bracket_depth;
      depth = 0;
      deepest = 0;
    }
  in
  let rec go () =
    match t.items with
    | [] -> ()
    | Pp.Prag p :: rest ->
      error t ~loc:p.Pp.pragma_loc "unexpected pragma at file scope";
      t.items <- rest;
      go ()
    | Pp.Tok tok :: _ when Token.is_eof tok -> ()
    | _ ->
      let before = t.items in
      parse_external_decl t;
      (* Hard progress guarantee: error recovery may decline to consume a
         token it expects an enclosing construct to claim (synchronize
         stops in front of '}'), but at file scope there is no enclosing
         construct — without this, a stray '}' loops forever. *)
      if t.items == before then advance t;
      go ()
  in
  go ();
  (Sema.translation_unit sema, t.deepest)

let parse_translation_unit ?bracket_depth sema items =
  fst (parse_measured ?bracket_depth sema items)
