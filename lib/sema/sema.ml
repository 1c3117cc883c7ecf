open Mc_ast.Tree
module Ctype = Mc_ast.Ctype
module Diag = Mc_diag.Diagnostics
module Int_ops = Mc_support.Int_ops
module Crash_recovery = Mc_support.Crash_recovery
module Loc = Mc_srcmgr.Source_location

type mode = Classic | Irbuilder

type scope = { vars : (string, var) Hashtbl.t }

type t = {
  diag : Diag.t;
  sema_mode : mode;
  mutable scopes : scope list; (* innermost first; last is file scope *)
  fns : (string, fn) Hashtbl.t;
  mutable decls : tu_decl list; (* reverse order *)
  mutable current_fn : fn option;
  mutable loop_depth : int;
  mutable switch_stack : (int64 list ref * bool ref) list; (* seen cases, default? *)
  loop_nest_limit : int; (* -floop-nest-limit; cap on directive loop nests *)
}

let default_loop_nest_limit = 64

let builtin_signatures =
  [
    ("record", Void, [ Ctype.long_t ], false);
    ("recordf", Void, [ Ctype.double_t ], false);
    ("print_int", Void, [ Ctype.int_t ], false);
    ("print_long", Void, [ Ctype.long_t ], false);
    ("print_double", Void, [ Ctype.double_t ], false);
    ("omp_get_thread_num", Ctype.int_t, [], false);
    ("omp_get_num_threads", Ctype.int_t, [], false);
    ("omp_get_max_threads", Ctype.int_t, [], false);
    ("omp_get_wtime", Ctype.double_t, [], false);
    ("abort", Void, [], false);
  ]

let create ?(mode = Classic) ?(loop_nest_limit = default_loop_nest_limit) diag =
  let t =
    {
      diag;
      sema_mode = mode;
      scopes = [ { vars = Hashtbl.create 16 } ];
      fns = Hashtbl.create 16;
      decls = [];
      current_fn = None;
      loop_depth = 0;
      switch_stack = [];
      loop_nest_limit = max 1 loop_nest_limit;
    }
  in
  List.iter
    (fun (name, ret, params, variadic) ->
      let fn =
        mk_fn ~builtin:true ~name
          ~ty:{ ft_ret = ret; ft_params = params; ft_variadic = variadic }
          ~params:
            (List.mapi
               (fun i ty ->
                 mk_var ~implicit:true
                   ~name:(Printf.sprintf "arg%d" i)
                   ~ty ~loc:Loc.invalid ())
               params)
          ~loc:Loc.invalid ()
      in
      Hashtbl.replace t.fns name fn)
    builtin_signatures;
  t

let diagnostics t = t.diag
let mode t = t.sema_mode
let loop_nest_limit t = t.loop_nest_limit
let error t ~loc fmt = Printf.ksprintf (fun s -> Diag.error t.diag ~loc s) fmt
let warn t ~loc fmt = Printf.ksprintf (fun s -> Diag.warning t.diag ~loc s) fmt

(* ---- scopes ------------------------------------------------------------- *)

let push_scope t = t.scopes <- { vars = Hashtbl.create 8 } :: t.scopes

let pop_scope t =
  match t.scopes with
  | _ :: (_ :: _ as rest) -> t.scopes <- rest
  | _ -> invalid_arg "pop_scope: attempt to pop the file scope"

let lookup_var t name =
  List.find_map (fun s -> Hashtbl.find_opt s.vars name) t.scopes

let lookup_fn t name = Hashtbl.find_opt t.fns name
let current_function t = t.current_fn

let enter_loop t = t.loop_depth <- t.loop_depth + 1
let exit_loop t = t.loop_depth <- t.loop_depth - 1

let enter_switch t = t.switch_stack <- (ref [], ref false) :: t.switch_stack
let exit_switch t = t.switch_stack <- List.tl t.switch_stack

(* ---- conversions -------------------------------------------------------- *)

let is_lvalue e =
  match e.e_kind with
  | Decl_ref _ -> true
  | Subscript _ -> true
  | Unary (U_deref, _) -> true
  | Paren inner -> (
    let rec through x =
      match x.e_kind with
      | Paren y -> through y
      | Decl_ref _ | Subscript _ | Unary (U_deref, _) -> true
      | _ -> false
    in
    through inner)
  | _ -> false

let cast ~ck ~ty e = mk_expr ~ty ~loc:e.e_loc (Implicit_cast (ck, e))

let rvalue _t e =
  match e.e_ty with
  | Array (elem, _) -> cast ~ck:CK_array_to_pointer ~ty:(Ptr elem) e
  | Func _ as f -> cast ~ck:CK_pointer ~ty:(Ptr f) e
  | ty -> if is_lvalue e then cast ~ck:CK_lvalue_to_rvalue ~ty e else e

let convert t e target =
  let e = rvalue t e in
  let src = e.e_ty in
  if Ctype.equal src target then e
  else begin
    match (src, target) with
    | (Int _ | Bool), (Int _) -> cast ~ck:CK_integral ~ty:target e
    | (Int _ | Bool), Bool -> cast ~ck:CK_int_to_bool ~ty:target e
    | (Int _ | Bool), Float _ -> cast ~ck:CK_integral_to_floating ~ty:target e
    | Float _, (Int _) -> cast ~ck:CK_floating_to_integral ~ty:target e
    | Float _, Bool -> cast ~ck:CK_float_to_bool ~ty:target e
    | Float _, Float _ -> cast ~ck:CK_floating ~ty:target e
    | Ptr _, Ptr Void | Ptr Void, Ptr _ -> cast ~ck:CK_pointer ~ty:target e
    | _ ->
      error t ~loc:e.e_loc "cannot convert '%s' to '%s'" (Ctype.to_string src)
        (Ctype.to_string target);
      cast ~ck:CK_integral ~ty:target e
  end

let condition t e =
  let e = rvalue t e in
  match e.e_ty with
  | Int _ | Bool | Float _ | Ptr _ -> e
  | ty ->
    error t ~loc:e.e_loc "expression of type '%s' is not a valid condition"
      (Ctype.to_string ty);
    e

(* Usual arithmetic conversions of both operands; yields the common type. *)
let usual_arith t a b ~loc =
  let a = rvalue t a and b = rvalue t b in
  match Ctype.common_arithmetic a.e_ty b.e_ty with
  | Some common -> (convert t a common, convert t b common, common)
  | None ->
    error t ~loc "invalid operands to arithmetic operator ('%s' and '%s')"
      (Ctype.to_string a.e_ty) (Ctype.to_string b.e_ty);
    (a, b, Ctype.int_t)

(* ---- declarations -------------------------------------------------------- *)

let act_on_var_decl t ~name ~ty ~init ~loc =
  (match t.scopes with
  | scope :: _ ->
    if Hashtbl.mem scope.vars name then
      error t ~loc "redefinition of '%s'" name
  | [] ->
    (* The file scope is pushed at [create] and [pop_scope] refuses to pop
       it, so an empty scope stack is a compiler invariant violation. *)
    Crash_recovery.internal_error "variable declared with no scope on the stack");
  (match ty with
  | Void -> error t ~loc "variable '%s' has incomplete type 'void'" name
  | _ -> ());
  let init =
    Option.map
      (fun e ->
        match ty with
        | Array _ ->
          error t ~loc "array initialisers are not supported";
          e
        | _ -> convert t e ty)
      init
  in
  let v = mk_var ~name ~ty ~loc ?init () in
  (match t.scopes with
  | scope :: _ -> Hashtbl.replace scope.vars name v
  | [] -> Crash_recovery.internal_error "variable declared with no scope on the stack");
  if t.current_fn = None then t.decls <- Tu_var v :: t.decls;
  v

let declare_function t ~name ~ret ~params ~variadic ~loc =
  let ft = { ft_ret = ret; ft_params = List.map snd params; ft_variadic = variadic } in
  match Hashtbl.find_opt t.fns name with
  | Some existing ->
    if existing.fn_ty <> ft then
      error t ~loc "conflicting types for '%s'" name
    else if existing.fn_body = None then
      (* A re-declaration's parameter names supersede the prototype's, so
         a following definition sees its own names in scope. *)
      existing.fn_params <-
        List.map (fun (pname, pty) -> mk_var ~name:pname ~ty:pty ~loc ()) params;
    existing
  | None ->
    let fn =
      mk_fn ~name ~ty:ft
        ~params:
          (List.map (fun (pname, pty) -> mk_var ~name:pname ~ty:pty ~loc ()) params)
        ~loc ()
    in
    Hashtbl.replace t.fns name fn;
    t.decls <- Tu_fn fn :: t.decls;
    fn

let start_function_definition t fn =
  if fn.fn_body <> None then
    error t ~loc:fn.fn_loc "redefinition of '%s'" fn.fn_name;
  t.current_fn <- Some fn;
  push_scope t;
  List.iter
    (fun p ->
      match t.scopes with
      | scope :: _ -> Hashtbl.replace scope.vars p.v_name p
      | [] ->
        Crash_recovery.internal_error
          "function parameter bound with no scope on the stack")
    fn.fn_params

let finish_function_definition t fn body =
  fn.fn_body <- Some body;
  pop_scope t;
  t.current_fn <- None

let translation_unit t = { tu_decls = List.rev t.decls }

(* [t.decls] is newest-first and only ever grows at the head, so the
   list itself marks a point in the unit. *)
type decl_mark = tu_decl list

let decl_mark t = t.decls

let decls_since t mark =
  let rec take acc l =
    if l == mark then acc
    else match l with [] -> acc | d :: rest -> take (d :: acc) rest
  in
  take [] t.decls

let defined_builtins t =
  List.fold_left
    (fun n (name, _, _, _) ->
      match Hashtbl.find_opt t.fns name with
      | Some fn when fn.fn_builtin && fn.fn_body <> None -> n + 1
      | _ -> n)
    0 builtin_signatures

(* Adopt a top-level declaration unmarshalled from a per-function cache
   artifact, as if this sema had just analysed it: register the symbol
   for lookup by later slices and append it to the unit's decl list.
   The caller must be at file scope (between top-level slices). *)
let adopt_tu_decl t d =
  (match d with
  | Tu_fn fn -> Hashtbl.replace t.fns fn.fn_name fn
  | Tu_var v ->
    let rec file_scope = function
      | [ s ] -> s
      | _ :: rest -> file_scope rest
      | [] -> assert false
    in
    Hashtbl.replace (file_scope t.scopes).vars v.v_name v);
  t.decls <- d :: t.decls

(* ---- expressions ---------------------------------------------------------- *)

let act_on_int_literal _t ~value ~unsigned ~long ~loc =
  let fits w = Int_ops.in_range w value in
  let ty =
    match (unsigned, long) with
    | false, false ->
      if fits Int_ops.i32 then Ctype.int_t
      else if fits Int_ops.i64 then Ctype.long_t
      else Ctype.ulong_t
    | true, false -> if fits Int_ops.u32 then Ctype.uint_t else Ctype.ulong_t
    | false, true -> if fits Int_ops.i64 then Ctype.long_t else Ctype.ulong_t
    | true, true -> Ctype.ulong_t
  in
  let w = Option.get (Ctype.int_width ty) in
  mk_expr ~ty ~loc (Int_lit (Int_ops.truncate w value))

let act_on_float_literal _t ~value ~loc =
  mk_expr ~ty:Ctype.double_t ~loc (Float_lit value)

let act_on_char_literal _t ~value ~loc =
  (* C gives character literals type int. *)
  mk_expr ~ty:Ctype.int_t ~loc (Int_lit (Int64.of_int value))

let act_on_string_literal _t ~value ~loc =
  mk_expr
    ~ty:(Array (Ctype.char_t, Some (String.length value + 1)))
    ~loc (String_lit value)

let act_on_bool_literal _t ~value ~loc =
  mk_expr ~ty:Ctype.int_t ~loc (Int_lit (if value then 1L else 0L))

let mk_ref v =
  v.v_used <- true;
  mk_expr ~ty:v.v_ty ~loc:v.v_loc (Decl_ref v)

let act_on_recovery _t ?(subexprs = []) ~loc () =
  (* Clang's RecoveryExpr: a typed placeholder that preserves whatever
     sub-expressions were recognised before the error, so later phases can
     keep walking the tree.  Types as [int] so surrounding arithmetic does
     not cascade; [e_contains_errors] is set by [mk_expr]. *)
  mk_expr ~ty:Ctype.int_t ~loc (Recovery_expr subexprs)

let act_on_decl_ref t ~name ~loc =
  match lookup_var t name with
  | Some v ->
    v.v_used <- true;
    mk_expr ~ty:v.v_ty ~loc (Decl_ref v)
  | None -> (
    match lookup_fn t name with
    | Some fn -> mk_expr ~ty:(Func fn.fn_ty) ~loc (Fn_ref fn)
    | None ->
      error t ~loc "use of undeclared identifier '%s'" name;
      act_on_recovery t ~loc ())

let act_on_paren _t e = mk_expr ~ty:e.e_ty ~loc:e.e_loc (Paren e)

let require_modifiable t e what =
  if e.e_contains_errors then
    (* The operand already carries an error; complaining that a RecoveryExpr
       is not an lvalue would just cascade. *)
    ()
  else if not (is_lvalue e) then
    error t ~loc:e.e_loc "%s requires a modifiable lvalue" what
  else begin
    match e.e_ty with
    | Array _ | Func _ ->
      error t ~loc:e.e_loc "%s requires a modifiable lvalue" what
    | _ -> ()
  end

let act_on_unary t op operand ~loc =
  match op with
  | U_plus ->
    let e = rvalue t operand in
    if not (Ctype.is_arithmetic e.e_ty) then
      error t ~loc "invalid operand to unary +";
    mk_expr ~ty:(Ctype.promote e.e_ty) ~loc (Unary (U_plus, convert t e (Ctype.promote e.e_ty)))
  | U_minus ->
    let e = rvalue t operand in
    if not (Ctype.is_arithmetic e.e_ty) then
      error t ~loc "invalid operand to unary -";
    let ty = Ctype.promote e.e_ty in
    mk_expr ~ty ~loc (Unary (U_minus, convert t e ty))
  | U_bnot ->
    let e = rvalue t operand in
    if not (Ctype.is_integer e.e_ty) then error t ~loc "invalid operand to '~'";
    let ty = Ctype.promote e.e_ty in
    mk_expr ~ty ~loc (Unary (U_bnot, convert t e ty))
  | U_lnot ->
    let e = condition t operand in
    mk_expr ~ty:Ctype.int_t ~loc (Unary (U_lnot, e))
  | U_preinc | U_predec | U_postinc | U_postdec ->
    require_modifiable t operand "increment/decrement";
    if not (Ctype.is_scalar operand.e_ty) then
      error t ~loc "cannot increment value of type '%s'"
        (Ctype.to_string operand.e_ty);
    mk_expr ~ty:operand.e_ty ~loc (Unary (op, operand))
  | U_deref -> (
    let e = rvalue t operand in
    match e.e_ty with
    | Ptr elem -> mk_expr ~ty:elem ~loc (Unary (U_deref, e))
    | ty ->
      error t ~loc "indirection requires pointer operand ('%s' invalid)"
        (Ctype.to_string ty);
      mk_expr ~ty:Ctype.int_t ~loc (Unary (U_deref, e)))
  | U_addrof ->
    if (not (is_lvalue operand)) && not operand.e_contains_errors then
      error t ~loc "cannot take the address of an rvalue";
    mk_expr ~ty:(Ptr operand.e_ty) ~loc (Unary (U_addrof, operand))

let act_on_binary t op lhs rhs ~loc =
  match op with
  | B_add | B_sub -> (
    let l = rvalue t lhs and r = rvalue t rhs in
    match (l.e_ty, r.e_ty, op) with
    | Ptr _, (Int _ | Bool), _ ->
      mk_expr ~ty:l.e_ty ~loc (Binary (op, l, convert t r Ctype.long_t))
    | (Int _ | Bool), Ptr _, B_add ->
      mk_expr ~ty:r.e_ty ~loc (Binary (op, convert t l Ctype.long_t, r))
    | Ptr a, Ptr b, B_sub when Ctype.equal a b ->
      mk_expr ~ty:Ctype.long_t ~loc (Binary (op, l, r))
    | _ ->
      let l, r, common = usual_arith t l r ~loc in
      mk_expr ~ty:common ~loc (Binary (op, l, r)))
  | B_mul | B_div ->
    let l, r, common = usual_arith t lhs rhs ~loc in
    mk_expr ~ty:common ~loc (Binary (op, l, r))
  | B_rem | B_band | B_bor | B_bxor ->
    let l, r, common = usual_arith t lhs rhs ~loc in
    if not (Ctype.is_integer common) then
      error t ~loc "operator requires integer operands";
    mk_expr ~ty:common ~loc (Binary (op, l, r))
  | B_shl | B_shr ->
    let l = rvalue t lhs and r = rvalue t rhs in
    if not (Ctype.is_integer l.e_ty && Ctype.is_integer r.e_ty) then
      error t ~loc "shift requires integer operands";
    let ty = Ctype.promote l.e_ty in
    mk_expr ~ty ~loc (Binary (op, convert t l ty, convert t r (Ctype.promote r.e_ty)))
  | B_lt | B_gt | B_le | B_ge | B_eq | B_ne -> (
    let l = rvalue t lhs and r = rvalue t rhs in
    match (l.e_ty, r.e_ty) with
    | Ptr a, Ptr b when Ctype.equal a b ->
      mk_expr ~ty:Ctype.int_t ~loc (Binary (op, l, r))
    | _ ->
      let l, r, _ = usual_arith t l r ~loc in
      mk_expr ~ty:Ctype.int_t ~loc (Binary (op, l, r)))
  | B_land | B_lor ->
    let l = condition t lhs and r = condition t rhs in
    mk_expr ~ty:Ctype.int_t ~loc (Binary (op, l, r))
  | B_comma ->
    let r = rvalue t rhs in
    mk_expr ~ty:r.e_ty ~loc (Binary (B_comma, rvalue t lhs, r))

let act_on_assign t op lhs rhs ~loc =
  require_modifiable t lhs "assignment";
  match op with
  | None ->
    let r = convert t rhs lhs.e_ty in
    mk_expr ~ty:lhs.e_ty ~loc (Assign (None, lhs, r))
  | Some bop -> (
    (* Compound assignment: lhs op= rhs. Pointer += / -= int allowed. *)
    match (lhs.e_ty, bop) with
    | Ptr _, (B_add | B_sub) ->
      let r = convert t rhs Ctype.long_t in
      mk_expr ~ty:lhs.e_ty ~loc (Assign (op, lhs, r))
    | _ ->
      let r = rvalue t rhs in
      if not (Ctype.is_arithmetic lhs.e_ty && Ctype.is_arithmetic r.e_ty) then
        error t ~loc "invalid operands to compound assignment";
      (* The computation happens in the common type; the AST keeps the
         operand un-narrowed, like Clang's CompoundAssignOperator. *)
      mk_expr ~ty:lhs.e_ty ~loc (Assign (op, lhs, r)))

let act_on_conditional t c a b ~loc =
  let c = condition t c in
  let a = rvalue t a and b = rvalue t b in
  match (a.e_ty, b.e_ty) with
  | ta, tb when Ctype.equal ta tb ->
    mk_expr ~ty:ta ~loc (Conditional (c, a, b))
  | _ -> (
    match Ctype.common_arithmetic a.e_ty b.e_ty with
    | Some common ->
      mk_expr ~ty:common ~loc (Conditional (c, convert t a common, convert t b common))
    | None ->
      error t ~loc "incompatible operand types in conditional ('%s' and '%s')"
        (Ctype.to_string a.e_ty) (Ctype.to_string b.e_ty);
      mk_expr ~ty:a.e_ty ~loc (Conditional (c, a, b)))

let default_promote t e =
  let e = rvalue t e in
  match e.e_ty with
  | Float 32 -> convert t e Ctype.double_t
  | Int _ | Bool -> convert t e (Ctype.promote e.e_ty)
  | _ -> e

let act_on_call t callee args ~loc =
  let callee = rvalue t callee in
  match callee.e_ty with
  | Ptr (Func ft) | Func ft ->
    let nparams = List.length ft.ft_params in
    if List.length args < nparams
       || ((not ft.ft_variadic) && List.length args > nparams)
    then
      error t ~loc "expected %d argument(s), got %d" nparams (List.length args);
    let rec convert_args params args =
      match (params, args) with
      | p :: ps, a :: rest -> convert t a p :: convert_args ps rest
      | [], rest -> List.map (default_promote t) rest
      | _ :: _, [] -> []
    in
    mk_expr ~ty:ft.ft_ret ~loc (Call (callee, convert_args ft.ft_params args))
  | ty ->
    error t ~loc "called object type '%s' is not a function" (Ctype.to_string ty);
    mk_expr ~ty:Ctype.int_t ~loc (Call (callee, args))

let act_on_subscript t base index ~loc =
  let b = rvalue t base and i = rvalue t index in
  let b, i =
    if Ctype.is_integer b.e_ty && Ctype.is_pointer i.e_ty then (i, b) else (b, i)
  in
  (match b.e_ty with
  | Ptr _ -> ()
  | ty ->
    error t ~loc "subscripted value of type '%s' is not an array or pointer"
      (Ctype.to_string ty));
  if not (Ctype.is_integer i.e_ty) then
    error t ~loc "array subscript is not an integer";
  let elem = Option.value (Ctype.element_type b.e_ty) ~default:Ctype.int_t in
  mk_expr ~ty:elem ~loc (Subscript (b, convert t i Ctype.long_t))

let act_on_cast t target operand ~loc =
  let e = rvalue t operand in
  (match (e.e_ty, target) with
  | (Int _ | Bool | Float _), (Int _ | Bool | Float _) -> ()
  | Ptr _, Ptr _ -> ()
  | Ptr _, Int { Int_ops.bits = 64; _ } | Int { Int_ops.bits = 64; _ }, Ptr _ -> ()
  | _, Void -> ()
  | _ ->
    error t ~loc "invalid cast from '%s' to '%s'" (Ctype.to_string e.e_ty)
      (Ctype.to_string target));
  mk_expr ~ty:target ~loc (C_style_cast (target, e))

let act_on_sizeof _t ty ~loc = mk_expr ~ty:Ctype.size_t ~loc (Sizeof_type ty)

let intexpr _t value ty loc =
  let w = Option.value (Ctype.int_width ty) ~default:Int_ops.i64 in
  mk_expr ~ty ~loc (Int_lit (Int_ops.truncate w value))

(* ---- statements ------------------------------------------------------------ *)

let act_on_expr_stmt t e =
  (* A statement-expression's value is discarded; warn on no-effect uses? *)
  ignore t;
  mk_stmt ~loc:e.e_loc (Expr_stmt e)

let act_on_decl_stmt _t vars ~loc = mk_stmt ~loc (Decl_stmt vars)
let act_on_compound _t stmts ~loc = mk_stmt ~loc (Compound stmts)

let act_on_if t c then_s else_s ~loc =
  mk_stmt ~loc (If (condition t c, then_s, else_s))

let act_on_while t c body ~loc = mk_stmt ~loc (While (condition t c, body))
let act_on_do_while t body c ~loc = mk_stmt ~loc (Do_while (body, condition t c))

let act_on_for t ~init ~cond ~inc ~body ~loc =
  mk_stmt ~loc
    (For
       {
         for_init = init;
         for_cond = Option.map (condition t) cond;
         for_inc = Option.map (rvalue t) inc;
         for_body = body;
       })

let act_on_break t ~loc =
  if t.loop_depth = 0 && t.switch_stack = [] then
    error t ~loc "'break' outside of a loop or switch";
  mk_stmt ~loc Break

let act_on_continue t ~loc =
  if t.loop_depth = 0 then error t ~loc "'continue' outside of a loop";
  mk_stmt ~loc Continue

let act_on_return t e ~loc =
  match t.current_fn with
  | None ->
    error t ~loc "'return' outside of a function";
    mk_stmt ~loc (Return None)
  | Some fn -> (
    match (e, fn.fn_ty.ft_ret) with
    | None, Void -> mk_stmt ~loc (Return None)
    | None, _ ->
      error t ~loc "non-void function '%s' must return a value" fn.fn_name;
      mk_stmt ~loc (Return None)
    | Some _, Void ->
      error t ~loc "void function '%s' cannot return a value" fn.fn_name;
      mk_stmt ~loc (Return None)
    | Some e, ret -> mk_stmt ~loc (Return (Some (convert t e ret))))

(* ---- switch ----------------------------------------------------------------- *)

let act_on_switch t cond body ~loc =
  let cond = rvalue t cond in
  if not (Ctype.is_integer cond.e_ty) then
    error t ~loc "switch condition must have integer type (got '%s')"
      (Ctype.to_string cond.e_ty);
  mk_stmt ~loc (Switch (convert t cond (Ctype.promote cond.e_ty), body))

let act_on_case t value_expr sub ~loc =
  let value =
    match Const_eval.eval_int (rvalue t value_expr) with
    | Some v -> v
    | None ->
      error t ~loc "case value must be an integer constant expression";
      0L
  in
  (match t.switch_stack with
  | [] -> error t ~loc "'case' label outside of a switch statement"
  | (seen, _) :: _ ->
    if List.exists (Int64.equal value) !seen then
      error t ~loc "duplicate case value %Ld" value;
    seen := value :: !seen);
  mk_stmt ~loc (Case { case_value = value; case_expr = value_expr; case_body = sub })

let act_on_default t sub ~loc =
  (match t.switch_stack with
  | [] -> error t ~loc "'default' label outside of a switch statement"
  | (_, has_default) :: _ ->
    if !has_default then error t ~loc "multiple 'default' labels in one switch";
    has_default := true);
  mk_stmt ~loc (Default sub)

(* ---- range-based for ------------------------------------------------------- *)

let act_on_range_for t ~var ~byref ~range ~body ~loc =
  (* Modelled over arrays with a known bound (see DESIGN.md); the helper
     declarations mirror CXXForRangeStmt's de-sugared children (Fig. 8). *)
  let elem_ty, bound =
    match range.e_ty with
    | Array (elem, Some n) -> (elem, n)
    | Array (elem, None) ->
      error t ~loc "cannot iterate over an array of unknown bound";
      (elem, 0)
    | ty ->
      error t ~loc "range expression of type '%s' is not an array"
        (Ctype.to_string ty);
      (Ctype.int_t, 0)
  in
  if not (Ctype.equal var.v_ty elem_ty) then
    error t ~loc "loop variable type '%s' does not match element type '%s'"
      (Ctype.to_string var.v_ty) (Ctype.to_string elem_ty);
  if not byref then
    warn t ~loc
      "by-value range iteration copies each element; mutations are lost";
  let range_var =
    mk_var ~implicit:true ~name:"__range" ~ty:range.e_ty ~loc ()
  in
  let decayed = rvalue t (mk_ref range_var) in
  let begin_var =
    mk_var ~implicit:true ~name:"__begin" ~ty:(Ptr elem_ty) ~loc
      ~init:decayed ()
  in
  let end_expr =
    mk_expr ~ty:(Ptr elem_ty) ~loc
      (Binary (B_add, rvalue t (mk_ref begin_var), intexpr t (Int64.of_int bound) Ctype.long_t loc))
  in
  let end_var =
    mk_var ~implicit:true ~name:"__end" ~ty:(Ptr elem_ty) ~loc ~init:end_expr ()
  in
  mk_stmt ~loc
    (Range_for
       {
         rf_var = var;
         rf_byref = byref;
         rf_range = range;
         rf_body = body;
         rf_range_var = range_var;
         rf_begin_var = begin_var;
         rf_end_var = end_var;
         rf_desugared = None (* built on demand by Omp_sema / Desugar *);
       })
