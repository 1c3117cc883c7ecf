open Ir

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Udiv -> "udiv"
  | Srem -> "srem"
  | Urem -> "urem"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Frem -> "frem"

let icmp_name = function
  | Ieq -> "eq"
  | Ine -> "ne"
  | Islt -> "slt"
  | Isle -> "sle"
  | Isgt -> "sgt"
  | Isge -> "sge"
  | Iult -> "ult"
  | Iule -> "ule"
  | Iugt -> "ugt"
  | Iuge -> "uge"

let fcmp_name = function
  | Foeq -> "oeq"
  | Fone -> "one"
  | Folt -> "olt"
  | Fole -> "ole"
  | Fogt -> "ogt"
  | Foge -> "oge"

let cast_name = function
  | Trunc -> "trunc"
  | Zext -> "zext"
  | Sext -> "sext"
  | Fptosi -> "fptosi"
  | Fptoui -> "fptoui"
  | Sitofp -> "sitofp"
  | Uitofp -> "uitofp"
  | Fpext -> "fpext"
  | Fptrunc -> "fptrunc"

(* Stable printer names: prefer the hint, fall back to a per-function
   ordinal.  Uniqueness is ensured by suffixing duplicated hints. *)
type names = {
  inst_names : (int, string) Hashtbl.t;
  block_names : (int, string) Hashtbl.t;
  used : (string, int) Hashtbl.t;
}

let assign_names f =
  let names =
    { inst_names = Hashtbl.create 64; block_names = Hashtbl.create 16;
      used = Hashtbl.create 64 }
  in
  let unique base =
    match Hashtbl.find_opt names.used base with
    | None ->
      Hashtbl.add names.used base 0;
      base
    | Some n ->
      Hashtbl.replace names.used base (n + 1);
      Printf.sprintf "%s.%d" base (n + 1)
  in
  let counter = ref 0 in
  let next_ordinal () =
    let n = !counter in
    incr counter;
    string_of_int n
  in
  List.iter
    (fun b ->
      let base = if b.b_name = "" then "bb" ^ next_ordinal () else b.b_name in
      Hashtbl.replace names.block_names b.b_id (unique base);
      List.iter
        (fun i ->
          if i.i_ty <> Void then begin
            let base = if i.i_name = "" then next_ordinal () else i.i_name in
            Hashtbl.replace names.inst_names i.i_id (unique base)
          end)
        (block_insts b))
    f.f_blocks;
  names

let float_str f =
  let s = Printf.sprintf "%.6g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
  then s
  else s ^ ".0"

let value_str names v =
  match v with
  | Const_int (I1, 1L) -> "true"
  | Const_int (I1, 0L) -> "false"
  | Const_int (ty, value) ->
    Mc_support.Int_ops.to_string (int_width ~signed:true ty) value
  | Const_float (_, f) -> float_str f
  | Arg a -> "%" ^ a.a_name
  | Inst_ref i -> (
    match Hashtbl.find_opt names.inst_names i.i_id with
    | Some n -> "%" ^ n
    | None -> Printf.sprintf "%%<unnamed:%d>" i.i_id)
  | Fn_addr f -> "@" ^ f.f_name
  | Undef ty -> Printf.sprintf "undef %s" (ty_to_string ty)

let typed names v =
  Printf.sprintf "%s %s" (ty_to_string (value_ty v)) (value_str names v)

let block_ref names b =
  match Hashtbl.find_opt names.block_names b.b_id with
  | Some n -> "%" ^ n
  | None -> Printf.sprintf "%%<block:%d>" b.b_id

let inst_str names i =
  let v = value_str names in
  let def =
    match Hashtbl.find_opt names.inst_names i.i_id with
    | Some n -> Printf.sprintf "%%%s = " n
    | None -> ""
  in
  let body =
    match i.i_kind with
    | Alloca { elt_ty; count } ->
      if count = 1 then Printf.sprintf "alloca %s" (ty_to_string elt_ty)
      else Printf.sprintf "alloca %s, %d" (ty_to_string elt_ty) count
    | Load { ptr } ->
      Printf.sprintf "load %s, ptr %s" (ty_to_string i.i_ty) (v ptr)
    | Store { ptr; v = sv } ->
      Printf.sprintf "store %s, ptr %s" (typed names sv) (v ptr)
    | Binop (op, a, b) ->
      Printf.sprintf "%s %s %s, %s" (binop_name op)
        (ty_to_string (value_ty a)) (v a) (v b)
    | Icmp (op, a, b) ->
      Printf.sprintf "icmp %s %s %s, %s" (icmp_name op)
        (ty_to_string (value_ty a)) (v a) (v b)
    | Fcmp (op, a, b) ->
      Printf.sprintf "fcmp %s %s %s, %s" (fcmp_name op)
        (ty_to_string (value_ty a)) (v a) (v b)
    | Cast (op, x) ->
      Printf.sprintf "%s %s to %s" (cast_name op) (typed names x)
        (ty_to_string i.i_ty)
    | Gep { base; index; elt_ty } ->
      Printf.sprintf "getelementptr %s, ptr %s, %s" (ty_to_string elt_ty)
        (v base) (typed names index)
    | Select (c, a, b) ->
      Printf.sprintf "select %s, %s, %s" (typed names c) (typed names a)
        (typed names b)
    | Call { callee; args } ->
      let callee_str =
        match callee with Direct f -> "@" ^ f.f_name | Runtime n -> "@" ^ n
      in
      Printf.sprintf "call %s %s(%s)" (ty_to_string i.i_ty) callee_str
        (String.concat ", " (List.map (typed names) args))
    | Phi { incoming } ->
      Printf.sprintf "phi %s %s" (ty_to_string i.i_ty)
        (String.concat ", "
           (List.map
              (fun (value, b) ->
                Printf.sprintf "[ %s, %s ]" (v value) (block_ref names b))
              incoming))
  in
  def ^ body

let unroll_md_str = function
  | Unroll_enable -> "llvm.loop.unroll.enable"
  | Unroll_full -> "llvm.loop.unroll.full"
  | Unroll_count n -> Printf.sprintf "llvm.loop.unroll.count(%d)" n
  | Unroll_disable -> "llvm.loop.unroll.disable"

let term_str names b =
  let md =
    let parts =
      (match b.b_loop_md.md_unroll with
      | Some u -> [ unroll_md_str u ]
      | None -> [])
      @
      match b.b_loop_md.md_vectorize_width with
      | Some w -> [ Printf.sprintf "llvm.loop.vectorize.width(%d)" w ]
      | None -> []
    in
    if parts = [] then ""
    else Printf.sprintf ", !llvm.loop !{%s}" (String.concat ", " parts)
  in
  (match b.b_term with
  | Ret None -> "ret void"
  | Ret (Some value) -> Printf.sprintf "ret %s" (typed names value)
  | Br target -> Printf.sprintf "br label %s" (block_ref names target)
  | Cond_br (c, t, e) ->
    Printf.sprintf "br %s, label %s, label %s" (typed names c)
      (block_ref names t) (block_ref names e)
  | Unreachable -> "unreachable"
  | No_term -> "<no terminator>")
  ^ md

let func_to_string f =
  let names = assign_names f in
  let buf = Buffer.create 512 in
  let args =
    String.concat ", "
      (List.map
         (fun a -> Printf.sprintf "%s %%%s" (ty_to_string a.a_ty) a.a_name)
         f.f_args)
  in
  if f.f_is_decl then
    Printf.sprintf "declare %s @%s(%s)\n" (ty_to_string f.f_ret) f.f_name args
  else begin
    Buffer.add_string buf
      (Printf.sprintf "define %s @%s(%s) {\n" (ty_to_string f.f_ret) f.f_name args);
    List.iteri
      (fun idx b ->
        if idx > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf
          (Printf.sprintf "%s:\n"
             (String.sub (block_ref names b) 1
                (String.length (block_ref names b) - 1)));
        List.iter
          (fun i -> Buffer.add_string buf ("  " ^ inst_str names i ^ "\n"))
          (block_insts b);
        Buffer.add_string buf ("  " ^ term_str names b ^ "\n"))
      f.f_blocks;
    Buffer.add_string buf "}\n";
    Buffer.contents buf
  end

let module_to_string m =
  String.concat "\n" (List.map func_to_string m.m_funcs)
