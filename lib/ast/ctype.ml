open Tree
module Int_ops = Mc_support.Int_ops

let char_t = Int Int_ops.i8
let short_t = Int Int_ops.i16
let int_t = Int Int_ops.i32
let long_t = Int Int_ops.i64
let uchar_t = Int Int_ops.u8
let ushort_t = Int Int_ops.u16
let uint_t = Int Int_ops.u32
let ulong_t = Int Int_ops.u64
let float_t = Float 32
let double_t = Float 64
let size_t = ulong_t

let rec to_string = function
  | Void -> "void"
  | Bool -> "_Bool"
  | Int { bits; signed } -> (
    match (bits, signed) with
    | 8, true -> "char"
    | 8, false -> "unsigned char"
    | 16, true -> "short"
    | 16, false -> "unsigned short"
    | 32, true -> "int"
    | 32, false -> "unsigned int"
    | 64, true -> "long"
    | 64, false -> "unsigned long"
    | _ -> Printf.sprintf "int%d_t" bits)
  | Float 32 -> "float"
  | Float _ -> "double"
  | Ptr t -> to_string t ^ " *"
  | Array (t, Some n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Array (t, None) -> Printf.sprintf "%s[]" (to_string t)
  | Func { ft_ret; ft_params; ft_variadic } ->
    let params = List.map to_string ft_params in
    let params = if ft_variadic then params @ [ "..." ] else params in
    Printf.sprintf "%s (%s)" (to_string ft_ret) (String.concat ", " params)

let equal a b = a = b
let int_width = function Int w -> Some w | Bool -> Some Int_ops.i1 | _ -> None

let rec size_in_bytes = function
  | Void -> invalid_arg "size_in_bytes: void"
  | Bool -> 1
  | Int { bits; _ } -> bits / 8
  | Float bits -> bits / 8
  | Ptr _ -> 8
  | Array (t, Some n) -> n * size_in_bytes t
  | Array (_, None) -> invalid_arg "size_in_bytes: array of unknown bound"
  | Func _ -> invalid_arg "size_in_bytes: function type"

let is_integer = function Int _ | Bool -> true | _ -> false
let is_floating = function Float _ -> true | _ -> false
let is_arithmetic t = is_integer t || is_floating t
let is_pointer = function Ptr _ -> true | _ -> false
let is_scalar t = is_arithmetic t || is_pointer t

let element_type = function
  | Array (t, _) -> Some t
  | Ptr t -> Some t
  | _ -> None

let promote = function
  | Bool -> int_t
  | Int { bits; _ } when bits < 32 -> int_t
  | t -> t

let common_arithmetic a b =
  if not (is_arithmetic a && is_arithmetic b) then None
  else if a = Float 64 || b = Float 64 then Some double_t
  else if a = Float 32 || b = Float 32 then Some float_t
  else begin
    let a = promote a and b = promote b in
    match (a, b) with
    | Int wa, Int wb ->
      let rank w = w.Int_ops.bits in
      if rank wa = rank wb then
        (* Same rank: unsigned wins. *)
        Some (Int { Int_ops.bits = wa.bits; signed = wa.signed && wb.signed })
      else begin
        let hi, lo = if rank wa > rank wb then (wa, wb) else (wb, wa) in
        (* The higher-rank type can represent all lower-rank values here
           because widths are 32/64 only after promotion. *)
        ignore lo;
        Some (Int hi)
      end
    | _ -> None
  end

let decay = function
  | Array (t, _) -> Ptr t
  | Func _ as f -> Ptr f
  | t -> t
