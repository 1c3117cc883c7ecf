type width = { bits : int; signed : bool }

let i1 = { bits = 1; signed = false }
let i8 = { bits = 8; signed = true }
let i16 = { bits = 16; signed = true }
let i32 = { bits = 32; signed = true }
let i64 = { bits = 64; signed = true }
let u8 = { bits = 8; signed = false }
let u16 = { bits = 16; signed = false }
let u32 = { bits = 32; signed = false }
let u64 = { bits = 64; signed = false }

let mask w =
  if w.bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L w.bits) 1L

let truncate w v =
  if w.bits >= 64 then v
  else
    let low = Int64.logand v (mask w) in
    if w.signed && Int64.logand low (Int64.shift_left 1L (w.bits - 1)) <> 0L
    then Int64.logor low (Int64.lognot (mask w))
    else low

let min_value w =
  if not w.signed then 0L
  else if w.bits >= 64 then Int64.min_int
  else Int64.neg (Int64.shift_left 1L (w.bits - 1))

let max_value w =
  if w.signed then
    if w.bits >= 64 then Int64.max_int
    else Int64.sub (Int64.shift_left 1L (w.bits - 1)) 1L
  else if w.bits >= 64 then -1L (* canonical u64 max: all bits set *)
  else mask w

let in_range w v = Int64.equal (truncate w v) v
let add w a b = truncate w (Int64.add a b)
let sub w a b = truncate w (Int64.sub a b)
let mul w a b = truncate w (Int64.mul a b)

(* Division reads its operands at the width, as [shr] and [lt] do: an
   unsigned operand carried sign-extended (a negated [unsigned int], say)
   must divide as its low bits. *)
let div w a b =
  let a = truncate w a and b = truncate w b in
  if Int64.equal b 0L then None
  else if w.signed then
    if Int64.equal a (min_value w) && Int64.equal b (-1L) then None
    else Some (truncate w (Int64.div a b))
  else Some (truncate w (Int64.unsigned_div a b))

let rem w a b =
  let a = truncate w a and b = truncate w b in
  if Int64.equal b 0L then None
  else if w.signed then
    if Int64.equal a (min_value w) && Int64.equal b (-1L) then None
    else Some (truncate w (Int64.rem a b))
  else Some (truncate w (Int64.unsigned_rem a b))

let neg w a = truncate w (Int64.neg a)
let bit_not w a = truncate w (Int64.lognot a)
let bit_and w a b = truncate w (Int64.logand a b)
let bit_or w a b = truncate w (Int64.logor a b)
let bit_xor w a b = truncate w (Int64.logxor a b)
let shift_amount w b = Int64.to_int (Int64.logand b (Int64.of_int (w.bits - 1)))
let shl w a b = truncate w (Int64.shift_left a (shift_amount w b))

let shr w a b =
  let n = shift_amount w b in
  if w.signed then truncate w (Int64.shift_right (truncate w a) n)
  else
    (* Operate on the zero-extended low bits so the logical shift does not
       drag in the sign-extension bits of the canonical form. *)
    let low = Int64.logand a (mask w) in
    truncate w (Int64.shift_right_logical low n)

let unsigned_lt a b = Int64.unsigned_compare a b < 0

let lt w a b =
  if w.signed then Int64.compare a b < 0
  else Int64.unsigned_compare (Int64.logand a (mask w)) (Int64.logand b (mask w)) < 0

let le w a b = Int64.equal a b || lt w a b
let convert ~from ~into v = truncate into (truncate from v)

let to_string w v =
  if w.signed then Int64.to_string (truncate w v)
  else Printf.sprintf "%Lu" (Int64.logand v (mask w))
