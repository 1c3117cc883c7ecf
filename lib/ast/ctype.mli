(** Operations on the C subset's types: spellings (as printed by the AST
    dump), sizes, classification, and the usual arithmetic conversions used
    by Sema. *)

open Tree

val to_string : ctype -> string
(** Clang-like spelling, e.g. ["unsigned int"], ["double *"], ["int[10]"]. *)

val equal : ctype -> ctype -> bool

val int_width : ctype -> Mc_support.Int_ops.width option
(** The width of an integer (or bool) type. *)

val size_in_bytes : ctype -> int
(** Storage size; arrays of unknown bound and functions have no size and
    raise [Invalid_argument]. *)

val is_integer : ctype -> bool
val is_floating : ctype -> bool
val is_arithmetic : ctype -> bool
val is_pointer : ctype -> bool
val is_scalar : ctype -> bool

val element_type : ctype -> ctype option
(** Of an array or pointer. *)

val char_t : ctype
val short_t : ctype
val int_t : ctype
val long_t : ctype
val uchar_t : ctype
val ushort_t : ctype
val uint_t : ctype
val ulong_t : ctype
val float_t : ctype
val double_t : ctype
val size_t : ctype
(** Modelled as [unsigned long] (64-bit), as on LP64 targets. *)

val promote : ctype -> ctype
(** C integer promotion: types narrower than [int] become [int]. *)

val common_arithmetic : ctype -> ctype -> ctype option
(** The usual arithmetic conversions; [None] when either side is not
    arithmetic. *)

val decay : ctype -> ctype
(** Array-to-pointer (and function-to-pointer) decay. *)
