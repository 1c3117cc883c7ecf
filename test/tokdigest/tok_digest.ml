(* The token-stream golden: per input, the MD5 of every token the lexer
   produces (constructor, payload, location, length and both flags, the
   end-of-file token included) and the MD5 of the rendered diagnostics.
   The inputs are examples/*.c, the 24-function unit the cache tests
   edit, a fixed-seed set of generated programs and the lexer suite's
   inputs, its lexical errors included.  It pins the lexer's output
   exactly, so a change to how the lexer reads characters cannot move a
   token without failing a test.

   The file was generated before the lexer's inner loop was rewritten and
   is not regenerated for speed work.  Regenerate it only for an intended
   change to the tokens or lexical diagnostics, from the root of the
   repository, and say why in CHANGES.md:

     dune exec test/tokdigest/gen_tok_digests.exe -- examples \
       > test/tokdigest/tok_digests.txt *)

module Token = Mc_lexer.Token
module Loc = Mc_srcmgr.Source_location

let gen_seed = 29
let gen_count = 200

(* [fns] (24 by default) workers and main; [edit] expands only inside
   w11's body. *)
let wide_unit ?(fns = 24) ~edit () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "void record(long x);\n";
  for fn = 0 to fns - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "long w%d(int n) { long a = %d; for (int i = 0; i < n + %d; i += 1) \
          a += i * %d; return a; }\n"
         fn
         (if fn = 11 then edit else fn)
         (fn + 2) (fn + 1))
  done;
  Buffer.add_string buf
    "int main(void) { record(w0(3) + w11(3) + w23(3)); return 0; }\n";
  Buffer.contents buf

(* The inputs of test_lexer.ml, lexical errors included, then edge cases
   of the literal, trivia and error paths. *)
let lexer_inputs =
  [
    "int foo while0 _bar";
    "42";
    "0xFF";
    "010";
    "0";
    "4294967295";
    "42u 42l 42ul 42ULL";
    "1.5";
    "1.5e2";
    "1.5e-2";
    "2.0f";
    "1.";
    "'a' '\\n' '\\\\'";
    "\"hi\\tthere\"";
    "<< >> <<= >>= <= >= == != && || ++ -- -> ... & | ^ ~ ! ? : ; , . # ##";
    "a // line comment\nb /* block\ncomment */ c";
    "ab\\\ncd";
    "int $ x; \"unterminated";
    "09 0x 1e 1e+5 .5 0x1eul 12LLu 1.5e 3.f 99999999999999999999999";
    "'ab' '\\q' \"a\\qb\" ''";
    "\"x\ny\" '\n'";
    "a/**/b/*\n*/c\t\r\n  #  d\\\n e";
    "x @ ` \000 y \\ z";
    "..5 . .. ... a->b -= >>= <<";
    "/* never closed";
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let inputs ~examples_dir =
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           ("examples/" ^ f, read_file (Filename.concat examples_dir f)))
  in
  let rng = Mc_fuzz.Fuzz.Rng.create gen_seed in
  let generated =
    List.init gen_count (fun i ->
        ( Printf.sprintf "gen-%d-%d.c" gen_seed i,
          Mc_fuzz.Differential.gen_program rng ))
  in
  examples
  @ [ ("wide_unit", wide_unit ~edit:11 ()) ]
  @ generated
  @ List.mapi (fun i s -> (Printf.sprintf "test_lexer-%d" i, s)) lexer_inputs

let render_kind b (kind : Token.kind) =
  match kind with
  | Token.Ident s -> Printf.bprintf b "I%s" s
  | Token.Keyword kw -> Printf.bprintf b "K%s" (Token.keyword_to_string kw)
  | Token.Int_lit { value; suffix; text } ->
    Printf.bprintf b "N%Ld/%b/%b/%s" value suffix.Token.suffix_unsigned
      suffix.Token.suffix_long text
  | Token.Float_lit { value; text } -> Printf.bprintf b "F%h/%s" value text
  | Token.Char_lit { value; text } -> Printf.bprintf b "C%d/%s" value text
  | Token.String_lit { value; text } -> Printf.bprintf b "S%S/%s" value text
  | Token.Punct p -> Printf.bprintf b "P%s" (Token.punct_to_string p)
  | Token.Eof -> Buffer.add_char b 'E'

(* "NAME TOKENS TOKEN-MD5 DIAGNOSTICS-MD5", where TOKENS counts the
   end-of-file token too. *)
let line (name, source) =
  let sm = Mc_srcmgr.Source_manager.create () in
  let diag = Mc_diag.Diagnostics.create sm in
  let buf = Mc_srcmgr.Memory_buffer.create ~name ~contents:source in
  let file_id = Mc_srcmgr.Source_manager.load_main sm buf in
  let lexer = Mc_lexer.Lexer.create diag ~file_id buf in
  let b = Buffer.create 4096 in
  let rec go n =
    let tok = Mc_lexer.Lexer.next lexer in
    render_kind b tok.Token.kind;
    Printf.bprintf b "@%d:%d+%d/%b/%b\x00" (Loc.file_id tok.Token.loc)
      (Loc.offset tok.Token.loc) tok.Token.len tok.Token.at_line_start
      tok.Token.has_space_before;
    if Token.is_eof tok then n + 1 else go (n + 1)
  in
  let n = go 0 in
  let md5 s = Digest.to_hex (Digest.string s) in
  Printf.sprintf "%s %d %s %s" name n
    (md5 (Buffer.contents b))
    (md5 (Mc_diag.Diagnostics.render_all diag))

let lines ~examples_dir = List.map line (inputs ~examples_dir)
