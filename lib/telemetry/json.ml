(** The one JSON value, printer and parser of the repository.

    Every export (chrome trace, flat metrics, optimizer remarks, cycle
    profile, sentinel stats and health, quarantine registry, tier
    sites, engine stats, black-box reports and the BENCH_*.json files)
    is built as a [t] and printed by [to_string]/[to_file];
    validate_bench reads them back with [parse].

    Layout: one line, ["key": value] members, [", "] separators;
    [to_file] ends the file with a newline.  An [Int] is printed and
    parsed exactly, never through [float].  A [Float] prints as the
    shortest of [%.15g]/[%.16g]/[%.17g] that reads back equal and always
    carries a '.' or an exponent, so it never reads back as an [Int];
    JSON has no spelling for nan or the infinities, so printing one
    raises [Invalid_argument]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

exception Parse_error of string

(** [member k v] is member [k] of object [v]; raises [Not_found] when
    [v] is not an object or has no member [k]. *)
let member k = function Obj kvs -> List.assoc k kvs | _ -> raise Not_found

(* \u escapes only for bytes below 0x20; every other byte (UTF-8
   sequences included) is written as is *)
let to_string v =
  let buf = Buffer.create 1024 in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when c < ' ' ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let float f =
    if not (Float.is_finite f) then
      invalid_arg (Printf.sprintf "Json: %h has no JSON spelling" f);
    let g p = Printf.sprintf "%.*g" p f in
    let s =
      match List.find_opt (fun p -> float_of_string (g p) = f) [ 15; 16 ] with
      | Some p -> g p
      | None -> g 17
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"
  in
  let seq op cl f l =
    Buffer.add_char buf op;
    List.iteri (fun i x -> if i > 0 then Buffer.add_string buf ", "; f x) l;
    Buffer.add_char buf cl
  in
  let rec value = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float f)
    | String s -> str s
    | List l -> seq '[' ']' value l
    | Obj kvs ->
      seq '{' '}' (fun (k, v) -> str k; Buffer.add_string buf ": "; value v) kvs
  in
  value v;
  Buffer.contents buf

(** Write [v] and a final newline to [path].  The text is rendered
    before the file is opened, so a value that cannot print leaves no
    truncated file behind. *)
let to_file path v =
  let s = to_string v in
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(** Recursive-descent parser; raises [Parse_error] with the offset of
    the first malformed byte.  A number without '.' or an exponent is an
    [Int] (a [Float] only when it overflows the OCaml int); a [\uXXXX]
    escape decodes to the code point's UTF-8 bytes.  The printer never
    writes a surrogate escape, so each decodes to U+FFFD on its own. *)
let parse (s : string) : t =
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c at offset %d, found %c" c !pos c'
    | None -> fail "expected %c at offset %d, found end of input" c !pos
  in
  let parse_lit lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  (* the four hex digits at [i] *)
  let hex4 i =
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if i + 4 > n || not (String.for_all is_hex (String.sub s i 4)) then
      fail "bad \\u escape at offset %d" i;
    int_of_string ("0x" ^ String.sub s i 4)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string at offset %d" !pos
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'
         | Some '\\' -> Buffer.add_char b '\\'
         | Some '/' -> Buffer.add_char b '/'
         | Some 'b' -> Buffer.add_char b '\b'
         | Some 'f' -> Buffer.add_char b '\012'
         | Some 'n' -> Buffer.add_char b '\n'
         | Some 'r' -> Buffer.add_char b '\r'
         | Some 't' -> Buffer.add_char b '\t'
         | Some 'u' ->
           let cp = hex4 (!pos + 1) in
           (* [pos] ends on the escape's last hex digit *)
           pos := !pos + 4;
           Buffer.add_utf_8_uchar b
             (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep)
         | _ -> fail "bad escape at offset %d" !pos);
        advance ();
        go ())
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let slice = String.sub s start (!pos - start) in
    let integral =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') slice)
    in
    match if integral then int_of_string_opt slice else None with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt slice with
      | Some f -> Float f
      | None -> fail "bad number %S at offset %d" slice start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } at offset %d" !pos
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected , or ] at offset %d" !pos
        in
        elems []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> parse_lit "true" (Bool true)
    | Some 'f' -> parse_lit "false" (Bool false)
    | Some 'n' -> parse_lit "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v
