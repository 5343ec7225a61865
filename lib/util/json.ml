type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitter *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integer-valued numbers below 1e15 are exact ints, so [string_of_int]
   prints what ["%.0f"] would without going through the format
   interpreter; only -0. needs its sign kept by hand. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else Printf.sprintf "%.17g" f

let to_string json =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> escape_into buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser *)

exception Bad of string

let parse_exn text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (text.[!pos] = ' ' || text.[!pos] = '\t' || text.[!pos] = '\n'
        || text.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = text.[!pos] in
        incr pos;
        if c = '"' then ()
        else if c = '\\' then begin
          if !pos >= n then fail "dangling escape";
          let e = text.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if !pos + 4 > n then fail "bad unicode escape";
            let hex = String.sub text !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad unicode escape"
            in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else
              (* Encode the BMP code point as UTF-8. *)
              if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail "unknown escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      end
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char text.[!pos] do
      incr pos
    done;
    let s = String.sub text start (!pos - start) in
    match float_of_string_opt s with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        expect '}';
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if peek () = Some ',' then begin
            expect ',';
            fields ((key, v) :: acc)
          end
          else begin
            expect '}';
            List.rev ((key, v) :: acc)
          end
        in
        Obj (fields [])
      end
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        expect ']';
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          if peek () = Some ',' then begin
            expect ',';
            items (v :: acc)
          end
          else begin
            expect ']';
            List.rev (v :: acc)
          end
        in
        Arr (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing input at offset %d" !pos));
    v
  | exception Bad msg -> failwith ("Json: " ^ msg)

let parse_exn text =
  try parse_exn text with Bad msg -> failwith ("Json: " ^ msg)

let parse text = try Ok (parse_exn text) with Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr l -> l | _ -> failwith "Json.to_list: not an array"
let to_float = function Num f -> f | _ -> failwith "Json.to_float: not a number"

let to_int j =
  let f = to_float j in
  if Float.is_integer f then int_of_float f else failwith "Json.to_int: not an integer"

let to_str = function Str s -> s | _ -> failwith "Json.to_str: not a string"
