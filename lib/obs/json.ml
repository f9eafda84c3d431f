type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serializer *)

let escape buf s =
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

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* Shortest representation that round-trips; always a valid JSON
       number (never "1." or "nan"). *)
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.12g" f in
    let s = if float_of_string shorter = f then shorter else s in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser *)

type state = { src : string; mutable pos : int }

let fail st msg =
  failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg st.pos)

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then (
    st.pos <- st.pos + n;
    v)
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | Some '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1; go ()
        | Some '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1; go ()
        | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1; go ()
        | Some 'u' ->
            if st.pos + 5 > String.length st.src then fail st "short \\u";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u"
            in
            (* ASCII-range escapes decode; others keep their escaped form
               (the serializer never emits them for non-ASCII anyway). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf ("\\u" ^ hex);
            st.pos <- st.pos + 5;
            go ()
        | _ -> fail st "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  if s = "" then fail st "expected number";
  let is_float =
    String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  in
  if is_float then Float (float_of_string s)
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> Float (float_of_string s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then (
        st.pos <- st.pos + 1;
        List [])
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then (
        st.pos <- st.pos + 1;
        Obj [])
      else
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields (kv :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev (kv :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing bytes";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
