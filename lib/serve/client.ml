module Transport = Matprod_comm.Transport

type t = {
  fd : Unix.file_descr;
  mutable closed : bool;
}

let send_fd fd req = Transport.write_frame fd (Proto.encode_request req)

let connect ?(host = "127.0.0.1") ~port ~session_seed () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec dial attempt =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENETUNREACH), _, _)
      when attempt < 100 ->
        Unix.close fd;
        Thread.delay 0.05;
        dial (attempt + 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  let fd = dial 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  match
    send_fd fd (Proto.Hello { session_seed });
    Proto.decode_response (Transport.read_frame fd)
  with
  | Proto.Welcome _ -> { fd; closed = false }
  | Proto.Err e ->
      Unix.close fd;
      failwith (Printf.sprintf "connect: server refused: %s" e)
  | _ ->
      Unix.close fd;
      failwith "connect: protocol error: expected Welcome"
  | exception e ->
      Unix.close fd;
      raise e

let send t req = send_fd t.fd req
let response_raw t = Transport.read_frame t.fd
let response t = Proto.decode_response (response_raw t)

let gen t ~name ~n ~density ~seed ~zipf =
  send t (Proto.Gen { name; n; density; seed; zipf });
  match response t with
  | Proto.Ready { rows; cols; _ } -> Ok (rows, cols)
  | Proto.Err e -> Error e
  | _ -> Error "protocol error: expected Ready"

let batch t ~id ~pair ~specs =
  send t (Proto.Batch { id; pair; specs });
  match response t with
  | Proto.Answers _ as a -> Ok a
  | Proto.Err e -> Error e
  | _ -> Error "protocol error: expected Answers"

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let quit t =
  if not t.closed then begin
    (try send t Proto.Quit with Unix.Unix_error _ -> ());
    close t
  end
