module Codec = Matprod_comm.Codec
module Imat = Matprod_matrix.Imat
module Engine = Matprod_engine.Engine
module L0 = Matprod_core.L0_sampling
module L1 = Matprod_core.L1_sampling
module Prng = Matprod_util.Prng

type request =
  | Hello of { session_seed : int }
  | Gen of { name : string; n : int; density : float; seed : int; zipf : bool }
  | Register of { name : string; a : Imat.t; b : Imat.t }
  | Batch of { id : int; pair : string; specs : string list }
  | Quit

type response =
  | Welcome of { session : int }
  | Ready of { name : string; rows : int; cols : int }
  | Answers of {
      id : int;
      bits : int;
      rounds : int;
      replayed_bits : int;
      answers : Engine.answer list;
    }
  | Err of string

let imat : Imat.t Codec.t =
  Codec.map
    (fun m ->
      ( (Imat.rows m, Imat.cols m),
        Array.init (Imat.rows m) (fun i -> Imat.row m i) ))
    (fun ((rows, cols), rws) -> Imat.create ~rows ~cols rws)
    Codec.(pair (pair uint uint) (array (array (pair uint int))))

let l0_sample : L0.sample Codec.t =
  Codec.map
    (fun { L0.row; col; value } -> (row, col, value))
    (fun (row, col, value) -> { L0.row; col; value })
    Codec.(triple uint uint int)

let l1_sample : L1.sample Codec.t =
  Codec.map
    (fun { L1.row; col; witness } -> (row, col, witness))
    (fun (row, col, witness) -> { L1.row; col; witness })
    Codec.(triple uint uint int)

let share_entries : (int * int * int) list Codec.t =
  Codec.(list (triple uint uint int))

let bad_tag what tag =
  raise
    (Codec.Decode_error (Printf.sprintf "%s: unknown tag %d" what tag))

(* Tagged unions ride as (tag, payload): the payload is the case's own
   codec run through [bytes], so each case stays independently framed. *)
let answer : Engine.answer Codec.t =
  let enc c v = Codec.encode c v and dec c s = Codec.decode c s in
  let ranked = Codec.(list (pair uint float64)) in
  let entries = Codec.(list (pair uint uint)) in
  let l0s = Codec.(array (option l0_sample)) in
  let l1s = Codec.(array (option l1_sample)) in
  let shares = Codec.(pair share_entries share_entries) in
  Codec.map
    (function
      | Engine.Scalar f -> (0, enc Codec.float64 f)
      | Engine.Vector v -> (1, enc Codec.float_array v)
      | Engine.Ranked l -> (2, enc ranked l)
      | Engine.Entry_set l -> (3, enc entries l)
      | Engine.L0_samples s -> (4, enc l0s s)
      | Engine.L1_samples s -> (5, enc l1s s)
      | Engine.Shares (sa, sb) -> (6, enc shares (sa, sb))
      | Engine.Leveled _ -> invalid_arg "Proto.answer: the engine never levels")
    (fun (tag, payload) ->
      match tag with
      | 0 -> Engine.Scalar (dec Codec.float64 payload)
      | 1 -> Engine.Vector (dec Codec.float_array payload)
      | 2 -> Engine.Ranked (dec ranked payload)
      | 3 -> Engine.Entry_set (dec entries payload)
      | 4 -> Engine.L0_samples (dec l0s payload)
      | 5 -> Engine.L1_samples (dec l1s payload)
      | 6 ->
          let sa, sb = dec shares payload in
          Engine.Shares (sa, sb)
      | t -> bad_tag "answer" t)
    Codec.(pair uint bytes)

let gen_body = Codec.(pair bytes (pair (triple uint float64 int) bool))
let register_body = Codec.(triple bytes imat imat)
let batch_body = Codec.(triple uint bytes (list bytes))

let request : request Codec.t =
  let enc c v = Codec.encode c v and dec c s = Codec.decode c s in
  Codec.map
    (function
      | Hello { session_seed } -> (0, enc Codec.int session_seed)
      | Gen { name; n; density; seed; zipf } ->
          (1, enc gen_body (name, ((n, density, seed), zipf)))
      | Register { name; a; b } -> (2, enc register_body (name, a, b))
      | Batch { id; pair; specs } -> (3, enc batch_body (id, pair, specs))
      | Quit -> (4, ""))
    (fun (tag, payload) ->
      match tag with
      | 0 -> Hello { session_seed = dec Codec.int payload }
      | 1 ->
          let name, ((n, density, seed), zipf) = dec gen_body payload in
          Gen { name; n; density; seed; zipf }
      | 2 ->
          let name, a, b = dec register_body payload in
          Register { name; a; b }
      | 3 ->
          let id, pair, specs = dec batch_body payload in
          Batch { id; pair; specs }
      | 4 -> Quit
      | t -> bad_tag "request" t)
    Codec.(pair uint bytes)

let ready_body = Codec.(triple bytes uint uint)
let answers_body = Codec.(pair (pair uint (triple uint uint uint)) (list answer))

let response : response Codec.t =
  let enc c v = Codec.encode c v and dec c s = Codec.decode c s in
  Codec.map
    (function
      | Welcome { session } -> (0, enc Codec.uint session)
      | Ready { name; rows; cols } -> (1, enc ready_body (name, rows, cols))
      | Answers { id; bits; rounds; replayed_bits; answers } ->
          (2, enc answers_body ((id, (bits, rounds, replayed_bits)), answers))
      | Err msg -> (3, msg))
    (fun (tag, payload) ->
      match tag with
      | 0 -> Welcome { session = dec Codec.uint payload }
      | 1 ->
          let name, rows, cols = dec ready_body payload in
          Ready { name; rows; cols }
      | 2 ->
          let (id, (bits, rounds, replayed_bits)), answers =
            dec answers_body payload
          in
          Answers { id; bits; rounds; replayed_bits; answers }
      | 3 -> Err payload
      | t -> bad_tag "response" t)
    Codec.(pair uint bytes)

let encode_request = Codec.encode request
let decode_request = Codec.decode request
let encode_response = Codec.encode response
let decode_response = Codec.decode response

let batch_seed ~session_seed ~batch_id =
  Prng.fresh_seed (Prng.derive session_seed batch_id 0x5e7e)

let journal_name ~session_seed ~batch_id =
  Printf.sprintf "s%d.b%d.mpj" session_seed batch_id
