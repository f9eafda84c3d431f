module Ctx = Matprod_comm.Ctx
module Bmat = Matprod_matrix.Bmat

type answer =
  | Scalar of float
  | Vector of float array
  | Ranked of (int * float) list
  | Entry_set of (int * int) list
  | L0_samples of L0_sampling.sample option array
  | L1_samples of L1_sampling.sample option array
  | Shares of (int * int * int) list * (int * int * int) list
  | Leveled of float * int

type cost = { bits : float; rounds : int }

type stat =
  | Norm0 of { times : float }
  | Norm1
  | Frob
  | Norm_inf of { kappa : float }
  | Pairs_upto
  | Disjoint_pairs of { spread : float }
  | Pairs_from_l0 of { spread : float }

type contract =
  | Exact_count of stat
  | Approx of { stat : stat; slack : float; ratio : float }
  | Level_approx of { kappa : float; ratio : float }
  | Heavy_hitters of { phi : float; eps : float }
  | L0_draw
  | L1_draw
  | Product_shares
  | Per_row of { stat : stat; slack : float }
  | Top_k of { stat : stat; slack : float; k : int }

type t = {
  name : string;
  describe : string;
  cost : n:int -> cost;
  contract : contract;
  run : Ctx.t -> a:Bmat.t -> b:Bmat.t -> answer;
}

let make ~name ~describe ~default ~cost ~contract ~answer run =
  {
    name;
    describe;
    cost = cost default;
    contract = contract default;
    run = (fun ctx ~a ~b -> answer (run ctx default ~a ~b));
  }

let pp_seq pp ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp ppf xs

let pp_draw ppf = function
  | None -> Format.pp_print_string ppf "(none)"
  | Some (i, j, v) -> Format.fprintf ppf "(%d, %d) = %d" i j v

let pp_draws ppf = function
  | [| d |] -> pp_draw ppf d
  | ds -> Format.fprintf ppf "[%a]" (pp_seq pp_draw) (Array.to_list ds)

let pp_answer ppf = function
  | Scalar x -> Format.fprintf ppf "%.6g" x
  | Vector v ->
      Format.fprintf ppf "[%a]"
        (pp_seq (fun ppf -> Format.fprintf ppf "%.6g"))
        (Array.to_list v)
  | Ranked rs ->
      Format.fprintf ppf "[%a]"
        (pp_seq (fun ppf (i, x) -> Format.fprintf ppf "row %d ~%.6g" i x))
        rs
  | Entry_set cs ->
      Format.fprintf ppf "{%a}"
        (pp_seq (fun ppf (i, j) -> Format.fprintf ppf "(%d, %d)" i j))
        cs
  | L0_samples ss ->
      pp_draws ppf
        (Array.map (Option.map L0_sampling.(fun s -> (s.row, s.col, s.value))) ss)
  | L1_samples ss ->
      pp_draws ppf
        (Array.map
           (Option.map L1_sampling.(fun s -> (s.row, s.col, s.witness)))
           ss)
  | Shares (alice, bob) ->
      Format.fprintf ppf "alice %d entries + bob %d entries"
        (List.length alice) (List.length bob)
  | Leveled (x, level) -> Format.fprintf ppf "%.6g (level %d)" x level
