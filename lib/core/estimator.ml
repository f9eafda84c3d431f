module Ctx = Matprod_comm.Ctx
module Bmat = Matprod_matrix.Bmat

type comparable =
  | Number of float
  | Coords of (int * int) list
  | Sample of (int * int * int) option
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

type t = {
  name : string;
  describe : string;
  cost : n:int -> cost;
  contract : contract;
  run : Ctx.t -> a:Bmat.t -> b:Bmat.t -> comparable;
}

let make ~name ~describe ~default ~cost ~contract ~comparable run =
  {
    name;
    describe;
    cost = cost default;
    contract = contract default;
    run = (fun ctx ~a ~b -> comparable (run ctx default ~a ~b));
  }

let pp_comparable ppf = function
  | Number x -> Format.fprintf ppf "%.6g" x
  | Coords cs ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (i, j) -> Format.fprintf ppf "(%d, %d)" i j))
        cs
  | Sample None -> Format.pp_print_string ppf "(none)"
  | Sample (Some (i, j, v)) -> Format.fprintf ppf "(%d, %d) = %d" i j v
  | Shares (alice, bob) ->
      Format.fprintf ppf "alice %d entries + bob %d entries"
        (List.length alice) (List.length bob)
  | Leveled (x, level) -> Format.fprintf ppf "%.6g (level %d)" x level
