module Ctx = Matprod_comm.Ctx
module Bmat = Matprod_matrix.Bmat

type comparable =
  | Number of float
  | Coords of (int * int) list
  | Sample of (int * int * int) option
  | Samples of (int * int * int) option list
  | Shares of (int * int * int) list * (int * int * int) list
  | Leveled of float * int

type cost = { bits : float; rounds : int }

type t = {
  name : string;
  describe : string;
  cost : n:int -> cost;
  run : Ctx.t -> a:Bmat.t -> b:Bmat.t -> comparable;
}

let make ~name ~describe ~default ~cost ~comparable run =
  {
    name;
    describe;
    cost = cost default;
    run = (fun ctx ~a ~b -> comparable (run ctx default ~a ~b));
  }

let pp_entry ppf (i, j, v) = Format.fprintf ppf "(%d, %d) = %d" i j v

let pp_sample ppf = function
  | None -> Format.pp_print_string ppf "(none)"
  | Some e -> pp_entry ppf e

let pp_comparable ppf = function
  | Number x -> Format.fprintf ppf "%.6g" x
  | Coords cs ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (i, j) -> Format.fprintf ppf "(%d, %d)" i j))
        cs
  | Sample s -> pp_sample ppf s
  | Samples ss ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_sample)
        ss
  | Shares (alice, bob) ->
      Format.fprintf ppf "alice %d entries + bob %d entries"
        (List.length alice) (List.length bob)
  | Leveled (x, level) -> Format.fprintf ppf "%.6g (level %d)" x level
