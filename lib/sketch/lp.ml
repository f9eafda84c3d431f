module Codec = Matprod_comm.Codec
module Metrics = Matprod_obs.Metrics

let h_build = Metrics.histogram ~label:"lp" "sketch_build_ns"
let h_build_planned = Metrics.histogram ~label:"lp_planned" "sketch_build_ns"
let h_query = Metrics.histogram ~label:"lp" "sketch_query_ns"

type impl = L0 of L0_sketch.t | Stable of Stable_sketch.t | Ams_l2 of Ams.t
type t = { impl : impl }
type value = F of float array | Z of L0_sketch.state

let create rng ~p ~eps ~groups ~dim =
  if not (p >= 0.0 && p <= 2.0) then invalid_arg "Lp.create: p range";
  let impl =
    if p = 0.0 then L0 (L0_sketch.create rng ~eps ~groups ~dim)
    else if p = 2.0 then Ams_l2 (Ams.create rng ~eps ~groups)
    else Stable (Stable_sketch.create rng ~p ~eps ~groups)
  in
  { impl }

let empty t =
  match t.impl with
  | L0 s -> Z (L0_sketch.empty s)
  | Stable s -> F (Stable_sketch.empty s)
  | Ams_l2 s -> F (Ams.empty s)

let sketch t vec =
  Metrics.timed h_build (fun () ->
      match t.impl with
      | L0 s -> Z (L0_sketch.sketch s vec)
      | Stable s -> F (Stable_sketch.sketch s vec)
      | Ams_l2 s -> F (Ams.sketch s vec))

let type_error () = invalid_arg "Lp: mismatched sketch value type"

type plan =
  | P_l0 of L0_sketch.plan
  | P_stable of Stable_sketch.plan
  | P_ams of Ams.plan

let plan t ~dim =
  match t.impl with
  | L0 s -> P_l0 (L0_sketch.plan s ~dim)
  | Stable s -> P_stable (Stable_sketch.plan s ~dim)
  | Ams_l2 s -> P_ams (Ams.plan s ~dim)

let plan_mismatch () = invalid_arg "Lp: plan belongs to another sketch kind"

let sketch_with_plan t pl vec =
  Metrics.timed h_build_planned (fun () ->
      match (t.impl, pl) with
      | L0 s, P_l0 p -> Z (L0_sketch.sketch_with_plan s p vec)
      | Stable s, P_stable p -> F (Stable_sketch.sketch_with_plan s p vec)
      | Ams_l2 s, P_ams p -> F (Ams.sketch_with_plan s p vec)
      | _ -> plan_mismatch ())

let add_scaled t acc ~coeff src =
  match (t.impl, acc, src) with
  | L0 s, Z d, Z v -> Z (L0_sketch.add_scaled s d ~coeff v)
  | Stable s, F d, F v ->
      Stable_sketch.add_scaled s ~dst:d ~coeff v;
      acc
  | Ams_l2 s, F d, F v ->
      Ams.add_scaled s ~dst:d ~coeff v;
      acc
  | _ -> type_error ()

let estimate_pow t v =
  Metrics.timed h_query (fun () ->
      match (t.impl, v) with
      | L0 s, Z a -> L0_sketch.estimate s a
      | Stable s, F a -> Stable_sketch.estimate_pow s a
      | Ams_l2 s, F a -> Ams.estimate_sq s a
      | _ -> type_error ())

(* The ℓ0 family combines sparsely; the float families' states are dense,
   so they keep the add_scaled loop. *)
type combiner = C_l0 of L0_sketch.combiner | C_dense of t * value array

let combiner t sources =
  match t.impl with
  | L0 s ->
      C_l0
        (L0_sketch.combiner s
           (Array.map (function Z a -> a | F _ -> type_error ()) sources))
  | Stable _ | Ams_l2 _ -> C_dense (t, sources)

let estimate_combination cb coeffs =
  match cb with
  | C_l0 c ->
      Metrics.timed h_query (fun () -> L0_sketch.estimate_combination c coeffs)
  | C_dense (t, sources) ->
      estimate_pow t
        (Array.fold_left
           (fun acc (k, c) -> add_scaled t acc ~coeff:c sources.(k))
           (empty t) coeffs)

let wire t =
  match t.impl with
  (* Norm sketches ship dense: their Θ(1/ε²) word count is exactly the
     quantity the paper's bounds speak about and the SC1/SC2 scaling fits
     measure. Shipping them in the shorter form, as L0_sketch.wire ships
     the ℓ0-sampler's column sketches, flattens SC2's fitted ε-exponents
     and fails SC1/SC2 verdicts. Recovery structures (samplers), whose
     content is genuinely sparse, do ship sparsely. The zeros of an ℓ0
     state cost wire bytes and a little CPU: encode sizes each row from
     its nonzero cells, zero-fills it once and stores the values in
     place, and decode skips zero bytes a word at a time and decodes each
     nonzero varint in place. The state itself keeps only its nonzero
     cells from build to combine, so no zero is allocated or scanned
     (docs/PERFORMANCE.md, "Dense on the wire, sparse on the CPU" and
     "Codec kernels"). *)
  | L0 _ ->
      Codec.map
        (function Z a -> a | F _ -> type_error ())
        (fun a -> Z a)
        Codec.sparse_uint_array
  | Stable _ | Ams_l2 _ ->
      Codec.map
        (function F a -> a | Z _ -> type_error ())
        (fun a -> F a)
        Codec.float32_array
