type t = { coeffs : int array }

let create rng ~k =
  if k < 1 then invalid_arg "Hashing.create: k must be >= 1";
  let coeffs =
    Array.init k (fun i ->
        let c = Prng.int rng Field31.p in
        (* Leading coefficient nonzero keeps the polynomial at full degree. *)
        if i = k - 1 && c = 0 then 1 else c)
  in
  { coeffs }

let degree t = Array.length t.coeffs

let value t key =
  if key < 0 || key >= Field31.p then invalid_arg "Hashing.value: key range";
  Field31.poly_eval t.coeffs key

(* A bijective finalizer (splitmix64's mixer) applied to the polynomial
   value before reducing it to a bucket or a float. A bijection preserves
   k-wise independence while destroying the arithmetic-progression
   structure a linear polynomial taken mod [buckets] would otherwise
   exhibit — without this, occupancy-based estimators are badly biased. *)
let mix v =
  let open Int64 in
  let z = of_int v in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 2)

let bucket t ~buckets key =
  if buckets <= 0 then invalid_arg "Hashing.bucket: buckets";
  mix (value t key) mod buckets

let sign t key = if value t key land 1 = 1 then 1 else -1

(* Fingerprint coefficients MUST be mixed: with a raw degree-(k−1)
   polynomial, Σ_{i∈S} c(i) is a function of S's power sums alone, so e.g.
   {19, 29} and {15, 33} (equal size, equal sum) get equal fingerprints
   under EVERY linear hash, and a 1-sparse-recovery cell holding equal
   values at i and j with i+j even always verifies as a singleton at
   (i+j)/2. The finalizer breaks that algebra. *)
let field_coeff t key =
  let v = mix (value t key) mod Field31.p in
  if v = 0 then 1 else v

let float01 t key = float_of_int (mix (value t key)) *. 0x1.0p-62

(* Tabulation: evaluate a derived map once per key of a bounded domain.
   Each table entry is produced by the exact function it replaces, so a
   lookup is bit-identical to an on-the-fly evaluation — the plan/apply
   sketch kernels rely on that to keep transcripts and journals stable. *)

let check_dim name dim = if dim <= 0 then invalid_arg ("Hashing." ^ name ^ ": dim")

let tabulate_buckets t ~buckets ~dim =
  check_dim "tabulate_buckets" dim;
  if buckets <= 0 then invalid_arg "Hashing.tabulate_buckets: buckets";
  Array.init dim (fun key -> bucket t ~buckets key)

let tabulate_sign_floats t ~dim =
  check_dim "tabulate_sign_floats" dim;
  Array.init dim (fun key -> float_of_int (sign t key))

let tabulate_field_coeffs t ~dim =
  check_dim "tabulate_field_coeffs" dim;
  Array.init dim (fun key -> field_coeff t key)
