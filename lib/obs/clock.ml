let fake = Sys.getenv_opt "MATPROD_OBS_FAKE_CLOCK" <> None

let faked () = fake

let last = ref 0

(* Subtracting a process-start epoch keeps the float conversion well
   within double precision (raw epoch seconds * 1e9 would quantize to
   ~256 ns). *)
let epoch = Unix.gettimeofday ()

(* An immediate int: a clock read allocates nothing (63-bit
   nanoseconds cover 146 years). *)
let now_ns () =
  if fake then 0
  else begin
    let t = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9) in
    if t > !last then last := t;
    !last
  end

let elapsed_ns t0 = max 0 (now_ns () - t0)
