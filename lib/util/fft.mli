(** Radix-2 complex FFT and circular convolution.

    Substrate for Pagh's compressed matrix multiplication [32]: the
    CountSketch of an outer product u·vᵀ with decomposable hashes is the
    circular convolution of the two vector sketches, computed in
    O(b log b) with an FFT. Sizes must be powers of two. *)

val fft : re:float array -> im:float array -> unit
(** In-place forward transform; [re] and [im] must have equal power-of-two
    length. *)

val ifft : re:float array -> im:float array -> unit
(** In-place inverse transform (includes the 1/n normalisation). *)

val convolve : float array -> float array -> float array
(** [convolve x y] is the circular convolution (Σ_j x_j·y_{(i−j) mod b}),
    length = the common power-of-two length of the inputs. *)
