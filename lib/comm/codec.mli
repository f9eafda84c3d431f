(** Composable binary codecs with exact byte accounting.

    Every protocol message is encoded through one of these codecs before it
    "crosses the wire" of the simulated two-party channel, and the
    transcript charges the real encoded length. Integers use LEB128
    varints (zigzag for signed values), index lists are delta-coded, floats
    are IEEE 754. Decoding re-parses the bytes, so a protocol can only use
    information that was actually paid for. *)

type 'a t

exception Decode_error of string
(** The single exception every decoder raises on malformed input:
    truncation, trailing garbage, bad tags, overlong or negative varints,
    length prefixes exceeding the remaining input, and index overflow in
    delta-coded sequences. Decoders never raise anything else on corrupt
    bytes, and allocation is bounded by the input length (a sparse
    source's dense length is never allocated), so feeding adversarial
    bytes to [decode] is safe. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a
(** Raises {!Decode_error} on trailing garbage or any malformed input. *)

val encoded_bytes : 'a t -> 'a -> int

(** {1 Primitive codecs} *)

val unit : unit t
val bool : bool t
val uint : int t
(** Non-negative varint; raises on negative values at encode time. *)

val int : int t
(** Any native int, zigzag varint. *)

val float64 : float t
val float32 : float t
(** Lossy 32-bit float — used where the paper would round to O(log n)-bit
    words. *)

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t
val list : 'a t -> 'a list t
val array : ?max_length:int -> 'a t -> 'a array t
(** Decoding rejects a length above [max_length] (default unbounded)
    before decoding any element. *)

val int_array : int array t
(** Zigzag varints, length-prefixed. *)

val uint_array : int array t
(** Non-negative varints, length-prefixed: byte for byte [array uint],
    with the same decode errors, plus a one-byte fast path for values
    below 0x80 — the zero counters that fill dense sketch states. *)

val sorted_int_array : int array t
(** Strictly increasing non-negative ints, delta-coded — the natural
    encoding for the index sets I_j exchanged by Algorithms 2–4. *)

val sparse_int_vec : (int * int) array t
(** (index, value) pairs with strictly increasing indices: delta-coded
    indices, zigzag values. Encodes sampled matrix rows. *)

val float_array : float array t
(** 64-bit floats, length-prefixed. *)

val float32_array : float array t

val bytes : string t
(** Length-prefixed raw bytes — for bit-packed payloads. *)

(** {1 Sparse sources} — mostly-zero arrays by their nonzero cells. Each
    codec below writes exactly the bytes its dense counterpart writes for
    the dense array, and decodes to the nonzero cells of the array that
    counterpart would return, with the same {!Decode_error} text; nothing
    is allocated per zero cell. *)

type sparse = { length : int; cells : int array; values : int array }
(** The array of [length] cells that is [values.(k)] at [cells.(k)] and 0
    elsewhere. [cells] is strictly ascending in [[0, length)] and every
    value is nonzero: every state a codec decodes, and every state the
    sketches build, has this form. Encoders skip a zero value. *)

val sparse_uint_array : sparse t
(** Byte for byte {!uint_array} of the dense array. *)

val bounded_counter_array : max_length:int -> sparse t
(** Non-negative counter arrays that are often mostly zero (sketch
    states), encoded as (length, nonzero count, (gap, value) pairs): ~2
    bytes per nonzero entry plus a small header. Decoding rejects dense
    lengths above [max_length]. *)

val shorter_uint_array : length:int -> sparse t
(** Arrays of exactly [length] non-negative values, each in the shorter
    of two forms behind a one-byte tag: 0 then the {!uint_array} bytes,
    or 1 then the {!bounded_counter_array} bytes when those are strictly
    shorter. So an encoding is never longer than {!uint_array}'s plus one
    byte. Encoding raises [Invalid_argument] on an array of another
    length; decoding raises {!Decode_error} on a declared length other
    than [length], an unknown tag, or any error of the chosen form. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [map to_wire of_wire codec] transports a codec across an isomorphism. *)
