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
(** Encodes into a per-domain scratch buffer and copies the bytes out
    once. The scratch is checked out for the duration of the call, so a
    second thread of the same domain, or an encode nested in this one,
    writes into its own; it is kept for the next call unless it grew past
    1 MiB, so a long-lived process holds at most that much per domain. *)

val decode : 'a t -> string -> 'a
(** Raises {!Decode_error} on trailing garbage or any malformed input. *)

val encoded_bytes : 'a t -> 'a -> int
(** [String.length (encode c v)], without the copy. *)

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
    with the same decode errors. Encode fills each run of zero counters
    (the bulk of dense sketch states) at once; decode skips zero bytes
    eight at a time and reads values below 0x80 inline. *)

val sorted_int_array : int array t
(** Strictly increasing non-negative ints, delta-coded — the natural
    encoding for the index sets I_j exchanged by Algorithms 2–4. *)

val sparse_int_vec : (int * int) array t
(** (index, value) pairs with strictly increasing indices: delta-coded
    indices, zigzag values. Encodes sampled matrix rows. *)

val float_array : float array t
(** 64-bit floats, length-prefixed: byte for byte [array float64]. *)

val float32_array : float array t
(** Byte for byte [array float32]. Both float arrays reserve the whole
    array's bytes once and write them in one loop. *)

val bytes : string t
(** Length-prefixed raw bytes — for bit-packed payloads. *)

(** {1 Sparse sources} — mostly-zero arrays by their nonzero cells. Each
    codec below writes exactly the bytes its dense counterpart writes for
    the dense array, and decodes to the nonzero cells of the array that
    counterpart would return, with the same {!Decode_error} text. Neither
    direction allocates per cell: encode sizes its output in one pass
    over the nonzero cells and writes it in place, and decode collects
    the cells in per-domain scratch arrays (checked out as {!encode}'s
    buffer is) and returns exact-size copies. *)

type sparse = { length : int; cells : int array; values : int array }
(** The array of [length] cells that is [values.(k)] at [cells.(k)] and 0
    elsewhere. [cells] is strictly ascending in [[0, length)] and every
    value is nonzero: every state a codec decodes, and every state the
    sketches build, has this form. Encoders skip a zero value. *)

val sparse_uint_array : sparse t
(** Byte for byte {!uint_array} of the dense array. Encoding raises
    [Invalid_argument] on cells that are not strictly ascending within
    [length]. *)

val bounded_counter_array : max_length:int -> sparse t
(** Non-negative counter arrays that are often mostly zero (sketch
    states), encoded as (length, nonzero count, (gap, value) pairs): ~2
    bytes per nonzero entry plus a small header. Encode sizes the pairs
    in one pass and writes them straight after the header. Decoding
    rejects dense lengths above [max_length]. *)

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

(** {1 Kernels} — a codec written as one loop over the bytes, for a hot
    message whose generic composition would allocate per element. A
    kernel must write exactly the bytes of the composition it replaces
    and raise its {!Decode_error} texts, and it inherits this module's
    promise that a decode raises nothing else on corrupt bytes. *)

type writer
(** The buffer an encoder appends to. *)

val kernel : enc:(writer -> 'a -> unit) -> dec:(string -> int ref -> 'a) -> 'a t
(** [dec s pos] decodes from offset [!pos] of [s] and leaves [pos] after
    the bytes it read. *)

val write_uint : writer -> int -> unit
(** {!uint}'s bytes. *)

val write_int : writer -> int -> unit
(** {!int}'s bytes. *)

val read_uint : string -> int ref -> int
val read_int : string -> int ref -> int

val read_count : string -> int ref -> string -> int
(** [read_count s pos what] reads the length prefix of a sequence whose
    elements take a byte or more each, as {!list} and {!array} do: a
    count beyond the bytes left raises
    [Decode_error (what ^ ": length prefix exceeds remaining input")]. *)
