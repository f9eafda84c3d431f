(* Tests for the communication framework: codecs, transcripts, channels. *)

module Codec = Matprod_comm.Codec
module Transcript = Matprod_comm.Transcript
module Channel = Matprod_comm.Channel
module Ctx = Matprod_comm.Ctx
module Prng = Matprod_util.Prng
module One_sparse = Matprod_sketch.One_sparse
module L0_sampler = Matprod_sketch.L0_sampler

let check = Alcotest.check

let roundtrip codec v = Codec.decode codec (Codec.encode codec v)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_uint () =
  List.iter
    (fun n -> check Alcotest.int "uint roundtrip" n (roundtrip Codec.uint n))
    [ 0; 1; 127; 128; 300; 1 lsl 20; 1 lsl 40; max_int ];
  Alcotest.check_raises "negative rejected" (Invalid_argument "Codec.uint: negative")
    (fun () -> ignore (Codec.encode Codec.uint (-1)))

let test_codec_uint_sizes () =
  check Alcotest.int "small = 1 byte" 1 (Codec.encoded_bytes Codec.uint 0);
  check Alcotest.int "127 = 1 byte" 1 (Codec.encoded_bytes Codec.uint 127);
  check Alcotest.int "128 = 2 bytes" 2 (Codec.encoded_bytes Codec.uint 128);
  check Alcotest.int "2^14 = 3 bytes" 3 (Codec.encoded_bytes Codec.uint (1 lsl 14))

let test_codec_int () =
  List.iter
    (fun n -> check Alcotest.int "int roundtrip" n (roundtrip Codec.int n))
    [ 0; 1; -1; 63; -64; 1000; -1000; max_int; min_int + 1 ]

let test_codec_bool_unit () =
  check Alcotest.bool "true" true (roundtrip Codec.bool true);
  check Alcotest.bool "false" false (roundtrip Codec.bool false);
  check Alcotest.unit "unit" () (roundtrip Codec.unit ())

let test_codec_float () =
  List.iter
    (fun f ->
      check (Alcotest.float 0.0) "float64 exact" f (roundtrip Codec.float64 f))
    [ 0.0; 1.5; -3.25; Float.pi; 1e300; -1e-300 ];
  (* float32 is lossy but within 1e-7 relative. *)
  let f = 1.2345678 in
  let g = roundtrip Codec.float32 f in
  check Alcotest.bool "float32 close" true (Float.abs (f -. g) /. f < 1e-6)

let test_codec_containers () =
  let c = Codec.pair Codec.int (Codec.list Codec.uint) in
  let v = (-5, [ 1; 2; 3 ]) in
  check Alcotest.bool "pair+list" true (roundtrip c v = v);
  let c3 = Codec.triple Codec.bool Codec.int Codec.float64 in
  let v3 = (true, -7, 2.5) in
  check Alcotest.bool "triple" true (roundtrip c3 v3 = v3);
  check Alcotest.bool "option none" true (roundtrip (Codec.option Codec.int) None = None);
  check Alcotest.bool "option some" true
    (roundtrip (Codec.option Codec.int) (Some 9) = Some 9);
  let arr = [| 4; 5; 6 |] in
  check Alcotest.bool "array" true (roundtrip Codec.int_array arr = arr)

let test_codec_sorted_array () =
  let v = [| 0; 1; 5; 100; 101 |] in
  check Alcotest.bool "roundtrip" true (roundtrip Codec.sorted_int_array v = v);
  check Alcotest.bool "empty" true (roundtrip Codec.sorted_int_array [||] = [||]);
  Alcotest.check_raises "non increasing"
    (Invalid_argument "Codec.sorted_int_array: not strictly increasing")
    (fun () -> ignore (Codec.encode Codec.sorted_int_array [| 3; 3 |]))

let test_codec_sorted_array_compression () =
  (* Dense increasing indices should take ~1 byte each. *)
  let v = Array.init 1000 (fun i -> i * 2) in
  let bytes = Codec.encoded_bytes Codec.sorted_int_array v in
  check Alcotest.bool "delta coding compresses" true (bytes < 1100)

let counter_array =
  Dense_oracle.dense_view (Codec.bounded_counter_array ~max_length:Dense_oracle.max_dense_length)

let test_codec_bounded_counter_array () =
  let v = [| 0; 5; 0; 0; 7; 0 |] in
  check Alcotest.bool "roundtrip" true (roundtrip counter_array v = v);
  check Alcotest.bool "empty" true (roundtrip counter_array [||] = [||]);
  check Alcotest.bool "all zero" true
    (roundtrip counter_array (Array.make 1000 0) = Array.make 1000 0);
  (* Sparse states are cheap; the all-zero array costs a few bytes. *)
  check Alcotest.bool "zeros compress" true
    (Codec.encoded_bytes counter_array (Array.make 10_000 0) < 8)

let test_codec_shorter_uint_array () =
  let length = 1000 in
  let c = Dense_oracle.dense_view (Codec.shorter_uint_array ~length) in
  let sparse = Array.make length 0 in
  sparse.(3) <- 9;
  sparse.(700) <- 1 lsl 30;
  let dense = Array.init length (fun i -> i land 0x7f) in
  List.iter
    (fun (name, a, tag) ->
      let e = Codec.encode c a in
      check Alcotest.bool (name ^ ": roundtrip") true (Codec.decode c e = a);
      check Alcotest.char (name ^ ": tag") tag e.[0])
    [ ("sparse", sparse, '\001'); ("dense", dense, '\000');
      ("all zero", Array.make length 0, '\001') ];
  check Alcotest.int "sparse bytes" 1
    (Codec.encoded_bytes c sparse - Codec.encoded_bytes counter_array sparse);
  check Alcotest.int "dense bytes" 1
    (Codec.encoded_bytes c dense - Codec.encoded_bytes Codec.uint_array dense);
  Alcotest.check_raises "wrong length at encode"
    (Invalid_argument "Codec.shorter_uint_array: length")
    (fun () -> ignore (Codec.encode c [| 1 |]))

(* Every way a shorter_uint_array row can lie about its shape is a
   Decode_error, and the declared lengths that drive allocation are
   rejected before anything near them is allocated. *)
let test_codec_shorter_uint_array_adversarial () =
  let length = 40 in
  let c = Dense_oracle.dense_view (Codec.shorter_uint_array ~length) in
  let uint n = Codec.encode Codec.uint n in
  let arm tag codec n = String.make 1 tag ^ Codec.encode codec (Array.make n 0) in
  List.iter
    (fun (name, bytes) ->
      let before = Gc.allocated_bytes () in
      (match Codec.decode c bytes with
      | exception Codec.Decode_error _ -> ()
      | _ -> Alcotest.failf "%s accepted" name);
      let allocated = Gc.allocated_bytes () -. before in
      if allocated >= 1e5 then Alcotest.failf "%s: decode allocated %.0f bytes" name allocated)
    [
      ("tag 2", "\002" ^ Codec.encode Codec.uint_array (Array.make length 0));
      ("dense length - 1", arm '\000' Codec.uint_array (length - 1));
      ("dense length + 1", arm '\000' Codec.uint_array (length + 1));
      ("sparse length - 1", arm '\001' counter_array (length - 1));
      ("sparse length + 1", arm '\001' counter_array (length + 1));
      ("gap past length", "\001" ^ uint length ^ uint 1 ^ uint length ^ uint 5);
      ( "second gap past length",
        "\001" ^ uint length ^ uint 2 ^ uint 3 ^ uint 5 ^ uint (length - 4) ^ uint 5 );
      ("nnz beyond input", "\001" ^ uint length ^ uint 3 ^ uint 0 ^ uint 5);
      ("dense length 2^40", "\000" ^ uint (1 lsl 40));
      ("sparse length 2^40", "\001" ^ uint (1 lsl 40) ^ uint 0);
      ("empty", "");
    ]

let test_codec_sparse_vec () =
  let v = [| (0, -5); (3, 7); (900, 1) |] in
  check Alcotest.bool "roundtrip" true (roundtrip Codec.sparse_int_vec v = v)

let test_codec_truncated_input () =
  let s = Codec.encode Codec.uint 300 in
  let cut = String.sub s 0 (String.length s - 1) in
  Alcotest.check_raises "truncated" (Codec.Decode_error "Codec: truncated input")
    (fun () -> ignore (Codec.decode Codec.uint cut))

let test_codec_trailing_garbage () =
  let s = Codec.encode Codec.uint 5 ^ "x" in
  Alcotest.check_raises "trailing" (Codec.Decode_error "Codec.decode: trailing bytes")
    (fun () -> ignore (Codec.decode Codec.uint s))

let test_codec_adversarial_lengths () =
  (* A length prefix claiming far more elements than the input holds must
     be rejected before allocation, with the one typed exception. *)
  let huge_count = Codec.encode Codec.uint 1_000_000_000 in
  List.iter
    (fun (name, f) ->
      match f () with
      | exception Codec.Decode_error _ -> ()
      | _ -> Alcotest.failf "%s accepted adversarial length" name)
    [
      ("array", fun () -> ignore (Codec.decode Codec.int_array huge_count));
      ("list", fun () -> ignore (Codec.decode (Codec.list Codec.uint) huge_count));
      ("bytes", fun () -> ignore (Codec.decode Codec.bytes huge_count));
      ( "sorted",
        fun () -> ignore (Codec.decode Codec.sorted_int_array huge_count) );
      ( "counter dense cap",
        fun () ->
          let b = Buffer.create 16 in
          Buffer.add_string b (Codec.encode Codec.uint (1 lsl 40));
          Buffer.add_string b (Codec.encode Codec.uint 0);
          ignore (Codec.decode counter_array (Buffer.contents b)) );
      ( "array above its bound",
        fun () ->
          ignore
            (Codec.decode (Codec.array ~max_length:2 Codec.uint)
               (Codec.encode Codec.int_array [| 1; 2; 3 |])) );
      ( "counter above its bound",
        fun () ->
          ignore
            (Codec.decode (Dense_oracle.dense_view (Codec.bounded_counter_array ~max_length:2))
               (Codec.encode counter_array [| 0; 0; 0 |])) );
      (* One_sparse.cells_wire: (length, [(position, cell)]) *)
      ( "cells dense cap",
        fun () ->
          let c = Codec.pair Codec.uint (Codec.list Codec.unit) in
          ignore
            (Codec.decode
               (One_sparse.cells_wire ~max_cells:Dense_oracle.max_dense_length)
               (Codec.encode c (1 lsl 40, [])))
      );
      ( "cells index beyond length",
        fun () ->
          let cell =
            Codec.pair (Codec.pair Codec.int Codec.int)
              (Codec.pair Codec.uint Codec.uint)
          in
          let c = Codec.pair Codec.uint (Codec.list (Codec.pair Codec.uint cell)) in
          let bytes = Codec.encode c (3, [ (3, ((1, 3), (7, 9))) ]) in
          ignore
            (Codec.decode
               (One_sparse.cells_wire ~max_cells:Dense_oracle.max_dense_length)
               bytes) );
    ]

let test_codec_map () =
  let c = Codec.map (fun s -> String.length s) (fun n -> String.make n 'a') Codec.uint in
  check Alcotest.string "map" "aaa" (roundtrip c "bbb" |> fun s -> String.map (fun _ -> 'a') s)

(* ------------------------------------------------------------------ *)
(* Transcript *)

let test_transcript_rounds () =
  let t = Transcript.create () in
  check Alcotest.int "0 rounds" 0 (Transcript.rounds t);
  Transcript.record t ~sender:Transcript.Alice ~label:"m1" ~bytes:10;
  check Alcotest.int "1 round" 1 (Transcript.rounds t);
  Transcript.record t ~sender:Transcript.Alice ~label:"m2" ~bytes:5;
  check Alcotest.int "same round" 1 (Transcript.rounds t);
  Transcript.record t ~sender:Transcript.Bob ~label:"m3" ~bytes:2;
  check Alcotest.int "2 rounds" 2 (Transcript.rounds t);
  Transcript.record t ~sender:Transcript.Alice ~label:"m4" ~bytes:1;
  check Alcotest.int "3 rounds" 3 (Transcript.rounds t)

let test_transcript_totals () =
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"a" ~bytes:10;
  Transcript.record t ~sender:Transcript.Bob ~label:"b" ~bytes:7;
  Transcript.record t ~sender:Transcript.Alice ~label:"a" ~bytes:3;
  check Alcotest.int "total bytes" 20 (Transcript.total_bytes t);
  check Alcotest.int "total bits" 160 (Transcript.total_bits t);
  check Alcotest.int "messages" 3 (Transcript.message_count t);
  check Alcotest.int "alice" 13 (Transcript.bytes_from t Transcript.Alice);
  check Alcotest.int "bob" 7 (Transcript.bytes_from t Transcript.Bob);
  match Transcript.by_label t with
  | [ ("a", 13); ("b", 7) ] -> ()
  | _ -> Alcotest.fail "by_label aggregation"

let test_transcript_by_label_order () =
  (* by_label sorts by descending byte total regardless of arrival order. *)
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"small" ~bytes:1;
  Transcript.record t ~sender:Transcript.Bob ~label:"big" ~bytes:100;
  Transcript.record t ~sender:Transcript.Alice ~label:"medium" ~bytes:10;
  match Transcript.by_label t with
  | [ ("big", 100); ("medium", 10); ("small", 1) ] -> ()
  | l ->
      Alcotest.failf "descending order violated: %s"
        (String.concat ", " (List.map (fun (l, b) -> Printf.sprintf "%s=%d" l b) l))

let test_transcript_by_label_aggregates () =
  (* Same label from both directions and multiple messages adds up. *)
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"x" ~bytes:4;
  Transcript.record t ~sender:Transcript.Bob ~label:"x" ~bytes:6;
  Transcript.record t ~sender:Transcript.Alice ~label:"y" ~bytes:3;
  Transcript.record t ~sender:Transcript.Alice ~label:"x" ~bytes:5;
  check Alcotest.int "labels" 2 (List.length (Transcript.by_label t));
  check Alcotest.int "x aggregated" 15 (List.assoc "x" (Transcript.by_label t));
  check Alcotest.int "y aggregated" 3 (List.assoc "y" (Transcript.by_label t))

let test_transcript_by_label_empty () =
  check Alcotest.int "empty transcript" 0
    (List.length (Transcript.by_label (Transcript.create ())))

let test_transcript_message_order () =
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"first" ~bytes:1;
  Transcript.record t ~sender:Transcript.Bob ~label:"second" ~bytes:1;
  match Transcript.messages t with
  | [ m1; m2 ] ->
      check Alcotest.string "order" "first" m1.Transcript.label;
      check Alcotest.string "order" "second" m2.Transcript.label;
      check Alcotest.int "rounds assigned" 1 m1.Transcript.round;
      check Alcotest.int "rounds assigned" 2 m2.Transcript.round
  | _ -> Alcotest.fail "expected two messages"

(* ------------------------------------------------------------------ *)
(* Channel / Ctx *)

let test_channel_charges_real_bytes () =
  let ch = Channel.create () in
  let v = Array.init 100 (fun i -> i) in
  let got =
    Channel.send ch ~from:Transcript.Alice ~label:"xs" Codec.sorted_int_array v
  in
  check Alcotest.bool "value intact" true (got = v);
  let want = Codec.encoded_bytes Codec.sorted_int_array v in
  check Alcotest.int "bytes charged" want
    (Transcript.total_bytes (Channel.transcript ch))

let test_channel_lossy_codec_loses () =
  let ch = Channel.create () in
  let f = 1.23456789012345 in
  let got = Channel.send ch ~from:Transcript.Bob ~label:"f" Codec.float32 f in
  check Alcotest.bool "precision lost in transit" true (got <> f)

let test_ctx_reproducible () =
  let run () =
    Ctx.run ~seed:99 (fun ctx ->
        let x = Matprod_util.Prng.int ctx.Ctx.public 1000 in
        let y = Matprod_util.Prng.int ctx.Ctx.alice 1000 in
        let z = Matprod_util.Prng.int ctx.Ctx.bob 1000 in
        ignore (Ctx.a2b ctx ~label:"x" Codec.uint x);
        (x, y, z))
  in
  let r1 = run () and r2 = run () in
  check Alcotest.bool "same outputs" true (r1.Ctx.output = r2.Ctx.output);
  check Alcotest.int "same bits" r1.Ctx.bits r2.Ctx.bits

let test_ctx_streams_independent () =
  let ctx = Ctx.create ~seed:5 () in
  let a = List.init 8 (fun _ -> Matprod_util.Prng.bits ctx.Ctx.alice) in
  let b = List.init 8 (fun _ -> Matprod_util.Prng.bits ctx.Ctx.bob) in
  let p = List.init 8 (fun _ -> Matprod_util.Prng.bits ctx.Ctx.public) in
  check Alcotest.bool "alice<>bob" true (a <> b);
  check Alcotest.bool "alice<>public" true (a <> p)

let test_ctx_run_counts () =
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        ignore (Ctx.a2b ctx ~label:"m1" Codec.uint 1);
        ignore (Ctx.b2a ctx ~label:"m2" Codec.uint 2);
        ignore (Ctx.a2b ctx ~label:"m3" Codec.uint 3);
        42)
  in
  check Alcotest.int "output" 42 r.Ctx.output;
  check Alcotest.int "rounds" 3 r.Ctx.rounds;
  check Alcotest.int "bits" 24 r.Ctx.bits

(* ------------------------------------------------------------------ *)
(* Journal *)

module Journal = Matprod_comm.Journal

let with_tmp_journal k =
  let path = Filename.temp_file "matprod_journal_" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

let test_journal_bad_headers () =
  List.iter
    (fun (name, s) ->
      match Journal.of_bytes s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" name)
    [
      ("empty", "");
      ("short magic", "MP");
      ("wrong magic", "NOPE\001\000\000");
      ("magic only", "MPJ1");
      ("truncated protocol", "MPJ1\002\005ab");
    ];
  (* An unknown version must be refused, not misparsed. *)
  let good = Journal.to_bytes ~protocol:"p" ~seed:1 [] in
  let b = Bytes.of_string good in
  Bytes.set b 4 '\004';
  match Journal.of_bytes (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted"

let test_journal_entry_bytes () =
  check Alcotest.int "payload bytes only" 3
    (Journal.entry_bytes
       { Journal.sender = Transcript.Alice; label = "long label"; payload = "abc" })

(* A crash mid-append leaves debris after the last flushed record; load
   must hand back the clean prefix, and reopen must drop the tail so the
   resumed run can keep appending. *)
let test_journal_torn_tail_reopen () =
  with_tmp_journal @@ fun path ->
  let w = Journal.create ~path ~protocol:"p" ~seed:9 in
  Journal.append w ~sender:Transcript.Alice ~label:"x" ~payload:"abc";
  Journal.append w ~sender:Transcript.Bob ~label:"y" ~payload:"de";
  Journal.close w;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "Mtorn-record-debris";
  close_out oc;
  let j =
    match Journal.load path with
    | Ok j -> j
    | Error e -> Alcotest.failf "torn journal unreadable: %s" e
  in
  check Alcotest.bool "torn tail detected" false j.Journal.clean;
  check Alcotest.int "clean prefix kept" 2 (List.length j.Journal.entries);
  let w2 = Journal.reopen ~path j in
  Journal.append w2 ~sender:Transcript.Alice ~label:"z" ~payload:"f";
  Journal.close w2;
  match Journal.load path with
  | Ok j2 ->
      check Alcotest.bool "rewritten clean" true j2.Journal.clean;
      check Alcotest.int "tail dropped, append kept" 3
        (List.length j2.Journal.entries);
      check Alcotest.bool "order preserved" true
        (List.map (fun e -> e.Journal.label) j2.Journal.entries
        = [ "x"; "y"; "z" ])
  | Error e -> Alcotest.failf "rewritten journal unreadable: %s" e

(* Divergence between a journal and the resumed run is an error, not a
   silent wrong transcript. *)
let test_journal_replay_mismatch () =
  with_tmp_journal @@ fun path ->
  let proto v ctx = Ctx.a2b ctx ~label:"x" Codec.uint v in
  ignore (Ctx.run_journaled ~seed:3 ~journal:path ~protocol:"t" (proto 5));
  let j =
    match Journal.load path with Ok j -> j | Error e -> Alcotest.fail e
  in
  (* Same label, different payload. *)
  (match Ctx.resume ~seed:3 ~journal:j (proto 6) with
  | exception Journal.Replay_mismatch _ -> ()
  | _ -> Alcotest.fail "payload divergence accepted");
  (* Different label. *)
  (match
     Ctx.resume ~seed:3 ~journal:j (fun ctx ->
         Ctx.a2b ctx ~label:"other" Codec.uint 5)
   with
  | exception Journal.Replay_mismatch _ -> ()
  | _ -> Alcotest.fail "label divergence accepted");
  (* Different sender. *)
  (match
     Ctx.resume ~seed:3 ~journal:j (fun ctx ->
         Ctx.b2a ctx ~label:"x" Codec.uint 5)
   with
  | exception Journal.Replay_mismatch _ -> ()
  | _ -> Alcotest.fail "sender divergence accepted");
  (* A seed mismatch is rejected before any replay. *)
  match Ctx.resume ~seed:4 ~journal:j (proto 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "seed mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Netmodel *)

module Netmodel = Matprod_comm.Netmodel

let test_netmodel_formula () =
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"a" ~bytes:1250;
  (* 1250 bytes = 10_000 bits; 1 round *)
  let net = Netmodel.make ~name:"x" ~latency:0.01 ~bandwidth:1e6 () in
  check (Alcotest.float 1e-12) "time" (0.01 +. 0.01)
    (Netmodel.transfer_time net t)

let test_netmodel_rounds_dominate_on_wan () =
  (* Same bits, more rounds: strictly slower on a latency-bound network. *)
  let one = Transcript.create () in
  Transcript.record one ~sender:Transcript.Alice ~label:"m" ~bytes:1000;
  let three = Transcript.create () in
  Transcript.record three ~sender:Transcript.Alice ~label:"m" ~bytes:400;
  Transcript.record three ~sender:Transcript.Bob ~label:"m" ~bytes:300;
  Transcript.record three ~sender:Transcript.Alice ~label:"m" ~bytes:300;
  check Alcotest.bool "wan prefers fewer rounds" true
    (Netmodel.transfer_time Netmodel.wan one
    < Netmodel.transfer_time Netmodel.wan three)

let test_netmodel_bits_dominate_on_lan () =
  let small = Transcript.create () in
  Transcript.record small ~sender:Transcript.Alice ~label:"m" ~bytes:100;
  Transcript.record small ~sender:Transcript.Bob ~label:"m" ~bytes:100;
  let big = Transcript.create () in
  Transcript.record big ~sender:Transcript.Alice ~label:"m" ~bytes:100_000_000;
  check Alcotest.bool "lan prefers fewer bits" true
    (Netmodel.transfer_time Netmodel.lan small
    < Netmodel.transfer_time Netmodel.lan big)

let test_netmodel_rejects_bad () =
  Alcotest.check_raises "bad bandwidth" (Invalid_argument "Netmodel.make")
    (fun () -> ignore (Netmodel.make ~name:"x" ~latency:0.0 ~bandwidth:0.0 ()))

let test_netmodel_loss_pricing () =
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"a" ~bytes:1250;
  Transcript.record t ~sender:Transcript.Bob ~label:"b" ~bytes:1250;
  (* 2 rounds, 2 messages, 20_000 bits *)
  let base = Netmodel.make ~name:"x" ~latency:0.01 ~bandwidth:1e6 () in
  check (Alcotest.float 1e-12) "lossless" (0.02 +. 0.02)
    (Netmodel.transfer_time base t);
  (* loss 1/2: bandwidth term doubles, and each message waits an expected
     p/(1-p) = 1 timeout. *)
  let lossy = Netmodel.with_loss base ~loss:0.5 ~timeout:0.1 in
  check (Alcotest.float 1e-12) "lossy"
    (0.02 +. (0.02 /. 0.5) +. (2.0 *. (0.5 /. 0.5) *. 0.1))
    (Netmodel.transfer_time lossy t);
  check Alcotest.bool "monotone in loss" true
    (Netmodel.transfer_time (Netmodel.with_loss base ~loss:0.25 ~timeout:0.1) t
    < Netmodel.transfer_time lossy t);
  check Alcotest.bool "default timeout used" true
    ((Netmodel.with_loss base ~loss:0.5).Netmodel.timeout
    = Netmodel.default_timeout)

let test_netmodel_zero_loss_unchanged () =
  (* The built-in models are lossless: transfer_time must be the literal
     pre-loss formula, so every LAN/WAN/mobile crossover table in the bench
     suite is unchanged. *)
  let t = Transcript.create () in
  Transcript.record t ~sender:Transcript.Alice ~label:"a" ~bytes:777;
  Transcript.record t ~sender:Transcript.Bob ~label:"b" ~bytes:31_415;
  Transcript.record t ~sender:Transcript.Alice ~label:"c" ~bytes:9;
  List.iter
    (fun net ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "%s literal formula" net.Netmodel.name)
        ((3.0 *. net.Netmodel.latency)
        +. (float_of_int (Transcript.total_bits t) /. net.Netmodel.bandwidth))
        (Netmodel.transfer_time net t))
    [ Netmodel.lan; Netmodel.wan; Netmodel.mobile ]

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

(* Every exported codec, packed with a generator of valid values so the
   fuzzers below can also mutate real encodings. *)
type packed = P : string * 'a QCheck.arbitrary * 'a Codec.t -> packed

(* Recovery cells as the sketches leave them: mostly zero, field
   fingerprints in [0, 2^31 - 1), stored flat (sum, isum, fp1, fp2 per
   cell). *)
let cells_arb =
  let open QCheck in
  let fp = int_bound ((1 lsl 31) - 2) in
  let cell =
    map
      (fun (live, (sum, isum), (fp1, fp2)) ->
        if live then [| sum; isum; fp1; fp2 |] else Array.make One_sparse.words 0)
      (triple bool (pair int int) (pair fp fp))
  in
  map Array.concat (list_of_size Gen.(0 -- 20) cell)

(* A bound well above [cells_arb]'s 20 cells, so mutated counts still
   decode, and small enough that no count allocates much. *)
let cells_wire = Dense_oracle.cells_view (One_sparse.cells_wire ~max_cells:1024)

let l0_sampler = L0_sampler.create (Prng.create 7) ~dim:64 ()

let l0_sampler_arb =
  let open QCheck in
  map
    (fun l -> L0_sampler.sketch l0_sampler (Array.of_list l))
    (list_of_size Gen.(0 -- 12) (pair (int_bound 63) (int_range (-5) 5)))

(* Sparse-heavy arrays, the shape of a dense sketch state on the wire:
   length 0–10 000, at most 1% of the cells drawn from [cell] (the rest
   [zero]), all of them inside a random prefix so that many arrays end in
   a long zero run. Values of different encoded widths put the zero runs
   at every offset against 8-byte words. *)
let sparse_gen ~zero cell =
  let open QCheck.Gen in
  int_bound 10_000 >>= fun n ->
  int_bound (n / 100) >>= fun k ->
  int_bound n >>= fun prefix ->
  list_repeat k (pair (int_bound (max 0 (prefix - 1))) cell) >|= fun cells ->
  let a = Array.make n zero in
  List.iter (fun (i, v) -> a.(i) <- v) cells;
  a

let sparse_uint_arb =
  QCheck.make
    ~print:(fun a -> Printf.sprintf "<%d uints>" (Array.length a))
    (sparse_gen ~zero:0
       QCheck.Gen.(
         frequency
           [
             (3, oneofl [ 1; 0x7f; 0x80; 0x3fff; 0x4000; (1 lsl 31) - 2; max_int ]);
             (2, int_bound 1_000_000);
           ]))

(* Bit patterns a float codec must carry through unchanged: NaNs with
   payloads and signs, both zeros, both infinities, float64 and float32
   subnormals, the extremes. *)
let special_float =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              Int64.float_of_bits 0x7ff0000000000001L;
              Int64.float_of_bits 0x7ff8000000000123L;
              Int64.float_of_bits 0xfff8000000000000L;
              Int64.float_of_bits 0x7ff4000000000000L;
              -0.0;
              Float.infinity;
              Float.neg_infinity;
              Int64.float_of_bits 1L;
              Float.min_float /. 8.0;
              1e-40;
              Float.min_float;
              Float.max_float;
              Float.epsilon;
            ] );
        (2, float);
      ])

let sparse_float_arb =
  QCheck.make
    ~print:(fun a -> Printf.sprintf "<%d floats>" (Array.length a))
    (sparse_gen ~zero:0.0 special_float)

(* Arrays of one length at every density, so that both of
   shorter_uint_array's forms win: each cell is nonzero with a probability
   drawn per array, and nonzero values straddle the one-byte boundary. *)
let shorter_gen ~length =
  let open QCheck.Gen in
  float_bound_inclusive 1.0 >>= fun density ->
  array_repeat length
    (float_bound_inclusive 1.0 >>= fun u ->
     if u >= density then return 0
     else oneof [ int_range 1 0x7f; int_range 0x80 1_000_000; return ((1 lsl 31) - 2) ])

let shorter_arb ~length =
  QCheck.make ~print:QCheck.Print.(array int) (shorter_gen ~length)

let shorter_length = 60

let packed_codecs =
  let open QCheck in
  let nonneg = map (fun n -> n land max_int) int in
  let small = int_bound 10_000 in
  let sorted =
    map
      (fun a -> List.sort_uniq compare (Array.to_list a) |> Array.of_list)
      (array_of_size Gen.(0 -- 60) small)
  in
  let sparse =
    map
      (fun l ->
        let module IM = Map.Make (Int) in
        let m = List.fold_left (fun m (k, v) -> IM.add k v m) IM.empty l in
        IM.bindings m |> List.filter (fun (_, v) -> v <> 0) |> Array.of_list)
      (list_of_size Gen.(0 -- 40) (pair small (int_range (-1000) 1000)))
  in
  [
    P ("unit", unit, Codec.unit);
    P ("bool", bool, Codec.bool);
    P ("uint", nonneg, Codec.uint);
    P ("int", int, Codec.int);
    P ("float64", float, Codec.float64);
    P ("float32", float, Codec.float32);
    P ("pair", pair int nonneg, Codec.pair Codec.int Codec.uint);
    P
      ( "triple",
        triple bool int float,
        Codec.triple Codec.bool Codec.int Codec.float64 );
    P ("option", option int, Codec.option Codec.int);
    P ("list", list_of_size Gen.(0 -- 40) int, Codec.list Codec.int);
    P ("array", array_of_size Gen.(0 -- 40) nonneg, Codec.array Codec.uint);
    P ("int_array", array_of_size Gen.(0 -- 60) int, Codec.int_array);
    P ("uint_array", array_of_size Gen.(0 -- 60) nonneg, Codec.uint_array);
    P ("sorted_int_array", sorted, Codec.sorted_int_array);
    P ("sparse_int_vec", sparse, Codec.sparse_int_vec);
    P ("float_array", array_of_size Gen.(0 -- 40) float, Codec.float_array);
    P
      ( "float32_array",
        array_of_size Gen.(0 -- 40) float,
        Codec.float32_array );
    P ("bytes", string, Codec.bytes);
    P ("uint_array (sparse)", sparse_uint_arb, Codec.uint_array);
    P
      ( "sparse_uint_array",
        sparse_uint_arb,
        Dense_oracle.dense_view Codec.sparse_uint_array );
    P ("float_array (sparse)", sparse_float_arb, Codec.float_array);
    P ("float32_array (sparse)", sparse_float_arb, Codec.float32_array);
    P ("bounded_counter_array (sparse)", sparse_uint_arb, counter_array);
    P
      ( "array (bounded)",
        array_of_size Gen.(0 -- 40) nonneg,
        Codec.array ~max_length:40 Codec.uint );
    P
      ( "bounded_counter_array",
        array_of_size Gen.(0 -- 60) (int_bound 1_000_000),
        Dense_oracle.dense_view (Codec.bounded_counter_array ~max_length:60) );
    P
      ( "shorter_uint_array",
        shorter_arb ~length:shorter_length,
        Dense_oracle.dense_view (Codec.shorter_uint_array ~length:shorter_length) );
    P ("one_sparse.cells_wire", cells_arb, cells_wire);
    P ("l0_sampler.wire", l0_sampler_arb, L0_sampler.wire l0_sampler);
  ]

(* decode must be total up to Decode_error: any other exception fails the
   property by escaping. *)
let decodes_safely codec s =
  match Codec.decode codec s with
  | _ -> true
  | exception Codec.Decode_error _ -> true

let fuzz_tests =
  let open QCheck in
  let random_bytes = string_gen_of_size Gen.(0 -- 80) Gen.char in
  let raw (P (name, _, c)) =
    Test.make
      ~name:("fuzz: " ^ name ^ " decode total on random bytes")
      ~count:500 random_bytes
      (fun s -> decodes_safely c s)
  in
  let mutated (P (name, arb, c)) =
    Test.make
      ~name:("fuzz: " ^ name ^ " decode total on mutated encodings")
      ~count:300
      (triple arb small_nat small_nat)
      (fun (v, cut, bit) ->
        let e = Codec.encode c v in
        let n = String.length e in
        let truncated = if n = 0 then "" else String.sub e 0 (cut mod n) in
        let flipped =
          if n = 0 then e
          else begin
            let b = Bytes.of_string e in
            let pos = bit mod (8 * n) in
            Bytes.set b (pos / 8)
              (Char.chr
                 (Char.code (Bytes.get b (pos / 8)) lxor (1 lsl (pos mod 8))));
            Bytes.to_string b
          end
        in
        decodes_safely c truncated && decodes_safely c flipped)
  in
  let roundtrips (P (name, arb, c)) =
    (* structural compare so NaN = NaN *)
    Test.make
      ~name:("fuzz: " ^ name ^ " roundtrip")
      ~count:300 arb
      (fun v -> compare (roundtrip c v) v = 0)
  in
  let lossless =
    List.filter
      (fun (P (n, _, _)) -> not (String.starts_with ~prefix:"float32" n))
      packed_codecs
  in
  List.map raw packed_codecs
  @ List.map mutated packed_codecs
  @ List.map roundtrips lossless

(* Journal codec properties: lossless round-trip, and total torn-tail
   tolerant parsing under truncation and bit flips. *)
let journal_entry_arb =
  let open QCheck in
  map
    (fun (alice, label, payload) ->
      {
        Journal.sender = (if alice then Transcript.Alice else Transcript.Bob);
        label;
        payload;
      })
    (triple bool
       (string_gen_of_size Gen.(0 -- 20) Gen.printable)
       (string_gen_of_size Gen.(0 -- 60) Gen.char))

let rec list_is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && list_is_prefix xs' ys'
  | _ :: _, [] -> false

let journal_qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"journal: roundtrip" ~count:300
      (triple
         (string_gen_of_size Gen.(0 -- 20) Gen.printable)
         int
         (list_of_size Gen.(0 -- 20) journal_entry_arb))
      (fun (protocol, seed, entries) ->
        match Journal.of_bytes (Journal.to_bytes ~protocol ~seed entries) with
        | Ok j ->
            j.Journal.protocol = protocol
            && j.Journal.seed = seed
            && j.Journal.entries = entries
            && j.Journal.clean
        | Error _ -> false);
    Test.make ~name:"journal: truncation yields a clean prefix" ~count:300
      (pair (list_of_size Gen.(0 -- 10) journal_entry_arb) small_nat)
      (fun (entries, cut) ->
        let full = Journal.to_bytes ~protocol:"p" ~seed:42 entries in
        let n = String.length full in
        let cut = cut mod (n + 1) in
        match Journal.of_bytes (String.sub full 0 cut) with
        | Error _ -> cut < n (* only an incomplete header may be refused *)
        | Ok j ->
            j.Journal.protocol = "p"
            && j.Journal.seed = 42
            && list_is_prefix j.Journal.entries entries
            && (cut < n || (j.Journal.clean && j.Journal.entries = entries)));
    Test.make ~name:"journal: bit flips never escape or grow the log"
      ~count:300
      (pair (list_of_size Gen.(0 -- 8) journal_entry_arb) small_nat)
      (fun (entries, bit) ->
        let full = Journal.to_bytes ~protocol:"proto" ~seed:(-7) entries in
        let b = Bytes.of_string full in
        let pos = bit mod (8 * Bytes.length b) in
        Bytes.set b (pos / 8)
          (Char.chr
             (Char.code (Bytes.get b (pos / 8)) lxor (1 lsl (pos mod 8))));
        match Journal.of_bytes (Bytes.to_string b) with
        | Error _ -> true
        | Ok j -> List.length j.Journal.entries <= List.length entries);
    Test.make ~name:"journal: random bytes decode totally" ~count:500
      (string_gen_of_size Gen.(0 -- 120) Gen.char)
      (fun s ->
        match Journal.of_bytes s with Ok _ -> true | Error _ -> true);
    (* The tentpole property: resuming from a complete journal reproduces
       the run's output with zero fresh communication — every message is
       served (and byte-verified) from the log. *)
    Test.make ~name:"journal: full replay costs zero fresh bits" ~count:50
      (pair small_nat
         (list_of_size Gen.(1 -- 10) (pair bool (int_bound 1_000_000))))
      (fun (seed, msgs) ->
        let proto ctx =
          List.mapi
            (fun i (a2b, v) ->
              let label = Printf.sprintf "m%d" i in
              if a2b then Ctx.a2b ctx ~label Codec.uint v
              else Ctx.b2a ctx ~label Codec.uint v)
            msgs
        in
        with_tmp_journal @@ fun path ->
        let base = Ctx.run_journaled ~seed ~journal:path ~protocol:"t" proto in
        match Journal.load path with
        | Error _ -> false
        | Ok j ->
            let r = Ctx.resume ~seed ~journal:j proto in
            r.Ctx.output = base.Ctx.output
            && r.Ctx.bits = 0
            && r.Ctx.replayed_messages = List.length msgs
            && r.Ctx.replayed_bits = base.Ctx.bits);
  ]

(* Codec.uint_array against its specification, the generic
   [array uint]: same bytes out, and the same value or the same
   Decode_error back on every input, valid or damaged. Arrays are mostly
   zero, like dense sketch states, with values at the one/two-byte
   boundary, the field's largest residue and max_int. *)
let uint_array_oracle = Codec.array Codec.uint

let decode_outcome c s =
  match Codec.decode c s with
  | v -> Ok v
  | exception Codec.Decode_error e -> Error e

let uint_array_tests =
  let open QCheck in
  let cell =
    Gen.frequency
      [
        (20, Gen.return 0);
        (3, Gen.oneofl [ 0x7f; 0x80; (1 lsl 31) - 2; max_int ]);
        (2, Gen.int_bound 1_000_000);
      ]
  in
  let arr = make ~print:Print.(array int) Gen.(array_size (0 -- 200) cell) in
  [
    Test.make ~name:"uint_array: bytes equal array uint" ~count:500 arr
      (fun a -> Codec.encode Codec.uint_array a = Codec.encode uint_array_oracle a);
    Test.make ~name:"uint_array: decodes equal array uint" ~count:500 arr
      (fun a ->
        let e = Codec.encode uint_array_oracle a in
        Codec.decode Codec.uint_array e = a
        && decode_outcome Codec.uint_array e = decode_outcome uint_array_oracle e);
    Test.make ~name:"uint_array: damaged input fails like array uint"
      ~count:500
      (triple arr small_nat small_nat)
      (fun (a, cut, bit) ->
        let e = Codec.encode uint_array_oracle a in
        let n = String.length e in
        let truncated = String.sub e 0 (cut mod n) in
        let b = Bytes.of_string e in
        let pos = bit mod (8 * n) in
        Bytes.set b (pos / 8)
          (Char.chr (Char.code (Bytes.get b (pos / 8)) lxor (1 lsl (pos mod 8))));
        let flipped = Bytes.to_string b in
        let same s =
          decode_outcome Codec.uint_array s = decode_outcome uint_array_oracle s
        in
        Result.is_error (decode_outcome Codec.uint_array truncated)
        && same truncated && same flipped);
  ]

(* bounded_counter_array's specification: the list-based codec it replaced,
   restated over raw bytes, so that the bytes, the decoded array and the
   text and order of every error can be compared. *)
module Counter_ref = struct
  exception Fail of string

  let rec put_uvarint b n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      put_uvarint b (n lsr 7)
    end

  let encode a =
    let pairs = ref [] in
    for i = Array.length a - 1 downto 0 do
      if a.(i) <> 0 then pairs := (i, a.(i)) :: !pairs
    done;
    let b = Buffer.create 64 in
    put_uvarint b (Array.length a);
    put_uvarint b (List.length !pairs);
    let prev = ref (-1) in
    List.iter
      (fun (i, v) ->
        put_uvarint b (i - !prev - 1);
        put_uvarint b v;
        prev := i)
      !pairs;
    Buffer.contents b

  let decode s =
    let pos = ref 0 in
    let fail m = raise (Fail m) in
    let byte () =
      if !pos >= String.length s then fail "Codec: truncated input";
      let c = Char.code s.[!pos] in
      incr pos;
      c
    in
    let uvarint () =
      let rec go shift acc =
        let b = byte () in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then acc
        else if shift >= 63 then fail "Codec: varint too long"
        else go (shift + 7) acc
      in
      let n = go 0 0 in
      if n < 0 then fail "Codec: negative unsigned varint";
      n
    in
    match
      let len = uvarint () in
      if len > Dense_oracle.max_dense_length then
        fail "Codec.bounded_counter_array: dense length exceeds cap";
      let n = uvarint () in
      if n > String.length s - !pos then
        fail "Codec.bounded_counter_array: length prefix exceeds remaining input";
      let prev = ref (-1) in
      let pairs =
        List.init n (fun _ ->
            let d = uvarint () in
            let v = uvarint () in
            prev := !prev + 1 + d;
            if !prev < 0 || !prev >= len then
              fail "Codec.bounded_counter_array: index beyond dense length";
            (!prev, v))
      in
      if !pos <> String.length s then fail "Codec.decode: trailing bytes";
      let a = Array.make len 0 in
      List.iter (fun (i, v) -> a.(i) <- v) pairs;
      a
    with
    | a -> Ok a
    | exception Fail m -> Error m
end

let truncate_and_flip e (cut, bit) =
  let n = String.length e in
  let truncated = String.sub e 0 (cut mod n) in
  let b = Bytes.of_string e in
  let pos = bit mod (8 * n) in
  Bytes.set b (pos / 8)
    (Char.chr (Char.code (Bytes.get b (pos / 8)) lxor (1 lsl (pos mod 8))));
  (truncated, Bytes.to_string b)

let float_bits a = Array.map Int64.bits_of_float a

(* The word-at-a-time codecs against their oracles on sparse-heavy input:
   equal bytes, equal decoded bit patterns, and the same Decode_error text
   on a truncation and on a bit flip anywhere in the encoding. *)
let sparse_oracle_tests =
  let open QCheck in
  let damage = pair (int_bound max_int) (int_bound max_int) in
  let agrees ~name arb ~enc ~oracle_enc ~dec ~oracle_dec =
    Test.make ~name ~count:200 (pair arb damage) (fun (a, d) ->
        let e = oracle_enc a in
        let truncated, flipped = truncate_and_flip e d in
        String.equal (enc a) e
        && dec e = oracle_dec e
        && Result.is_error (dec truncated)
        && dec truncated = oracle_dec truncated
        && dec flipped = oracle_dec flipped)
  in
  let via codec s = decode_outcome codec s in
  let float_via codec s = Result.map float_bits (decode_outcome codec s) in
  let float32_oracle = Codec.array Codec.float32 in
  let float64_oracle = Codec.array Codec.float64 in
  [
    agrees ~name:"uint_array: sparse input agrees with array uint" sparse_uint_arb
      ~enc:(Codec.encode Codec.uint_array)
      ~oracle_enc:(Codec.encode uint_array_oracle)
      ~dec:(via Codec.uint_array) ~oracle_dec:(via uint_array_oracle);
    agrees ~name:"float32_array: sparse input agrees with array float32"
      sparse_float_arb
      ~enc:(Codec.encode Codec.float32_array)
      ~oracle_enc:(Codec.encode float32_oracle)
      ~dec:(float_via Codec.float32_array) ~oracle_dec:(float_via float32_oracle);
    agrees ~name:"float_array: sparse input agrees with array float64"
      sparse_float_arb
      ~enc:(Codec.encode Codec.float_array)
      ~oracle_enc:(Codec.encode float64_oracle)
      ~dec:(float_via Codec.float_array) ~oracle_dec:(float_via float64_oracle);
    agrees ~name:"bounded_counter_array: sparse input agrees with the list codec"
      sparse_uint_arb
      ~enc:(Codec.encode counter_array)
      ~oracle_enc:Counter_ref.encode ~dec:(via counter_array)
      ~oracle_dec:Counter_ref.decode;
  ]

(* Mostly-zero arrays of length 0–10 000, the shape of an ℓ0 state: at
   most 64 nonzero cells, each one of the values whose varints end a
   byte-width (0x7f, 0x80, 2^31 − 2, max_int) or small, at positions
   aligned to [offset] mod 8 (or anywhere), so the zero runs between them
   start at every offset against 8-byte words. *)
let mostly_zero_gen =
  let open QCheck.Gen in
  int_bound 10_000 >>= fun n ->
  int_bound 7 >>= fun offset ->
  int_bound (min 64 (n / 4)) >>= fun k ->
  list_repeat k
    (triple bool (int_bound (max 0 (n - 1)))
       (oneofl [ 1; 0x7f; 0x80; (1 lsl 31) - 2; max_int; 3 ]))
  >|= fun cells ->
  let a = Array.make n 0 in
  List.iter
    (fun (aligned, i, v) ->
      let i = if aligned then (i land lnot 7) + offset else i in
      if i < n then a.(i) <- v)
    cells;
  a

let mostly_zero_arb =
  QCheck.make
    ~print:(fun a ->
      Printf.sprintf "<%d cells, nonzero at %s>" (Array.length a)
        (String.concat ","
           (List.filter_map
              (fun i -> if a.(i) <> 0 then Some (string_of_int i) else None)
              (List.init (Array.length a) Fun.id))))
    mostly_zero_gen

(* A decoded sparse state must be canonical: ascending cells inside its
   length, nonzero values. *)
let sparse_outcome c s =
  Result.bind (decode_outcome c s) (fun (st : Codec.sparse) ->
      let ok = ref (Array.length st.cells = Array.length st.values) in
      Array.iteri
        (fun k i ->
          if i < 0 || i >= st.length || (k > 0 && st.cells.(k - 1) >= i)
             || st.values.(k) = 0
          then ok := false)
        st.cells;
      if !ok then Ok (Dense_oracle.to_dense st) else Error "not canonical")

let oracle_outcome o s =
  match Dense_oracle.decode o s with
  | v -> Ok v
  | exception Codec.Decode_error m -> Error m

(* The sparse-source codecs against the dense codecs they replaced
   (test/dense_oracle.ml): the same bytes for every mostly-zero array, and
   on that encoding, a truncation of it and a bit flip anywhere in it,
   the same cells or the same Decode_error text. *)
let dense_oracle_tests =
  let open QCheck in
  let damage = pair (int_bound max_int) (int_bound max_int) in
  let agrees ~name ~codec ~oracle =
    Test.make ~name ~count:200 (pair mostly_zero_arb damage) (fun (a, d) ->
        let c = codec a and o = oracle a in
        let e = Dense_oracle.encode o a in
        let truncated, flipped = truncate_and_flip e d in
        String.equal (Codec.encode c (Dense_oracle.of_dense a)) e
        && List.for_all
             (fun s -> sparse_outcome c s = oracle_outcome o s)
             [ e; truncated; flipped ])
  in
  let cells_gen =
    let open Gen in
    (* sums any int, fingerprints non-negative *)
    let fp = oneofl [ 0; 0; 0; 1; 0x7f; 0x80; (1 lsl 31) - 2; max_int ] in
    let sum = oneof [ fp; oneofl [ -1; min_int ] ] in
    let cell = map (fun (a, b, c, d) -> [| a; b; c; d |]) (quad sum sum fp fp) in
    int_bound 2_500 >>= fun n ->
    int_bound (min 16 n) >>= fun k ->
    list_repeat k (pair (int_bound (max 0 (n - 1))) cell) >|= fun cells ->
    let a = Array.make (4 * n) 0 in
    List.iter (fun (j, c) -> Array.blit c 0 a (4 * j) 4) cells;
    a
  in
  let dense_cells = Dense_oracle.cells_wire ~max_cells:20_000 in
  let cells = One_sparse.cells_wire ~max_cells:20_000 in
  [
    agrees ~name:"sparse_uint_array: the dense uint_array's bytes and cells"
      ~codec:(fun _ -> Codec.sparse_uint_array)
      ~oracle:(fun _ -> Dense_oracle.uint_array);
    agrees ~name:"bounded_counter_array: the dense codec's bytes and cells"
      ~codec:(fun _ -> Codec.bounded_counter_array ~max_length:10_000)
      ~oracle:(fun _ -> Dense_oracle.bounded_counter_array ~max_length:10_000);
    agrees ~name:"shorter_uint_array: the dense codec's bytes and cells"
      ~codec:(fun a -> Codec.shorter_uint_array ~length:(Array.length a))
      ~oracle:(fun a -> Dense_oracle.shorter_uint_array ~length:(Array.length a));
    Test.make ~name:"cells_wire: the dense codec's bytes and cells" ~count:200
      (pair (make cells_gen) damage) (fun (a, d) ->
        let e = Codec.encode dense_cells a in
        let truncated, flipped = truncate_and_flip e d in
        String.equal (Codec.encode cells (Dense_oracle.cells_of_dense a)) e
        && List.for_all
             (fun s ->
               Result.map Dense_oracle.cells_to_dense (decode_outcome cells s)
               = decode_outcome dense_cells s)
             [ e; truncated; flipped ]);
  ]

(* The codec kernels against the generic compositions they replaced
   (test/dense_oracle.ml, and [array float32]), on the edge states: empty,
   all zero, fully dense, values of 2^31 and above, and cells at 0 and at
   length − 1. The kernel writes the reference's bytes, and every
   truncation of them and every change of a single byte decodes to the
   reference's value or raises the reference's Decode_error text. *)
let edge_value =
  QCheck.Gen.oneofl
    [ 1; 3; 0x7f; 0x80; (1 lsl 31) - 2; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 5; 1 lsl 40; max_int ]

let edge_uint_gen =
  let open QCheck.Gen in
  int_bound 80 >>= fun n ->
  oneofl [ `Empty; `Zero; `Dense; `Ends; `Sparse ] >>= fun shape ->
  array_repeat n edge_value >>= fun vals ->
  int_bound 7 >|= fun k ->
  match shape with
  | `Empty -> [||]
  | `Zero -> Array.make n 0
  | `Dense -> vals
  | `Ends ->
      Array.mapi (fun i v -> if i = 0 || i = n - 1 then v else 0) vals
  | `Sparse -> Array.mapi (fun i v -> if i mod 8 = k then v else 0) vals

let edge_uint_arb =
  QCheck.make ~print:QCheck.Print.(array int) edge_uint_gen

(* [e] cut at every length, and [e] with each byte xor-ed with [mask]. *)
let damaged e mask =
  let n = String.length e in
  List.init n (fun k -> String.sub e 0 k)
  @ List.init n (fun k ->
        let b = Bytes.of_string e in
        Bytes.set b k (Char.chr (Char.code e.[k] lxor mask));
        Bytes.to_string b)

let kernel_oracle_tests =
  let open QCheck in
  let mask = int_range 1 255 in
  let agrees ~name arb ~enc ~oracle_enc ~dec ~oracle_dec =
    Test.make ~name ~count:60 (pair arb mask) (fun (a, m) ->
        let e = oracle_enc a in
        String.equal (enc a) e
        && List.for_all (fun s -> dec s = oracle_dec s) (e :: damaged e m))
  in
  let dense c a = Codec.encode (Dense_oracle.dense_view c) a in
  let via_dense c s = Result.map Dense_oracle.to_dense (decode_outcome c s) in
  let bounded = Codec.bounded_counter_array ~max_length:100 in
  let float32_oracle = Codec.array Codec.float32 in
  let floats =
    make ~print:Print.(array float)
      Gen.(
        map
          (Array.map (fun v -> if v = 0 then 0.0 else ldexp (float_of_int (v land 0xffff)) (v mod 40 - 20)))
          edge_uint_gen)
  in
  let cells_arb =
    let open Gen in
    let word = oneof [ edge_value; return 0; return 0 ] in
    let sum = oneof [ word; oneofl [ -1; min_int; -(1 lsl 31) ] ] in
    let cell = map (fun (a, b, c, d) -> [| a; b; c; d |]) (quad sum sum word word) in
    let gen =
      int_bound 40 >>= fun n ->
      oneofl [ `Empty; `Zero; `Dense; `Ends ] >>= fun shape ->
      array_repeat n cell >|= fun cs ->
      let keep i = match shape with
        | `Empty | `Zero -> false
        | `Dense -> true
        | `Ends -> i = 0 || i = n - 1
      in
      let a = Array.make (4 * n) 0 in
      Array.iteri (fun i c -> if keep i then Array.blit c 0 a (4 * i) 4) cs;
      a
    in
    make ~print:Print.(array int) gen
  in
  let cells = One_sparse.cells_wire ~max_cells:100 in
  let dense_cells = Dense_oracle.cells_wire ~max_cells:100 in
  [
    agrees ~name:"kernels: sparse_uint_array is array uint on edge states" edge_uint_arb
      ~enc:(dense Codec.sparse_uint_array)
      ~oracle_enc:(Dense_oracle.encode Dense_oracle.uint_array)
      ~dec:(via_dense Codec.sparse_uint_array)
      ~oracle_dec:(oracle_outcome Dense_oracle.uint_array);
    agrees ~name:"kernels: uint_array is array uint on edge states" edge_uint_arb
      ~enc:(Codec.encode Codec.uint_array)
      ~oracle_enc:(Dense_oracle.encode Dense_oracle.uint_array)
      ~dec:(decode_outcome Codec.uint_array)
      ~oracle_dec:(oracle_outcome Dense_oracle.uint_array);
    agrees ~name:"kernels: bounded_counter_array is the Buffer-built pairs on edge states"
      edge_uint_arb ~enc:(dense bounded)
      ~oracle_enc:(Dense_oracle.encode (Dense_oracle.bounded_counter_array ~max_length:100))
      ~dec:(via_dense bounded)
      ~oracle_dec:(oracle_outcome (Dense_oracle.bounded_counter_array ~max_length:100));
    Test.make ~name:"kernels: shorter_uint_array is the reference on edge states" ~count:60
      (pair edge_uint_arb mask) (fun (a, m) ->
        let length = Array.length a in
        let c = Codec.shorter_uint_array ~length
        and o = Dense_oracle.shorter_uint_array ~length in
        let e = Dense_oracle.encode o a in
        String.equal (dense c a) e
        && List.for_all
             (fun s -> via_dense c s = oracle_outcome o s)
             (e :: damaged e m));
    agrees ~name:"kernels: float32_array is array float32 on edge states" floats
      ~enc:(Codec.encode Codec.float32_array)
      ~oracle_enc:(Codec.encode float32_oracle)
      ~dec:(fun s -> Result.map float_bits (decode_outcome Codec.float32_array s))
      ~oracle_dec:(fun s -> Result.map float_bits (decode_outcome float32_oracle s));
    agrees ~name:"kernels: cells_wire is the list/tuple codec on edge states" cells_arb
      ~enc:(fun a -> Codec.encode cells (Dense_oracle.cells_of_dense a))
      ~oracle_enc:(Codec.encode dense_cells)
      ~dec:(fun s -> Result.map Dense_oracle.cells_to_dense (decode_outcome cells s))
      ~oracle_dec:(decode_outcome dense_cells);
  ]

(* Listings no encoder writes — descending, repeated or zero cells —
   decode as writing them into dense storage in order would, which is
   what One_sparse.of_listing does, into a canonical state. *)
let cells_listing_tests =
  let open QCheck in
  let listing =
    Codec.pair Codec.uint
      (Codec.list
         (Codec.pair Codec.uint
            (Codec.pair (Codec.pair Codec.int Codec.int) (Codec.pair Codec.uint Codec.uint))))
  in
  let gen =
    let open Gen in
    let word = oneofl [ 0; 0; 1; 0x80; 1 lsl 31 ] in
    let sum = oneofl [ 0; 0; 1; -1; 1 lsl 33 ] in
    int_range 1 12 >>= fun n ->
    list_size (0 -- 10)
      (pair (int_bound (n - 1)) (pair (pair sum sum) (pair word word)))
    >|= fun l -> (n, l)
  in
  let print (n, l) =
    Printf.sprintf "%d cells, listing at %s" n
      (String.concat "," (List.map (fun (k, _) -> string_of_int k) l))
  in
  let cells = One_sparse.cells_wire ~max_cells:100 in
  let dense_cells = Dense_oracle.cells_wire ~max_cells:100 in
  [
    Test.make ~name:"cells_wire: non-canonical listings decode as of_listing"
      ~count:500 (make ~print gen) (fun v ->
        let e = Codec.encode listing v in
        let canonical (st : One_sparse.cells) =
          Array.length st.cell_words = 4 * Array.length st.nonzero
          && Array.for_all (fun k -> k >= 0 && k < st.count) st.nonzero
          && List.for_all
               (fun j ->
                 (j = 0 || st.nonzero.(j - 1) < st.nonzero.(j))
                 && not (One_sparse.is_zero st.cell_words j))
               (List.init (Array.length st.nonzero) Fun.id)
        in
        match Codec.decode cells e with
        | st -> canonical st && Ok (Dense_oracle.cells_to_dense st) = decode_outcome dense_cells e
        | exception Codec.Decode_error m -> decode_outcome dense_cells e = Error m);
  ]

(* Codec.encode's scratch is per domain and checked out per call: two
   systhreads of one domain, an encode nested in another, and four pool
   domains, each encoding different values at once, get their own bytes. *)
let test_codec_scratch_isolation () =
  let module Pool = Matprod_util.Pool in
  let value k = { Codec.length = 20_000 + k; cells = [| k; 5_000 + k |]; values = [| k + 1; 1 lsl 40 |] } in
  let expect = Array.init 64 (fun k -> Dense_oracle.encode Dense_oracle.uint_array (Dense_oracle.to_dense (value k))) in
  let ok k s = String.equal s expect.(k) in
  let failures = Atomic.make 0 in
  let worker k () =
    for _ = 1 to 200 do
      if not (ok k (Codec.encode Codec.sparse_uint_array (value k))) then Atomic.incr failures
    done
  in
  let threads = List.map (fun k -> Thread.create (worker k) ()) [ 1; 2 ] in
  List.iter Thread.join threads;
  check Alcotest.int "two systhreads" 0 (Atomic.get failures);
  let inner = ref "" in
  let nested =
    Codec.map
      (fun k ->
        inner := Codec.encode Codec.sparse_uint_array (value (k + 1));
        value k)
      (fun _ -> 0)
      Codec.sparse_uint_array
  in
  check Alcotest.bool "nested: outer" true (ok 3 (Codec.encode nested 3));
  check Alcotest.bool "nested: inner" true (ok 4 !inner);
  Pool.set_size 4;
  let got =
    Fun.protect
      ~finally:(fun () ->
        Pool.shutdown ();
        Pool.set_size 1)
      (fun () ->
        Pool.init 64 (fun k -> Codec.encode Codec.sparse_uint_array (value k)))
  in
  check Alcotest.bool "four pool domains" true (Array.for_all2 String.equal got expect)

(* shorter_uint_array against its two forms: it decodes back to its input,
   costs exactly one tag byte more than the shorter form, and so never
   more than uint_array plus one byte. *)
let shorter_uint_array_tests =
  let open QCheck in
  let arr =
    make ~print:Print.(array int)
      Gen.(int_bound 300 >>= fun length -> shorter_gen ~length)
  in
  let shorter a = Dense_oracle.dense_view (Codec.shorter_uint_array ~length:(Array.length a)) in
  [
    Test.make ~name:"shorter_uint_array: roundtrip within uint_array + 1 byte"
      ~count:500 arr (fun a ->
        Codec.decode (shorter a) (Codec.encode (shorter a) a) = a
        && Codec.encoded_bytes (shorter a) a
           <= Codec.encoded_bytes Codec.uint_array a + 1);
    Test.make ~name:"shorter_uint_array: length is the shorter form + 1"
      ~count:500 arr (fun a ->
        Codec.encoded_bytes (shorter a) a
        = 1
          + min
              (Codec.encoded_bytes Codec.uint_array a)
              (Codec.encoded_bytes counter_array a));
  ]

let qcheck_tests =
  let open QCheck in
  fuzz_tests @ journal_qcheck_tests @ uint_array_tests @ sparse_oracle_tests
  @ dense_oracle_tests @ kernel_oracle_tests @ cells_listing_tests
  @ shorter_uint_array_tests
  @ [
    Test.make ~name:"codec: int roundtrip" ~count:1000 int (fun n ->
        roundtrip Codec.int n = n);
    Test.make ~name:"codec: uint roundtrip" ~count:1000 (map abs int) (fun n ->
        roundtrip Codec.uint n = n);
    Test.make ~name:"codec: float64 roundtrip" ~count:500 float (fun f ->
        let g = roundtrip Codec.float64 f in
        g = f || (Float.is_nan f && Float.is_nan g));
    Test.make ~name:"codec: int array roundtrip" ~count:200
      (array_of_size Gen.(0 -- 100) int)
      (fun a -> roundtrip Codec.int_array a = a);
    Test.make ~name:"codec: sorted array roundtrip" ~count:200
      (array_of_size Gen.(0 -- 100) (int_bound 10_000))
      (fun a ->
        let sorted = List.sort_uniq compare (Array.to_list a) |> Array.of_list in
        roundtrip Codec.sorted_int_array sorted = sorted);
    Test.make ~name:"codec: bounded counter array roundtrip" ~count:200
      (array_of_size Gen.(0 -- 200) (int_bound 1_000_000))
      (fun a -> roundtrip counter_array a = a);
    Test.make ~name:"codec: sparse vec roundtrip" ~count:200
      (list_of_size Gen.(0 -- 50) (pair (int_bound 10_000) (int_range (-1000) 1000)))
      (fun l ->
        let module IM = Map.Make (Int) in
        let m = List.fold_left (fun m (k, v) -> IM.add k v m) IM.empty l in
        let a = IM.bindings m |> List.filter (fun (_, v) -> v <> 0) |> Array.of_list in
        roundtrip Codec.sparse_int_vec a = a);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "comm"
    [
      ( "codec",
        [
          Alcotest.test_case "uint" `Quick test_codec_uint;
          Alcotest.test_case "uint sizes" `Quick test_codec_uint_sizes;
          Alcotest.test_case "int" `Quick test_codec_int;
          Alcotest.test_case "bool/unit" `Quick test_codec_bool_unit;
          Alcotest.test_case "floats" `Quick test_codec_float;
          Alcotest.test_case "containers" `Quick test_codec_containers;
          Alcotest.test_case "sorted array" `Quick test_codec_sorted_array;
          Alcotest.test_case "delta compression" `Quick test_codec_sorted_array_compression;
          Alcotest.test_case "bounded counter array" `Quick test_codec_bounded_counter_array;
          Alcotest.test_case "shorter uint array" `Quick test_codec_shorter_uint_array;
          Alcotest.test_case "shorter uint array: adversarial" `Quick
            test_codec_shorter_uint_array_adversarial;
          Alcotest.test_case "sparse vec" `Quick test_codec_sparse_vec;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated_input;
          Alcotest.test_case "trailing garbage" `Quick test_codec_trailing_garbage;
          Alcotest.test_case "adversarial lengths" `Quick test_codec_adversarial_lengths;
          Alcotest.test_case "map" `Quick test_codec_map;
          Alcotest.test_case "scratch per call and domain" `Quick test_codec_scratch_isolation;
        ] );
      ( "transcript",
        [
          Alcotest.test_case "rounds" `Quick test_transcript_rounds;
          Alcotest.test_case "totals" `Quick test_transcript_totals;
          Alcotest.test_case "by_label order" `Quick test_transcript_by_label_order;
          Alcotest.test_case "by_label aggregates" `Quick test_transcript_by_label_aggregates;
          Alcotest.test_case "by_label empty" `Quick test_transcript_by_label_empty;
          Alcotest.test_case "message order" `Quick test_transcript_message_order;
        ] );
      ( "channel",
        [
          Alcotest.test_case "charges real bytes" `Quick test_channel_charges_real_bytes;
          Alcotest.test_case "lossy codec loses" `Quick test_channel_lossy_codec_loses;
          Alcotest.test_case "ctx reproducible" `Quick test_ctx_reproducible;
          Alcotest.test_case "ctx streams independent" `Quick test_ctx_streams_independent;
          Alcotest.test_case "ctx run counts" `Quick test_ctx_run_counts;
        ] );
      ( "journal",
        [
          Alcotest.test_case "bad headers" `Quick test_journal_bad_headers;
          Alcotest.test_case "entry bytes" `Quick test_journal_entry_bytes;
          Alcotest.test_case "torn tail + reopen" `Quick
            test_journal_torn_tail_reopen;
          Alcotest.test_case "replay mismatch" `Quick
            test_journal_replay_mismatch;
        ] );
      ( "netmodel",
        [
          Alcotest.test_case "formula" `Quick test_netmodel_formula;
          Alcotest.test_case "rounds dominate on wan" `Quick test_netmodel_rounds_dominate_on_wan;
          Alcotest.test_case "bits dominate on lan" `Quick test_netmodel_bits_dominate_on_lan;
          Alcotest.test_case "loss pricing" `Quick test_netmodel_loss_pricing;
          Alcotest.test_case "zero loss unchanged" `Quick test_netmodel_zero_loss_unchanged;
          Alcotest.test_case "rejects bad" `Quick test_netmodel_rejects_bad;
        ] );
      ("properties", qsuite);
    ]
