(* Bit streams and the Fan–Lynch codec. *)
open Ts_model
open Ts_lecture

let test_bits_roundtrip_bits () =
  let w = Bits.writer () in
  let pattern = [ true; false; false; true; true; true; false; true; false ] in
  List.iter (Bits.write_bit w) pattern;
  Alcotest.(check int) "bit length" (List.length pattern) (Bits.bit_length w);
  let r = Bits.reader (Bits.contents w) in
  let back = List.map (fun _ -> Bits.read_bit r) pattern in
  Alcotest.(check (list bool)) "bits round trip" pattern back;
  Alcotest.(check int) "nothing remains" 0 (Bits.remaining r)

let test_gamma_known_lengths () =
  (* gamma(k) costs 2*floor(log2 k) + 1 bits *)
  List.iter
    (fun (k, len) ->
      let w = Bits.writer () in
      Bits.write_gamma w k;
      Alcotest.(check int) (Printf.sprintf "gamma %d length" k) len (Bits.bit_length w))
    [ 1, 1; 2, 3; 3, 3; 4, 5; 7, 5; 8, 7; 1000, 19 ]

let test_gamma_rejects_nonpositive () =
  let w = Bits.writer () in
  Alcotest.check_raises "zero" (Invalid_argument "Bits.write_gamma: k must be positive")
    (fun () -> Bits.write_gamma w 0)

let test_read_past_end () =
  let w = Bits.writer () in
  Bits.write_bit w true;
  let r = Bits.reader (Bits.contents w) in
  ignore (Bits.read_bit r);
  Alcotest.check_raises "past end" (Invalid_argument "Bits.read_bit: past end of stream")
    (fun () -> ignore (Bits.read_bit r))

let prop_gamma_roundtrip =
  QCheck.Test.make ~name:"gamma round trip" ~count:500 QCheck.(int_range 1 1_000_000)
    (fun k ->
      let w = Bits.writer () in
      Bits.write_gamma w k;
      let r = Bits.reader (Bits.contents w) in
      Bits.read_gamma r = k)

let prop_gamma_sequence_roundtrip =
  QCheck.Test.make ~name:"gamma sequences round trip" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 10_000))
    (fun ks ->
      let w = Bits.writer () in
      List.iter (Bits.write_gamma w) ks;
      let r = Bits.reader (Bits.contents w) in
      List.for_all (fun k -> Bits.read_gamma r = k) ks)

let algorithms n =
  [
    Algorithm.Packed (Peterson.make ~n);
    Algorithm.Packed (Tournament.make ~n);
    Algorithm.Packed (Tas_lock.make ~n);
  ]

let test_codec_serial_roundtrip () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let order = Rng.permutation (Rng.create seed) n in
          List.iter
            (fun (Algorithm.Packed alg) ->
              let o = Arena.serial alg ~order in
              match Codec.round_trip alg o with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s n=%d: %s" o.Arena.algorithm n e)
            (algorithms n))
        [ 1; 2; 3 ])
    [ 2; 4; 7 ]

let test_codec_contended_roundtrip () =
  List.iter
    (fun n ->
      List.iter
        (fun (Algorithm.Packed alg) ->
          let o = Arena.contended alg in
          match Codec.round_trip alg o with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s n=%d contended: %s" o.Arena.algorithm n e)
        (algorithms n))
    [ 2; 3; 8 ]

let test_decoder_recovers_permutation () =
  (* the information-theoretic heart: the bits alone determine π *)
  let n = 6 in
  let alg = Tournament.make ~n in
  List.iter
    (fun seed ->
      let order = Rng.permutation (Rng.create seed) n in
      let o = Arena.serial alg ~order in
      let enc = Codec.encode o in
      (* decode on a *fresh* algorithm instance *)
      let o' = Codec.decode (Tournament.make ~n) enc in
      Alcotest.(check (list int)) "π recovered from bits" (Array.to_list order) o'.Arena.cs_order)
    [ 11; 12; 13; 14 ]

let test_distinct_orders_give_distinct_encodings () =
  let n = 5 in
  let alg = Peterson.make ~n in
  let encs =
    List.map
      (fun seed ->
        let order = Rng.permutation (Rng.create seed) n in
        let o = Arena.serial alg ~order in
        order, (Codec.encode o).Codec.bits)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  List.iteri
    (fun i (oi, bi) ->
      List.iteri
        (fun j (oj, bj) ->
          if i < j && oi <> oj then
            Alcotest.(check bool) "different π, different bits" true (bi <> bj))
        encs)
    encs

let test_bits_exceed_entropy () =
  (* some permutation needs >= log2 n! bits; our encodings, averaged over
     random permutations, must sit above that floor *)
  let n = 8 in
  let alg = Tournament.make ~n in
  let total =
    List.fold_left
      (fun acc seed ->
        let order = Rng.permutation (Rng.create seed) n in
        let o = Arena.serial alg ~order in
        acc + snd (Codec.encode o).Codec.bits)
      0 (List.init 10 (fun i -> i + 1))
  in
  let avg = float_of_int total /. 10. in
  Alcotest.(check bool) "average bits above log2 n!" true
    (avg >= Ts_core.Bounds.log2_factorial n)

let test_decode_rejects_inflated_run () =
  (* hand-craft a corrupt encoding: "process 0 takes 1000 consecutive
     steps" — it completes its operation long before that, so the decoder
     must reject the bits rather than silently discarding the [`Done] *)
  let w = Bits.writer () in
  Bits.write_gamma w 2 (* n *);
  Bits.write_gamma w (2 + 1) (* two events *);
  (* Start 0: mtf rank 0 *)
  Bits.write_gamma w 1;
  Bits.write_bit w false;
  (* Run (0, 1000): mtf rank 0 again *)
  Bits.write_gamma w 1;
  Bits.write_bit w true;
  Bits.write_gamma w 1000;
  let enc = { Codec.bits = Bits.contents w; events = 2 } in
  Alcotest.check_raises "mid-run completion rejected"
    (Invalid_argument "Codec.decode: process finished mid-run (corrupt encoding)")
    (fun () -> ignore (Codec.decode (Tas_lock.make ~n:2) enc))

let test_decode_rejects_wrong_n () =
  let o = Arena.serial (Tas_lock.make ~n:3) ~order:[| 0; 1; 2 |] in
  let enc = Codec.encode o in
  Alcotest.check_raises "process count mismatch"
    (Invalid_argument "Codec.decode: process count mismatch") (fun () ->
      ignore (Codec.decode (Tas_lock.make ~n:4) enc))

let suite =
  ( "encoder",
    [
      Alcotest.test_case "bit stream round trip" `Quick test_bits_roundtrip_bits;
      Alcotest.test_case "gamma code lengths" `Quick test_gamma_known_lengths;
      Alcotest.test_case "gamma rejects non-positive" `Quick test_gamma_rejects_nonpositive;
      Alcotest.test_case "reading past the end" `Quick test_read_past_end;
      QCheck_alcotest.to_alcotest prop_gamma_roundtrip;
      QCheck_alcotest.to_alcotest prop_gamma_sequence_roundtrip;
      Alcotest.test_case "codec: serial executions round trip" `Quick test_codec_serial_roundtrip;
      Alcotest.test_case "codec: contended executions round trip" `Quick test_codec_contended_roundtrip;
      Alcotest.test_case "decoder recovers the permutation" `Quick test_decoder_recovers_permutation;
      Alcotest.test_case "distinct orders, distinct encodings" `Quick
        test_distinct_orders_give_distinct_encodings;
      Alcotest.test_case "bits exceed the entropy floor" `Quick test_bits_exceed_entropy;
      Alcotest.test_case "decode rejects wrong n" `Quick test_decode_rejects_wrong_n;
      Alcotest.test_case "decode rejects an inflated run length" `Quick
        test_decode_rejects_inflated_run;
    ] )
