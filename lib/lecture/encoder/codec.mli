(** The Fan–Lynch encoder/decoder, executable form.

    The Ω(n log n) mutex bound is proved in three steps (part II of the
    lecture bundle): build a canonical execution for each permutation π of
    critical-section entries; encode it into a short bit string; decode the
    string back into the execution.  Since the decoder recovers π, the
    encodings of the n! canonical executions are distinct, so some
    encoding has at least [log2 n!] bits; because the encoding's length is
    tied to the execution's cost, some execution costs Ω(n log n).

    This module implements the encode/decode pair over {!Arena}
    executions.  The schedule is encoded run-length style: each event is a
    process picked by a move-to-front code (recently active processes are
    cheap) followed by how many consecutive steps it takes.  The decoder
    knows the algorithm — only the *schedule* is information — and replays
    it, reconstructing the execution, its cost, and the CS order π.

    Relative to Fan–Lynch's metastep construction this is a simplification
    (documented in DESIGN.md): we encode scheduling choices directly, which
    costs up to an O(log n) factor more than their amortized O(1) bits per
    unit of cost, but preserves both directions that the experiment needs:
    the decoder demonstrably extracts π (so ≥ log2 n! bits are necessary
    for some π), and measured bits track the execution's length/cost. *)

type encoding = {
  bits : string * int;  (** packed data and exact bit length *)
  events : int;  (** number of schedule events encoded *)
}

(** [encode outcome] encodes the schedule of [outcome.step_log].  Works
    for any arena execution (serial or contended). *)
val encode : Arena.outcome -> encoding

(** [decode alg enc] replays the encoded schedule on a fresh instance of
    [alg], returning the reconstructed outcome.  The caller should compare
    [cs_order] (and cost) with the original — {!round_trip} does. *)
val decode : 's Algorithm.t -> encoding -> Arena.outcome

(** [round_trip alg outcome] encodes and decodes, then checks that the CS
    order, total cost and step count survived.  Returns the encoding on
    success, an explanatory message otherwise. *)
val round_trip : 's Algorithm.t -> Arena.outcome -> (encoding, string) result
