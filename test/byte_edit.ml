(* Byte-level damage for the robustness properties that feed corrupted
   input to a decoder: [edit s (kind, pos, c)] overwrites the byte at [pos]
   with [c] (kind 0), deletes it (kind 1), or inserts [c] before it (any
   other kind, or [pos] at the end).  [pos] is taken modulo
   [String.length s + 1], so every generated position lands. *)
let edit s (kind, pos, c) =
  let pos = pos mod (String.length s + 1) in
  let before = String.sub s 0 pos in
  let after k = String.sub s (pos + k) (String.length s - pos - k) in
  match kind with
  | 0 when pos < String.length s -> before ^ String.make 1 c ^ after 1
  | 1 when pos < String.length s -> before ^ after 1
  | _ -> before ^ String.make 1 c ^ after 0
