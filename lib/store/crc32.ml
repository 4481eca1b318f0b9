(* CRC-32 (IEEE), reflected form, slicing-by-8.  The checksum runs in
   native ints (the 32-bit value in the low bits), so the loop allocates
   nothing; only the [int32] result is boxed.

   [tables] holds eight 256-entry tables back to back, built on first
   use.  Entry [k * 256 + n] is the CRC contribution of byte [n] followed
   by [k] zero bytes; table 0 is the classic bytewise table of the
   polynomial 0xedb88320.  One step folds eight input bytes with eight
   independent lookups, instead of a chain of eight dependent ones. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to (8 * 256) - 1 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
     done;
     t)

let init = 0xffffffffl
let finish crc = Int32.logxor crc 0xffffffffl

let byte b i = Char.code (Bytes.unsafe_get b i)

(* The caller has checked the bounds. *)
let unsafe_update crc b off len =
  let t = Lazy.force tables in
  let c = ref (Int32.to_int crc land 0xffffffff) in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let p = !i and x = !c in
    c :=
      Array.unsafe_get t (0x700 + ((x lxor byte b p) land 0xff))
      lxor Array.unsafe_get t (0x600 + (((x lsr 8) lxor byte b (p + 1)) land 0xff))
      lxor Array.unsafe_get t (0x500 + (((x lsr 16) lxor byte b (p + 2)) land 0xff))
      lxor Array.unsafe_get t (0x400 + ((x lsr 24) lxor byte b (p + 3)))
      lxor Array.unsafe_get t (0x300 + byte b (p + 4))
      lxor Array.unsafe_get t (0x200 + byte b (p + 5))
      lxor Array.unsafe_get t (0x100 + byte b (p + 6))
      lxor Array.unsafe_get t (byte b (p + 7));
    i := p + 8
  done;
  for p = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor byte b p) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int !c

let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.update";
  unsafe_update crc b off len

let update_string crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.update_string";
  unsafe_update crc (Bytes.unsafe_of_string s) off len

let string s = finish (update_string init s 0 (String.length s))
