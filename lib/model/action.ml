type reg = int

type t =
  | Read of reg
  | Write of reg * Value.t
  | Swap of reg * Value.t
  | Flip
  | Decide of Value.t

let equal a b =
  match a, b with
  | Read r1, Read r2 -> r1 = r2
  | Write (r1, v1), Write (r2, v2) -> r1 = r2 && Value.equal v1 v2
  | Swap (r1, v1), Swap (r2, v2) -> r1 = r2 && Value.equal v1 v2
  | Flip, Flip -> true
  | Decide v1, Decide v2 -> Value.equal v1 v2
  | (Read _ | Write _ | Swap _ | Flip | Decide _), _ -> false

let written_register = function
  | Write (r, _) | Swap (r, _) -> Some r
  | Read _ | Flip | Decide _ -> None

let accessed_register = function
  | Read r | Write (r, _) | Swap (r, _) -> Some r
  | Flip | Decide _ -> None

(* 0 for a step that accesses no register; otherwise the register in the
   high bits and the access kind in the low two: 1 a read, 2 a write (a
   swap reads too, but its write is what makes it conflict). *)
let footprint = function
  | Read r -> (r lsl 2) lor 1
  | Write (r, _) | Swap (r, _) -> (r lsl 2) lor 2
  | Flip | Decide _ -> 0

let independent f g = f = 0 || g = 0 || f asr 2 <> g asr 2 || (f lor g) land 2 = 0

let commute a b = independent (footprint a) (footprint b)

let is_write = function Write _ -> true | Read _ | Swap _ | Flip | Decide _ -> false
let is_swap = function Swap _ -> true | Read _ | Write _ | Flip | Decide _ -> false
let is_read = function Read _ -> true | Write _ | Swap _ | Flip | Decide _ -> false
let is_decide = function Decide _ -> true | Read _ | Write _ | Swap _ | Flip -> false

let pp ppf = function
  | Read r -> Fmt.pf ppf "read(R%d)" r
  | Write (r, v) -> Fmt.pf ppf "write(R%d,%a)" r Value.pp v
  | Swap (r, v) -> Fmt.pf ppf "swap(R%d,%a)" r Value.pp v
  | Flip -> Fmt.string ppf "flip"
  | Decide v -> Fmt.pf ppf "decide(%a)" Value.pp v
