type t =
  | Bot
  | Int of int
  | Bool of bool
  | Pair of t * t
  | List of t list

let bot = Bot
let int n = Int n
let bool b = Bool b
let pair a b = Pair (a, b)
let list vs = List vs

let rec equal a b =
  match a, b with
  | Bot, Bot -> true
  | Int x, Int y -> Stdlib.Int.equal x y
  | Bool x, Bool y -> Stdlib.Bool.equal x y
  | Pair (x1, y1), Pair (x2, y2) -> equal x1 x2 && equal y1 y2
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | (Bot | Int _ | Bool _ | Pair _ | List _), _ -> false

let rec compare a b =
  match a, b with
  | Bot, Bot -> 0
  | Bot, _ -> -1
  | _, Bot -> 1
  | Int x, Int y -> Stdlib.Int.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Bool x, Bool y -> Stdlib.Bool.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | List xs, List ys -> List.compare compare xs ys

let rec hash = function
  | Bot -> 0x42
  | Int n -> n * 0x1000193
  | Bool b -> if b then 0x2f else 0x3d
  | Pair (a, b) -> (hash a * 31) + hash b + 1
  | List vs -> List.fold_left (fun h v -> (h * 31) + hash v) 0x55 vs

(* Zigzag varint: a self-delimiting prefix code, so concatenations of
   encoded values decode unambiguously — key packings built from it are
   injective by construction.  The encoders are top-level recursions that
   take [buf], so no closure is allocated per call: every search packs a
   key per successor. *)
let rec add_groups buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    add_groups buf (n lsr 7)
  end

let add_varint buf n = add_groups buf ((n lsl 1) lxor (n asr 62))

let rec encode buf = function
  | Bot -> Buffer.add_char buf '\000'
  | Int n ->
    Buffer.add_char buf '\001';
    add_varint buf n
  | Bool b -> Buffer.add_char buf (if b then '\002' else '\003')
  | Pair (a, b) ->
    Buffer.add_char buf '\004';
    encode buf a;
    encode buf b
  | List vs ->
    Buffer.add_char buf '\005';
    add_varint buf (List.length vs);
    encode_list buf vs

and encode_list buf = function
  | [] -> ()
  | v :: vs ->
    encode buf v;
    encode_list buf vs

let to_int = function
  | Int n -> n
  | _ -> invalid_arg "Value.to_int: non-int"

let to_bool = function
  | Bool b -> b
  | _ -> invalid_arg "Value.to_bool: non-bool"

let to_pair = function
  | Pair (a, b) -> a, b
  | _ -> invalid_arg "Value.to_pair: non-pair"

let to_list = function
  | List vs -> vs
  | _ -> invalid_arg "Value.to_list: non-list"

let is_bot = function Bot -> true | Int _ | Bool _ | Pair _ | List _ -> false

let rec pp ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Int n -> Fmt.int ppf n
  | Bool b -> Fmt.bool ppf b
  | Pair (a, b) -> Fmt.pf ppf "(%a,%a)" pp a pp b
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ";") pp) vs

let to_string v = Format.asprintf "%a" pp v
