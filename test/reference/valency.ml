(* The reference oracle: [Ts_core.Valency] with the yes/no answers of the
   oracle before it consulted members' solo witnesses.  [is_bivalent] is
   [classify]'s verdict and [decides] is [can_decide]'s, so every answer
   comes from one search over the whole participant set. *)
include Ts_core.Valency

let is_bivalent t cfg ps =
  match classify t cfg ps with
  | Bivalent _ -> true
  | Univalent _ | Blocked -> false

let decides t cfg ps v = Option.is_some (can_decide t cfg ps v)
