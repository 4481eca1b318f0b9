open Ts_model

type engine =
  | Lemmas
  | Revisionist

let engine_name = function
  | Lemmas -> "lemmas"
  | Revisionist -> "revisionist"

type summary = {
  engine : engine;
  protocol_name : string;
  n : int;
  excluded : int list;
  bound : int;
  registers_written : Action.reg list;
  schedule_length : int;
  search_effort : int;
}

let of_theorem (c : Theorem.certificate) =
  {
    engine = Lemmas;
    protocol_name = c.Theorem.protocol_name;
    n = c.Theorem.n;
    excluded = [];
    bound = c.Theorem.n - 1;
    registers_written = c.Theorem.registers_written;
    schedule_length = List.length c.Theorem.schedule;
    search_effort = c.Theorem.oracle_searches;
  }

let agree a b =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  if not (String.equal a.protocol_name b.protocol_name) then
    fail "different protocols: %s vs %s" a.protocol_name b.protocol_name
  else if a.n <> b.n then fail "different n: %d vs %d" a.n b.n
  else if a.excluded <> b.excluded then
    fail "different excluded process sets: {%s} vs {%s}"
      (String.concat "," (List.map string_of_int a.excluded))
      (String.concat "," (List.map string_of_int b.excluded))
  else if a.bound <> b.bound then
    fail "bound mismatch: %s claims %d, %s claims %d" (engine_name a.engine)
      a.bound (engine_name b.engine) b.bound
  else if List.length a.registers_written < a.bound then
    fail "%s witness writes %d distinct registers, below its own bound %d"
      (engine_name a.engine)
      (List.length a.registers_written)
      a.bound
  else if List.length b.registers_written < b.bound then
    fail "%s witness writes %d distinct registers, below its own bound %d"
      (engine_name b.engine)
      (List.length b.registers_written)
      b.bound
  else Ok a.bound

let pp_summary ppf s =
  Fmt.pf ppf "%s: %s n=%d bound=%d (writes %d regs, schedule %d, effort %d)"
    (engine_name s.engine) s.protocol_name s.n s.bound
    (List.length s.registers_written)
    s.schedule_length s.search_effort
