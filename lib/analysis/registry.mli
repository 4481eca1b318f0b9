(** The analyzable protocol registry.

    One entry per shipped protocol instance: the packed protocol (built by
    {!Ts_protocols.Catalog.find}, so every registered name is a cataloged
    one), its declared model {!Lint.claims}, the input vectors the
    analyzers drive it over, the agreement arity [k] its property search
    checks, the extra searches it declares, and what the gate
    ([Analyze.gate]) expects of it.  The negative controls ([broken-*],
    [swap-chain]) are registered with [expect_clean = false]: an analyzer
    that fails to flag them fails the gate just as loudly as one that
    flags a legitimate protocol. *)

open Ts_model

(** What the gate's two-engine comparison ([Crosscheck.compare_engines])
    expects of this entry.  [Expect_agree] entries must have both
    lower-bound engines complete with identical bounds and accepted
    witnesses, and their two space-bound certificates are certified;
    [Expect_diverge] is the planted fixture the gate must catch
    disagreeing; [Informational] verdicts are reported but not gated — the
    negative controls, and clean protocols where one engine's construction
    is out of reach at gate budgets. *)
type xcheck =
  | Expect_agree
  | Expect_diverge
  | Informational

type entry = {
  cli_name : string;  (** stable name used by [tightspace analyze --protocol] *)
  protocol : Protocol.packed;
  claims : Lint.claims;
  inputs_list : Value.t array list;
  k : int;
      (** agreement arity for the property search; an entry with [k > 1]
          also gets a [k = 1] search, whose violation is certified *)
  max_configs : int;  (** exploration cap of every search on this entry *)
  max_depth : int;
  solo_budget : int;
  resilience : int option;
      (** [Some t]: the gate also runs a t-resilience search and certifies
          its violation (the crash control) *)
  expect_clean : bool;
  xcheck : xcheck;  (** the two-engine comparison's expectation *)
}

(** Every registered instance, in display order. *)
val all : unit -> entry list

(** Look an entry up by its registered name. *)
val find : string -> entry option

(** The registered names, in display order. *)
val names : unit -> string list

(** [lookup name] is {!find} with the refusal both front doors serve for
    an unknown name (the daemon's [analyze] op and [tightspace analyze
    --protocol], as [unknown-protocol]): it lists the known names. *)
val lookup : string -> (entry, string) result
