(* Compact canonical keys for configurations.

   Every search in the engine (explore, valency, covering) keys a visited
   or memo table by a configuration.  The polymorphic [Hashtbl.hash] only
   inspects a bounded prefix of a value, so deep configurations collide
   catastrophically once the tables grow; polymorphic [=] then rescans long
   buckets.  A [Ckey.t] instead packs the configuration once into a byte
   string — per-process status via the protocol's state encoder, plus a
   register digest — and carries a full-width FNV-1a hash of it, giving the
   functorized tables O(1) behaviour at any depth.

   Injectivity: each component encoding is self-delimiting (tag bytes plus
   varints, or a Marshal frame), and the component count is fixed by the
   protocol, so distinct configurations pack to distinct strings. *)

type t = {
  digest : string;
  hash : int;
}

let fnv_prime = 0x100000001b3

let hash_string s =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

let of_string digest = { digest; hash = hash_string digest }
let to_raw t = t.digest
let equal a b = a.hash = b.hash && String.equal a.digest b.digest
let hash t = t.hash
let compare a b = String.compare a.digest b.digest
let digest_bytes t = String.length t.digest

let to_hex t =
  let n = String.length t.digest in
  let out = Bytes.create (2 * n) in
  let hexdig k = Char.chr (if k < 10 then Char.code '0' + k else Char.code 'a' + k - 10) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get t.digest i) in
    Bytes.unsafe_set out (2 * i) (hexdig (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (hexdig (c land 0xf))
  done;
  Bytes.unsafe_to_string out

(* Fallback for states (and whole foreign configurations, e.g. the mutex
   lock snapshots) without a packed encoder.  Marshal frames carry their
   own length, so the output is self-delimiting too. *)
let marshal_to buf v = Buffer.add_string buf (Marshal.to_string v [])
let of_marshal v = of_string (Marshal.to_string v [])

(* A packer owns a scratch buffer, so one search (one domain) reuses the
   allocation across millions of packings.  Packers are not shareable
   across domains — create one per search. *)
type 's packer = {
  buf : Buffer.t;
  encode_state : Buffer.t -> 's -> unit;
  loc : string;  (* race-detector location of the scratch buffer *)
}

let packer proto =
  {
    buf = Buffer.create 256;
    encode_state =
      (match proto.Protocol.encode with
       | Protocol.Packed f -> f
       | Protocol.Generic -> marshal_to);
    loc = Ts_obs.Obs.fresh_loc "ckey.packer";
  }

let add_status pk = function
  | Config.Decided v ->
    Buffer.add_char pk.buf 'D';
    Value.encode pk.buf v
  | Config.Running s ->
    Buffer.add_char pk.buf 'R';
    pk.encode_state pk.buf s

let start pk =
  (* the scratch buffer is the packer's share-nothing hazard: flag any
     cross-domain reuse to the race detector *)
  Ts_obs.Obs.access ~loc:pk.loc Ts_obs.Obs.Write ~atomic:false;
  Buffer.clear pk.buf

(* Loops, not [Array.iter]/[Pset.iter]: a closure over [pk] would be
   allocated on every packing, and the key (digest and record) is all a
   packing should allocate. *)
let finish pk (cfg : _ Config.t) =
  let regs = cfg.Config.regs in
  for r = 0 to Array.length regs - 1 do
    Value.encode pk.buf regs.(r)
  done;
  of_string (Buffer.contents pk.buf)

let pack pk (cfg : _ Config.t) =
  start pk;
  let procs = cfg.Config.procs in
  for p = 0 to Array.length procs - 1 do
    add_status pk procs.(p)
  done;
  finish pk cfg

(* The members of a raw mask in increasing pid order, as [Pset.iter]. *)
let rec add_members pk procs mask p =
  if mask <> 0 then begin
    if mask land 1 <> 0 then add_status pk procs.(p);
    add_members pk procs (mask lsr 1) (p + 1)
  end

(* Injective for a fixed [ps]: the member count is fixed, so the same
   self-delimiting argument as [pack] applies.  Keys of different groups
   may coincide; callers salt them with the group's mask. *)
let pack_group pk (cfg : _ Config.t) ps =
  start pk;
  add_members pk cfg.Config.procs (Pset.to_mask ps) 0;
  finish pk cfg

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Keys salted with small integers (process id, participant mask, target
   value...) for memo tables whose key is a configuration plus context. *)
module Salted = struct
  type nonrec t = {
    ck : t;
    salt : int;
  }

  let make ck salt = { ck; salt }
  let equal a b = a.salt = b.salt && equal a.ck b.ck
  let hash { ck; salt } = (ck.hash + (salt * 0x9e3779b9)) land max_int
end

module Salted_tbl = Hashtbl.Make (Salted)
