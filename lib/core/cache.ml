(* Sharded LRU cache.  See the .mli for the design contract.

   Each shard is a packed-key hash table of entries carrying a monotone
   use stamp; eviction scans the (small, capacity/shards-sized) shard for
   the minimum stamp.  An O(size) eviction scan on tables of a few dozen
   to a few hundred entries is cheaper in practice than maintaining an
   intrusive list, and it keeps the hot find path allocation-free. *)

open Ts_model
module Obs = Ts_obs.Obs

type 'v entry = {
  mutable v : 'v;
  mutable stamp : int;  (* last-use tick of the owning shard *)
}

type 'v shard = {
  lock : Mutex.t;
  tbl : 'v entry Ckey.Tbl.t;
  mutable tick : int;
  cap : int;  (* max entries in this shard *)
  loc : string;  (* race-detector location of this shard's state *)
  (* per-shard counters, summed by [stats]; plain ints are fine under the
     shard lock *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'v t = {
  shards : 'v shard array;
  name : string;
  capacity : int;
}

(* Enough stripes that a handful of worker domains rarely meet on one
   lock; a capacity below this gets one entry per shard. *)
let max_shards = 8

let create ?(name = "cache") ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  let shards = min max_shards capacity in
  let cap_of i =
    (* divide capacity evenly; the first (capacity mod shards) shards take
       the remainder, so total capacity is exact *)
    (capacity / shards) + (if i < capacity mod shards then 1 else 0)
  in
  {
    shards =
      Array.init shards (fun i ->
          {
            lock = Mutex.create ();
            tbl = Ckey.Tbl.create 64;
            tick = 0;
            cap = cap_of i;
            loc = Obs.fresh_loc "cache.shard";
            hits = 0;
            misses = 0;
            evictions = 0;
          });
    name;
    capacity;
  }

let shard_of t key = t.shards.(Ckey.hash key mod Array.length t.shards)

(* Every entry to a shard's critical section logs one access to the race
   detector's feed.  The accesses are mutex-synchronized; the detector
   models no lock happens-before edges, so they are logged as [atomic]
   (the detector's "never races with its own kind" class) — exactly the
   claim the mutex makes.  A buggy caller touching shard internals outside
   the lock would log a non-atomic access and be flagged. *)
let log_access shard kind = Obs.access ~loc:shard.loc kind ~atomic:true

let locked shard kind f =
  log_access shard kind;
  Mutex.lock shard.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock shard.lock)

let touch shard e =
  shard.tick <- shard.tick + 1;
  e.stamp <- shard.tick

let evict_lru shard =
  (* called under the shard lock with the shard full: drop the entry with
     the smallest use stamp *)
  let victim = ref None in
  Ckey.Tbl.iter
    (fun k e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (k, e.stamp))
    shard.tbl;
  match !victim with
  | Some (k, _) ->
    Ckey.Tbl.remove shard.tbl k;
    shard.evictions <- shard.evictions + 1
  | None -> ()

let insert_locked shard key v =
  match Ckey.Tbl.find_opt shard.tbl key with
  | Some e ->
    e.v <- v;
    touch shard e
  | None ->
    if Ckey.Tbl.length shard.tbl >= shard.cap then evict_lru shard;
    let e = { v; stamp = 0 } in
    touch shard e;
    Ckey.Tbl.add shard.tbl key e

let metrics_hit t = Obs.Metrics.incr (t.name ^ ".hits")
let metrics_miss t = Obs.Metrics.incr (t.name ^ ".misses")

let metrics_entries t =
  if Obs.Metrics.armed () then begin
    let total =
      Array.fold_left (fun acc s -> acc + Ckey.Tbl.length s.tbl) 0 t.shards
    in
    Obs.Metrics.gauge (t.name ^ ".entries") total
  end

let find t key =
  let shard = shard_of t key in
  locked shard Obs.Read @@ fun () ->
  match Ckey.Tbl.find_opt shard.tbl key with
  | Some e ->
    shard.hits <- shard.hits + 1;
    metrics_hit t;
    touch shard e;
    Some e.v
  | None ->
    shard.misses <- shard.misses + 1;
    metrics_miss t;
    None

let put t key v =
  let shard = shard_of t key in
  (locked shard Obs.Write @@ fun () -> insert_locked shard key v);
  metrics_entries t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  shards : int;
}

let stats (t : _ t) =
  let acc =
    Array.fold_left
      (fun acc shard ->
        locked shard Obs.Read @@ fun () ->
        {
          acc with
          hits = acc.hits + shard.hits;
          misses = acc.misses + shard.misses;
          evictions = acc.evictions + shard.evictions;
          entries = acc.entries + Ckey.Tbl.length shard.tbl;
        })
      { hits = 0; misses = 0; evictions = 0; entries = 0;
        capacity = t.capacity; shards = Array.length t.shards }
      t.shards
  in
  acc

let pp_stats ppf s =
  Format.fprintf ppf
    "hits %d, misses %d, evictions %d, entries %d/%d over %d shard%s"
    s.hits s.misses s.evictions s.entries s.capacity s.shards
    (if s.shards = 1 then "" else "s")
