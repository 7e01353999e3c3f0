(* Synchronisation kernel for the domain-sharded engine (DESIGN §13).

   Two primitives over one shared mutex/condition pair plus a handful
   of sequentially-consistent atomics:

   - a generation {!barrier} separating the step phases of a cycle;
   - a {!poison} flag that propagates the first exception raised inside
     any domain to every waiter, so a failing shard cannot strand the
     others at a barrier.

   A wait is a bounded spin (cheap when the host has a hardware thread
   per shard) followed by a mutex/condition block (mandatory on
   oversubscribed hosts — the test box may have a single CPU).  The
   lost-wakeup race between the last arriver's generation bump and a
   waiter going to sleep is closed Dekker-style: the waiter publishes
   itself in [blocked] while holding the mutex before re-checking the
   generation, and the last arriver reads [blocked] after its bump, so
   one of the two always sees the other. *)

type t = {
  domains : int;
  arrived : int Atomic.t; (* barrier arrivals in the current generation *)
  generation : int Atomic.t;
  blocked : int Atomic.t; (* waiters inside the condition-variable slow path *)
  mutex : Mutex.t;
  cond : Condition.t;
  poison : exn option Atomic.t;
}

let create ~domains =
  if domains <= 0 then invalid_arg "Shard_sync.create: need at least one domain";
  {
    domains;
    arrived = Atomic.make 0;
    generation = Atomic.make 0;
    blocked = Atomic.make 0;
    mutex = Mutex.create ();
    cond = Condition.create ();
    poison = Atomic.make None;
  }

let check t =
  match Atomic.get t.poison with None -> () | Some e -> raise e

let poison t e =
  ignore (Atomic.compare_and_set t.poison None (Some e));
  (* unconditional broadcast: waiters must notice even if they raced
     past the [blocked] publication *)
  Mutex.lock t.mutex;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let spin_budget = 200

(* Wait until the generation moves past [gen]. *)
let wait_past t gen =
  let passed () = Atomic.get t.generation <> gen in
  let rec spin k =
    if not (passed ()) then begin
      check t;
      if k > 0 then begin
        Domain.cpu_relax ();
        spin (k - 1)
      end
      else block ()
    end
  and block () =
    Mutex.lock t.mutex;
    Atomic.incr t.blocked;
    while (not (passed ())) && Atomic.get t.poison = None do
      Condition.wait t.cond t.mutex
    done;
    Atomic.decr t.blocked;
    Mutex.unlock t.mutex;
    check t
  in
  spin spin_budget

let barrier t =
  check t;
  let gen = Atomic.get t.generation in
  if Atomic.fetch_and_add t.arrived 1 = t.domains - 1 then begin
    (* last arriver opens the next generation; reset before the bump so
       early arrivals at the NEXT barrier count from zero *)
    Atomic.set t.arrived 0;
    Atomic.incr t.generation;
    if Atomic.get t.blocked > 0 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end
  end
  else wait_past t gen

let barriers t = Atomic.get t.generation
