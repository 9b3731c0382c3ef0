(* A crew of parked worker domains for intra-collection parallelism.

   [Pool.map_cells] spawns domains per call, which is fine when each cell
   is a whole experiment but hopeless for a mark phase that runs thousands
   of times per artifact: domain spawn/join costs dwarf the scan.  The
   crew keeps its workers alive between phases, parked on a condition
   variable; a phase hand-off is one lock/broadcast instead of a spawn.

   The crew is a process-global singleton guarded by a user mutex.  A
   caller that cannot take the mutex (another domain is mid-phase) is
   told so and falls back to its sequential path — the kernels built on
   top are content-deterministic, so the fallback is semantically
   invisible.  Workers are spawned on demand up to the largest request
   seen and shut down from an [at_exit] hook registered at module
   initialisation (hence on the main domain, whatever domain first uses
   the crew). *)

type t = {
  m : Mutex.t;
  go : Condition.t;
  done_c : Condition.t;
  mutable task : (int -> unit) option;
  mutable gen : int;  (* task generation; bumped per hand-off *)
  mutable running : int;  (* workers still inside the current task *)
  mutable stop : bool;
  mutable handles : unit Domain.t list;
  mutable workers : int;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
      (* lowest failing slot of the current task, as in [Pool.map_cells] *)
}

(* Caller holds [t.m]. *)
let note_failure t slot e bt =
  match t.failure with
  | Some (s, _, _) when s <= slot -> ()
  | _ -> t.failure <- Some (slot, e, bt)

let attempt f slot =
  match f slot with
  | () -> None
  | exception e -> Some (e, Printexc.get_raw_backtrace ())

let worker t slot gen0 =
  let my_gen = ref gen0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.m;
    while (not t.stop) && t.gen = !my_gen do
      Condition.wait t.go t.m
    done;
    if t.stop then begin
      Mutex.unlock t.m;
      continue_ := false
    end
    else begin
      my_gen := t.gen;
      let f = match t.task with Some f -> f | None -> fun _ -> () in
      Mutex.unlock t.m;
      let outcome = attempt f slot in
      Mutex.lock t.m;
      Option.iter (fun (e, bt) -> note_failure t slot e bt) outcome;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.signal t.done_c;
      Mutex.unlock t.m
    end
  done

(* Serialises whole multi-round phases, not individual hand-offs: the
   holder owns the crew until it releases the mutex. *)
let user_m = Mutex.create ()

let crew : t option ref = ref None

let shutdown () =
  match !crew with
  | None -> ()
  | Some t ->
      Mutex.lock t.m;
      t.stop <- true;
      Condition.broadcast t.go;
      Mutex.unlock t.m;
      List.iter Domain.join t.handles;
      t.handles <- [];
      t.workers <- 0;
      crew := None

(* Registered at module init so it runs on the main domain's exit even
   when a pool worker domain is the first (or only) crew user. *)
let () = at_exit shutdown

let ensure_crew () =
  match !crew with
  | Some t -> t
  | None ->
      let t =
        {
          m = Mutex.create ();
          go = Condition.create ();
          done_c = Condition.create ();
          task = None;
          gen = 0;
          running = 0;
          stop = false;
          handles = [];
          workers = 0;
          failure = None;
        }
      in
      crew := Some t;
      t

let grow t n =
  while t.workers < n do
    let slot = t.workers + 1 in
    let gen0 = t.gen in
    t.handles <- Domain.spawn (fun () -> worker t slot gen0) :: t.handles;
    t.workers <- t.workers + 1
  done

let run t f =
  Mutex.lock t.m;
  t.task <- Some f;
  t.gen <- t.gen + 1;
  t.running <- t.workers;
  Condition.broadcast t.go;
  Mutex.unlock t.m;
  (* The calling domain is slot 0 and works alongside the crew. *)
  let own = attempt f 0 in
  (* Wait the workers out even on failure so the crew stays coherent. *)
  Mutex.lock t.m;
  Option.iter (fun (e, bt) -> note_failure t 0 e bt) own;
  while t.running > 0 do
    Condition.wait t.done_c t.m
  done;
  t.task <- None;
  let failure = t.failure in
  t.failure <- None;
  Mutex.unlock t.m;
  Option.iter (fun (_, e, bt) -> Printexc.raise_with_backtrace e bt) failure

let try_with ~domains f =
  if domains <= 1 then false
  else if not (Mutex.try_lock user_m) then false
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock user_m)
      (fun () ->
        let t = ensure_crew () in
        grow t (domains - 1);
        f t;
        true)

let size t = t.workers + 1
