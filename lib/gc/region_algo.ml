module Vec = Gcperf_util.Int_vec
module Os = Gcperf_heap.Obj_store
module Rh = Gcperf_heap.Region_heap

let place (rheap : Rh.t) target ~kind ~size =
  match !target with
  | Some r when r.Rh.used + size <= rheap.Rh.region_size -> !target
  | Some _ | None -> (
      match Rh.take_free_region rheap kind with
      | Some _ as fresh ->
          target := fresh;
          fresh
      | None -> None)

let release_dead_humongous (rheap : Rh.t) =
  let store = rheap.Rh.store in
  let dead = ref [] in
  Array.iter
    (fun r ->
      match r.Rh.kind with
      | Rh.Humongous when r.Rh.hum_len > 0 ->
          Vec.iter
            (fun id ->
              if not (Os.is_marked store id) then dead := id :: !dead)
            r.Rh.objects
      | Rh.Humongous | Rh.Eden | Rh.Survivor | Rh.Old_region | Rh.Free -> ())
    rheap.Rh.regions;
  List.fold_left
    (fun freed id ->
      let size = Os.size store id in
      Rh.release_humongous rheap id;
      freed + size)
    0 !dead

type compaction = {
  live : int;
  freed : int;
  moved_bytes : int;
  moved_objects : int;
}

let mark_compact ctx (rheap : Rh.t) ~collector ~min_age =
  let store = rheap.Rh.store in
  let marked = rheap.Rh.mark_list in
  Gc_ctx.trace_all ctx store ~marked ~stack:rheap.Rh.trace_stack;
  let live = Vec.fold (fun a id -> a + Os.size store id) 0 marked in
  if live > rheap.Rh.heap_bytes then
    raise
      (Gc_ctx.Out_of_memory
         (Printf.sprintf "%s: live data (%d) exceeds heap (%d)" collector live
            rheap.Rh.heap_bytes));
  (* Collect the live movable objects; free everything else. *)
  let movable = rheap.Rh.movable in
  Vec.clear movable;
  let freed = ref 0 in
  Array.iter
    (fun r ->
      Rh.compact_region_objects rheap r;
      match r.Rh.kind with
      | Rh.Eden | Rh.Survivor | Rh.Old_region ->
          Vec.iter
            (fun id ->
              if Os.is_marked store id then Vec.push movable id
              else begin
                let size = Os.size store id in
                freed := !freed + size;
                Rh.add_used rheap r (-size);
                Os.free store id
              end)
            r.Rh.objects
      | Rh.Humongous | Rh.Free -> ())
    rheap.Rh.regions;
  let freed = !freed + release_dead_humongous rheap in
  (* Slide the movable objects into freshly packed old regions.  Epoch
     mark stamps go stale at the next trace on their own. *)
  Array.iter
    (fun r ->
      match r.Rh.kind with
      | Rh.Eden | Rh.Survivor | Rh.Old_region -> Rh.retire_region rheap r
      | Rh.Humongous | Rh.Free -> ())
    rheap.Rh.regions;
  let target = ref None in
  let moved_bytes = ref 0 in
  Os.plan_clear store;
  Vec.iter
    (fun id ->
      let size = Os.size store id in
      moved_bytes := !moved_bytes + size;
      match place rheap target ~kind:Rh.Old_region ~size with
      | Some r ->
          Os.plan_push_region store id ~region:r.Rh.idx
            ~age:(Int.max (Os.age store id) min_age);
          Rh.add_used rheap r size;
          Vec.push r.Rh.objects id
      | None ->
          raise
            (Gc_ctx.Out_of_memory
               (collector ^ ": no free region during full-GC compaction")))
    movable;
  let moved_objects = Os.finish_relocate store in
  { live; freed; moved_bytes = !moved_bytes; moved_objects }
