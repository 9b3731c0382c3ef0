module Gh = Gcperf_heap.Gen_heap
module Rh = Gcperf_heap.Region_heap
module Policy = Gcperf_policy.Policy
module Telemetry = Gcperf_telemetry.Telemetry

(* A resize is observable but free: the boundary move is bookkeeping, not
   work, so it only bumps a counter and never touches the clock or the
   pause log; the applied sizes are in the policy's trajectory. *)
let count_resize ctx = Telemetry.incr ctx.Gc_ctx.telemetry "policy.resizes" 1.0

let install_gen_capacity ctx (heap : Gh.t) =
  ctx.Gc_ctx.young_capacity <- (fun () -> heap.Gh.young_bytes);
  ctx.Gc_ctx.heap_capacity <- (fun () -> heap.Gh.heap_bytes)

let gen_heap_hook ctx (heap : Gh.t) () =
  match ctx.Gc_ctx.policy with
  | None -> ()
  | Some p -> (
      match p.Policy.decide () with
      | None -> ()
      | Some d ->
          let young_before = heap.Gh.young_bytes in
          (match d.Policy.tenuring_threshold with
          | Some t -> heap.Gh.tenuring_threshold <- t
          | None -> ());
          let want_young =
            Option.value d.Policy.young_bytes ~default:heap.Gh.young_bytes
          in
          let want_ratio =
            Option.value d.Policy.survivor_ratio
              ~default:heap.Gh.survivor_ratio
          in
          let applied_young, applied_ratio =
            if
              want_young <> heap.Gh.young_bytes
              || want_ratio <> heap.Gh.survivor_ratio
            then Gh.resize_young heap ~young_bytes:want_young
                   ~survivor_ratio:want_ratio
            else (heap.Gh.young_bytes, heap.Gh.survivor_ratio)
          in
          p.Policy.applied
            {
              d with
              Policy.young_bytes = Some applied_young;
              survivor_ratio = Some applied_ratio;
            };
          if applied_young <> young_before then count_resize ctx)

let install_region_capacity ctx (rheap : Rh.t) =
  ctx.Gc_ctx.young_capacity <- (fun () -> rheap.Rh.young_target_bytes);
  ctx.Gc_ctx.heap_capacity <- (fun () -> rheap.Rh.heap_bytes)

let region_heap_hook ctx (rheap : Rh.t) ~tenuring () =
  match ctx.Gc_ctx.policy with
  | None -> ()
  | Some p -> (
      match p.Policy.decide () with
      | None -> ()
      | Some d ->
          let young_before = rheap.Rh.young_target_bytes in
          (match d.Policy.tenuring_threshold with
          | Some t -> tenuring := t
          | None -> ());
          let want =
            match (d.Policy.region_target, d.Policy.young_bytes) with
            | Some regions, _ -> Some (regions * rheap.Rh.region_size)
            | None, Some bytes -> Some bytes
            | None, None -> None
          in
          let applied_young =
            match want with
            | Some bytes when bytes <> young_before ->
                Rh.set_young_target rheap ~bytes
            | _ -> young_before
          in
          p.Policy.applied
            {
              d with
              Policy.young_bytes = Some applied_young;
              region_target =
                Some
                  ((applied_young + rheap.Rh.region_size - 1)
                  / rheap.Rh.region_size);
            };
          if applied_young <> young_before then count_resize ctx)
