(** Structured pause spans — the JFR-style trace event model.

    A span is one stop-the-world pause (or concurrent-cycle pause) with
    its cost broken down into the phases the cost model charged:
    time-to-safepoint, root scanning, card/remembered-set scanning,
    marking, copying, promotion, sweeping, compaction.  Spans carry the
    same heap-delta payload as {!Gcperf_sim.Gc_event.event} and add the
    per-phase breakdown and a cause tag, so a trace can be analysed the
    way a JFR recording or a [-Xlog:gc*] log would be. *)

type phase =
  | Safepoint  (** bringing all mutator threads to the safepoint *)
  | Root_scan
  | Card_scan  (** card-table / remembered-set scanning *)
  | Mark
  | Copy  (** survivor copying *)
  | Promote
  | Sweep
  | Compact
  | Region_overhead  (** G1 per-region constant work *)
  | Fixed  (** fixed dispatch overhead of any collection *)
  | Plan  (** relocation planning (sub-phase; see {!t.sub}) *)
  | Move  (** relocation column/slice moving (sub-phase) *)
  | Remap  (** pauseless remap flip: healing leftover forwarded refs *)
  | Fold  (** journaled-RC flip: applying folded journal deltas *)

val all_phases : phase list
(** Every phase, in CSV column order ({!Plan}/{!Move} excluded: they are
    sub-phase attributions, not charged phases). *)

type t = {
  collector : string;
  kind : string;  (** pause kind, [Gc_event.pause_kind_to_string] form *)
  cause : string;  (** "allocation failure", "system.gc", ... *)
  start_us : float;
  duration_us : float;
  phases : (phase * float) list;  (** phase durations in µs, charge order *)
  sub : (phase * float) list;
      (** sub-phase attributions ({!Plan}/{!Move} splits of relocation
          phases).  Informational only: sub-costs re-slice time already
          charged to [phases], so they are {e not} part of the
          [duration_us] = sum-of-phases invariant. *)
  young_before : int;
  young_after : int;
  old_before : int;
  old_after : int;
  promoted : int;
}

val phase_us : t -> phase -> float
(** Duration charged to one phase; 0 when the span has no such phase. *)

val to_json : t -> string
(** One-line JSON object (a JSON Lines record). *)

val csv_header : string

val to_csv_row : t -> string
