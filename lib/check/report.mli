(** What the checker can find.

    A violation is the checker's unit of output: exactly what went wrong,
    with enough context to say so in one line.  The scenario driver
    aggregates the three detection layers (heap sanitizer, SMR oracle,
    linearizability check) into a single list of these. *)

type violation =
  | Sanitizer of { kind : Ts_umem.Mem.fault_kind; addr : int; tid : int; phase : int }
      (** A memory fault the heap sanitizer observed, attributed to the
          thread being stepped and the reclamation phase in progress. *)
  | Oracle of { what : string; detail : string }
      (** A broken SMR invariant (free conservation, eventual reclamation,
          double retire, heap baseline). *)
  | Non_linearizable of { ds : string; key : int; ops : Ts_ds.Set_intf.event list }
      (** No legal sequential order explains the per-key history [ops]. *)
  | Crash of { what : string }
      (** The run aborted (thread failure, deadlock, step limit) before any
          finer-grained layer could attribute a cause. *)
  | Race of Ts_analyze.Analyze.race
      (** An unordered access pair the happens-before detector reported
          (only present when the scenario ran with [analyze = true]). *)
  | Lifecycle of Ts_analyze.Analyze.lifecycle
      (** An SMR lifecycle violation (retire-before-unlink, double-retire,
          access-after-retire), attributed to the owning scheme. *)

val pp : Format.formatter -> violation -> unit

val to_string : violation -> string
