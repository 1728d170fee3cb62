module Runtime = Ts_rt
module Smr = Ts_smr.Smr
module Fault_plan = Ts_util.Fault_plan

type report = {
  plan : Fault_plan.t;
  clauses_fired : int;
  fault_at : int;
  baseline_outstanding : int;
  peak_outstanding : int;
  takeover_after : int;
  recover_after : int;
  storm_signals : int;
}

(* Clause ownership: a worker can inflict cycle-triggered faults on
   itself (the trigger is its own virtual clock); everything else —
   wall-clock triggers, releases of parked victims — needs the monitor.
   [fired] flags are written only by their owner (worker [i] writes slot
   [i]; the monitor owns its own list), so no locking is needed on the
   hot path. *)
type worker_clause = { wc : Fault_plan.clause; fired : bool array }

type monitor_clause = { mc : Fault_plan.clause; mutable mfired : bool }

type t = {
  plan : Fault_plan.t;
  native : bool;
  threads : int;
  recovery_extras : string list; (* extras whose sum is the recovery ladder *)
  worker_clauses : worker_clause list;
  monitor_clauses : monitor_clause list;
  mutable start_v : int; (* virtual start of the measured interval *)
  mutable start_ns : float;
  (* metrics below are read/written under [Runtime.critical]: workers
     stamp the fault, the monitor samples recovery *)
  mutable clauses_fired : int;
  mutable fault_at : int;
  mutable baseline : int;
  mutable peak : int;
  mutable base_ladder : int;
  mutable base_signals : int;
  mutable last_signals : int;
  mutable takeover_after : int;
  mutable recover_after : int;
  mutable storm_signals : int;
}

let is_worker_clause (c : Fault_plan.clause) =
  match (c.at, c.event) with
  | Fault_plan.At _, (Fault_plan.Crash | Stall _ | Drop_signals _ | Delay_signals _) -> true
  | _ -> false

let create ~plan ~native ~threads ~recovery_extras =
  {
    plan;
    native;
    threads;
    recovery_extras;
    worker_clauses =
      List.filter_map
        (fun c ->
          if is_worker_clause c then Some { wc = c; fired = Array.make threads false }
          else None)
        plan;
    monitor_clauses =
      List.filter_map
        (fun c -> if is_worker_clause c then None else Some { mc = c; mfired = false })
        plan;
    start_v = 0;
    start_ns = 0.0;
    clauses_fired = 0;
    fault_at = -1;
    baseline = 0;
    peak = 0;
    base_ladder = 0;
    base_signals = 0;
    last_signals = 0;
    takeover_after = -1;
    recover_after = -1;
    storm_signals = -1;
  }

let now_ns () = Unix.gettimeofday () *. 1e9

let arm t ~start =
  t.start_v <- start;
  t.start_ns <- now_ns ()

(* ns natively, virtual cycles (the caller's clock) on the sim *)
let elapsed t =
  if t.native then int_of_float (now_ns () -. t.start_ns)
  else Runtime.now () - t.start_v

let extra (smr : Smr.t) key =
  match List.assoc_opt key (smr.Smr.extras ()) with Some v -> v | None -> 0

(* Degradation-ladder activity: any of the scheme's registered recovery
   counters moving after the fault means the scheme noticed and acted.
   The counter names come from the scheme registry (ThreadScan's reap /
   takeover / proxy-scan / recovery ladder, DEBRA's dead/stall skips,
   Hyaline's corpse leaves). *)
let ladder_count t smr =
  List.fold_left (fun acc key -> acc + extra smr key) 0 t.recovery_extras

let outstanding (smr : Smr.t) = smr.Smr.counters.retired - smr.Smr.counters.freed

(* First clause fire = the fault the recovery metrics are measured
   against.  [Unstall] is the remedy, not the fault, and does not
   stamp. *)
let note_fired t smr (c : Fault_plan.clause) =
  Runtime.critical (fun () ->
      t.clauses_fired <- t.clauses_fired + 1;
      if t.fault_at < 0 && c.event <> Fault_plan.Unstall then begin
        t.fault_at <- elapsed t;
        t.baseline <- outstanding smr;
        t.peak <- t.baseline;
        t.base_ladder <- ladder_count t smr;
        t.base_signals <- extra smr "signals";
        t.last_signals <- t.base_signals
      end)

(* Lands inside a bracketed operation: a crashed victim dies holding its
   op open, the worst case for epoch-style schemes. *)
let inflict_self (smr : Smr.t) event =
  smr.Smr.op_begin ();
  Fault_plan.inflict (Runtime.self ()) event;
  smr.Smr.op_end ()

let worker_hook t smr ~i =
  List.iter
    (fun { wc; fired } ->
      if i < wc.Fault_plan.victims && i < t.threads && not fired.(i) then
        match wc.Fault_plan.at with
        | Fault_plan.At k when Runtime.now () - t.start_v >= k ->
            fired.(i) <- true;
            note_fired t smr wc;
            inflict_self smr wc.Fault_plan.event
        | _ -> ())
    t.worker_clauses

let fire_monitor t smr =
  List.iter
    (fun mcs ->
      if not mcs.mfired then begin
        let c = mcs.mc in
        let due =
          match c.Fault_plan.at with
          | Fault_plan.At k -> Runtime.now () - t.start_v >= k
          | Fault_plan.At_ms ms ->
              t.native && now_ns () -. t.start_ns >= float_of_int ms *. 1e6
        in
        if due then begin
          mcs.mfired <- true;
          note_fired t smr c;
          (* worker tids are 1..threads: main is 0, the monitor is last *)
          for v = 1 to min c.Fault_plan.victims t.threads do
            Fault_plan.inflict v c.Fault_plan.event
          done
        end
      end)
    t.monitor_clauses

let sample t smr =
  Runtime.critical (fun () ->
      if t.fault_at >= 0 then begin
        let out = outstanding smr in
        if out > t.peak then t.peak <- out;
        t.last_signals <- extra smr "signals";
        if t.takeover_after < 0 && ladder_count t smr > t.base_ladder then
          t.takeover_after <- elapsed t - t.fault_at;
        if t.recover_after < 0 && out <= t.baseline then begin
          t.recover_after <- elapsed t - t.fault_at;
          t.storm_signals <- t.last_signals - t.base_signals
        end
      end)

let monitor t smr ~done_addr ~tick () =
  let rec loop () =
    if Runtime.read done_addr = 0 then begin
      fire_monitor t smr;
      sample t smr;
      Runtime.sleep tick;
      loop ()
    end
  in
  loop ();
  (* final sample: a recovery that completed between the last tick and
     the run's end still counts *)
  fire_monitor t smr;
  sample t smr

let report t =
  {
    plan = t.plan;
    clauses_fired = t.clauses_fired;
    fault_at = t.fault_at;
    baseline_outstanding = t.baseline;
    peak_outstanding = t.peak;
    takeover_after = t.takeover_after;
    recover_after = t.recover_after;
    storm_signals =
      (if t.storm_signals >= 0 then t.storm_signals
       else if t.fault_at >= 0 then t.last_signals - t.base_signals
       else 0);
  }
