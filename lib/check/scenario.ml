module Runtime = Ts_sim.Runtime (* tslint: allow facade -- the checker owns the simulator it explores *)
module Frame = Ts_sim.Frame (* tslint: allow facade -- frame inspection for the root-coverage oracle *)
module Alloc = Ts_umem.Alloc
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr
module Set_intf = Ts_ds.Set_intf
module Registry = Ts_scheme.Registry
module Fault_plan = Ts_util.Fault_plan

type ds_kind = List_ds | Hash_ds | Skip_ds | Lazy_ds | Churn

type policy = Timed | Uniform | Pct of int

type bug = Bug_elide_lock | Bug_retire_early | Bug_skip_fence

type spec = {
  ds : ds_kind;
  scheme : string;
  threads : int;
  ops : int;
  key_range : int;
  buffer_size : int;
  help_free : bool;
  inject : Threadscan.inject;
  fault : Fault_plan.t;
  policy : policy;
  seed : int;
  analyze : bool;
  bug : bug option;
}

let default =
  {
    ds = List_ds;
    scheme = "threadscan";
    threads = 3;
    ops = 40;
    key_range = 32;
    buffer_size = 8;
    help_free = false;
    inject = Threadscan.No_fault;
    fault = [];
    policy = Uniform;
    seed = 0;
    analyze = false;
    bug = None;
  }

let ds_to_string = function
  | List_ds -> "list"
  | Hash_ds -> "hash"
  | Skip_ds -> "skip"
  | Lazy_ds -> "lazy"
  | Churn -> "churn"

let ds_of_string = function
  | "list" -> Some List_ds
  | "hash" -> Some Hash_ds
  | "skip" | "skiplist" -> Some Skip_ds
  | "lazy" -> Some Lazy_ds
  | "churn" -> Some Churn
  | _ -> None

let bug_to_string = function
  | Bug_elide_lock -> "elide-lock"
  | Bug_retire_early -> "retire-early"
  | Bug_skip_fence -> "skip-fence"

let bug_of_string = function
  | "elide-lock" -> Some Bug_elide_lock
  | "retire-early" -> Some Bug_retire_early
  | "skip-fence" -> Some Bug_skip_fence
  | _ -> None

(* The structure a seeded bug lives in: the checker forces this so
   [--bug retire-early] cannot be paired with a structure that never
   exercises the bug. *)
let bug_ds = function
  | Bug_elide_lock -> Lazy_ds
  | Bug_retire_early | Bug_skip_fence -> List_ds

let policy_to_string = function
  | Timed -> "timed"
  | Uniform -> "uniform"
  | Pct d -> Fmt.str "pct:%d" d

let policy_of_string s =
  match s with
  | "timed" -> Some Timed
  | "uniform" -> Some Uniform
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "pct" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some d when d >= 0 -> Some (Pct d)
          | _ -> None)
      | _ -> None)

let inject_to_string = function
  | Threadscan.No_fault -> "none"
  | Threadscan.Skip_carryover -> "skip-carryover"
  | Threadscan.Skip_ack_wait -> "skip-ack-wait"
  | Threadscan.Skip_proxy_scan -> "skip-proxy-scan"
  | Threadscan.Crash_mid_phase -> "crash-mid-phase"
  | Threadscan.Stall_mid_phase -> "stall-mid-phase"

let inject_of_string = function
  | "none" -> Some Threadscan.No_fault
  | "skip-carryover" -> Some Threadscan.Skip_carryover
  | "skip-ack-wait" -> Some Threadscan.Skip_ack_wait
  | "skip-proxy-scan" -> Some Threadscan.Skip_proxy_scan
  | "crash-mid-phase" -> Some Threadscan.Crash_mid_phase
  | "stall-mid-phase" -> Some Threadscan.Stall_mid_phase
  | _ -> None

(* The checker's fault surface is a subset of the shared plan grammar:
   one op-count-triggered crash or bounded stall.  A forever stall, a
   release, signal faults and wall-clock triggers only make sense under
   a real scheduler and stay with the harness's chaos plans. *)
let check_fault (plan : Fault_plan.t) =
  let outside what why =
    Error
      (Fmt.str "fault %s is outside the checker's subset (none, crash:V@K, stall:V@K:C): %s"
         what why)
  in
  let clause c = Fmt.str "clause %S" (Fault_plan.clause_to_string c) in
  match plan with
  | [] | [ { at = At _; event = Crash | Stall (Bounded _); _ } ] -> Ok ()
  | [ ({ at = At_ms _; _ } as c) ] ->
      outside (clause c) "the checker triggers on completed operations, not wall-clock time"
  | [ ({ event = Stall Forever; _ } as c) ] ->
      outside (clause c) "a stall that never ends would park its victim for the rest of the run"
  | [ ({ event = Unstall; _ } as c) ] -> outside (clause c) "the checker's stalls end on their own"
  | [ ({ event = Drop_signals _ | Delay_signals _; _ } as c) ] ->
      outside (clause c) "signal faults need the harness's chaos plans"
  | _ -> outside (Fmt.str "plan %S" (Fault_plan.to_string plan)) "the checker takes one clause"

let replay_command spec =
  Fmt.str
    "dune exec bin/tscheck.exe -- replay --ds %s%s --threads %d --ops %d --key-range %d \
     --buffer %d%s --inject %s --fault %s --policy %s --seed %d%s%s"
    (ds_to_string spec.ds)
    (if spec.scheme = default.scheme then "" else " --scheme " ^ spec.scheme)
    spec.threads spec.ops spec.key_range spec.buffer_size
    (if spec.help_free then " --help-free" else "")
    (inject_to_string spec.inject) (Fault_plan.to_string spec.fault) (policy_to_string spec.policy)
    spec.seed
    (if spec.analyze then " --race" else "")
    (match spec.bug with None -> "" | Some b -> " --bug " ^ bug_to_string b)

type outcome = {
  spec : spec;
  violations : Report.violation list;
  events : int;
  phases : int;
  steps : int;
  lin_keys : int;
  skipped_segments : int;
}

let failed o = o.violations <> []

(* Rough step count of one run; only used to place PCT change points. *)
let expected_steps spec = spec.threads * spec.ops * 250

(* Self-injection point, called by worker [i] before its [n]-th operation
   (1-based).  For a clause [V@K] the victim set is the [V] lowest-indexed
   workers, and the injection lands deterministically after [K] completed
   operations — so a failing spec replays exactly, fault included.  A crash never
   returns (the fiber is killed); a stalled worker resumes here and finishes
   its remaining operations, exercising suspect → recovery (or reap →
   re-admission) on the reclaimer side. *)
let fault_hook spec i n =
  match spec.fault with
  | [ { victims; at = At after; event } ] when i < victims && n = after + 1 ->
      Fault_plan.inflict (Runtime.self ()) event
  | _ -> ()

(* Set workload: concurrent inserts/removes/contains over one of the lib/ds
   structures, every operation recorded for the linearizability check.
   Returns (heap baseline, final snapshot). *)
let run_sets rt spec (smr : Smr.t) ~record =
  let ds0 =
    match spec.ds with
    | List_ds ->
        Ts_ds.Michael_list.create ~smr
          ~retire_early:(spec.bug = Some Bug_retire_early)
          ()
    | Lazy_ds ->
        Ts_ds.Lazy_list.create ~smr ~elide_locks:(spec.bug = Some Bug_elide_lock) ()
    | Hash_ds -> Ts_ds.Hash_table.create ~smr ~buckets:(max 4 (spec.key_range / 4)) ()
    | Skip_ds | Churn -> Ts_ds.Skiplist.create ~smr ~max_height:6 ()
  in
  let baseline = Alloc.live_blocks (Runtime.alloc rt) in
  let ds = Set_intf.instrument ~record ds0 in
  (* Prefill every other key so removes find work from step one; the
     prefill goes through the instrumented set, so the recorded history is
     complete and starts from the empty set. *)
  for k = 0 to (spec.key_range / 2) - 1 do
    ignore (ds.Set_intf.insert (k * 2) (k * 2))
  done;
  let worker i () =
    smr.Smr.thread_init ();
    ignore (Frame.push 16);
    for n = 1 to spec.ops do
      fault_hook spec i n;
      let key = Runtime.rand_below spec.key_range in
      (match Runtime.rand_below 5 with
      | 0 | 1 -> ignore (ds.Set_intf.insert key key)
      | 2 | 3 -> ignore (ds.Set_intf.remove key)
      | _ -> ignore (ds.Set_intf.contains key));
      Runtime.advance 10
    done;
    smr.Smr.thread_exit ()
  in
  let ws = List.init spec.threads (fun i -> Runtime.spawn (worker i)) in
  List.iter Runtime.join ws;
  (* Quiesce: empty the set so every retired node is unreachable. *)
  for k = 0 to spec.key_range - 1 do
    ignore (ds.Set_intf.remove k)
  done;
  ds0.Set_intf.check ();
  (baseline, ds0.Set_intf.to_list ())

(* Churn workload: each worker owns a shared slot, repeatedly grabs a random
   slot's node, holds it in a frame across two dereferences, then replaces
   and retires its own — the Lemma-1 access pattern.  Cross-thread holds
   make the scan's mark/carry-over machinery load-bearing, so the protocol
   injections ([Skip_carryover], [Skip_ack_wait]) surface as attributed
   use-after-free faults here. *)
let run_churn rt spec (smr : Smr.t) ~pinned =
  let nslots = spec.threads in
  let slots = Runtime.alloc_region nslots in
  let noise = Runtime.alloc_region 1 in
  let baseline = Alloc.live_blocks (Runtime.alloc rt) in
  let alloc_node () = Ptr.of_addr (Runtime.malloc 3) in
  for i = 0 to nslots - 1 do
    Runtime.write (slots + i) (alloc_node ())
  done;
  let worker_pinned i () =
    smr.Smr.thread_init ();
    Frame.with_frame 1 (fun fr ->
        (* [held] mirrors frame slot 0: a long-lived cross-thread reference
           kept across several ops.  Its owner typically replaces and
           retires it mid-hold, so the hold spans the retire and the next
           collect phase — every later dereference is safe only because the
           scan marked it and the sweep carried it over. *)
        let held = ref 0 in
        for n = 1 to spec.ops do
          (* The injection lands mid-hold: the victim's frame still pins a
             possibly cross-thread node, so a collect phase during the
             outage must proxy-scan this stack (stall) or drop the pin for
             good (crash) to stay sound. *)
          fault_hook spec i n;
          if Ptr.is_null !held || Runtime.rand_below 4 = 0 then begin
            held := Runtime.read (slots + Runtime.rand_below nslots);
            Frame.set fr 0 !held
          end;
          if not (Ptr.is_null !held) then ignore (Runtime.read (Ptr.addr !held));
          Runtime.advance 15;
          let p = alloc_node () in
          let old = Runtime.read (slots + i) in
          Runtime.write (slots + i) p;
          if not (Ptr.is_null old) then smr.Smr.retire old
        done;
        Frame.set fr 0 0);
    smr.Smr.thread_exit ()
  in
  (* Schemes whose frames do not pin ([caps.pins_frames] false) need
     visible readers: the hold and both dereferences run inside an op
     bracket (restarted from scratch if the scheme neutralizes it), with
     a validated protect slot for slot-protecting schemes.  The worker's
     own replace-and-retire runs {e outside} the bracket: retire needs no
     bracket under any scheme, and keeping it out means a neutralization
     can never abort between the unlink and the retire (which would leak
     the node for good). *)
  let worker_visible i () =
    smr.Smr.thread_init ();
    Frame.with_frame 1 (fun fr ->
        for n = 1 to spec.ops do
          fault_hook spec i n;
          let rec attempt () =
            match
              smr.Smr.op_begin ();
              let s = slots + Runtime.rand_below nslots in
              let rec acquire tries =
                if tries = 0 then 0
                else
                  let p = Runtime.read s in
                  if Ptr.is_null p then 0
                  else begin
                    ignore (smr.Smr.protect ~slot:0 p);
                    (* re-validate: still published, so not yet retired —
                       the slot was announced before this read *)
                    if Runtime.read s = p then p else acquire (tries - 1)
                  end
              in
              let held = acquire 4 in
              Frame.set fr 0 held;
              if not (Ptr.is_null held) then ignore (Runtime.read (Ptr.addr held));
              Runtime.advance 15;
              Frame.set fr 0 0;
              smr.Smr.release ~slot:0;
              smr.Smr.op_end ()
            with
            | () -> ()
            | exception Smr.Neutralized ->
                Frame.set fr 0 0;
                attempt ()
          in
          attempt ();
          let p = alloc_node () in
          let old = Runtime.read (slots + i) in
          Runtime.write (slots + i) p;
          if not (Ptr.is_null old) then smr.Smr.retire old
        done);
    smr.Smr.thread_exit ()
  in
  let worker = if pinned then worker_pinned else worker_visible in
  let ws = List.init spec.threads (fun i -> Runtime.spawn (worker i)) in
  List.iter Runtime.join ws;
  (* Unpublish every node; all retired nodes are now unreachable. *)
  for i = 0 to nslots - 1 do
    let old = Runtime.read (slots + i) in
    Runtime.write (slots + i) 0;
    if not (Ptr.is_null old) then smr.Smr.retire old
  done;
  (* Wash conservative register pins before the quiescence oracle. *)
  for _ = 1 to 64 do
    ignore (Runtime.read noise)
  done;
  (baseline, [])

let run ?configure ?trace spec =
  Result.iter_error invalid_arg (check_fault spec.fault);
  let d = Registry.get spec.scheme in
  (* Capability guards, before any runtime exists.  The protocol
     injection points live inside the ThreadScan collect protocol. *)
  if spec.inject <> Threadscan.No_fault && not d.Registry.caps.Registry.ts_protocol then
    invalid_arg
      (Fmt.str "scheme %s has no ThreadScan collect protocol to inject %s into" spec.scheme
         (inject_to_string spec.inject));
  (if d.Registry.caps.Registry.neutralizes then
     match spec.ds with
     | Lazy_ds | Skip_ds ->
         invalid_arg
           (Fmt.str
              "scheme %s aborts and restarts victims' operations, which the lock-based %s \
               structure cannot survive"
              spec.scheme (ds_to_string spec.ds))
     | List_ds | Hash_ds | Churn -> ());
  let sched =
    match spec.policy with
    | Timed -> Runtime.Timed
    | Uniform -> Runtime.Uniform
    | Pct d -> Runtime.Pct { change_points = d; expected_steps = expected_steps spec }
  in
  let config =
    {
      Runtime.default_config with
      seed = spec.seed;
      cores = 0;
      sched;
      sanitize = true;
      strict_mem = true;
      propagate_failures = true;
      (* ~30x the step count of a typical clean run: failing runs often end
         in a spin (a dead thread never acks) and should fail fast.  Fault
         runs get headroom — blind phases and overflow churn retry work. *)
      max_steps =
        (200_000 + (spec.threads * spec.ops * 2_000))
        * (match spec.fault with [] -> 1 | _ -> 4);
    }
  in
  (* TSCHECK_TRACE=1 streams the scheduler/protocol trace of every run to
     stderr — the fastest way from a failing replay command to a timeline
     (the degradation-ladder notes land here too).  A [trace] callback
     (the fork explorer's differential digest) composes with it. *)
  let config =
    let sinks =
      (match Sys.getenv_opt "TSCHECK_TRACE" with
      | Some _ -> [ (fun e -> Fmt.epr "%a@." Ts_sim.Trace.pp e) ] (* tslint: allow facade -- TSCHECK_TRACE debug sink pretty-prints trace entries *)
      | None -> [])
      @ (match trace with Some f -> [ f ] | None -> [])
    in
    match sinks with
    | [] -> config
    | fs -> { config with Runtime.trace = Some (fun e -> List.iter (fun f -> f e) fs) }
  in
  (* The analyzer is an ops decorator: attach it before the runtime
     installs its backend so every op of the run is observed.  It must be
     detached on every exit path — a leaked decorator would instrument the
     next (unrelated) run of a sweep. *)
  let analyzer = if spec.analyze then Some (Ts_analyze.Analyze.attach ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Ts_analyze.Analyze.detach analyzer)
  @@ fun () ->
  let wrap_analyzed smr =
    match analyzer with Some an -> Ts_analyze.Analyze.wrap_smr an smr | None -> smr
  in
  let rt = Runtime.create config in
  (* the fork explorer's entry point: install a scheduler hook or preload a
     recorded schedule before the run starts *)
  Option.iter (fun f -> f rt) configure;
  let phase_of = ref (fun () -> -1) in
  let san = Sanitize.install rt ~phase_of:(fun () -> !phase_of ()) in
  let events = ref [] in
  let record e = events := e :: !events in
  let phases = ref 0 in
  let oracle_violations = ref [] in
  ignore
    (Runtime.add_thread rt (fun () ->
         match spec.bug with
         | Some Bug_skip_fence ->
             (* The seeded bug lives in the reclamation scheme itself, so
                this run swaps ThreadScan for the epoch-nofence variant —
                no protocol injection, phase counter or quiescence oracle
                applies.  A small batch makes a checker-sized run reclaim
                mid-workload, which is what lets the stale-counter free
                land under a concurrent traversal. *)
             let smr =
               wrap_analyzed
                 (Ts_reclaim.Epoch.create ~skip_fence:true ~batch:4
                    ~max_threads:(spec.threads + 2) ())
             in
             smr.Smr.thread_init ();
             (match spec.ds with
             | Churn -> ignore (run_churn rt spec smr ~pinned:false)
             | _ -> ignore (run_sets rt spec smr ~record));
             smr.Smr.thread_exit ();
             smr.Smr.flush ()
         | _ ->
         let env =
           {
             Registry.max_threads = spec.threads + 2;
             hazard_slots =
               (match spec.ds with
               | Skip_ds -> Ts_ds.Skiplist.hazard_slots ~max_height:6
               | List_ds | Hash_ds | Lazy_ds | Churn -> 3);
             (* checker-sized: a small default batch so batching schemes
                reclaim mid-workload, where the bugs are *)
             epoch_batch = 8;
             budgets =
               (match (spec.fault, spec.inject) with
               | ( [],
                   (Threadscan.No_fault | Skip_carryover | Skip_ack_wait | Skip_proxy_scan) ) ->
                   None
               | _, _ ->
                   (* Budgets small enough that a checker-sized run actually
                      climbs the degradation ladder: the ack wait times out well
                      inside a stall, two silent phases reap, a dead reclaimer's
                      lock is taken over, and full buffers overflow instead of
                      spinning out the step limit. *)
                   Some
                     {
                       Registry.ack_budget = 20_000;
                       suspect_phases = 2;
                       takeover_steps = 30_000;
                       overflow_after = 16;
                     });
           }
         in
         let rspec =
           Registry.spec ~buffer:spec.buffer_size ~help_free:spec.help_free spec.scheme
         in
         let built = Registry.build env rspec in
         (match built.Registry.ts with
         | Some ts ->
             Threadscan.set_inject ts spec.inject;
             phase_of := (fun () -> Threadscan.phases ts)
         | None -> ());
         let smr0 = built.Registry.smr in
         (* ABA / double-retire oracle: in sanitizer mode every allocation
            at a given base bumps a generation counter, so retiring the
            same (addr, generation) twice means the structure unlinked one
            node twice — even if the address was recycled in between. *)
         let retired_gen = Hashtbl.create 64 in
         let smr =
           {
             smr0 with
             Smr.retire =
               (fun p ->
                 let addr = Ptr.addr p in
                 let a = Runtime.alloc rt in
                 let gen = Alloc.generation a addr in
                 (match Hashtbl.find_opt retired_gen addr with
                 | Some g when g = gen ->
                     oracle_violations :=
                       Report.Oracle
                         {
                           what = "double retire";
                           detail = Fmt.str "addr %d retired twice in generation %d" addr gen;
                         }
                       :: !oracle_violations
                 | _ -> ());
                 Hashtbl.replace retired_gen addr gen;
                 smr0.Smr.retire p);
           }
         in
         (* Analyzer wrapping goes outermost so [note_retire] sees the
            retire before the generation oracle consumes it. *)
         let smr = wrap_analyzed smr in
         smr.Smr.thread_init ();
         let baseline, final_list =
           match spec.ds with
           | List_ds | Hash_ds | Skip_ds | Lazy_ds -> run_sets rt spec smr ~record
           | Churn -> run_churn rt spec smr ~pinned:d.Registry.caps.Registry.pins_frames
         in
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         phases :=
           (match built.Registry.ts with
           | Some ts -> Threadscan.phases ts
           | None -> smr.Smr.counters.Smr.cleanups);
         let max_leak =
           (* the scheme's per-corpse budget (in-flight retires, stranded
              protection slots, a lost batch ...) per crashed thread *)
           (match spec.fault with
           | [ { victims; event = Crash; _ } ] ->
               victims * d.Registry.crash_leak_per_victim rspec.Registry.params
           | _ -> 0)
           + (match spec.inject with Threadscan.Crash_mid_phase -> 1 | _ -> 0)
         in
         oracle_violations :=
           !oracle_violations
           @ Oracle.check ~max_leak ?ts:built.Registry.ts ~counters:smr.Smr.counters
               ~alloc:(Runtime.alloc rt) ~baseline_live:baseline ~final_list ()));
  let crash =
    try
      ignore (Runtime.start rt);
      None
    with
    | Runtime.Thread_failure (tid, e) ->
        Some (Fmt.str "thread %d failed: %s" tid (Printexc.to_string e))
    | Runtime.Deadlock what -> Some ("deadlock: " ^ what)
    | Runtime.Step_limit_exceeded -> Some "step limit exceeded"
  in
  let steps = (Runtime.stats rt).Runtime.steps in
  (* Layered attribution: a sanitizer fault is the root cause (the crash it
     triggers is downstream noise); a crash without one stands alone; only
     a clean run is worth oracle + linearizability verdicts. *)
  let violations, lin_keys, skipped =
    match (Sanitize.violation san, crash) with
    | Some v, _ -> ([ v ], 0, 0)
    | None, Some what -> ([ Report.Crash { what } ], 0, 0)
    | None, None ->
        let lin = Linearize.check (List.rev !events) in
        let lin_v =
          match lin.Linearize.violation with
          | Some (key, ops) -> [ Report.Non_linearizable { ds = ds_to_string spec.ds; key; ops } ]
          | None -> []
        in
        (!oracle_violations @ lin_v, lin.Linearize.keys, lin.Linearize.skipped_segments)
  in
  (* Analyzer reports come first: a race or lifecycle violation is the root
     cause of whatever downstream fault (sanitizer UAF, crash) it produced. *)
  let analysis =
    match analyzer with
    | None -> []
    | Some an ->
        List.map
          (function
            | Ts_analyze.Analyze.Race r -> Report.Race r
            | Ts_analyze.Analyze.Lifecycle l -> Report.Lifecycle l)
          (Ts_analyze.Analyze.violations an)
  in
  {
    spec;
    violations = analysis @ violations;
    events = List.length !events;
    phases = !phases;
    steps;
    lin_keys;
    skipped_segments = skipped;
  }
