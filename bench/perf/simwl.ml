(* Simulator workloads, driven through their public entry points: the
   checker's [Explore.sweep] and the simulated [Workload.run].

   Both repeat a unit of deterministic work (a sweep, a simulated run)
   for as long as another unit still fits in the time budget, and report
   medians over units.  Their inputs are fixed seed families, whatever
   the run's seed, so the deterministic metrics read the same on every
   run of the same code.  Set-up and memory are observed through a Ts_rt ops
   decorator that wraps [set_signal_handler], [malloc] and [free] and
   performs no simulated operation of its own, so the schedules stay
   exactly those of an undecorated run.  A unit's set-up ends when the
   second thread registers with the scheme: the main thread registers
   first, builds and prefills the structure, then spawns the workers. *)

module Explore = Ts_check.Explore
module Scenario = Ts_check.Scenario
module Workload = Ts_harness.Workload
module Registry = Ts_scheme.Registry
module Sim = Ts_sim.Runtime
module Smr = Ts_smr.Smr

type probe = {
  mutable registered : int;  (** threads registered with the scheme so far *)
  mutable set_up : int;  (** when the second one registered; -1 until then *)
  track_words : bool;
  sizes : (int, int) Hashtbl.t;  (** live block -> words requested *)
  mutable live : int;
  mutable peak : int;
  mutable live_sum : int;  (** [live] summed after every malloc and free *)
  mutable events : int;  (** mallocs and frees *)
}

let new_probe ~track_words =
  {
    registered = 0;
    set_up = -1;
    track_words;
    sizes = Hashtbl.create 256;
    live = 0;
    peak = 0;
    live_sum = 0;
    events = 0;
  }

let reset p =
  p.registered <- 0;
  p.set_up <- -1;
  Hashtbl.reset p.sizes;
  p.live <- 0;
  p.peak <- 0;
  p.live_sum <- 0;
  p.events <- 0

(* Live words averaged over the allocator events: the simulator has no
   wall clock to sample on. *)
let live_mean p = Outcome.ratio p.live_sum p.events

let note_event p =
  p.live_sum <- p.live_sum + p.live;
  p.events <- p.events + 1

let decorate p (base : Ts_rt.ops) : Ts_rt.ops =
  let set_signal_handler h =
    p.registered <- p.registered + 1;
    if p.registered = 2 then p.set_up <- Clock.now_ns ();
    base.set_signal_handler h
  in
  if not p.track_words then { base with set_signal_handler }
  else
    {
      base with
      set_signal_handler;
      malloc =
        (fun n ->
          let a = base.malloc n in
          Hashtbl.replace p.sizes a n;
          p.live <- p.live + n;
          if p.live > p.peak then p.peak <- p.live;
          note_event p;
          a);
      free =
        (fun a ->
          (match Hashtbl.find_opt p.sizes a with
          | Some n ->
              Hashtbl.remove p.sizes a;
              p.live <- p.live - n
          | None -> ());
          note_event p;
          base.free a);
    }

let with_probe p f =
  Ts_rt.set_decorator (Some (decorate p));
  Fun.protect ~finally:(fun () -> Ts_rt.set_decorator None) f

(* Runs [unit 0], [unit 1], ... while another one is expected to fit in
   [seconds]; always runs at least [at_least]. *)
let repeat ?(at_least = 1) ~seconds unit =
  let t0 = Clock.now_ns () in
  let rec go acc n =
    Gc.full_major ();
    let r = unit n in
    let n = n + 1 in
    let elapsed = Clock.seconds_since t0 in
    if n >= at_least && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds then
      List.rev (r :: acc)
    else go (r :: acc) n
  in
  go [] 0

let median = Outcome.median

(* ---- check-sweep ---- *)

(* The CI sweep's own seed family (seed0 = 0), whatever the run's seed:
   the checker is deterministic, and this is the family its cost is
   judged on. *)
let sweep_specs ~schedules =
  List.concat_map
    (fun ds ->
      Explore.sweep_specs ~base:{ Scenario.default with ds } ~schedules ~seed0:0 ~pct_depth:3)
    [ Scenario.List_ds; Scenario.Churn ]

(* Sweeps a run makes at least, whatever [seconds] says, so that every
   schedule's latency is the fastest of as many. *)
let sweeps = 3

let check_sweep ~seconds ~schedules =
  let specs = sweep_specs ~schedules in
  let p = new_probe ~track_words:true in
  (* every sweep runs the same, deterministic schedules: one schedule's
     latency is its fastest over the sweeps, which keeps a host stall out
     of the tail unless it hits that schedule in every sweep (a median
     over two or three sweeps lets half of them through) *)
  let times = Array.make (List.length specs) [] and setups = ref [] and peak = ref 0 in
  let live_sum = ref 0 and events = ref 0 in
  let unit _ =
    reset p;
    let t0 = Clock.now_ns () in
    let last = ref t0 in
    let progress k =
      let t = Clock.now_ns () in
      times.(k - 1) <- float_of_int (t - !last) :: times.(k - 1);
      if p.set_up >= 0 then setups := float_of_int (p.set_up - !last) :: !setups;
      peak := max !peak p.peak;
      live_sum := !live_sum + p.live_sum;
      events := !events + p.events;
      reset p;
      last := t
    in
    let s = Explore.sweep ~progress specs in
    (Clock.now_ns () - t0, s)
  in
  let units = with_probe p (fun () -> repeat ~at_least:sweeps ~seconds unit) in
  let walls = List.map (fun (w, _) -> float_of_int w /. 1e9) units in
  let summaries = List.map snd units in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let total_events s = s.Explore.total_events and total_steps s = s.Explore.total_steps in
  let failures = List.concat_map (fun s -> s.Explore.failures) summaries in
  let failure =
    match failures with
    | [] -> None
    | o :: _ ->
        Some
          (Printf.sprintf "%d failing schedules; first: %s; replay: %s" (List.length failures)
             (String.concat "; " (List.map Ts_check.Report.to_string o.Scenario.violations))
             (Scenario.replay_command o.Scenario.spec))
  in
  let wall_total = List.fold_left ( +. ) 0.0 walls in
  (* a few thousand samples: read them exactly, not off histogram buckets *)
  let lat =
    times |> Array.to_list
    |> List.filter_map (function [] -> None | ts -> Some (List.fold_left Float.min infinity ts))
    |> List.sort compare |> Array.of_list
  in
  let us q = Hist.tail_of_sorted lat q /. 1e3 in
  {
    Outcome.attempted = sum (fun s -> s.Explore.runs);
    failed = List.length failures;
    failure;
    e2e =
      [
        ( "throughput_ops_s",
          median
            (List.map2
               (fun w s -> float_of_int s.Explore.total_events /. w)
               walls summaries) );
        ("op_p50_us", us 0.5);
        ("op_p99_us", us 0.99);
        ("op_p999_us", us 0.999);
        ("live_words_mean", Outcome.ratio !live_sum !events);
        (* the checker's clock is its scheduler step *)
        ("sim_ops_per_mcycle", Outcome.ratio (sum total_events) (sum total_steps) *. 1e6);
        ("wall_s", median walls);
        ("setup_s", median !setups /. 1e9);
      ];
    layers =
      [
        ("heap.peak_live_words", float_of_int !peak);
        ("sim.ns_per_step", wall_total *. 1e9 /. float_of_int (sum total_steps));
        ("check.schedule_ms_p50", Hist.tail_of_sorted lat 0.5 /. 1e6);
        ("check.schedule_ms_p99", Hist.tail_of_sorted lat 0.99 /. 1e6);
      ];
    notes =
      [
        Printf.sprintf "%d sweeps of %d schedules; %d checked ops, %d phases"
          (List.length units) (List.length specs)
          (sum total_events)
          (sum (fun s -> s.Explore.total_phases));
      ];
  }

(* One simulated run with its oracles: no heap fault, nothing
   outstanding after flush, not wedged. *)
let checked spec =
  match Workload.run spec with
  | exception e -> Error (Printexc.to_string e)
  | r ->
      let problems =
        (if r.Workload.faults > 0 then [ Printf.sprintf "%d heap faults" r.Workload.faults ]
         else [])
        @ (if r.Workload.outstanding <> 0 then
             [ Printf.sprintf "outstanding = %d after flush" r.Workload.outstanding ]
           else [])
        @ if r.Workload.wedged then [ "wedged" ] else []
      in
      if problems = [] then Ok r else Error (String.concat "; " problems)

(* ---- the native workloads' simulated twin ---- *)

(* A native workload's shape — structure, mix, buffer, frame, 2 workers
   on 2 cores — driven on the simulator the way [Native.run] drives it
   on domains: prefill, deregister, spawn, run, join, flush; but to a
   horizon of [horizon] virtual cycles.  Its ops per 10^6 cycles are what
   the cost model says the shape costs: the median over the fixed seeds
   0 .. [twins - 1], so [sim_ops_per_mcycle] reads the same on every run
   and moves only when the code does. *)
let twins = 5

let twin_once (n : Native.spec) ~seed ~horizon =
  let config =
    {
      Sim.default_config with
      cores = Native.workers;
      seed;
      stack_words = Native.stack_words n;
      propagate_failures = false;
    }
  in
  let rt = Sim.create config in
  let ops = ref 0 and outstanding = ref 0 in
  let main () =
    let smr = Native.make_smr n in
    smr.Smr.thread_init ();
    let ds = Native.make_ds n smr in
    Native.prefill ds;
    smr.Smr.thread_exit ();
    let deadline = Ts_rt.now () + horizon in
    let worker () =
      smr.Smr.thread_init ();
      let fr = Ts_rt.Frame.push n.Native.frame in
      while Ts_rt.now () < deadline do
        ignore (Native.apply n ds (Ts_rt.rand_below Native.key_range) (Ts_rt.rand_below 100));
        incr ops
      done;
      Ts_rt.Frame.pop fr;
      smr.Smr.thread_exit ()
    in
    List.iter Ts_rt.join (List.init Native.workers (fun _ -> Ts_rt.spawn worker));
    smr.Smr.flush ();
    outstanding := smr.Smr.counters.Smr.retired - smr.Smr.counters.Smr.freed
  in
  ignore (Sim.add_thread rt main);
  let res = Sim.start rt in
  let failed (tid, e) = Printf.sprintf "thread %d failed: %s" tid (Native.fault_of e) in
  let faults = Ts_umem.Mem.total_faults (Sim.mem rt) in
  let problems =
    List.map failed res.Sim.failures
    @ (if faults > 0 then [ Printf.sprintf "%d heap faults" faults ] else [])
    @
    if !outstanding <> 0 then [ Printf.sprintf "outstanding = %d after flush" !outstanding ]
    else []
  in
  if problems = [] then Ok (float_of_int !ops *. 1e6 /. float_of_int horizon)
  else Error (Printf.sprintf "simulated twin, seed %d: %s" seed (String.concat "; " problems))

let twin n ~horizon =
  let runs = List.init twins (fun seed -> twin_once n ~seed ~horizon) in
  match List.find_map (function Error e -> Some e | Ok _ -> None) runs with
  | Some e -> Error e
  | None -> Ok (median (List.filter_map Result.to_option runs))

(* ---- sim-scale64 ---- *)

let scale_spec ~seed ~horizon ~smr_wrap =
  {
    Workload.default_spec with
    ds = Workload.Hash_ds;
    scheme = Registry.spec ~buffer:64 "threadscan";
    threads = 64;
    cores = 64;
    update_ratio = 1.0;
    init_size = Native.init_size;
    key_range = Native.key_range;
    buckets = Native.buckets;
    horizon;
    stack_depth = 64;
    seed;
    backend = Workload.Backend_sim;
    smr_wrap = Some smr_wrap;
  }

(* One simulated run of [sim_scale]: host nanoseconds, set-up
   nanoseconds, simulator steps, mean live words and the result. *)
type scale_run = { wall : int; setup : int; steps : int; live : float; r : Workload.result }

(* Unit [k] simulates seed [k].  The deterministic metrics are medians
   over seeds 0 .. [family - 1], which every run simulates; the host-timed
   ones over every unit that fit in [seconds]. *)
let sim_scale ~seconds ~horizon ~family =
  let p = new_probe ~track_words:true in
  let steps = ref 0 in
  (* the scheme is flushed once every worker has joined: read the
     simulator's step count there *)
  let smr_wrap (smr : Ts_smr.Smr.t) =
    {
      smr with
      Ts_smr.Smr.flush =
        (fun () ->
          steps := Ts_rt.steps_now ();
          smr.Ts_smr.Smr.flush ());
    }
  in
  let unit seed =
    reset p;
    let t0 = Clock.now_ns () in
    let finish r =
      { wall = Clock.now_ns () - t0; setup = p.set_up - t0; steps = !steps; live = live_mean p; r }
    in
    checked (scale_spec ~seed ~horizon ~smr_wrap)
    |> Result.map finish
    |> Result.map_error (Printf.sprintf "seed %d: %s" seed)
  in
  let units = with_probe p (fun () -> repeat ~at_least:family ~seconds unit) in
  let ok = List.filter_map Result.to_option units in
  let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) units in
  let med f = median (List.map f ok) in
  let first = List.filter_map Result.to_option (List.filteri (fun k _ -> k < family) units) in
  let fam f = median (List.map f first) in
  let lat = Hist.create () in
  List.iter (fun u -> Hist.add lat u.wall) ok;
  let us q = Hist.tail_percentile lat q /. 1e3 in
  let extra r name =
    float_of_int (Option.value (List.assoc_opt name r.Workload.extras) ~default:0)
  in
  let ops = List.fold_left (fun acc u -> acc + u.r.Workload.ops) 0 ok in
  {
    Outcome.attempted = max 1 (ops + List.length errors);
    failed = List.length errors;
    failure = (match errors with [] -> None | e :: _ -> Some e);
    e2e =
      [
        ("throughput_ops_s", med (fun u -> Outcome.ratio u.r.Workload.ops u.wall *. 1e9));
        ("op_p50_us", us 0.5);
        ("op_p99_us", us 0.99);
        ("op_p999_us", us 0.999);
        ("live_words_mean", fam (fun u -> u.live));
        ("sim_ops_per_mcycle", fam (fun u -> u.r.Workload.throughput));
        ("wall_s", med (fun u -> float_of_int u.wall /. 1e9));
        ("setup_s", med (fun u -> float_of_int u.setup /. 1e9));
      ];
    layers =
      [
        ("heap.peak_live_words", fam (fun u -> float_of_int u.r.Workload.peak_live_words));
        ("sim.ns_per_step", med (fun u -> float_of_int u.wall /. float_of_int (max 1 u.steps)));
        ("sim.phase_cycles_mean", fam (fun u -> extra u.r "avg-phase-latency"));
        ("sim.full_waits", fam (fun u -> extra u.r "full-waits"));
        ("sim.signals", fam (fun u -> extra u.r "signals"));
      ];
    notes =
      [
        Printf.sprintf "%d simulated runs (seeds 0..%d) of 64 threads x %d cycles; %d simulated ops"
          (List.length units) (List.length units - 1) horizon ops;
      ];
  }
