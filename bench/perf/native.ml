(* Native workloads: a closed loop of worker domains on Ts_par.Runtime,
   timed over a steady-state region only.

   The region opens when the main thread releases the start barrier
   (every worker registered, its frame pushed) and closes when the last
   worker leaves its loop after the stop flag.  Domain spawn, prefill,
   drain and join all fall outside it.  The main thread deregisters from
   the scheme after prefill (a registered thread that never polls would
   stall every phase's ack wait) and only wakes every 10 ms during the
   region, to sample memory. *)

module Smr = Ts_smr.Smr
module Set_intf = Ts_ds.Set_intf
module Registry = Ts_scheme.Registry
module Heap = Ts_par.Heap
module Prt = Ts_par.Runtime

type ds = Hash | List

type spec = {
  ds : ds;
  update_pct : int;  (** half inserts, half removes; the rest lookups *)
  buffer : int;  (** ThreadScan per-thread delete buffer *)
  frame : int;  (** words of baseline stack frame each worker holds *)
  batch : int;  (** ops per worker in the fixed batch [wall_s] times *)
  budgets : Registry.budgets option;  (** fault-ladder budgets; [None]: the scheme's own *)
}

let workers = 2
let pool = 2

(* Words of unmanaged heap: over 200x the live set and 8x the largest
   peak measured under the ladder misfire, yet a quarter of the default,
   whose creation alone took 50-120 ms of set-up. *)
let capacity = 1 lsl 19
let key_range = 1024
let init_size = 512
let buckets = 256

type region = {
  ops : int;
  region_ns : int;  (** barrier release to the last worker leaving its loop *)
  batch_ns : int;  (** barrier release to the last worker finishing its batch *)
  setup_ns : int;  (** [Runtime.run] entry to barrier release *)
  hist : Hist.t;  (** per-op latency, ns, all workers merged *)
  worker_wall_ns : int;  (** summed over workers *)
  worker_cpu_ns : int;
  peak_live_words : int;
  live_words_mean : float;  (** live heap words, sampled every 10 ms *)
  garbage_peak : int;  (** most retired - freed nodes in any sample *)
  magazine_hit_ratio : float;
  extras : (string * int) list;  (** scheme counters at region end *)
  failure : string option;
}

type ctl = {
  ready : int Atomic.t;
  go : bool Atomic.t;
  stop : bool Atomic.t;
  ops : int array;
  inserted : int array;
  removed : int array;
  t_end : int array;
  t_batch : int array;
  wall : int array;
  cpu : int array;
  hists : Hist.t array;
}

let new_ctl () =
  let z () = Array.make workers 0 in
  {
    ready = Atomic.make 0;
    go = Atomic.make false;
    stop = Atomic.make false;
    ops = z ();
    inserted = z ();
    removed = z ();
    t_end = z ();
    t_batch = z ();
    wall = z ();
    cpu = z ();
    hists = Array.init workers (fun _ -> Hist.create ());
  }

(* Fault-ladder budgets out of reach of a live peer: 1000x the
   defaults.  Only [scan-heavy] sets them; README.md ("The ladder
   misfire") says why, and what the defaults do there. *)
let widened =
  let d = Threadscan.Config.default in
  Some
    {
      Registry.ack_budget = 1000 * d.ack_budget;
      suspect_phases = d.suspect_phases;
      takeover_steps = 1000 * d.takeover_steps;
      overflow_after = d.overflow_after;
    }

(* the baseline frame plus the structures' own frames and slack *)
let stack_words spec = spec.frame + 256

let config spec ~seed ~seconds =
  {
    Prt.default_config with
    pool;
    seed;
    max_threads = workers + 2;
    stack_words = stack_words spec;
    strict_mem = true;
    propagate_failures = false;
    mem_capacity = capacity;
    watchdog_ns = int_of_float ((seconds +. 60.0) *. 1e9);
  }

let make_smr spec =
  let env =
    {
      Registry.max_threads = workers + 2;
      hazard_slots = 3;
      epoch_batch = 64;
      budgets = spec.budgets;
    }
  in
  (Registry.build env (Registry.spec ~buffer:spec.buffer "threadscan")).Registry.smr

let make_ds spec smr =
  match spec.ds with
  | Hash -> Ts_ds.Hash_table.create ~smr ~buckets ()
  | List -> Ts_ds.Michael_list.create ~smr ()

let prefill (ds : Set_intf.t) =
  let filled = ref 0 in
  while !filled < init_size do
    let key = Ts_rt.rand_below key_range in
    if ds.Set_intf.insert key key then incr filled
  done

(* One operation of the mix for a [dice] roll in 0..99: 1 when a key
   went in, -1 when one came out, 0 otherwise. *)
let apply spec (ds : Set_intf.t) key dice =
  if dice < spec.update_pct / 2 then if ds.Set_intf.insert key key then 1 else 0
  else if dice < spec.update_pct then if ds.Set_intf.remove key then -1 else 0
  else begin
    ignore (ds.Set_intf.contains key);
    0
  end

(* The hot loop: everything it touches is preallocated. *)
let loop ctl spec (ds : Set_intf.t) i =
  let h = ctl.hists.(i) in
  let n = ref 0 and ins = ref 0 and rem = ref 0 in
  while not (Atomic.get ctl.stop) do
    let key = Ts_rt.rand_below key_range in
    let dice = Ts_rt.rand_below 100 in
    let t0 = Clock.now_ns () in
    let d = apply spec ds key dice in
    let t1 = Clock.now_ns () in
    if d > 0 then incr ins else if d < 0 then incr rem;
    Hist.add h (t1 - t0);
    incr n;
    if !n = spec.batch then ctl.t_batch.(i) <- t1
  done;
  ctl.ops.(i) <- !n;
  ctl.inserted.(i) <- !ins;
  ctl.removed.(i) <- !rem

let traced_loop ctl spec (ds : Set_intf.t) i th =
  let n = ref 0 and ins = ref 0 and rem = ref 0 in
  while not (Atomic.get ctl.stop) do
    let key = Ts_rt.rand_below key_range in
    let dice = Ts_rt.rand_below 100 in
    Tracer.enter th Tracer.op;
    let d = apply spec ds key dice in
    ignore (Tracer.leave th);
    if d > 0 then incr ins else if d < 0 then incr rem;
    incr n;
    if !n = spec.batch then ctl.t_batch.(i) <- Clock.now_ns ()
  done;
  ctl.ops.(i) <- !n;
  ctl.inserted.(i) <- !ins;
  ctl.removed.(i) <- !rem

let worker ctl spec (smr : Smr.t) ds tracer i () =
  smr.Smr.thread_init ();
  let fr = Ts_rt.Frame.push spec.frame in
  Atomic.incr ctl.ready;
  while not (Atomic.get ctl.go) do
    Thread.delay 0.0001
  done;
  let t0 = Clock.now_ns () and c0 = Clock.thread_cpu_ns () in
  (match tracer with
  | None -> loop ctl spec ds i
  | Some tr -> traced_loop ctl spec ds i (Tracer.state tr (Ts_rt.self ())));
  let t1 = Clock.now_ns () in
  ctl.t_end.(i) <- t1;
  ctl.wall.(i) <- t1 - t0;
  ctl.cpu.(i) <- Clock.thread_cpu_ns () - c0;
  Ts_rt.Frame.pop fr;
  smr.Smr.thread_exit ()

(* Waits for every worker to reach the barrier.  Fails fast — instead of
   spinning forever — when one of them finished (died) before getting
   there, or when the barrier takes implausibly long. *)
let await_ready ctl tids =
  let deadline = Clock.now_ns () + 60_000_000_000 in
  let rec wait () =
    if Atomic.get ctl.ready = workers then true
    else if List.exists Ts_rt.is_done tids || Clock.now_ns () > deadline then false
    else begin
      Thread.delay 0.0002;
      wait ()
    end
  in
  wait ()

(* Live heap words, counted from outside the heap: a decorator adds a
   block's words to its allocating thread's counter and takes them off
   its freeing thread's (a table indexed by address keeps each block's
   size), and the main thread sums the counters.  They sit a cache line
   apart, so counting adds no sharing between the workers. *)
let line = 8

type words = { sizes : int array; live : int array }

let words =
  lazy
    {
      sizes = Array.make capacity 0;
      live = Array.make ((workers + 2) * line) 0;
    }

let count_words w (base : Ts_rt.ops) : Ts_rt.ops =
  {
    base with
    malloc =
      (fun n ->
        let a = base.malloc n in
        let i = base.self () * line in
        w.sizes.(a) <- n;
        w.live.(i) <- w.live.(i) + n;
        a);
    free =
      (fun a ->
        let i = base.self () * line in
        w.live.(i) <- w.live.(i) - w.sizes.(a);
        base.free a);
  }

let live_words w =
  let s = ref 0 in
  for t = 0 to workers + 1 do
    s := !s + w.live.(t * line)
  done;
  !s

(* Samples live words and outstanding garbage (retired - freed nodes)
   every 10 ms until [t_stop]: their mean and peak. *)
let sample w (smr : Smr.t) t_stop =
  let n = ref 0 and live = ref 0 and peak = ref 0 in
  while Clock.now_ns () < t_stop do
    let c = smr.Smr.counters in
    incr n;
    live := !live + live_words w;
    peak := max !peak (c.Smr.retired - c.Smr.freed);
    Thread.delay 0.01
  done;
  (Outcome.ratio !live !n, !peak)

let fault_of = function
  | Ts_umem.Mem.Fault (kind, addr) ->
      Printf.sprintf "fault %s at address %d" (Ts_umem.Mem.fault_to_string kind) addr
  | e -> Printexc.to_string e

(* One region: a Runtime.run that sets up, releases the barrier, runs
   for [seconds], stops, flushes and checks every oracle. *)
let run ?tracer spec ~seed ~seconds =
  let ctl = new_ctl () in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let w = Lazy.force words in
  Array.fill w.live 0 (Array.length w.live) 0;
  let t_release = ref 0 and extras = ref [] and smr_cell = ref None in
  let sampled = ref (0.0, 0) in
  let body () =
    let smr = make_smr spec in
    let smr = match tracer with Some tr -> Tracer.wrap_smr tr smr | None -> smr in
    smr_cell := Some smr;
    smr.Smr.thread_init ();
    let ds = make_ds spec smr in
    prefill ds;
    smr.Smr.thread_exit ();
    let tids = List.init workers (fun i -> Ts_rt.spawn (worker ctl spec smr ds tracer i)) in
    let ready = await_ready ctl tids in
    Option.iter (fun tr -> Tracer.set_active tr true) tracer;
    t_release := Clock.now_ns ();
    if not ready then begin
      Atomic.set ctl.stop true;
      fail "a worker died or hung before the start barrier"
    end;
    Atomic.set ctl.go true;
    let t_stop = !t_release + int_of_float (seconds *. 1e9) in
    if ready then sampled := sample w smr t_stop;
    Atomic.set ctl.stop true;
    List.iter Ts_rt.join tids;
    Option.iter (fun tr -> Tracer.set_active tr false) tracer;
    extras := smr.Smr.extras ();
    smr.Smr.flush ();
    let c = smr.Smr.counters in
    if c.Smr.retired <> c.Smr.freed then
      fail "outstanding = %d after flush" (c.Smr.retired - c.Smr.freed);
    (try ds.Set_intf.check () with Failure m -> fail "Set_intf.check: %s" m);
    let expected =
      init_size + Array.fold_left ( + ) 0 ctl.inserted - Array.fold_left ( + ) 0 ctl.removed
    in
    let size = Set_intf.size ds in
    if size <> expected then fail "final size %d, expected %d from the op results" size expected
  in
  let decorate =
    match tracer with
    | None -> count_words w
    | Some tr -> fun base -> count_words w (Tracer.decorate tr base)
  in
  Ts_rt.set_decorator (Some decorate);
  (* start every region from the same collector state, not while the
     last region's heap is still being swept *)
  Gc.full_major ();
  let t_entry = Clock.now_ns () in
  let res =
    Fun.protect
      ~finally:(fun () -> Ts_rt.set_decorator None)
      (fun () -> Prt.run ~config:(config spec ~seed ~seconds) body)
  in
  List.iter
    (fun (tid, e) -> fail "thread %d failed: %s" tid (fault_of e))
    res.Prt.failures;
  if res.Prt.wedged then
    fail "watchdog fired: %s" (Option.value res.Prt.post_mortem ~default:"no post-mortem");
  let heap = res.Prt.heap in
  if Heap.total_faults heap > 0 then fail "heap faults: %s" (Fmt.str "%a" Heap.pp_faults heap);
  (* a run that died before the region ended still reports its ladder *)
  let extras =
    match (!extras, !smr_cell) with [], Some smr -> smr.Smr.extras () | e, _ -> e
  in
  let hits = Heap.cache_hits heap and misses = Heap.cache_misses heap in
  let region_end = Array.fold_left max !t_release ctl.t_end in
  (* a worker that did not finish its batch in the region extrapolates
     from its own rate *)
  let batch_ns i =
    if ctl.t_batch.(i) > 0 then ctl.t_batch.(i) - !t_release
    else if ctl.ops.(i) = 0 then 0
    else
      int_of_float
        (float_of_int (ctl.t_end.(i) - !t_release) *. Outcome.ratio spec.batch ctl.ops.(i))
  in
  {
    ops = Array.fold_left ( + ) 0 ctl.ops;
    region_ns = region_end - !t_release;
    batch_ns = List.fold_left max 0 (List.init workers batch_ns);
    setup_ns = !t_release - t_entry;
    hist = Hist.merge (Array.to_list ctl.hists);
    worker_wall_ns = Array.fold_left ( + ) 0 ctl.wall;
    worker_cpu_ns = Array.fold_left ( + ) 0 ctl.cpu;
    peak_live_words = Heap.peak_live_words heap;
    live_words_mean = fst !sampled;
    garbage_peak = snd !sampled;
    magazine_hit_ratio = Outcome.ratio hits (hits + misses);
    extras;
    failure = (match !problems with [] -> None | ps -> Some (String.concat "; " (List.rev ps)));
  }

let extra (r : region) name = Option.value (List.assoc_opt name r.extras) ~default:0
let throughput (r : region) = Outcome.ratio r.ops r.region_ns *. 1e9

let ladder =
  [
    ("ladder.ack_timeouts", "ack-timeouts");
    ("ladder.blind_carried", "carried-blind");
    ("ladder.reaps", "reaps");
    ("ladder.overflow_pushes", "overflow-pushes");
    ("ladder.takeovers", "takeovers");
    ("ladder.gen_aborts", "gen-aborts");
  ]

(* A failed region counts all its operations as failed, and its record
   says how to reproduce it and what the degradation ladder had done. *)
let failure_of ~seed (r : region) =
  Option.map
    (fun f ->
      Printf.sprintf "seed %d: %s; ladder: %s" seed f
        (String.concat " "
           (List.map (fun (m, e) -> Printf.sprintf "%s=%d" m (extra r e)) ladder)))
    r.failure

let account regions f = List.fold_left (fun acc (_, (r : region)) -> acc + f r) 0 regions

let outcome_of ~regions ~e2e ~layers ~notes =
  let failed = List.filter (fun (_, (r : region)) -> r.failure <> None) regions in
  {
    Outcome.attempted = max 1 (account regions (fun r -> r.ops));
    failed = account failed (fun r -> max 1 r.ops);
    failure =
      (match failed with [] -> None | (seed, r) :: _ -> failure_of ~seed r);
    e2e;
    layers;
    notes;
  }

(* Set-ups per untraced run.  One set-up (a fresh heap, domain spawn,
   prefill) spreads far wider than a region's metrics, so a run sets up
   this many times and reports the median; all but the last stop at the
   start barrier. *)
let setups = 9

(* Untraced: one steady-state region of [seconds], after [setups - 1]
   set-ups that stop at the barrier. *)
let measure spec ~seed ~seconds =
  let dry = List.init (setups - 1) (fun k -> (seed * 16) + k + 1) in
  let dry = List.map (fun seed -> (seed, run spec ~seed ~seconds:0.0)) dry in
  let r = run spec ~seed ~seconds in
  let regions = dry @ [ (seed, r) ] in
  let us q = Hist.tail_percentile r.hist q /. 1e3 in
  outcome_of ~regions
    ~e2e:
      [
        ("throughput_ops_s", throughput r);
        ("op_p50_us", us 0.5);
        ("op_p99_us", us 0.99);
        ("op_p999_us", us 0.999);
        ("live_words_mean", r.live_words_mean);
        ("wall_s", float_of_int r.batch_ns /. 1e9);
        ( "setup_s",
          Outcome.median (List.map (fun (_, r) -> float_of_int r.setup_ns /. 1e9) regions) );
      ]
    ~layers:[]
    ~notes:
      [
        Printf.sprintf
          "region %.6f s, %d ops timed, batch of %d ops per worker; peak %d words, %d garbage \
           nodes; ladder: %s"
          (float_of_int r.region_ns /. 1e9)
          (Hist.count r.hist) spec.batch r.peak_live_words r.garbage_peak
          (String.concat " "
             (List.map (fun (m, e) -> Printf.sprintf "%s=%d" m (extra r e)) ladder));
      ]

(* Traced: untraced and traced regions alternate, so the tracing
   overhead is measured against the same machine state. *)
let measure_traced spec ~seed ~seconds =
  let region_s = seconds /. 4.0 in
  let runs =
    List.init 4 (fun k ->
        let seed = (seed * 16) + k in
        if k mod 2 = 0 then (seed, run spec ~seed ~seconds:region_s, None)
        else
          let tids = List.init workers (fun i -> i + 1) in
          let tr = Tracer.create ~max_threads:(workers + 2) ~tids ~capacity:(1 lsl 17) in
          let r = run ~tracer:tr spec ~seed ~seconds:region_s in
          (seed, r, Some (Tracer.summarize tr ~tids)))
  in
  let plain = List.filter_map (fun (_, r, s) -> if s = None then Some r else None) runs in
  let traced = List.filter_map (fun (_, r, s) -> Option.map (fun s -> (r, s)) s) runs in
  let tot f = List.fold_left (fun acc ((r : region), s) -> acc + f r s) 0 traced in
  let sum f = tot (fun _ s -> f s) in
  let self k = sum (fun s -> s.Tracer.self_ns.(k)) in
  let calls k = sum (fun s -> s.Tracer.calls.(k)) in
  let ops = sum (fun s -> s.Tracer.ops) in
  let stages = List.concat_map (fun (_, s) -> Array.to_list s.Tracer.stages) traced in
  let delivery = Hist.merge (List.map (fun (_, s) -> s.Tracer.delivery) traced) in
  let phases = sum (fun s -> s.Tracer.phases) in
  let stage f =
    Outcome.ratio (List.fold_left (fun acc st -> acc + f st) 0 stages) (List.length stages)
  in
  let wall = tot (fun r _ -> r.worker_wall_ns) and cpu = tot (fun r _ -> r.worker_cpu_ns) in
  let loop_ns = wall - sum (fun s -> s.Tracer.op_ns) in
  let thr rs = Outcome.median (List.map throughput rs) in
  let per_call k = Outcome.ratio (self k) (calls k) in
  let mean total n = Outcome.ratio (sum total) (sum n) in
  let count n = float_of_int n in
  let most f = List.fold_left (fun acc (r, _) -> max acc (f r)) 0 traced in
  let pct x = 100.0 *. Outcome.ratio x wall in
  outcome_of
    ~regions:(List.map (fun (seed, r, _) -> (seed, r)) runs)
    ~e2e:[]
    ~layers:
      ([
         ("ds.self_ns_per_op", Outcome.ratio (self Tracer.op) ops);
         ("heap.malloc_ns", per_call Tracer.malloc);
         ("heap.free_ns", per_call Tracer.free);
         ("heap.malloc_calls", count (calls Tracer.malloc));
         ("heap.free_calls", count (calls Tracer.free));
         ( "heap.magazine_hit_ratio",
           Outcome.median (List.map (fun (r, _) -> r.magazine_hit_ratio) traced) );
         ("retire.fast_ns", mean (fun s -> s.Tracer.fast_ns) (fun s -> s.Tracer.fast_n));
         ("retire.calls", count (calls Tracer.retire));
         ("retire.wait_ns", mean (fun s -> s.Tracer.wait_ns) (fun s -> s.Tracer.wait_n));
         ("retire.full_waits", count (sum (fun s -> s.Tracer.wait_n)));
         ("collect.ns_per_phase", stage (fun st -> st.Stages.collect));
         ("handshake.ns_per_phase", stage (fun st -> st.Stages.handshake));
         ("handshake.delivery_ns_p50", Hist.percentile delivery 0.5);
         ("handshake.delivery_ns_p99", Hist.tail_percentile delivery 0.99);
         ("sweep.ns_per_phase", stage (fun st -> st.Stages.sweep));
         ("sweep.frees_per_phase", Outcome.ratio (sum (fun s -> s.Tracer.sweep_frees)) phases);
         ("phase.count", count phases);
         ("phase.useful_ratio", Outcome.ratio (sum (fun s -> s.Tracer.useful_phases)) phases);
         ("scan.ns", per_call Tracer.scan);
         ("scan.calls", count (calls Tracer.scan));
         ( "scan.ns_per_word",
           mean (fun s -> s.Tracer.self_ns.(Tracer.scan)) (fun s -> s.Tracer.scan_words) );
       ]
      @ List.map (fun (m, e) -> (m, count (tot (fun r _ -> extra r e)))) ladder
      @ [
          ("heap.peak_live_words", count (most (fun r -> r.peak_live_words)));
          ("garbage.peak_nodes", count (most (fun r -> r.garbage_peak)));
          ("loop.ns_per_op", Outcome.ratio loop_ns ops);
          ("worker.cpu_share", Outcome.ratio cpu wall);
          ("trace.overhead_ratio", thr (List.map fst traced) /. thr plain);
        ])
    ~notes:
      [
        Printf.sprintf
          "worker time %.3f s: ds %.1f%% + heap %.1f%% + retire %.1f%% + scan %.1f%% + loop \
           %.1f%% = %.1f%%; on a cpu %.1f%% of it; %d phases resolved, %d log entries lost"
          (float_of_int wall /. 1e9) (pct (self Tracer.op))
          (pct (self Tracer.malloc + self Tracer.free))
          (pct (self Tracer.retire)) (pct (self Tracer.scan)) (pct loop_ns)
          (pct (List.fold_left ( + ) loop_ns (List.init Tracer.layers self)))
          (pct cpu) (List.length stages)
          (sum (fun s -> s.Tracer.lost));
      ]
