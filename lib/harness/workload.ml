module Runtime = Ts_rt
module Sim = Ts_sim.Runtime (* tslint: allow facade -- workloads pin simulator-only chaos knobs *)
module Alloc = Ts_umem.Alloc
module Mem = Ts_umem.Mem
module Smr = Ts_smr.Smr
module Set_intf = Ts_ds.Set_intf
module Registry = Ts_scheme.Registry

type backend = Backend_sim | Backend_native of { pool : int }

let backend_to_string = function
  | Backend_sim -> "sim"
  | Backend_native { pool } -> if pool = 0 then "native" else Fmt.str "native(pool=%d)" pool

type ds_kind = List_ds | Hash_ds | Skip_ds

let ds_kind_to_string = function
  | List_ds -> "list"
  | Hash_ds -> "hash"
  | Skip_ds -> "skiplist"

type spec = {
  ds : ds_kind;
  scheme : Registry.spec;
  threads : int;
  cores : int;
  quantum : int;
  update_ratio : float;
  init_size : int;
  key_range : int;
  horizon : int;
  padding : int;
  buckets : int;
  max_height : int;
  epoch_batch : int;
  stack_depth : int;
  chaos : Ts_util.Fault_plan.t;
  watchdog_ms : int;
  seed : int;
  backend : backend;
  smr_wrap : (Smr.t -> Smr.t) option;
}

let default_spec =
  {
    ds = List_ds;
    scheme = Registry.spec "threadscan";
    threads = 4;
    cores = 0;
    quantum = 50_000;
    update_ratio = 0.2;
    init_size = 128;
    key_range = 256;
    horizon = 150_000;
    padding = 0;
    buckets = 128;
    max_height = 10;
    epoch_batch = 64;
    stack_depth = 64;
    chaos = [];
    watchdog_ms = 0;
    seed = 0xBE5;
    backend = Backend_sim;
    smr_wrap = None;
  }

type result = {
  spec : spec;
  ops : int;
  throughput : float;
  elapsed : int;
  retired : int;
  freed : int;
  outstanding : int;
  peak_live_blocks : int;
  peak_live_words : int;
  signals_delivered : int;
  ctx_switches : int;
  faults : int;
  extras : (string * int) list;
  wedged : bool;
  post_mortem : string option;
  chaos : Chaos.report option;
}

let scheme_env spec =
  let hazard_slots =
    match spec.ds with
    | Skip_ds -> Ts_ds.Skiplist.hazard_slots ~max_height:spec.max_height
    | List_ds | Hash_ds -> 3
  in
  let budgets =
    (* Under a fault plan ThreadScan's degradation ladder must fire
       within the horizon, so the budgets scale with it instead of using
       the (deliberately generous) defaults. *)
    match spec.chaos with
    | [] -> None
    | _ -> Some (Registry.fault_budgets ~horizon:spec.horizon)
  in
  {
    Registry.max_threads = spec.threads + 2;
    hazard_slots;
    epoch_batch = spec.epoch_batch;
    budgets;
  }

let make_scheme spec = (Registry.build (scheme_env spec) spec.scheme).Registry.smr

let make_ds spec smr =
  match spec.ds with
  | List_ds -> Ts_ds.Michael_list.create ~smr ~padding:spec.padding ()
  | Hash_ds -> Ts_ds.Hash_table.create ~smr ~padding:spec.padding ~buckets:spec.buckets ()
  | Skip_ds -> Ts_ds.Skiplist.create ~smr ~max_height:spec.max_height ~padding:spec.padding ()

let prefill spec (ds : Set_intf.t) =
  (* deterministic prefill to exactly [init_size] distinct keys *)
  let inserted = ref 0 in
  while !inserted < spec.init_size do
    let key = Runtime.rand_below spec.key_range in
    if ds.Set_intf.insert key key then incr inserted
  done

let worker spec (smr : Smr.t) (ds : Set_intf.t) ~chaos ~i ~deadline ~count () =
  smr.Smr.thread_init ();
  (* Baseline call-chain frame: a real thread's used stack is far deeper
     than the data structure's own frame, and TS-Scan walks all of it. *)
  if spec.stack_depth > 0 then ignore (Ts_rt.Frame.push spec.stack_depth);
  let insert_below = spec.update_ratio /. 2.0 in
  let ops = ref 0 in
  while Runtime.now () < deadline do
    (match chaos with Some c -> Chaos.worker_hook c smr ~i | None -> ());
    let key = Runtime.rand_below spec.key_range in
    let dice = float_of_int (Runtime.rand_below 1_000_000) /. 1_000_000.0 in
    if dice < insert_below then ignore (ds.Set_intf.insert key key)
    else if dice < spec.update_ratio then ignore (ds.Set_intf.remove key)
    else ignore (ds.Set_intf.contains key);
    incr ops
  done;
  count := !ops;
  smr.Smr.thread_exit ()

(* The measured interval, identical on both backends: build the scheme and
   structure, prefill, spawn the workers, join, flush.  Only {!Ts_rt}
   primitives are used, so the same closure runs under the effect-based
   scheduler and on real domains. *)
let body spec counts retired freed extras ~chaos ~smr_cell () =
  let smr =
    let smr = make_scheme spec in
    match spec.smr_wrap with Some wrap -> wrap smr | None -> smr
  in
  (* published before the workers start so a wedged run (watchdog kill,
     refs below never reached) can still read the final counters *)
  smr_cell := Some smr;
  smr.Smr.thread_init ();
  let ds = make_ds spec smr in
  prefill spec ds;
  let start = Runtime.now () in
  (match chaos with Some c -> Chaos.arm c ~start | None -> ());
  let deadline = start + spec.horizon in
  let ws =
    List.init spec.threads (fun i ->
        Runtime.spawn (worker spec smr ds ~chaos ~i ~deadline ~count:counts.(i)))
  in
  (* The chaos monitor is spawned after the workers so their tids stay
     1..threads (the clause victim indexing the plan grammar promises). *)
  let mon =
    match chaos with
    | None -> None
    | Some c ->
        let done_addr = Runtime.alloc_region 1 in
        let tick = max 1_000 (spec.horizon / 100) in
        Some (done_addr, Runtime.spawn (Chaos.monitor c smr ~done_addr ~tick))
  in
  List.iter Runtime.join ws;
  smr.Smr.thread_exit ();
  smr.Smr.flush ();
  retired := Smr.retired smr;
  freed := Smr.freed smr;
  extras := smr.Smr.extras ();
  match mon with
  | None -> ()
  | Some (done_addr, m) ->
      Runtime.write done_addr 1;
      Runtime.join m

(* The allocator's magazine statistics are appended to the scheme extras
   so they reach tables and JSON through the one existing channel.  Hit
   rate is left to consumers: hits / (hits + misses). *)
let finish spec counts ~retired ~freed ~extras ~elapsed ~(alloc : Alloc.stats)
    ~signals_delivered ~ctx_switches ~faults ~wedged ~post_mortem ~chaos =
  let ops = Array.fold_left (fun acc c -> acc + !c) 0 counts in
  if faults > 0 then failwith "workload produced memory faults";
  {
    spec;
    ops;
    throughput = float_of_int ops *. 1_000_000.0 /. float_of_int spec.horizon;
    elapsed;
    retired = !retired;
    freed = !freed;
    outstanding = !retired - !freed;
    peak_live_blocks = alloc.peak_live_blocks;
    peak_live_words = alloc.peak_live_words;
    signals_delivered;
    ctx_switches;
    faults;
    extras =
      !extras
      @ [
          ("mag-hits", alloc.cache_hits);
          ("mag-misses", alloc.cache_misses);
          ("mag-refills", alloc.central_refills);
          ("mag-flushes", alloc.cache_flushes);
        ];
    wedged;
    post_mortem;
    chaos;
  }

let make_chaos (spec : spec) ~native =
  if spec.chaos = [] then None
  else
    Some
      (Chaos.create ~plan:spec.chaos ~native ~threads:spec.threads
         ~recovery_extras:(Registry.descriptor spec.scheme).Registry.recovery_extras)

let run_sim (spec : spec) =
  if Ts_util.Fault_plan.has_wall_triggers spec.chaos then
    invalid_arg
      "Workload.run: wall-clock (ms) chaos triggers need the native backend (the sim has no \
       wall clock)";
  if Ts_util.Fault_plan.parks_forever spec.chaos then
    invalid_arg
      "Workload.run: an unreleased stall-forever plan never terminates on the sim backend; \
       add a release clause or use the native backend with a watchdog";
  let config =
    {
      Sim.default_config with
      cores = spec.cores;
      quantum = spec.quantum;
      seed = spec.seed;
      propagate_failures = true;
    }
  in
  let rt = Sim.create config in
  let counts = Array.init spec.threads (fun _ -> ref 0) in
  let retired = ref 0 and freed = ref 0 and extras = ref [] in
  let chaos = make_chaos spec ~native:false in
  let smr_cell = ref None in
  ignore (Sim.add_thread rt (body spec counts retired freed extras ~chaos ~smr_cell));
  let res = Sim.start rt in
  finish spec counts ~retired ~freed ~extras ~elapsed:res.Sim.elapsed
    ~alloc:(Alloc.stats (Sim.alloc rt))
    ~signals_delivered:res.Sim.run_stats.signals_delivered
    ~ctx_switches:res.Sim.run_stats.ctx_switches
    ~faults:(Mem.total_faults (Sim.mem rt))
    ~wedged:false ~post_mortem:None
    ~chaos:(Option.map Chaos.report chaos)

let run_native (spec : spec) ~pool =
  (* Size the heap for the live set plus the retired-but-unreclaimed backlog
     (per-thread buffers, epoch batches); the native heap cannot grow. *)
  let node_w = 8 + spec.padding + spec.max_height in
  let mem_capacity =
    max (1 lsl 21) (8 * (spec.key_range + ((spec.threads + 1) * 2048)) * node_w)
  in
  let config =
    {
      Ts_par.Runtime.default_config with
      pool;
      seed = spec.seed;
      max_threads = spec.threads + 2;
      mem_capacity;
      strict_mem = true;
      propagate_failures = true;
      watchdog_ns = spec.watchdog_ms * 1_000_000;
    }
  in
  let counts = Array.init spec.threads (fun _ -> ref 0) in
  let retired = ref 0 and freed = ref 0 and extras = ref [] in
  let chaos = make_chaos spec ~native:true in
  let smr_cell = ref None in
  let res = Ts_par.Runtime.run ~config (body spec counts retired freed extras ~chaos ~smr_cell) in
  (* A wedged run was killed before the body could publish its totals:
     read them off the scheme directly (its domains are gone, the record
     is quiescent). *)
  if res.Ts_par.Runtime.wedged then begin
    match !smr_cell with
    | Some smr ->
        retired := Smr.retired smr;
        freed := Smr.freed smr;
        extras := smr.Smr.extras ()
    | None -> ()
  end;
  let heap = res.Ts_par.Runtime.heap in
  finish spec counts ~retired ~freed ~extras ~elapsed:res.Ts_par.Runtime.elapsed
    ~alloc:(Ts_par.Heap.stats heap)
    ~signals_delivered:res.Ts_par.Runtime.run_stats.signals_delivered ~ctx_switches:0
    ~faults:(Ts_par.Heap.total_faults heap)
    ~wedged:res.Ts_par.Runtime.wedged ~post_mortem:res.Ts_par.Runtime.post_mortem
    ~chaos:(Option.map Chaos.report chaos)

(* A plan that parks a victim inside an open operation bracket with no way
   back (crash, or stall-forever with no release) starves a quiescence
   waiter forever — fatal for any scheme whose registry descriptor says
   [wedges_under_stall]. *)
let chaos_wedges plan =
  Ts_util.Fault_plan.parks_forever plan
  || List.exists (fun c -> c.Ts_util.Fault_plan.event = Ts_util.Fault_plan.Crash) plan

let run (spec : spec) =
  let d = Registry.descriptor spec.scheme in
  let caps = d.Registry.caps in
  if caps.Registry.wedges_under_stall && chaos_wedges spec.chaos then (
    match spec.backend with
    | Backend_native _ when spec.watchdog_ms > 0 ->
        () (* the watchdog bounds the wedge; that IS the experiment *)
    | _ ->
        invalid_arg
          (Fmt.str
             "Workload.run: this chaos plan wedges %s; run it on the native backend with \
              watchdog_ms set so the wedge is bounded and reported"
             d.Registry.id));
  (if caps.Registry.neutralizes then
     match spec.ds with
     | Skip_ds ->
         invalid_arg
           (Fmt.str
              "Workload.run: %s aborts and restarts victims' operations, which a lock-based \
               structure cannot survive (an aborted lock holder deadlocks its peers); use a \
               lock-free structure"
              d.Registry.id)
     | List_ds | Hash_ds -> ());
  match spec.backend with
  | Backend_sim -> run_sim spec
  | Backend_native { pool } -> run_native spec ~pool
