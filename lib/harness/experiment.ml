module Registry = Ts_scheme.Registry
module Fault_plan = Ts_util.Fault_plan

type scale = Quick | Full | Paper

let scale_of_string = function
  | "quick" -> Some Quick
  | "full" -> Some Full
  | "paper" -> Some Paper
  | _ -> None

type point = { threads : int; cells : (string * Workload.result) list }

(* ------------------------------------------------------------------ *)
(* Workload presets                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-structure base spec at a given scale.  The paper's sizes (list 1024
   nodes / range 2048; hash 131072 nodes / 4096 buckets; skip list 128000
   nodes) appear at [Paper] scale; [Quick] shrinks everything so one sweep
   runs in seconds of real time while keeping every ratio (range = 2 x
   size, bucket occupancy 32, 20 % updates). *)
let base_spec scale (ds : Workload.ds_kind) =
  let d = Workload.default_spec in
  let spec =
    match (scale, ds) with
    | Quick, Workload.List_ds ->
        { d with ds; init_size = 96; key_range = 192; horizon = 400_000 }
    | Quick, Workload.Hash_ds ->
        { d with ds; init_size = 2048; key_range = 4096; buckets = 256; horizon = 150_000 }
    | Quick, Workload.Skip_ds ->
        { d with ds; init_size = 512; key_range = 1024; max_height = 10; horizon = 250_000 }
    | Full, Workload.List_ds ->
        { d with ds; init_size = 1024; key_range = 2048; horizon = 4_000_000 }
    | Full, Workload.Hash_ds ->
        { d with ds; init_size = 16384; key_range = 32768; buckets = 512; horizon = 400_000 }
    | Full, Workload.Skip_ds ->
        { d with ds; init_size = 8192; key_range = 16384; max_height = 14; horizon = 800_000 }
    | Paper, Workload.List_ds ->
        {
          d with
          ds;
          init_size = 1024;
          key_range = 2048;
          horizon = 4_000_000;
          padding = 19 (* 172-byte nodes *);
        }
    | Paper, Workload.Hash_ds ->
        {
          d with
          ds;
          init_size = 131_072;
          key_range = 262_144;
          buckets = 4096;
          horizon = 30_000_000;
        }
    | Paper, Workload.Skip_ds ->
        {
          d with
          ds;
          init_size = 128_000;
          key_range = 256_000;
          max_height = 17;
          horizon = 60_000_000;
        }
  in
  (* Retire pacing (ThreadScan per-thread buffer, epoch batch), sized so
     several reclamation rounds happen within each horizon: roughly 5 % of
     operations retire a node, and per-operation cost differs by an order
     of magnitude between the structures. *)
  let reclaim_pace =
    match (scale, ds) with
    | Quick, Workload.List_ds -> (12, 8)
    | Quick, Workload.Hash_ds -> (32, 12)
    | Quick, Workload.Skip_ds -> (24, 12)
    | Full, Workload.List_ds -> (16, 8)
    | Full, Workload.Hash_ds -> (48, 24)
    | Full, Workload.Skip_ds -> (32, 16)
    | Paper, _ -> (1024, 1024)
  in
  let ts_buffer, epoch_batch = reclaim_pace in
  ({ spec with epoch_batch }, ts_buffer)

let slow_delay scale =
  (* What produces the paper's collapse is delay >> reclamation period:
     every other thread's cleanup lands inside the errant thread's
     mid-operation stall and waits it out.  The paper's 40 ms vs. ~1 ms
     between cleanups is a factor of ~40; we keep the delay comparable to
     the horizon so the same regime holds at simulation scale. *)
  match scale with Quick -> 600_000 | Full -> 6_000_000 | Paper -> 50_000_000

let fig3_threads = function
  | Quick -> [ 1; 2; 4; 8; 16; 24; 32 ]
  | Full | Paper -> [ 1; 2; 4; 8; 16; 32; 48; 64; 80 ]

let fig4_setup = function
  | Quick -> (12, [ 6; 12; 18; 24; 30 ])
  | Full | Paper -> (80, [ 40; 80; 120; 160; 200 ])

(* ------------------------------------------------------------------ *)
(* Sweep machinery                                                     *)
(* ------------------------------------------------------------------ *)

let run_sweep ~backend ~threads_list ~series =
  List.map
    (fun threads ->
      let cells =
        List.map
          (fun (label, spec) ->
            (label, Workload.run { spec with Workload.threads; backend }))
          series
      in
      { threads; cells })
    threads_list

let print_points ~title points =
  match points with
  | [] -> ()
  | first :: _ ->
      let labels = List.map fst first.cells in
      Fmt.pr "@.== %s ==@." title;
      Fmt.pr "%-8s" "threads";
      List.iter (fun l -> Fmt.pr "%14s" l) labels;
      Fmt.pr "@.";
      List.iter
        (fun { threads; cells } ->
          Fmt.pr "%-8d" threads;
          List.iter (fun (_, r) -> Fmt.pr "%14.1f" r.Workload.throughput) cells;
          Fmt.pr "@.")
        points;
      Fmt.pr "(throughput: completed operations per million simulated cycles)@."

let ratio_summary points ~num ~den =
  let ratios =
    List.filter_map
      (fun { cells; _ } ->
        match (List.assoc_opt num cells, List.assoc_opt den cells) with
        | Some a, Some b when b.Workload.throughput > 0.0 ->
            Some (a.Workload.throughput /. b.Workload.throughput)
        | _ -> None)
      points
  in
  if ratios <> [] then begin
    let avg = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
    Fmt.pr "summary: %s / %s throughput ratio, averaged over the sweep: %.2fx@." num den avg
  end

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let fig3_series scale ds =
  let spec, ts_buffer = base_spec scale ds in
  [
    ("leaky", { spec with scheme = Registry.spec "leaky" });
    ("hazard", { spec with scheme = Registry.spec "hazard" });
    ("epoch", { spec with scheme = Registry.spec "epoch" });
    ("slow-epoch", { spec with scheme = Registry.spec ~delay:(slow_delay scale) "slow-epoch" });
    ("stacktrack", { spec with scheme = Registry.spec "stacktrack" });
    ("debra", { spec with scheme = Registry.spec "debra" });
    ("hyaline", { spec with scheme = Registry.spec "hyaline" });
    ("threadscan", { spec with scheme = Registry.spec ~buffer:ts_buffer "threadscan" });
  ]
  (* a neutralizing scheme aborts operations mid-flight, which the
     lock-based skip list cannot survive: Workload.run refuses the pair *)
  |> List.filter (fun (_, s) ->
         not
           ((Registry.descriptor s.Workload.scheme).Registry.caps.Registry.neutralizes
           && ds = Workload.Skip_ds))

let fig3 ~backend scale ds =
  run_sweep ~backend ~threads_list:(fig3_threads scale) ~series:(fig3_series scale ds)

let fig4 ~backend scale ds =
  let cores, threads_list = fig4_setup scale in
  let spec, ts_buffer = base_spec scale ds in
  (* Oversubscribed threads share the cores, so the wall-clock horizon must
     grow for every thread to keep retiring (the paper simply ran 10 s). *)
  let spec =
    { spec with Workload.cores; quantum = 20_000; horizon = 4 * spec.Workload.horizon }
  in
  (* oversubscribed threads retire more slowly; keep phases coming *)
  let ts_buffer = max 8 (ts_buffer / 2) in
  let series =
    [
      ("leaky", { spec with scheme = Registry.spec "leaky" });
      ("epoch", { spec with scheme = Registry.spec "epoch" });
      ( "threadscan",
        { spec with scheme = Registry.spec ~buffer:ts_buffer "threadscan" }
      );
    ]
    @
    (* the paper additionally shows a large-buffer ThreadScan on the
       oversubscribed hash table *)
    match ds with
    | Workload.Hash_ds ->
        [
          ( "ts-bigbuf",
            {
              spec with
              scheme = Registry.spec ~buffer:(4 * ts_buffer) "threadscan";
            } );
        ]
    | _ -> []
  in
  run_sweep ~backend ~threads_list ~series

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablate_buffer ~backend scale =
  let cores, threads_list = fig4_setup scale in
  let spec, ts_buffer = base_spec scale Workload.Hash_ds in
  let spec =
    { spec with Workload.cores; quantum = 20_000; horizon = 4 * spec.Workload.horizon }
  in
  let series =
    List.map
      (fun mult ->
        ( Fmt.str "buf=%d" (ts_buffer * mult),
          { spec with Workload.scheme = Registry.spec ~buffer:(ts_buffer * mult) "threadscan" } ))
      [ 1; 4; 16 ]
  in
  run_sweep ~backend ~threads_list ~series

let ablate_slow_epoch ~backend scale =
  let spec, _ = base_spec scale Workload.List_ds in
  let threads_list = match scale with Quick -> [ 8; 16 ] | _ -> [ 16; 40 ] in
  let series =
    ("epoch", { spec with Workload.scheme = Registry.spec "epoch" })
    :: List.map
         (fun delay ->
           ( Fmt.str "delay=%dk" (delay / 1000),
             { spec with Workload.scheme = Registry.spec ~delay "slow-epoch" } ))
         [ slow_delay scale / 32; slow_delay scale / 8; slow_delay scale ]
  in
  run_sweep ~backend ~threads_list ~series

(* Fault tolerance: kill one worker mid-operation at 25 % of the base
   horizon, then let the rest run 1x / 2x / 4x of it.  The x-axis is the
   horizon multiplier ([point.threads] is reused to carry it): ThreadScan
   reaps the corpse and keeps reclaiming, so its outstanding count stays
   flat as the run stretches, while (patient) epoch — whose quiescence
   condition the dead thread's odd counter blocks forever — accumulates
   every node retired after the crash.  Plain epoch is not even runnable
   here: its unbounded quiescence wait would simply hang. *)
let ablate_crash ~backend scale =
  let spec, ts_buffer = base_spec scale Workload.List_ds in
  let threads = match scale with Quick -> 8 | _ -> 16 in
  let base_horizon = spec.Workload.horizon in
  let chaos = [ { Fault_plan.victims = 1; at = At (base_horizon / 4); event = Crash } ] in
  let patience = max 20_000 (base_horizon / 10) in
  let series mult =
    let spec = { spec with Workload.threads; chaos; horizon = mult * base_horizon } in
    [
      ( "threadscan",
        { spec with Workload.scheme = Registry.spec ~buffer:ts_buffer "threadscan" }
      );
      ("patient-epoch", { spec with Workload.scheme = Registry.spec ~patience "patient-epoch" });
    ]
  in
  List.map
    (fun mult ->
      {
        threads = mult;
        cells =
          List.map
            (fun (l, s) -> (l, Workload.run { s with Workload.backend }))
            (series mult);
      })
    [ 1; 2; 4 ]

let crashes plan = List.exists (fun c -> c.Fault_plan.event = Fault_plan.Crash) plan

(* Chaos recovery: the crash/stall degradation ablation rerun on the
   native backend with real-domain fault injection.  One worker is taken
   out a quarter of the way into the run — killed, stalled for half a
   horizon, or stalled forever — and the chaos monitor accounts for the
   recovery in wall-clock time: when the degradation ladder first acted
   (takeover), when outstanding memory was back at the pre-fault
   baseline (MTTR), and how many signals the recovery cost.  Epoch's
   unbounded quiescence wait wedges under the crash and the unreleased
   stall; the liveness watchdog turns that hang into a reported, bounded
   datum instead of a hung benchmark. *)
let chaos_recovery ~backend scale =
  (match backend with
  | Workload.Backend_native _ -> ()
  | Workload.Backend_sim ->
      invalid_arg "chaos-recovery injects faults into real domains: run it with --backend native");
  let spec, ts_buffer = base_spec scale Workload.List_ds in
  let threads = match scale with Quick -> 6 | _ -> 16 in
  let watchdog_ms = match scale with Quick -> 2_500 | _ -> 10_000 in
  let hz = spec.Workload.horizon in
  let spec = { spec with Workload.threads; backend; watchdog_ms } in
  let plans =
    [
      Fmt.str "crash:1@%d" (hz / 4);
      Fmt.str "stall:1@%d:%d" (hz / 4) (hz / 2);
      Fmt.str "stall:1@%d:forever" (hz / 4);
    ]
  in
  let series =
    [
      ("leaky", { spec with Workload.scheme = Registry.spec "leaky" });
      ("epoch", { spec with Workload.scheme = Registry.spec "epoch" });
      ("hazard", { spec with Workload.scheme = Registry.spec "hazard" });
      ("debra", { spec with Workload.scheme = Registry.spec "debra" });
      ("hyaline", { spec with Workload.scheme = Registry.spec "hyaline" });
      ( "threadscan",
        { spec with Workload.scheme = Registry.spec ~buffer:ts_buffer "threadscan" }
      );
    ]
  in
  List.mapi
    (fun idx plan_str ->
      let plan =
        match Fault_plan.parse plan_str with
        | Ok p -> p
        | Error e -> invalid_arg ("chaos-recovery: " ^ e)
      in
      let forever = Fault_plan.parks_forever plan and crash = crashes plan in
      let cells =
        List.map
          (fun (label, s) ->
            (* An unreleased stall-forever parks its victim until the
               watchdog fires, so every scheme's *run* wedges on that row
               by design; under a crash only schemes whose registry entry
               says they wedge under a stall (quiescence waiters) do.  Any other
               wedge may be a loaded machine starving the run, so it is
               rerun once and the rerun is kept, wedged or not. *)
            let caps = (Registry.descriptor s.Workload.scheme).Registry.caps in
            let wedge_expected = forever || (crash && caps.Registry.wedges_under_stall) in
            let s = { s with Workload.chaos = plan } in
            let r = Workload.run s in
            (label, if r.Workload.wedged && not wedge_expected then Workload.run s else r))
          series
      in
      { threads = idx + 1; cells })
    plans

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let degradation_summary points =
  Fmt.pr "@.== ablate-crash == (1 worker crashes mid-operation at 25%% of the base horizon)@.";
  Fmt.pr "%-9s %-14s %12s %12s %10s  %s@." "horizon" "scheme" "retired" "outstanding"
    "throughput" "degradation";
  List.iter
    (fun { threads = mult; cells } ->
      List.iter
        (fun (label, r) ->
          let get k = try List.assoc k r.Workload.extras with Not_found -> 0 in
          let detail =
            if List.mem_assoc "reaps" r.Workload.extras then
              Fmt.str "reaps=%d blind-phases=%d proxy-scans=%d adopted=%d" (get "reaps")
                (get "ack-timeouts") (get "proxy-scans") (get "adopted")
            else
              Fmt.str "quiescence-gaveups=%d unreclaimed-peak=%d" (get "quiescence-gaveups")
                (get "unreclaimed-peak")
          in
          Fmt.pr "%-9s %-14s %12d %12d %10.1f  %s@." (Fmt.str "%dx" mult) label r.Workload.retired
            r.Workload.outstanding r.Workload.throughput detail)
        cells)
    points;
  (* The wedge, stated as a number: how outstanding scales from the shortest
     to the longest run of each scheme. *)
  (match (points, List.rev points) with
  | first :: _, last :: _ ->
      List.iter
        (fun (label, r1) ->
          match List.assoc_opt label last.cells with
          | Some r4 ->
              Fmt.pr "summary: %s outstanding after flush: %d at 1x -> %d at %dx@." label
                r1.Workload.outstanding r4.Workload.outstanding last.threads
          | None -> ())
        first.cells
  | _ -> ());
  Fmt.pr
    "(outstanding = retired - freed after flush; epoch cannot reclaim anything retired after \
     the crash, threadscan reaps the corpse and keeps the count bounded)@."

let chaos_summary points =
  Fmt.pr "@.== chaos-recovery == (native fault injection; times are wall-clock ms after the fault)@.";
  Fmt.pr "%-24s %-12s %-6s %9s %9s %10s %10s %8s %12s@." "plan" "scheme" "wedged" "baseline"
    "peak" "takeover" "recover" "storm" "outstanding";
  let ms ns = if ns < 0 then "-" else Fmt.str "%.1f" (float_of_int ns /. 1e6) in
  List.iter
    (fun { cells; _ } ->
      List.iter
        (fun (label, r) ->
          match r.Workload.chaos with
          | None -> ()
          | Some c ->
              Fmt.pr "%-24s %-12s %-6b %9d %9d %10s %10s %8d %12d@."
                (Fault_plan.to_string r.Workload.spec.Workload.chaos)
                label r.Workload.wedged c.Chaos.baseline_outstanding c.Chaos.peak_outstanding
                (ms c.Chaos.takeover_after) (ms c.Chaos.recover_after) c.Chaos.storm_signals
                r.Workload.outstanding)
        cells)
    points;
  Fmt.pr
    "(baseline/peak/outstanding = retired - freed; takeover = first degradation-ladder \
     activity; recover = outstanding back at the pre-fault baseline, i.e. MTTR; storm = \
     scheme signals spent recovering; wedged = the liveness watchdog had to kill the run)@."

(* The quiesce oracle behind the chaos-recovery CI gate: one message per
   violated recovery invariant. *)
let chaos_oracle points =
  let violations = ref [] in
  let bad fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun { cells; _ } ->
      List.iter
        (fun (label, r) ->
          let plan = r.Workload.spec.Workload.chaos in
          let forever = Fault_plan.parks_forever plan and crash = crashes plan in
          let cell = Fmt.str "%s/%s" (Fault_plan.to_string plan) label in
          if r.Workload.faults > 0 then
            bad "%s: %d memory faults (must be 0)" cell r.Workload.faults;
          match r.Workload.chaos with
          | None -> bad "%s: no chaos report was produced" cell
          | Some c -> (
              if c.Chaos.fault_at < 0 then bad "%s: the chaos plan never fired" cell;
              match (Registry.descriptor r.Workload.spec.Workload.scheme).Registry.chaos with
              | Registry.Self_healing ->
                  if forever then begin
                    (* the frozen victim never finishes its horizon, so
                       the watchdog ends the run — but reclamation must
                       have kept pace around the corpse in the meantime *)
                    if c.Chaos.takeover_after < 0 && c.Chaos.recover_after < 0 then
                      bad
                        "%s: neither ladder activity nor memory recovery under stall-forever"
                        cell
                  end
                  else begin
                    if r.Workload.wedged then
                      bad "%s: watchdog killed a run that should recover" cell;
                    if crash && c.Chaos.takeover_after < 0 then
                      bad "%s: crashed victim was never reaped (no ladder activity)" cell;
                    if c.Chaos.recover_after < 0
                       && r.Workload.outstanding > c.Chaos.baseline_outstanding
                    then
                      bad "%s: outstanding %d never returned to the pre-fault baseline %d"
                        cell r.Workload.outstanding c.Chaos.baseline_outstanding
                  end
              | Registry.Crash_healing ->
                  (* the recovery machinery covers crashed threads only
                     (proxy work on the corpse's behalf); a stalled
                     reader legitimately pins memory until it resumes,
                     so the stall rows assert nothing beyond no-wedge *)
                  if crash then begin
                    if r.Workload.wedged then
                      bad "%s: watchdog killed a run that should recover" cell;
                    if c.Chaos.takeover_after < 0 then
                      bad "%s: crashed victim's references were never dropped (no proxy \
                           activity)"
                        cell;
                    if c.Chaos.recover_after < 0
                       && r.Workload.outstanding > c.Chaos.baseline_outstanding
                    then
                      bad "%s: outstanding %d never returned to the pre-fault baseline %d"
                        cell r.Workload.outstanding c.Chaos.baseline_outstanding
                  end
                  else if (not forever) && r.Workload.wedged then
                    bad "%s: wedged under a bounded stall it should survive" cell
              | Registry.Quiescence_bound ->
                  if (crash || forever) && not r.Workload.wedged then
                    bad "%s: a quiescence-bound scheme was expected to wedge but the run \
                         finished"
                      cell;
                  (* not recover_after: a batch already quiescent at fault
                     time may still free and dip outstanding for an
                     instant — the durable leak is the datum *)
                  if (crash || forever)
                     && r.Workload.outstanding < c.Chaos.baseline_outstanding
                  then
                    bad "%s: the durable leak %d ended below the pre-fault baseline %d under \
                         a plan that starves quiescence"
                      cell r.Workload.outstanding c.Chaos.baseline_outstanding;
                  if (not (crash || forever)) && r.Workload.wedged then
                    bad "%s: wedged under a bounded stall it should survive" cell
              | Registry.Unchecked -> ()))
        cells)
    points;
  List.rev !violations

(* The sweep oracle: a fault-free run of a scheme that reclaims must
   leave nothing retired-but-unfreed after its flush.  Memory faults
   already fail the run itself. *)
let sweep_violations points =
  List.concat_map
    (fun { threads; cells } ->
      List.filter_map
        (fun (label, r) ->
          let spec = r.Workload.spec in
          if
            spec.Workload.chaos = []
            && (Registry.descriptor spec.Workload.scheme).Registry.caps.Registry.reclaims
            && r.Workload.outstanding <> 0
          then
            Some
              (Fmt.str "%d threads, %s: outstanding = %d after flush" threads label
                 r.Workload.outstanding)
          else None)
        cells)
    points

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled emission (the toolchain here has no JSON library): the
   labels are all [a-z0-9-=()] so escaping only has to cover the
   characters that could ever break the framing. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The scheme's tuning parameters, emitted separately so the scheme id
   itself stays the stable registry name (no "threadscan(1024)"
   drift between tables, CLI and JSON). *)
let json_params_suffix (r : Workload.result) =
  match Registry.params_assoc r.Workload.spec.Workload.scheme with
  | [] -> ""
  | kv ->
      Fmt.str ", \"params\": { %s }"
        (String.concat ", "
           (List.map (fun (k, v) -> Fmt.str "\"%s\": %d" (json_escape k) v) kv))

(* The allocator's magazine counters ride the extras channel; emitted
   only when the run carried them. *)
let json_mag_suffix (r : Workload.result) =
  let get k = List.assoc_opt k r.Workload.extras in
  match (get "mag-hits", get "mag-misses") with
  | Some hits, Some misses ->
      let v k = Option.value (get k) ~default:0 in
      Fmt.str ", \"mag_hits\": %d, \"mag_misses\": %d, \"mag_refills\": %d, \"mag_flushes\": %d"
        hits misses (v "mag-refills") (v "mag-flushes")
  | _ -> ""

(* Appended to a cell only when that run carried a chaos plan, so every
   pre-existing consumer of the JSON sees unchanged bytes.  The three
   times are in the chaos clock's unit: ns natively, virtual cycles on
   the sim. *)
let json_chaos_suffix ~backend (r : Workload.result) =
  match r.Workload.chaos with
  | None -> ""
  | Some c ->
      let u = match backend with Workload.Backend_sim -> "cycles" | _ -> "ns" in
      Fmt.str
        ", \"wedged\": %b, \"chaos_plan\": \"%s\", \"fault_at_%s\": %d, \
         \"baseline_outstanding\": %d, \"peak_outstanding\": %d, \"takeover_%s\": %d, \
         \"recover_%s\": %d, \"storm_signals\": %d"
        r.Workload.wedged
        (json_escape (Fault_plan.to_string r.Workload.spec.Workload.chaos))
        u c.Chaos.fault_at c.Chaos.baseline_outstanding c.Chaos.peak_outstanding u
        c.Chaos.takeover_after u c.Chaos.recover_after c.Chaos.storm_signals

let json_of_points ~target ~backend ~scale points =
  let buf = Buffer.create 4096 in
  let scale_name = match scale with Quick -> "quick" | Full -> "full" | Paper -> "paper" in
  Buffer.add_string buf
    (Fmt.str "{\n  \"target\": \"%s\",\n  \"backend\": \"%s\",\n  \"scale\": \"%s\",\n  \"points\": [\n"
       (json_escape target)
       (json_escape (Workload.backend_to_string backend))
       scale_name);
  List.iteri
    (fun pi { threads; cells } ->
      Buffer.add_string buf (Fmt.str "    { \"threads\": %d, \"cells\": [\n" threads);
      List.iteri
        (fun ci (label, (r : Workload.result)) ->
          Buffer.add_string buf
            (Fmt.str
               "      { \"series\": \"%s\", \"scheme\": \"%s\"%s, \"ds\": \"%s\", \"ops\": %d, \
                \"throughput\": %.3f, \"retired\": %d, \"freed\": %d, \"outstanding\": %d, \"faults\": %d, \
                \"signals\": %d%s%s }%s\n"
               (json_escape label)
               (json_escape (Registry.label r.Workload.spec.Workload.scheme))
               (json_params_suffix r)
               (json_escape (Workload.ds_kind_to_string r.Workload.spec.Workload.ds))
               r.Workload.ops r.Workload.throughput r.Workload.retired r.Workload.freed
               r.Workload.outstanding r.Workload.faults r.Workload.signals_delivered
               (json_mag_suffix r) (json_chaos_suffix ~backend r)
               (if ci = List.length cells - 1 then "" else ",")))
        cells;
      Buffer.add_string buf
        (Fmt.str "    ] }%s\n" (if pi = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~target ~backend ~scale points =
  let file = Fmt.str "BENCH_%s.json" target in
  let oc = open_out file in
  output_string oc (json_of_points ~target ~backend ~scale points);
  close_out oc;
  file

let run_and_print ~title ?(backend = Workload.Backend_sim) ?(json = false) f scale =
  let points = f ~backend scale in
  if title = "ablate-crash" then degradation_summary points
  else if title = "chaos-recovery" then chaos_summary points
  else print_points ~title points;
  if json then begin
    let file = write_json ~target:title ~backend ~scale points in
    Fmt.pr "wrote %s@." file
  end;
  (* after the JSON is on disk, so a failing gate still leaves the data *)
  let violations = sweep_violations points in
  List.iter (fun v -> Fmt.pr "oracle violation: %s@." v) violations;
  let violations =
    if title <> "chaos-recovery" then violations
    else
      match chaos_oracle points with
      | [] ->
          Fmt.pr "oracle: all recovery invariants held (0 faults, 0 unexpected wedges)@.";
          violations
      | vs ->
          List.iter (fun v -> Fmt.pr "oracle violation: %s@." v) vs;
          violations @ vs
  in
  ratio_summary points ~num:"threadscan" ~den:"hazard";
  ratio_summary points ~num:"threadscan" ~den:"leaky";
  if String.length title >= 4 && String.sub title 0 4 = "fig4" then
    (* §6: oversubscribed, "the reclaimer must wait for all of them" — show
       how long collect phases actually held the reclaimer *)
    List.iter
      (fun { threads; cells } ->
        match List.assoc_opt "threadscan" cells with
        | Some r ->
            let get k = try List.assoc k r.Workload.extras with Not_found -> 0 in
            Fmt.pr "summary: threadscan at %d threads: %d signals, avg phase %d cycles, max %d@."
              threads r.Workload.signals_delivered (get "avg-phase-latency")
              (get "max-phase-latency")
        | None -> ())
      points;
  violations

let names =
  [
    ("fig3-list", fun ~backend s -> fig3 ~backend s Workload.List_ds);
    ("fig3-hash", fun ~backend s -> fig3 ~backend s Workload.Hash_ds);
    ("fig3-skip", fun ~backend s -> fig3 ~backend s Workload.Skip_ds);
    ("fig4-list", fun ~backend s -> fig4 ~backend s Workload.List_ds);
    ("fig4-hash", fun ~backend s -> fig4 ~backend s Workload.Hash_ds);
    ("fig4-skip", fun ~backend s -> fig4 ~backend s Workload.Skip_ds);
    ("ablate-buffer", ablate_buffer);
    ("ablate-slow-epoch", ablate_slow_epoch);
    ("ablate-crash", ablate_crash);
    ("chaos-recovery", chaos_recovery);
  ]
