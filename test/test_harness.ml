module Workload = Ts_harness.Workload
module Experiment = Ts_harness.Experiment
module Registry = Ts_scheme.Registry

let check = Alcotest.(check int)

let spec =
  {
    Workload.default_spec with
    threads = 4;
    horizon = 250_000;
    init_size = 64;
    key_range = 128;
    scheme = Registry.spec ~buffer:8 "threadscan";
  }

let test_basic_run () =
  let r = Workload.run spec in
  Alcotest.(check bool) "did work" true (r.Workload.ops > 0);
  check "no faults" 0 r.Workload.faults;
  check "no leaks" 0 r.Workload.outstanding;
  Alcotest.(check bool) "reclamation happened" true (r.Workload.freed > 0);
  Alcotest.(check bool) "throughput consistent" true
    (abs_float
       (r.Workload.throughput
       -. (float_of_int r.Workload.ops *. 1e6 /. float_of_int spec.Workload.horizon))
    < 1.0)

let test_deterministic () =
  let a = Workload.run spec and b = Workload.run spec in
  check "ops equal" a.Workload.ops b.Workload.ops;
  check "retired equal" a.Workload.retired b.Workload.retired;
  check "elapsed equal" a.Workload.elapsed b.Workload.elapsed

let test_seed_matters () =
  let a = Workload.run spec in
  let b = Workload.run { spec with Workload.seed = spec.Workload.seed + 1 } in
  Alcotest.(check bool) "different schedule, different ops" true
    (a.Workload.ops <> b.Workload.ops)

let test_all_schemes_clean () =
  List.iter
    (fun scheme ->
      let name = Registry.describe scheme in
      let r = Workload.run { spec with Workload.scheme } in
      Alcotest.(check bool) (name ^ " did work") true (r.Workload.ops > 0);
      check (name ^ " no faults") 0 r.Workload.faults;
      if (Registry.descriptor scheme).Registry.caps.Registry.reclaims then
        check (name ^ " no leaks") 0 r.Workload.outstanding)
    [
      Registry.spec "leaky";
      Registry.spec ~buffer:16 "threadscan";
      Registry.spec ~batch:8 "epoch";
      Registry.spec "hazard";
      Registry.spec "epoch";
      Registry.spec ~delay:30_000 "slow-epoch";
      Registry.spec "stacktrack";
      Registry.spec "debra";
      Registry.spec "hyaline";
    ]

let test_all_structures_clean () =
  List.iter
    (fun ds ->
      let r = Workload.run { spec with Workload.ds } in
      Alcotest.(check bool) (Workload.ds_kind_to_string ds ^ " did work") true (r.Workload.ops > 0);
      check (Workload.ds_kind_to_string ds ^ " no leaks") 0 r.Workload.outstanding)
    [ Workload.List_ds; Workload.Hash_ds; Workload.Skip_ds ]

let test_leaky_leaks () =
  let r = Workload.run { spec with Workload.scheme = Registry.spec "leaky" } in
  Alcotest.(check bool) "retired nodes stay live" true
    (r.Workload.outstanding = r.Workload.retired && r.Workload.retired > 0)

let test_read_only_workload_retires_nothing () =
  let r = Workload.run { spec with Workload.update_ratio = 0.0 } in
  check "no retires" 0 r.Workload.retired;
  Alcotest.(check bool) "still did work" true (r.Workload.ops > 0)

let test_scaling_undersubscribed () =
  let tput threads =
    (Workload.run { spec with Workload.threads; scheme = Registry.spec "leaky" }).Workload
      .throughput
  in
  let t1 = tput 1 and t4 = tput 4 in
  Alcotest.(check bool) (Fmt.str "4 threads > 2x 1 thread (%.0f vs %.0f)" t4 t1) true
    (t4 > 2.0 *. t1)

let test_oversubscription_switches () =
  let r = Workload.run { spec with Workload.threads = 8; cores = 2; quantum = 5_000 } in
  Alcotest.(check bool) "context switches happened" true (r.Workload.ctx_switches > 0);
  check "still no leaks" 0 r.Workload.outstanding

let test_signals_only_with_threadscan () =
  let ts = Workload.run { spec with Workload.scheme = Registry.spec ~buffer:4 "threadscan" } in
  let ep = Workload.run { spec with Workload.scheme = Registry.spec "epoch" } in
  Alcotest.(check bool) "threadscan signals" true (ts.Workload.signals_delivered > 0);
  check "epoch sends none" 0 ep.Workload.signals_delivered

let test_stack_depth_scanned () =
  let busy = { spec with Workload.scheme = Registry.spec ~buffer:4 "threadscan" } in
  let shallow = Workload.run { busy with Workload.stack_depth = 0 } in
  let deep = Workload.run { busy with Workload.stack_depth = 180 } in
  let words r = try List.assoc "scan-words" r.Workload.extras with Not_found -> 0 in
  Alcotest.(check bool)
    (Fmt.str "deeper stacks mean bigger scans (%d vs %d)" (words deep) (words shallow))
    true
    (words deep > words shallow)

(* A self-inflicted chaos crash lands inside an operation bracket: the
   corpse's epoch stays announced, so patient epoch can never again free
   what was retired after it, while ThreadScan reaps the corpse once and
   flushes to zero. *)
let test_chaos_crash_inside_op () =
  let chaos =
    [ { Ts_util.Fault_plan.victims = 1; at = At (spec.Workload.horizon / 4); event = Crash } ]
  in
  let run scheme = Workload.run { spec with Workload.chaos; scheme } in
  let ep = run (Registry.spec "patient-epoch") in
  Alcotest.(check bool) "patient-epoch leaks past the corpse" true (ep.Workload.outstanding > 0);
  let ts = run spec.Workload.scheme in
  check "threadscan reaps the corpse once" 1 (List.assoc "reaps" ts.Workload.extras);
  check "threadscan flushes to zero" 0 ts.Workload.outstanding

let test_names_cover_every_figure () =
  let names = List.map fst Experiment.names in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [
      "fig3-list"; "fig3-hash"; "fig3-skip"; "fig4-list"; "fig4-hash"; "fig4-skip";
      "ablate-buffer"; "ablate-slow-epoch";
    ]

let test_scale_parsing () =
  Alcotest.(check bool) "quick" true (Experiment.scale_of_string "quick" = Some Experiment.Quick);
  Alcotest.(check bool) "full" true (Experiment.scale_of_string "full" = Some Experiment.Full);
  Alcotest.(check bool) "paper" true (Experiment.scale_of_string "paper" = Some Experiment.Paper);
  Alcotest.(check bool) "junk" true (Experiment.scale_of_string "banana" = None)

(* The sweep oracle on a real quick point: leaky's outstanding nodes are
   exempt (it does not reclaim), every reclaiming scheme flushed to zero;
   the same point with one threadscan cell leaking one node fails. *)
let test_sweep_oracle () =
  let point =
    List.hd (Experiment.fig3 ~backend:Workload.Backend_sim Experiment.Quick Workload.Hash_ds)
  in
  let leaky = List.assoc "leaky" point.Experiment.cells in
  Alcotest.(check bool) "leaky leaks here" true (leaky.Workload.outstanding > 0);
  Alcotest.(check (list string)) "real point is clean" [] (Experiment.sweep_violations [ point ]);
  let leaking =
    {
      point with
      Experiment.cells =
        List.map
          (fun (label, r) ->
            (label, if label = "threadscan" then { r with Workload.outstanding = 1 } else r))
          point.Experiment.cells;
    }
  in
  let expected =
    [ Fmt.str "%d threads, threadscan: outstanding = 1 after flush" point.Experiment.threads ]
  in
  Alcotest.(check (list string))
    "one leaking threadscan cell" expected
    (Experiment.sweep_violations [ leaking ]);
  (* A sweep hands its violations back as a verdict (tsbench exits 1 on
     it) instead of raising. *)
  Alcotest.(check (list string))
    "run_and_print returns the violation" expected
    (Experiment.run_and_print ~title:"synthetic-leak" (fun ~backend:_ _ -> [ leaking ])
       Experiment.Quick)

(* Canonical-name stability: the id a scheme prints is the same one the
   CLIs parse — no parameter suffixes leak into labels; tuning rides in a
   separate params assoc. *)
let test_scheme_names () =
  Alcotest.(check string) "list" "list" (Workload.ds_kind_to_string Workload.List_ds);
  Alcotest.(check string) "ts label" "threadscan"
    (Registry.label (Registry.spec ~buffer:8 "threadscan"));
  Alcotest.(check string) "alias resolves" "threadscan" (Registry.label (Registry.spec "ts"));
  Alcotest.(check bool) "params ride separately" true
    (Registry.params_assoc (Registry.spec ~buffer:8 "threadscan") = [ ("buffer", 8) ]);
  Alcotest.(check string) "describe" "slow-epoch delay=30000 batch=4"
    (Registry.describe (Registry.spec ~delay:30_000 ~batch:4 "slow-epoch"));
  Alcotest.(check string) "slow" "slow-epoch" (Registry.label (Registry.spec ~delay:1 "slow-epoch"));
  Alcotest.(check bool) "unknown rejected" true (Result.is_error (Registry.canonical "banana"))

let () =
  Alcotest.run "ts_harness"
    [
      ( "workload",
        [
          Alcotest.test_case "basic run" `Quick test_basic_run;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed matters" `Quick test_seed_matters;
          Alcotest.test_case "all schemes clean" `Quick test_all_schemes_clean;
          Alcotest.test_case "all structures clean" `Quick test_all_structures_clean;
          Alcotest.test_case "leaky leaks" `Quick test_leaky_leaks;
          Alcotest.test_case "read-only retires nothing" `Quick
            test_read_only_workload_retires_nothing;
          Alcotest.test_case "scaling undersubscribed" `Quick test_scaling_undersubscribed;
          Alcotest.test_case "oversubscription switches" `Quick test_oversubscription_switches;
          Alcotest.test_case "signals only with threadscan" `Quick
            test_signals_only_with_threadscan;
          Alcotest.test_case "stack depth scanned" `Quick test_stack_depth_scanned;
          Alcotest.test_case "chaos crash lands inside an operation" `Quick
            test_chaos_crash_inside_op;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "every figure has a target" `Quick test_names_cover_every_figure;
          Alcotest.test_case "scale parsing" `Quick test_scale_parsing;
          Alcotest.test_case "sweep oracle" `Quick test_sweep_oracle;
          Alcotest.test_case "scheme names" `Quick test_scheme_names;
        ] );
    ]
