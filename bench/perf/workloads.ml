(* The five workloads.  README.md gives the reason for each; the [why]
   strings here are the one-line versions BENCHMARK.json carries. *)

type kind = Native of Native.spec | Check_sweep | Sim_scale

type t = { name : string; kind : kind; why : string }

let all =
  [
    {
      name = "hash-churn";
      kind =
        Native
          {
            Native.ds = Native.Hash;
            update_pct = 100;
            buffer = 64;
            frame = 64;
            batch = 12_000_000;
            budgets = None;
          };
      why = "every op allocates or retires: heap, retire fast path and phase cadence dominate";
    };
    {
      name = "scan-heavy";
      kind =
        Native
          {
            Native.ds = Native.Hash;
            update_pct = 100;
            buffer = 16;
            frame = 2048;
            batch = 3_000_000;
            budgets = Native.widened;
          };
      why = "same layers, but the fixed per-phase cost (TS-Scan, signal to ack) dominates";
    };
    {
      name = "list-mixed";
      kind =
        Native
          {
            Native.ds = Native.List;
            update_pct = 20;
            buffer = 64;
            frame = 64;
            batch = 300_000;
            budgets = None;
          };
      why = "reads beside writes: traversal dominates and reclamation is under 1%";
    };
    {
      name = "check-sweep";
      kind = Check_sweep;
      why = "checker cost: 2000 schedules each of list and churn through Explore.sweep";
    };
    {
      name = "sim-scale64";
      kind = Sim_scale;
      why = "simulated 64 threads on 64 cores: collect over 64 buffers, 63-way signal fan-out";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [smoke] shrinks every workload to a seconds-long run with the same
   oracles: 0.5 s regions, 50 schedules, 1 M simulated cycles. *)
let run w ~seed ~seconds ~trace ~smoke =
  match w.kind with
  | Native spec when trace ->
      Native.measure_traced spec ~seed ~seconds:(if smoke then 0.5 else seconds)
  | Native spec -> (
      let o = Native.measure spec ~seed ~seconds:(if smoke then 0.5 else seconds) in
      match Simwl.twin spec ~horizon:(if smoke then 1_000_000 else 10_000_000) with
      | Ok v -> { o with e2e = o.e2e @ [ ("sim_ops_per_mcycle", v) ] }
      | Error e ->
          {
            o with
            attempted = o.attempted + 1;
            failed = o.failed + 1;
            failure = Some (Option.fold ~none:e ~some:(fun f -> f ^ "; " ^ e) o.failure);
          })
  | Check_sweep when smoke -> Simwl.check_sweep ~seconds:0.0 ~schedules:50
  | Check_sweep -> Simwl.check_sweep ~seconds ~schedules:2000
  | Sim_scale when smoke -> Simwl.sim_scale ~seconds:0.0 ~horizon:1_000_000 ~family:1
  | Sim_scale -> Simwl.sim_scale ~seconds ~horizon:20_000_000 ~family:5
