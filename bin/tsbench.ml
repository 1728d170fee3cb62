(* tsbench: command-line driver for the ThreadScan reproduction.

   - `tsbench run`     one fully parameterised workload, verbose result
   - `tsbench sweep`   one named experiment (fig3-list .. chaos-recovery)
   - `tsbench all`     every experiment at a given scale
   - `tsbench list`    available experiment names                          *)

module Workload = Ts_harness.Workload
module Experiment = Ts_harness.Experiment
module Registry = Ts_scheme.Registry
open Cmdliner

(* ------------------------------ converters ------------------------------ *)

let ds_conv =
  let parse = function
    | "list" -> Ok Workload.List_ds
    | "hash" -> Ok Workload.Hash_ds
    | "skip" | "skiplist" -> Ok Workload.Skip_ds
    | s -> Error (`Msg (Fmt.str "unknown data structure %S (list|hash|skip)" s))
  in
  Arg.conv (parse, fun ppf ds -> Fmt.string ppf (Workload.ds_kind_to_string ds))

let scale_conv =
  let parse s =
    match Experiment.scale_of_string s with
    | Some sc -> Ok sc
    | None -> Error (`Msg (Fmt.str "unknown scale %S (quick|full|paper)" s))
  in
  Arg.conv
    ( parse,
      fun ppf s ->
        Fmt.string ppf
          (match s with
          | Experiment.Quick -> "quick"
          | Experiment.Full -> "full"
          | Experiment.Paper -> "paper") )

let backend_conv =
  let parse = function
    | "sim" -> Ok `Sim
    | "native" -> Ok `Native
    | s -> Error (`Msg (Fmt.str "unknown backend %S (sim|native)" s))
  in
  Arg.conv (parse, fun ppf b -> Fmt.string ppf (match b with `Sim -> "sim" | `Native -> "native"))

let backend_arg =
  Arg.(
    value & opt backend_conv `Sim
    & info [ "b"; "backend" ]
        ~doc:"Execution backend: $(b,sim) (deterministic simulator) or $(b,native) (OCaml 5 domains).")

let pool_arg =
  Arg.(
    value & opt int 0
    & info [ "pool" ]
        ~doc:"Native backend only: domain pool size (0 = one domain per thread, capped at the \
              recommended domain count).")

let make_backend backend pool =
  match backend with `Sim -> Workload.Backend_sim | `Native -> Workload.Backend_native { pool }

(* Scheme names resolve through the registry (ids and aliases alike);
   the per-scheme tuning flags ride along as registry params and are
   ignored by schemes they do not apply to. *)
let scheme_conv ~buffer ~delay name =
  match Registry.canonical name with
  | Error e -> Error (`Msg e)
  | Ok id -> Ok (Registry.spec ~buffer ~delay id)

(* A fraction of operations, so it must lie in [0, 1]. *)
let ratio_conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | _ -> Error (`Msg (Fmt.str "%S is not a ratio in [0, 1]" s))
  in
  Arg.conv (parse, Fmt.float)

(* -------------------------------- run ----------------------------------- *)

let print_result (r : Workload.result) =
  let s = r.spec in
  Fmt.pr "workload:   %s + %s, %d threads on %s cores@."
    (Workload.ds_kind_to_string s.ds)
    (Registry.describe s.scheme)
    s.threads
    (if s.cores <= 0 then "dedicated" else string_of_int s.cores);
  Fmt.pr "            init=%d range=%d updates=%.0f%% horizon=%d cycles seed=%d@." s.init_size
    s.key_range (100. *. s.update_ratio) s.horizon s.seed;
  Fmt.pr "ops:        %d (%.1f per Mcycle)@." r.ops r.throughput;
  Fmt.pr "reclaim:    retired=%d freed=%d outstanding=%d peak-live=%d@." r.retired r.freed
    r.outstanding r.peak_live_blocks;
  Fmt.pr "%-11s elapsed=%d signals=%d switches=%d faults=%d@."
    (match r.spec.backend with Workload.Backend_sim -> "simulator:" | _ -> "native:")
    r.elapsed r.signals_delivered r.ctx_switches r.faults;
  if r.extras <> [] then begin
    Fmt.pr "scheme:    ";
    List.iter (fun (k, v) -> Fmt.pr " %s=%d" k v) r.extras;
    Fmt.pr "@."
  end;
  if r.wedged then
    Fmt.pr "wedged:     liveness watchdog killed the run%a@."
      Fmt.(option (any ":@.            " ++ string))
      r.post_mortem;
  match r.chaos with
  | None -> ()
  | Some c ->
      (* ns on the native backend, virtual cycles on the sim *)
      let unit = match s.backend with Workload.Backend_sim -> "cycles" | _ -> "ns" in
      let t v = if v < 0 then "-" else Fmt.str "%d%s" v unit in
      Fmt.pr "chaos:      plan=%s fired=%d fault@%s@."
        (Ts_util.Fault_plan.to_string s.chaos)
        c.Ts_harness.Chaos.clauses_fired
        (t c.Ts_harness.Chaos.fault_at);
      Fmt.pr "recovery:   baseline=%d peak=%d takeover=%s recover=%s storm=%d@."
        c.Ts_harness.Chaos.baseline_outstanding c.Ts_harness.Chaos.peak_outstanding
        (t c.Ts_harness.Chaos.takeover_after)
        (t c.Ts_harness.Chaos.recover_after)
        c.Ts_harness.Chaos.storm_signals

let run_cmd =
  let ds =
    Arg.(value & opt ds_conv Workload.List_ds & info [ "d"; "ds" ] ~doc:"Data structure (list|hash|skip).")
  in
  let scheme_name =
    Arg.(
      value & opt string "threadscan"
      & info [ "s"; "scheme" ]
          ~doc:(Fmt.str "Reclamation scheme: %s." (Registry.names_doc ())))
  in
  let threads = Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Worker threads.") in
  let cores =
    Arg.(value & opt int 0 & info [ "c"; "cores" ] ~doc:"Simulated cores (0 = one per thread).")
  in
  let horizon = Arg.(value & opt int 400_000 & info [ "horizon" ] ~doc:"Cycles per run.") in
  let init = Arg.(value & opt int 128 & info [ "init" ] ~doc:"Initial structure size.") in
  let range = Arg.(value & opt int 256 & info [ "range" ] ~doc:"Key range.") in
  let update =
    Arg.(
      value & opt ratio_conv 0.2
      & info [ "update" ] ~doc:"Update ratio, between 0 and 1 (paper: 0.2).")
  in
  let buffer =
    Arg.(value & opt int 32 & info [ "buffer" ] ~doc:"ThreadScan per-thread delete buffer.")
  in
  let delay =
    Arg.(value & opt int 600_000 & info [ "delay" ] ~doc:"Slow-epoch errant delay (cycles).")
  in
  let padding = Arg.(value & opt int 0 & info [ "padding" ] ~doc:"Extra node words.") in
  let seed = Arg.(value & opt int 0xBE5 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Run the workload twice — plain, then under the happens-before + lifecycle \
             checkers — and report the detector's findings and host-time overhead.")
  in
  let chaos =
    Arg.(
      value & opt string "none"
      & info [ "chaos" ]
          ~doc:
            "Fault plan to inject, e.g. $(b,crash:1@100000) or \
             $(b,stall:2@80000:forever,release:2@500ms): comma-separated clauses \
             EVENT:VICTIMS@TRIGGER, where the trigger is virtual cycles or (native only) \
             $(b,Nms) wall-clock; events are crash, stall (bounded, $(b,:forever)), release, \
             drop-signals:N, delay-signals:CYCLES.  Recovery metrics are reported after the \
             run.")
  in
  let watchdog =
    Arg.(
      value & opt int 0
      & info [ "watchdog" ]
          ~doc:
            "Native backend only: liveness watchdog budget in milliseconds — a run still \
             going after this long is killed and reported as wedged with a post-mortem \
             (0 = off).  Required for chaos plans that starve plain epoch forever.")
  in
  let action ds scheme_name threads cores horizon init range update buffer delay padding seed
      analyze chaos watchdog backend pool =
    match
      ( scheme_conv ~buffer ~delay scheme_name,
        Ts_util.Fault_plan.parse chaos )
    with
    | Error (`Msg m), _ -> `Error (false, m)
    | _, Error m -> `Error (false, Fmt.str "bad --chaos plan: %s" m)
    | Ok scheme, Ok chaos ->
        let spec =
          {
            Workload.default_spec with
            ds;
            scheme;
            threads;
            cores;
            horizon;
            init_size = init;
            key_range = range;
            update_ratio = update;
            padding;
            seed;
            chaos;
            watchdog_ms = watchdog;
            backend = make_backend backend pool;
          }
        in
        if not analyze then begin
          print_result (Workload.run spec);
          `Ok ()
        end
        else begin
          (* Paired runs: the plain result is the baseline the analyzed
             run's host time is compared against.  (Virtual throughput is
             not comparable: the analyzer adds ops to the schedule.) *)
          let time f =
            let t0 = Sys.time () in
            let r = f () in
            (r, Sys.time () -. t0)
          in
          let r_plain, t_plain = time (fun () -> Workload.run spec) in
          let an = Ts_analyze.Analyze.attach ~notes:false () in
          let _, t_an =
            Fun.protect
              ~finally:(fun () -> Ts_analyze.Analyze.detach an)
              (fun () ->
                time (fun () ->
                    Workload.run
                      { spec with Workload.smr_wrap = Some (Ts_analyze.Analyze.wrap_smr an) }))
          in
          print_result r_plain;
          Fmt.pr "@.analysis:   %d ops observed, %d allocations tracked@."
            (Ts_analyze.Analyze.ops_seen an)
            (Ts_analyze.Analyze.allocs_seen an);
          Fmt.pr "            %d races, %d lifecycle violations (+%d beyond cap)@."
            (List.length (Ts_analyze.Analyze.races an))
            (List.length (Ts_analyze.Analyze.lifecycle_violations an))
            (Ts_analyze.Analyze.dropped an);
          List.iter
            (fun v -> Fmt.pr "            %a@." Ts_analyze.Analyze.pp_violation v)
            (Ts_analyze.Analyze.violations an);
          Fmt.pr "overhead:   %.3fs plain -> %.3fs analyzed (%.1fx)@." t_plain t_an
            (if t_plain > 0.0 then t_an /. t_plain else 0.0);
          if Ts_analyze.Analyze.violations an = [] then `Ok ()
          else begin
            Fmt.pr "tsbench: analysis found violations@.";
            exit 1
          end
        end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one fully parameterised workload.")
    Term.(
      ret
        (const action $ ds $ scheme_name $ threads $ cores $ horizon $ init $ range $ update
       $ buffer $ delay $ padding $ seed
       $ analyze $ chaos $ watchdog $ backend_arg $ pool_arg))

(* ------------------------------- sweep ---------------------------------- *)

let scale_arg =
  Arg.(value & opt scale_conv Experiment.Quick & info [ "scale" ] ~doc:"quick|full|paper.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Also write the sweep as $(b,BENCH_<experiment>.json).")

(* A failed oracle is a verdict, not a crash: its lines are already
   printed, so exit 1. *)
let verdict = function
  | [] -> ()
  | vs ->
      Fmt.epr "tsbench: %d oracle violation(s)@." (List.length vs);
      exit 1

let sweep_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc:"Experiment name.")
  in
  let action name scale backend pool json =
    match List.assoc_opt name Experiment.names with
    | None ->
        `Error
          ( false,
            Fmt.str "unknown experiment %S; one of: %s" name
              (String.concat ", " (List.map fst Experiment.names)) )
    | Some f ->
        let violations =
          Experiment.run_and_print ~title:name ~backend:(make_backend backend pool) ~json f scale
        in
        verdict violations;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run one named experiment (a paper figure or an ablation).")
    Term.(
      ret (const action $ exp_name $ scale_arg $ backend_arg $ pool_arg $ json_arg))

let all_cmd =
  let action scale backend pool json =
    let backend = make_backend backend pool in
    verdict
      (List.concat_map
         (fun (name, f) ->
           (* chaos-recovery injects faults into real domains: silently
              meaningless on the simulator, so `all` only runs it natively *)
           if name = "chaos-recovery" && backend = Workload.Backend_sim then begin
             Fmt.pr "@.== chaos-recovery == skipped (native backend only)@.";
             []
           end
           else Experiment.run_and_print ~title:name ~backend ~json f scale)
         Experiment.names)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment at the given scale.")
    Term.(const action $ scale_arg $ backend_arg $ pool_arg $ json_arg)

let list_cmd =
  let action () = List.iter (fun (n, _) -> print_endline n) Experiment.names in
  Cmd.v (Cmd.info "list" ~doc:"List experiment names.") Term.(const action $ const ())

let () =
  let doc = "ThreadScan (SPAA 2015) reproduction benchmarks" in
  exit (Cmd.eval (Cmd.group (Cmd.info "tsbench" ~doc) [ run_cmd; sweep_cmd; all_cmd; list_cmd ]))
