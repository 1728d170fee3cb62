(* tscheck: the systematic concurrency checker's command line.

   - `tscheck sweep`   run a seed family of checked schedules per structure,
                       shrink the first failure to a minimal replay command
   - `tscheck replay`  re-run one fully specified scenario verbosely

   Every run is a pure function of its printed spec: any failure line can be
   reproduced by copy-pasting the replay command. *)

module Scenario = Ts_check.Scenario
module Explore = Ts_check.Explore
module Fork = Ts_check.Fork
module Report = Ts_check.Report
module Registry = Ts_scheme.Registry
open Cmdliner

(* ------------------------------ converters ------------------------------ *)

let ds_conv =
  let parse s =
    match Scenario.ds_of_string s with
    | Some ds -> Ok ds
    | None -> Error (`Msg (Fmt.str "unknown structure %S (list|hash|skip|lazy|churn)" s))
  in
  Arg.conv (parse, fun ppf ds -> Fmt.string ppf (Scenario.ds_to_string ds))

let bug_conv =
  let parse s =
    match Scenario.bug_of_string s with
    | Some b -> Ok b
    | None ->
        Error (`Msg (Fmt.str "unknown seeded bug %S (elide-lock|retire-early|skip-fence)" s))
  in
  Arg.conv (parse, fun ppf b -> Fmt.string ppf (Scenario.bug_to_string b))

let inject_conv =
  let parse s =
    match Scenario.inject_of_string s with
    | Some i -> Ok i
    | None ->
        Error
          (`Msg
             (Fmt.str
                "unknown injection %S \
                 (none|skip-carryover|skip-ack-wait|skip-proxy-scan|crash-mid-phase)"
                s))
  in
  Arg.conv (parse, fun ppf i -> Fmt.string ppf (Scenario.inject_to_string i))

let scheme_conv =
  let parse s =
    match Registry.canonical s with Ok id -> Ok id | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Fmt.string)

let fault_conv =
  let parse s =
    match Ts_util.Fault_plan.parse s with
    | Error e -> Error (`Msg e)
    | Ok plan -> (
        match Scenario.check_fault plan with Ok () -> Ok plan | Error e -> Error (`Msg e))
  in
  Arg.conv (parse, fun ppf f -> Fmt.string ppf (Ts_util.Fault_plan.to_string f))

let policy_conv =
  let parse s =
    match Scenario.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Fmt.str "unknown policy %S (timed|uniform|pct:<d>)" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Scenario.policy_to_string p))

(* ------------------------------ shared args ----------------------------- *)

let threads_arg = Arg.(value & opt int 3 & info [ "t"; "threads" ] ~doc:"Worker threads.")

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Scenario.default.Scenario.scheme
    & info [ "scheme" ]
        ~doc:(Fmt.str "Reclamation scheme to check: %s." (Registry.names_doc ())))

let ops_arg = Arg.(value & opt int 40 & info [ "ops" ] ~doc:"Operations per worker.")

let range_arg = Arg.(value & opt int 32 & info [ "key-range" ] ~doc:"Key range.")

let buffer_arg =
  Arg.(value & opt int 8 & info [ "buffer" ] ~doc:"ThreadScan per-thread delete buffer.")

let help_free_arg =
  Arg.(value & flag & info [ "help-free" ] ~doc:"Check the help-free ThreadScan variant.")

let inject_arg =
  Arg.(
    value
    & opt inject_conv Threadscan.No_fault
    & info [ "inject" ]
        ~doc:
          "Deliberate protocol bug \
           (none|skip-carryover|skip-ack-wait|skip-proxy-scan|crash-mid-phase).")

let fault_arg =
  Arg.(
    value
    & opt fault_conv []
    & info [ "fault" ]
        ~doc:
          "Environment fault the protocol must survive \
           (none|crash:<victims>@<after>|stall:<victims>@<after>:<cycles>).")

let race_arg =
  Arg.(
    value & flag
    & info [ "race" ]
        ~doc:
          "Run the happens-before race detector and SMR lifecycle sanitizer inside every \
           schedule (implied by --bug).")

let bug_arg =
  Arg.(
    value
    & opt (some bug_conv) None
    & info [ "bug" ]
        ~doc:
          "Seed a deliberate synchronization/lifecycle bug \
           (elide-lock|retire-early|skip-fence) and check that the analyzer catches it.  \
           Forces the structure the bug lives in and implies --race.")

(* ----------------------------- fork args -------------------------------- *)

let fork_arg =
  Arg.(
    value & flag
    & info [ "fork" ]
        ~doc:
          "Forked schedule-tree exploration: share schedule prefixes via process \
           snapshots instead of replaying every schedule from its seed (docs/CHECKING.md).")

let prune_arg =
  Arg.(
    value & flag
    & info [ "prune" ]
        ~doc:
          "With --fork: sleep-set pruning — abandon forked alternatives whose first step \
           commutes with every explored sibling's (footprint independence).")

let fork_factor_arg =
  Arg.(
    value & opt int 3
    & info [ "fork-factor" ] ~doc:"With --fork: max alternatives forked per decision point.")

let fork_stride_arg =
  Arg.(
    value & opt int 0
    & info [ "fork-stride" ]
        ~doc:"With --fork: minimum step spacing between chosen fork points (0 = 1).")

let fork_window_arg =
  Arg.(
    value & opt float 0.5
    & info [ "fork-window" ]
        ~doc:
          "With --fork: fraction of the trunk run below which no fork point is placed.  \
           Fork points are spent at the deepest decision points first, so this only \
           binds when the schedule quota is very large.")

let differential_arg =
  Arg.(
    value & opt int 0
    & info [ "differential" ]
        ~doc:
          "With --fork: replay this many forked leaves per trunk from their seed \
           (preloaded choice log) and fail unless traces are byte-identical and outcomes \
           equal — the replay-from-seed oracle.")

let step_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "step-budget" ]
        ~doc:
          "Stop exploring once this many simulator steps ran (0 = unlimited).  Applies \
           to both replay and forked sweeps, making their schedule throughput directly \
           comparable.")

(* -------------------------------- sweep --------------------------------- *)

let pp_summary name (s : Explore.summary) =
  Fmt.pr "  %-5s %4d schedules  %6d ops  %4d phases  %4d keys checked  %d violations@." name
    s.Explore.runs s.Explore.total_events s.Explore.total_phases s.Explore.lin_keys
    (List.length s.Explore.failures);
  if s.Explore.skipped_segments > 0 then
    Fmt.pr "        (%d linearizability segments skipped as too wide)@." s.Explore.skipped_segments

let pp_fork_summary name (st : Fork.stats) =
  Fmt.pr "  %-5s %4d schedules  %6d ops  %4d phases  %4d keys checked  %d violations@." name
    st.Fork.explored st.Fork.events st.Fork.phases st.Fork.lin_keys st.Fork.failed;
  if st.Fork.skipped_segments > 0 then
    Fmt.pr "        (%d linearizability segments skipped as too wide)@." st.Fork.skipped_segments;
  Fmt.pr "        fork: %d trunks  %d snapshots  %d schedules pruned@." st.Fork.trunks
    st.Fork.forks st.Fork.pruned;
  Fmt.pr "        fork: %d prefix steps shared  %d fresh  %d replay-equivalent  speedup %.1fx@."
    st.Fork.shared_steps st.Fork.fresh_steps st.Fork.replay_steps (Fork.speedup st);
  if st.Fork.diff_checked > 0 then
    Fmt.pr "        differential: %d leaves replayed from seed  %d mismatches@."
      st.Fork.diff_checked st.Fork.diff_mismatches;
  if st.Fork.errors > 0 then Fmt.pr "        fork: %d children died without reporting@." st.Fork.errors

let sweep_cmd =
  let ds_list =
    Arg.(
      value
      & opt (list ds_conv) [ Scenario.List_ds; Scenario.Hash_ds; Scenario.Skip_ds; Scenario.Churn ]
      & info [ "ds" ] ~doc:"Structures to sweep (comma-separated: list,hash,skip,churn).")
  in
  let schedules =
    Arg.(value & opt int 60 & info [ "schedules" ] ~doc:"Schedules per structure.")
  in
  let pct_depth =
    Arg.(value & opt int 3 & info [ "pct-depth" ] ~doc:"PCT priority change points.")
  in
  let seed0 = Arg.(value & opt int 0 & info [ "seed0" ] ~doc:"First seed of the family.") in
  let action ds_list schedules pct_depth seed0 scheme threads ops key_range buffer_size
      help_free inject fault race bug fork prune fork_factor fork_stride fork_window
      differential step_budget =
    let analyze = race || bug <> None in
    (* A seeded bug lives in one specific structure; sweeping any other
       would "pass" without exercising it. *)
    let ds_list = match bug with None -> ds_list | Some b -> [ Scenario.bug_ds b ] in
    (* A neutralizing scheme cannot run lock-based structures (the abort
       is not restartable there): drop them from the sweep with a note
       rather than failing the whole invocation. *)
    let ds_list =
      if (Registry.get scheme).Registry.caps.Registry.neutralizes then begin
        let dropped, kept =
          List.partition (fun ds -> ds = Scenario.Skip_ds || ds = Scenario.Lazy_ds) ds_list
        in
        if dropped <> [] then
          Fmt.pr "note: %s neutralizes; skipping lock-based structures: %s@." scheme
            (String.concat ", " (List.map Scenario.ds_to_string dropped));
        kept
      end
      else ds_list
    in
    let base =
      {
        Scenario.default with
        Scenario.scheme;
        threads;
        ops;
        key_range;
        buffer_size;
        help_free;
        inject;
        fault;
        analyze;
        bug;
      }
    in
    Fmt.pr "sweep: %d structures x %d schedules (seeds %d..%d, uniform/pct:%d alternating)@."
      (List.length ds_list) schedules seed0
      (seed0 + schedules - 1)
      pct_depth;
    if scheme <> Scenario.default.Scenario.scheme then Fmt.pr "scheme: %s@." scheme;
    if fork then
      Fmt.pr "fork: factor=%d stride=%s window=%.2f prune=%s differential=%d@." fork_factor
        (if fork_stride = 0 then "auto" else string_of_int fork_stride)
        fork_window
        (if prune then "on" else "off")
        differential;
    if step_budget > 0 then Fmt.pr "step budget: %d per structure@." step_budget;
    if inject <> Threadscan.No_fault then
      Fmt.pr "injected bug: %s@." (Scenario.inject_to_string inject);
    if fault <> [] then Fmt.pr "injected fault: %s@." (Ts_util.Fault_plan.to_string fault);
    if analyze then Fmt.pr "analysis: happens-before + lifecycle checkers on@.";
    (match bug with
    | Some b -> Fmt.pr "seeded bug: %s (ds forced to %s)@." (Scenario.bug_to_string b)
                  (Scenario.ds_to_string (Scenario.bug_ds b))
    | None -> ());
    let first_failure = ref None in
    let total_runs = ref 0 and total_violations = ref 0 and total_mismatches = ref 0 in
    (* fork-mode failures carry the recorded choice log alongside the
       outcome: a forked schedule is not reproducible from its spec alone *)
    let first_forked_failure = ref None in
    List.iter
      (fun ds ->
        let base = { base with Scenario.ds } in
        if fork then begin
          let opts =
            {
              Fork.fork_factor;
              stride = fork_stride;
              window = fork_window;
              prune;
              differential;
              step_budget;
            }
          in
          let st = Fork.sweep ~opts ~base ~schedules ~seed0 ~pct_depth () in
          total_runs := !total_runs + st.Fork.explored;
          total_violations := !total_violations + st.Fork.failed;
          total_mismatches := !total_mismatches + st.Fork.diff_mismatches;
          pp_fork_summary (Scenario.ds_to_string ds) st;
          match st.Fork.failures with
          | f :: _ when !first_forked_failure = None -> first_forked_failure := Some f
          | _ -> ()
        end
        else begin
          let specs = Explore.sweep_specs ~base ~schedules ~seed0 ~pct_depth in
          let s = Explore.sweep ~step_budget specs in
          total_runs := !total_runs + s.Explore.runs;
          total_violations := !total_violations + List.length s.Explore.failures;
          pp_summary (Scenario.ds_to_string ds) s;
          match s.Explore.failures with
          | o :: _ when !first_failure = None -> first_failure := Some o
          | _ -> ()
        end)
      ds_list;
    Fmt.pr "total: %d schedules, %d with violations@." !total_runs !total_violations;
    if !total_mismatches > 0 then begin
      Fmt.pr "differential FAILED: %d forked schedules diverged from replay-from-seed@."
        !total_mismatches;
      exit 2
    end;
    match (!first_failure, !first_forked_failure) with
    | None, None -> `Ok ()
    | None, Some (o, log) ->
        Fmt.pr "@.first failing schedule (%s, forked from seed %d):@."
          (Scenario.ds_to_string o.Scenario.spec.Scenario.ds)
          o.Scenario.spec.Scenario.seed;
        List.iter (fun v -> Fmt.pr "  %a@." Report.pp v) o.Scenario.violations;
        Fmt.pr "recorded schedule: %d choices (replayable via the preloaded choice log)@."
          (Array.length log);
        exit 1
    | Some o, _ ->
        Fmt.pr "@.first failing schedule (%s, seed %d):@."
          (Scenario.ds_to_string o.Scenario.spec.Scenario.ds)
          o.Scenario.spec.Scenario.seed;
        List.iter (fun v -> Fmt.pr "  %a@." Report.pp v) o.Scenario.violations;
        let shrunk = Explore.shrink o.Scenario.spec in
        Fmt.pr "shrunk to threads=%d ops=%d key-range=%d seed=%d@." shrunk.Scenario.threads
          shrunk.Scenario.ops shrunk.Scenario.key_range shrunk.Scenario.seed;
        Fmt.pr "replay: %s@." (Scenario.replay_command shrunk);
        exit 1
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Explore a family of checked schedules per data structure.")
    Term.(
      ret
        (const action $ ds_list $ schedules $ pct_depth $ seed0 $ scheme_arg $ threads_arg
       $ ops_arg $ range_arg $ buffer_arg $ help_free_arg $ inject_arg
       $ fault_arg $ race_arg $ bug_arg $ fork_arg $ prune_arg $ fork_factor_arg $ fork_stride_arg
       $ fork_window_arg $ differential_arg $ step_budget_arg))

(* -------------------------------- replay -------------------------------- *)

let replay_cmd =
  let ds = Arg.(value & opt ds_conv Scenario.List_ds & info [ "ds" ] ~doc:"Structure.") in
  let policy =
    Arg.(
      value
      & opt policy_conv Scenario.Uniform
      & info [ "policy" ] ~doc:"Schedule policy (timed|uniform|pct:<d>).")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Schedule seed.") in
  let action ds policy seed scheme threads ops key_range buffer_size help_free inject
      fault race bug =
    let analyze = race || bug <> None in
    let ds = match bug with None -> ds | Some b -> Scenario.bug_ds b in
    let spec =
      {
        Scenario.ds;
        scheme;
        threads;
        ops;
        key_range;
        buffer_size;
        help_free;
        inject;
        fault;
        policy;
        seed;
        analyze;
        bug;
      }
    in
    Fmt.pr
      "replay: ds=%s%s threads=%d ops=%d key-range=%d buffer=%d%s inject=%s fault=%s \
       policy=%s seed=%d%s%s@."
      (Scenario.ds_to_string ds)
      (if scheme = Scenario.default.Scenario.scheme then "" else " scheme=" ^ scheme)
      threads ops key_range buffer_size
      (if help_free then " help-free" else "")
      (Scenario.inject_to_string inject)
      (Ts_util.Fault_plan.to_string fault)
      (Scenario.policy_to_string policy)
      seed
      (if analyze then " race" else "")
      (match bug with None -> "" | Some b -> " bug=" ^ Scenario.bug_to_string b);
    let o = Scenario.run spec in
    Fmt.pr "outcome: %d violations (events=%d phases=%d steps=%d keys-checked=%d)@."
      (List.length o.Scenario.violations)
      o.Scenario.events o.Scenario.phases o.Scenario.steps o.Scenario.lin_keys;
    List.iter (fun v -> Fmt.pr "  %a@." Report.pp v) o.Scenario.violations;
    if Scenario.failed o then exit 1 else `Ok ()
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-run one fully specified scenario.")
    Term.(
      ret
        (const action $ ds $ policy $ seed $ scheme_arg $ threads_arg $ ops_arg $ range_arg $ buffer_arg
       $ help_free_arg $ inject_arg $ fault_arg $ race_arg $ bug_arg))

let () =
  let doc = "systematic concurrency checker for the ThreadScan reproduction" in
  exit (Cmd.eval (Cmd.group (Cmd.info "tscheck" ~doc) [ sweep_cmd; replay_cmd ]))
