(* Forked schedule-tree exploration.

   A sweep that replays every schedule from its seed re-executes every
   shared prefix once per schedule.  This explorer shares prefixes for
   real: it runs a handful of trunk schedules and, at scheduling decision
   points, snapshots the whole simulator — live fibers included — by
   forking the process.  Each forked leaf forces one alternative thread
   at its fork point and then falls back to the configured policy, so it
   explores a distinct complete schedule while inheriting the trunk's
   first [s] steps without re-executing them.

   Process snapshots because OCaml's one-shot continuations cannot be
   cloned: a fiber suspended mid-effect exists once per address space,
   so the only way to branch a *running* simulation is to branch the
   address space.  Reproducing a run is the other half: its choice log,
   fed to [Runtime.preload_choices], replays it from step zero.  There
   is no in-process rewind.

   Each trunk runs twice:

   - a *scout* pass records every decision point (step, runnable set)
     plus the trunk's own choice log and outcome;
   - a *fork* pass replays the identical schedule (same spec, the hook
     defers everywhere) and forks leaves at the points the plan chose.

   The plan spends the schedule quota at the trunk's deepest decision
   points first.  Throughput is bounded by how late a schedule can still
   diverge: every leaf must execute its own suffix — at minimum the
   single-threaded teardown after the last decision point — so forking
   as deep as possible maximizes the shared prefix per leaf.  The two
   trunk passes are the price of knowing those points exactly instead of
   estimating them across seeds; they amortize over the leaves.

   Exploration is sequential and deterministic: a parent forks one leaf,
   drains its report from a pipe, reaps it, and only then forks the next
   sibling — so sweep statistics are a pure function of the spec family
   and the options, and cram tests can pin them.

   Sleep-set pruning: when a leaf's forced first step turns out to be
   independent (no footprint conflict, see {!Ts_sim.Runtime.conflicts})
   of the first steps of every already-explored sibling at the same fork
   point, the orderings it would sample differ from an explored sibling
   only by commuting that step — so the leaf abandons the run after one
   step instead of executing its whole suffix.  Because exploration is
   sampling (policies randomize the suffix), pruning is a redundancy
   heuristic over samples, not a soundness-bearing reduction: the
   unpruned trunks and the replay-from-seed sweeps remain ground truth.
   docs/CHECKING.md states the argument in full.

   The differential mode is the oracle for the whole mechanism: leaves
   record their choice log and a digest of their trace; the root replays
   each sampled leaf from the seed via [Runtime.preload_choices] and
   requires a byte-identical trace and identical outcome counters. *)

module Runtime = Ts_sim.Runtime (* tslint: allow facade -- schedule forking preloads simulator choice points *)
module Trace = Ts_sim.Trace (* tslint: allow facade -- replay determinism is checked by byte-comparing traces *)

type options = {
  fork_factor : int;  (** max alternatives forked per decision point *)
  stride : int;  (** min step spacing between chosen fork points (0 = 1) *)
  window : float;  (** fraction of the trunk below which no fork is placed *)
  prune : bool;  (** sleep-set pruning of commuting alternatives *)
  differential : int;  (** leaves per trunk to verify against replay-from-seed (0 = off) *)
  step_budget : int;  (** stop forking once this many fresh steps ran (0 = unlimited) *)
}

let default_options =
  { fork_factor = 3; stride = 0; window = 0.5; prune = true; differential = 0; step_budget = 0 }

(* A leaf schedule captured for differential verification: enough to
   replay it from the seed and compare byte-for-byte. *)
type sample = {
  s_log : int array;  (** full choice log, replayable via [preload_choices] *)
  s_digest : string;  (** digest of the rendered trace *)
  s_steps : int;
  s_events : int;
  s_phases : int;
  s_failed : bool;
}

(* What a forked leaf reports to the trunk (marshaled through a pipe). *)
type report = {
  r_explored : int;
  r_pruned : int;
  r_shared : int;  (** prefix steps inherited instead of re-executed *)
  r_fresh : int;  (** steps actually executed by the leaf *)
  r_replay : int;  (** steps replay-from-seed would spend on the same schedule *)
  r_events : int;
  r_phases : int;
  r_keys : int;
  r_skipped : int;
  r_failed : int;
  r_failures : (Scenario.outcome * int array) list;  (** failing outcome + its choice log *)
  r_samples : sample list;
  r_errors : int;  (** leaves that died without reporting *)
  r_first_fp : Runtime.footprint option;  (** footprint of the leaf's forced first step *)
}

let empty_report =
  {
    r_explored = 0;
    r_pruned = 0;
    r_shared = 0;
    r_fresh = 0;
    r_replay = 0;
    r_events = 0;
    r_phases = 0;
    r_keys = 0;
    r_skipped = 0;
    r_failed = 0;
    r_failures = [];
    r_samples = [];
    r_errors = 0;
    r_first_fp = None;
  }

let merge a b =
  {
    r_explored = a.r_explored + b.r_explored;
    r_pruned = a.r_pruned + b.r_pruned;
    r_shared = a.r_shared + b.r_shared;
    r_fresh = a.r_fresh + b.r_fresh;
    r_replay = a.r_replay + b.r_replay;
    r_events = a.r_events + b.r_events;
    r_phases = a.r_phases + b.r_phases;
    r_keys = a.r_keys + b.r_keys;
    r_skipped = a.r_skipped + b.r_skipped;
    r_failed = a.r_failed + b.r_failed;
    r_failures = a.r_failures @ b.r_failures;
    r_samples = a.r_samples @ b.r_samples;
    r_errors = a.r_errors + b.r_errors;
    r_first_fp = a.r_first_fp;
  }

(* Caps keep pipe payloads and aggregate reports bounded. *)
let max_failures = 16

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: tl -> x :: take (n - 1) tl

exception Pruned

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let read_report fd =
  let ic = Unix.in_channel_of_descr fd in
  let rep =
    try (Marshal.from_channel ic : report) with _ -> { empty_report with r_errors = 1 }
  in
  (try close_in ic with _ -> ());
  rep

(* Forked children share the parent's output buffers; flush before every
   fork so nothing is emitted twice. *)
let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

let mk_trace buf e = Buffer.add_string buf (Fmt.str "%a@." Trace.pp e)

(* ------------------------------ scout pass ------------------------------ *)

type scout = {
  sc_points : (int * int array) list;  (** decision points, deepest first *)
  sc_log : int array;  (** the trunk's choice log *)
  sc_len : int;  (** trunk run length in steps *)
  sc_outcome : Scenario.outcome;
  sc_sample : sample option;
}

let scout_run ~differential spec =
  let pts = ref [] in
  let the_rt = ref None in
  let tracebuf = if differential > 0 then Some (Buffer.create 4096) else None in
  let hook rt cands =
    pts := (Runtime.step_count rt, Array.copy cands) :: !pts;
    -1
  in
  let o =
    Scenario.run
      ?trace:(Option.map mk_trace tracebuf)
      ~configure:(fun rt ->
        the_rt := Some rt;
        Runtime.set_scheduler_hook rt (Some hook))
      spec
  in
  let log = Runtime.choices (Option.get !the_rt) in
  let sample =
    Option.map
      (fun b ->
        {
          s_log = log;
          s_digest = Digest.to_hex (Digest.string (Buffer.contents b));
          s_steps = o.Scenario.steps;
          s_events = o.Scenario.events;
          s_phases = o.Scenario.phases;
          s_failed = Scenario.failed o;
        })
      tracebuf
  in
  {
    sc_points = !pts;  (* accumulated backwards: already deepest first *)
    sc_log = log;
    sc_len = o.Scenario.steps;
    sc_outcome = o;
    sc_sample = sample;
  }

(* Spend the leaf quota at the deepest decision points first: every leaf
   pays its own suffix, so depth is throughput.  At each chosen point the
   alternatives are the runnable threads minus the trunk's own pick
   (forcing the trunk's pick without its policy bookkeeping would explore
   a near-duplicate under Pct/Timed and an rng-shifted twin under
   Uniform).  Points closer than [stride] to an already-chosen one are
   skipped. *)
let build_plan ~opts ~quota scout =
  let stride = max 1 opts.stride in
  let min_depth = int_of_float (opts.window *. float_of_int scout.sc_len) in
  let plan : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let needed = ref quota in
  let planned = ref 0 in
  let last_s = ref max_int in
  List.iter
    (fun (s, cands) ->
      if !needed > 0 && s >= min_depth && s + stride <= !last_s then begin
        let trunk_pick = Runtime.choice_tid scout.sc_log.(s) in
        let alts = Array.to_list cands |> List.filter (fun t -> t <> trunk_pick) in
        (* rotate so successive points spread over the thread set *)
        let alts =
          match alts with
          | [] -> []
          | _ ->
              let n = List.length alts in
              let r = s mod n in
              let rec rot i = function
                | [] -> []
                | x :: tl -> if i < r then rot (i + 1) tl @ [ x ] else x :: tl
              in
              rot 0 alts
        in
        let alts = take (min opts.fork_factor !needed) alts in
        if alts <> [] then begin
          Hashtbl.replace plan s alts;
          needed := !needed - List.length alts;
          planned := !planned + List.length alts;
          last_s := s
        end
      end)
    scout.sc_points;
  (plan, !planned)

(* ------------------------------ fork pass ------------------------------- *)

(* Replay the trunk schedule (the hook defers everywhere, so the run is
   step-identical to the scout) and fork one leaf per planned
   alternative.  Returns the merged leaf reports plus this pass's own
   step cost. *)
let fork_pass ~opts ~plan ~budget spec =
  let the_rt = ref None in
  let is_leaf = ref false in
  let leaf_out = ref Unix.stderr in
  let fork_step = ref 0 in
  let pending = ref None in
  let first_fp = ref None in
  let children = ref empty_report in
  let tracebuf = if opts.differential > 0 then Some (Buffer.create 4096) else None in
  let hook rt cands =
    if !is_leaf then begin
      (* our forced first step has executed by now: learn its footprint,
         and abandon the run if it commutes with every explored sibling *)
      (match !pending with
      | Some (fs, sleep) when Runtime.step_count rt > fs ->
          pending := None;
          Option.iter
            (fun fp ->
              first_fp := Some fp;
              if
                opts.prune && sleep <> []
                && List.for_all (fun g -> not (Runtime.conflicts fp g)) sleep
              then raise Pruned)
            (Runtime.step_footprint rt fs)
      | _ -> ());
      -1
    end
    else begin
      let s = Runtime.step_count rt in
      match Hashtbl.find_opt plan s with
      | None -> -1
      | Some alts ->
          Hashtbl.remove plan s;
          let rec spawn alts sleep =
            match alts with
            | [] -> -1
            | alt :: rest ->
                if
                  (opts.step_budget > 0 && !children.r_fresh + s >= budget)
                  || not (Array.exists (fun c -> c = alt) cands)
                then -1 (* budget exhausted, or the replay drifted: stop forking *)
                else begin
                  flush_std ();
                  let rd, wr = Unix.pipe () in
                  match Unix.fork () with
                  | 0 ->
                      (* leaf: we *are* the alternative branch now — same
                         live fibers, heap and trace prefix *)
                      Unix.close rd;
                      is_leaf := true;
                      leaf_out := wr;
                      fork_step := s;
                      pending := Some (s, (if opts.prune then sleep else []));
                      first_fp := None;
                      children := empty_report;
                      alt
                  | pid ->
                      Unix.close wr;
                      let rep = read_report rd in
                      reap pid;
                      children := merge !children rep;
                      let sleep =
                        match rep.r_first_fp with Some fp -> fp :: sleep | None -> sleep
                      in
                      spawn rest sleep
                end
          in
          spawn alts []
    end
  in
  let leaf_report rep =
    (try
       let oc = Unix.out_channel_of_descr !leaf_out in
       Marshal.to_channel oc
         ({
            rep with
            r_failures = take max_failures rep.r_failures;
            r_samples = take opts.differential rep.r_samples;
            r_first_fp = !first_fp;
          }
           : report)
         [];
       flush oc
     with _ -> ());
    flush_std ();
    Unix._exit 0
  in
  match
    Scenario.run
      ?trace:(Option.map mk_trace tracebuf)
      ~configure:(fun rt ->
        the_rt := Some rt;
        Runtime.set_scheduler_hook rt (Some hook))
      spec
  with
  | o ->
      if not !is_leaf then (!children, o.Scenario.steps)
      else
        (* a leaf ran to completion: one fresh schedule *)
        let rt = Option.get !the_rt in
        let log = Runtime.choices rt in
        let failed = Scenario.failed o in
        leaf_report
          (merge
             {
               empty_report with
               r_explored = 1;
               r_shared = !fork_step;
               r_fresh = o.Scenario.steps - !fork_step;
               r_replay = o.Scenario.steps;
               r_events = o.Scenario.events;
               r_phases = o.Scenario.phases;
               r_keys = o.Scenario.lin_keys;
               r_skipped = o.Scenario.skipped_segments;
               r_failed = (if failed then 1 else 0);
               r_failures = (if failed then [ (o, log) ] else []);
               r_samples =
                 (match tracebuf with
                 | None -> []
                 | Some b ->
                     [
                       {
                         s_log = log;
                         s_digest = Digest.to_hex (Digest.string (Buffer.contents b));
                         s_steps = o.Scenario.steps;
                         s_events = o.Scenario.events;
                         s_phases = o.Scenario.phases;
                         s_failed = failed;
                       };
                     ]);
             }
             !children)
  | exception Pruned ->
      let fresh =
        match !the_rt with Some rt -> Runtime.step_count rt - !fork_step | None -> 0
      in
      leaf_report (merge { empty_report with r_pruned = 1; r_fresh = fresh } !children)
  | exception e ->
      (* never let a leaf escape into the trunk's control flow *)
      if !is_leaf then leaf_report { empty_report with r_errors = 1 } else raise e

(* ------------------------- differential oracle ------------------------- *)

(* Replay a sampled leaf from the seed ([preload_choices] forces the
   recorded schedule, replicating policy side effects bit-for-bit) and
   demand a byte-identical trace and identical outcome counters. *)
let verify_sample spec (s : sample) =
  let buf = Buffer.create 4096 in
  let o =
    Scenario.run
      ~configure:(fun rt -> Runtime.preload_choices rt s.s_log)
      ~trace:(mk_trace buf) spec
  in
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  let ok =
    String.equal digest s.s_digest
    && o.Scenario.steps = s.s_steps && o.Scenario.events = s.s_events
    && o.Scenario.phases = s.s_phases
    && Scenario.failed o = s.s_failed
  in
  (ok, o.Scenario.steps)

(* ------------------------------- stats --------------------------------- *)

type stats = {
  trunks : int;
  explored : int;
  pruned : int;
  forks : int;
  shared_steps : int;
  fresh_steps : int;
  replay_steps : int;
  events : int;
  phases : int;
  lin_keys : int;
  skipped_segments : int;
  failed : int;
  failures : (Scenario.outcome * int array) list;
  errors : int;
  diff_checked : int;
  diff_mismatches : int;
  diff_steps : int;
}

let speedup st =
  if st.fresh_steps <= 0 then 1.0 else float_of_int st.replay_steps /. float_of_int st.fresh_steps

let empty_stats =
  {
    trunks = 0;
    explored = 0;
    pruned = 0;
    forks = 0;
    shared_steps = 0;
    fresh_steps = 0;
    replay_steps = 0;
    events = 0;
    phases = 0;
    lin_keys = 0;
    skipped_segments = 0;
    failed = 0;
    failures = [];
    errors = 0;
    diff_checked = 0;
    diff_mismatches = 0;
    diff_steps = 0;
  }

(* One trunk: scout, plan, fork, then feed sampled leaves to the
   differential oracle.  [quota] counts schedules (>= 1: the trunk's own
   plus forked leaves). *)
let run_trunk ~opts ~quota ~budget spec st =
  let sc = scout_run ~differential:opts.differential spec in
  let plan, planned = build_plan ~opts ~quota:(quota - 1) sc in
  let rep, pass_steps =
    if planned = 0 then (empty_report, 0) else fork_pass ~opts ~plan ~budget spec
  in
  let o = sc.sc_outcome in
  let trunk_failed = Scenario.failed o in
  let rep =
    merge
      {
        empty_report with
        r_explored = 1;
        r_fresh = o.Scenario.steps + pass_steps;
        r_replay = o.Scenario.steps;
        r_events = o.Scenario.events;
        r_phases = o.Scenario.phases;
        r_keys = o.Scenario.lin_keys;
        r_skipped = o.Scenario.skipped_segments;
        r_failed = (if trunk_failed then 1 else 0);
        r_failures = (if trunk_failed then [ (o, sc.sc_log) ] else []);
        r_samples = Option.to_list sc.sc_sample;
      }
      rep
  in
  let checked, mismatches, dsteps =
    List.fold_left
      (fun (c, m, d) s ->
        let ok, steps = verify_sample spec s in
        (c + 1, (if ok then m else m + 1), d + steps))
      (0, 0, 0)
      (take opts.differential rep.r_samples)
  in
  {
    trunks = st.trunks + 1;
    explored = st.explored + rep.r_explored;
    pruned = st.pruned + rep.r_pruned;
    forks = st.forks + rep.r_explored - 1 + rep.r_pruned + rep.r_errors;
    shared_steps = st.shared_steps + rep.r_shared;
    fresh_steps = st.fresh_steps + rep.r_fresh;
    replay_steps = st.replay_steps + rep.r_replay;
    events = st.events + rep.r_events;
    phases = st.phases + rep.r_phases;
    lin_keys = st.lin_keys + rep.r_keys;
    skipped_segments = st.skipped_segments + rep.r_skipped;
    failed = st.failed + rep.r_failed;
    failures = st.failures @ take max_failures rep.r_failures;
    errors = st.errors + rep.r_errors;
    diff_checked = st.diff_checked + checked;
    diff_mismatches = st.diff_mismatches + mismatches;
    diff_steps = st.diff_steps + dsteps;
  }

(* A factor below 1 forks nothing and a window of 1 or more places no
   fork point: either would run the trunks alone and report them as the
   whole sweep. *)
let check_options opts =
  if opts.fork_factor < 1 then invalid_arg "Fork: fork_factor must be >= 1";
  if not (opts.window >= 0. && opts.window < 1.) then
    invalid_arg "Fork: window must lie in [0, 1)"

let explore ?(opts = default_options) ~schedules spec =
  check_options opts;
  let schedules = max 1 schedules in
  let budget = if opts.step_budget > 0 then opts.step_budget else max_int in
  run_trunk ~opts ~quota:schedules ~budget spec empty_stats

(* A forked sweep over the standard seed family: a few trunks (even
   seeds Uniform, odd seeds PCT, like {!Explore.sweep_specs}) each
   exploring a slice of the schedule budget. *)
let sweep ?(progress = fun _ -> ()) ?(opts = default_options) ~base ~schedules ~seed0
    ~pct_depth () =
  check_options opts;
  let schedules = max 1 schedules in
  let trunks = min schedules (max 2 (schedules / 512)) in
  let quota0 = schedules / trunks in
  let st = ref empty_stats in
  (try
     for i = 0 to trunks - 1 do
       if opts.step_budget > 0 && !st.fresh_steps >= opts.step_budget then raise Exit;
       let budget =
         if opts.step_budget > 0 then opts.step_budget - !st.fresh_steps else max_int
       in
       let policy = if i mod 2 = 0 then Scenario.Uniform else Scenario.Pct pct_depth in
       let quota = quota0 + (if i < schedules mod trunks then 1 else 0) in
       let spec = { base with Scenario.policy; seed = seed0 + i } in
       st := run_trunk ~opts ~quota ~budget spec !st;
       progress !st.explored
     done
   with Exit -> ());
  !st
