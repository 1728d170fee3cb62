(* tsperf: run the benchmark's workloads, or compare two sets of runs.
   See README.md in this directory. *)

open Tsperf_lib
open Cmdliner

let head_commit () =
  (* --git-dir pins the lookup to this checkout: never a parent's repo *)
  match Unix.open_process_in "git --git-dir=.git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let fingerprint ~commit ~seconds =
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("nproc", num (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("pool", num Native.pool);
      ("workers", num Native.workers);
      ("commit", Json.Str commit);
      ("region_s", Json.Num seconds);
    ]

let value values (m : Metrics.t) = Option.value (List.assoc_opt m.name values) ~default:0.0
let metric_json (m : Metrics.t) v = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]

let metrics_json catalogue values =
  Json.Obj (List.map (fun (m : Metrics.t) -> (m.name, metric_json m (value values m))) catalogue)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", metrics);
       ])

let run_cmd names seed seconds trace out commit smoke =
  let workloads =
    if names = [] then Workloads.all
    else
      List.map
        (fun n ->
          match Workloads.find n with
          | Some w -> w
          | None ->
              Printf.eprintf "tsperf: unknown workload %s (known: %s)\n" n
                (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
              exit 2)
        names
  in
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  let values (o : Outcome.t) = if trace then o.layers else o.e2e in
  let commit = match commit with Some c -> c | None -> head_commit () in
  let fp = fingerprint ~commit ~seconds in
  Printf.printf "# tsperf %s\n%!" (Json.to_string fp);
  let oc = Option.map (open_out_gen [ Open_append; Open_creat ] 0o644) out in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let o = Workloads.run w ~seed ~seconds ~trace ~smoke in
        List.iter
          (fun (m : Metrics.t) ->
            Printf.printf "%-12s %-28s %18s %s\n" w.name m.name
              (Json.number (value (values o) m))
              m.unit_)
          catalogue;
        List.iter (fun n -> Printf.printf "%-12s # %s\n" w.name n) o.notes;
        Option.iter (fun f -> Printf.printf "%-12s FAILED %s\n" w.name f) o.failure;
        Printf.printf "%!";
        let correct = o.failure = None in
        Option.iter
          (fun oc ->
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("workload", Json.Str w.name);
                      ("seed", Json.Num (float_of_int seed));
                      ("trace", Json.Num (if trace then 1.0 else 0.0));
                      ("fingerprint", fp);
                      ("correct", Json.Bool correct);
                      ("attempted", Json.Num (float_of_int o.attempted));
                      ("failed", Json.Num (float_of_int o.failed));
                      ("failure", match o.failure with Some f -> Json.Str f | None -> Json.Null);
                      ("metrics", metrics_json catalogue (values o));
                    ]));
            output_char oc '\n';
            flush oc)
          oc;
        (w, o))
      workloads
  in
  Option.iter close_out oc;
  let correct = List.for_all (fun (_, (o : Outcome.t)) -> o.failure = None) results in
  let attempted = List.fold_left (fun acc (_, (o : Outcome.t)) -> acc + o.attempted) 0 results in
  let failed = List.fold_left (fun acc (_, (o : Outcome.t)) -> acc + o.failed) 0 results in
  let metrics =
    match results with
    | [ (_, o) ] -> metrics_json catalogue (values o)
    | _ ->
        (* several workloads: one key per workload and metric *)
        Json.Obj
          (List.concat_map
             (fun ((w : Workloads.t), o) ->
               List.map
                 (fun (m : Metrics.t) -> (w.name ^ "/" ^ m.name, metric_json m (value (values o) m)))
                 catalogue)
             results)
  in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

(* ---- compare ---- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let load path =
  List.map
    (fun l ->
      try Json.parse l
      with Json.Error e ->
        Printf.eprintf "tsperf compare: %s: %s\n" path e;
        exit 2)
    (read_lines path)

(* The fingerprint minus the commit: two sets are comparable when they
   come from the same machine and settings, whatever code they ran. *)
let machine r =
  match Json.member "fingerprint" r with
  | Json.Obj l -> Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "commit") l))
  | _ -> "none"

let bounds () =
  let j = Json.parse (String.concat "\n" (read_lines "BENCHMARK.json")) in
  List.filter_map
    (fun m ->
      match (Json.to_str (Json.member "name" m), Json.to_float (Json.member "bound" m)) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Json.member "end_to_end" j))

let values records workload name =
  List.filter_map
    (fun r ->
      if Json.to_str (Json.member "workload" r) <> Some workload then None
      else Json.to_float (Json.member "value" (Json.member name (Json.member "metrics" r))))
    records

(* Failures per workload: (runs an oracle rejected, runs, failed share
   of the attempted operations). *)
let failures records workload =
  let mine = List.filter (fun r -> Json.to_str (Json.member "workload" r) = Some workload) records in
  let sum k =
    List.fold_left
      (fun acc r -> acc +. Option.value (Json.to_float (Json.member k r)) ~default:0.0)
      0.0 mine
  in
  let rejected = List.filter (fun r -> Json.member "correct" r <> Json.Bool true) mine in
  let share = if sum "attempted" = 0.0 then 0.0 else sum "failed" /. sum "attempted" in
  (List.length rejected, List.length mine, share)

let compare_cmd a b =
  let ra = load a and rb = load b in
  (match List.sort_uniq compare (List.map machine (ra @ rb)) with
  | [ _ ] -> ()
  | [] ->
      prerr_endline "tsperf compare: no records";
      exit 2
  | fps ->
      Printf.eprintf "tsperf compare: refusing to compare runs from different machines or settings:\n";
      List.iter (Printf.eprintf "  %s\n") fps;
      exit 2);
  let bounds = bounds () in
  let flagged = ref 0 in
  Printf.printf "%-12s %-26s %14s %7s %14s %7s %8s %6s  %s\n" "workload" "metric" "median A" "iqr A"
    "median B" "iqr B" "change" "bound" "verdict";
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (m : Metrics.t) ->
          match (values ra w.name m.name, values rb w.name m.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let bound = List.assoc_opt m.name bounds in
              let j = Verdict.judge ~better:m.better ~bound:(Option.value bound ~default:infinity) va vb in
              let verdict =
                match bound with None -> "-" | Some _ -> Verdict.to_string j.Verdict.verdict
              in
              if bound <> None && (j.verdict = Verdict.Worse || j.verdict = Verdict.Unresolved) then
                incr flagged;
              Printf.printf "%-12s %-26s %14s %6.1f%% %14s %6.1f%% %+7.1f%% %6s  %s\n" w.name m.name
                (Json.number j.median_a) (100.0 *. j.spread_a) (Json.number j.median_b)
                (100.0 *. j.spread_b) (100.0 *. j.change)
                (match bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
                verdict)
        (Metrics.end_to_end @ Metrics.per_layer);
      (* a failure is never noise: any increase is worse *)
      let na, ta, fa = failures ra w.name and nb, tb, fb = failures rb w.name in
      if ta + tb > 0 then begin
        let verdict worse =
          if worse then incr flagged;
          if worse then "worse" else "unchanged"
        in
        Printf.printf "%-12s %-26s %14s %7s %14s %7s %8s %6s  %s\n" w.name "failed_runs"
          (Printf.sprintf "%d/%d" na ta) "" (Printf.sprintf "%d/%d" nb tb) "" "" "0"
          (verdict (Outcome.ratio nb tb > Outcome.ratio na ta));
        Printf.printf "%-12s %-26s %14.6f %7s %14.6f %7s %8s %6s  %s\n" w.name "ops_failed_share" fa ""
          fb "" "" "0" (verdict (fb > fa))
      end)
    Workloads.all;
  if !flagged > 0 then 1 else 0

(* ---- command line ---- *)

let run_term =
  let names =
    Arg.(value & opt_all string [] & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Workload to run (repeatable); every workload when omitted.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed the workload inputs derive from.") in
  let seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ] ~doc:"Measured time per workload, in seconds.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1" ~doc:"1: report the per-layer metrics of a traced run.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Append one JSON record per workload run to $(docv), for $(b,compare).")
  in
  let commit =
    Arg.(value & opt (some string) None & info [ "commit" ]
           ~doc:"Commit for the fingerprint (default: git rev-parse HEAD, else unknown).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Shrink every workload to 0.5 s, 50 schedules or 1 M cycles (oracles stay on).")
  in
  Term.(const run_cmd $ names $ seed $ seconds $ trace $ out $ commit $ smoke)

let compare_term =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  Term.(const compare_cmd $ file 0 $ file 1)

let () =
  let run = Cmd.v (Cmd.info "run" ~doc:"Run workloads and print every metric.") run_term in
  let compare =
    Cmd.v
      (Cmd.info "compare" ~doc:"Compare two sets of runs (A the baseline) against the bounds.")
      compare_term
  in
  exit (Cmd.eval' (Cmd.group (Cmd.info "tsperf" ~doc:"ThreadScan benchmark") [ run; compare ]))
