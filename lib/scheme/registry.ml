(* The single source of truth for reclamation schemes.  Each descriptor
   carries the canonical name, CLI aliases, capability flags, chaos
   profile and constructor; every consumer (workload harness, chaos
   oracle, benchmark/checker/trace CLIs, conformance tests) dispatches
   through this table instead of matching on scheme names. *)

type caps = {
  wedges_under_stall : bool;
  protect_slots : bool;
  ts_protocol : bool;
  neutralizes : bool;
  pins_frames : bool;
  reclaims : bool;
}

type chaos_profile = Self_healing | Crash_healing | Quiescence_bound | Unchecked

type params = {
  buffer : int option;
  delay : int option;
  patience : int option;
  batch : int option;
}

type spec = { id : string; params : params }

type budgets = {
  ack_budget : int;
  suspect_phases : int;
  takeover_steps : int;
  overflow_after : int;
}

let fault_budgets ~horizon =
  {
    ack_budget = max 10_000 (horizon / 20);
    suspect_phases = 2;
    takeover_steps = max 20_000 (horizon / 10);
    overflow_after = 32;
  }

type env = {
  max_threads : int;
  hazard_slots : int;
  epoch_batch : int;
  budgets : budgets option;
}

type built = { smr : Ts_smr.Smr.t; ts : Threadscan.t option }

type descriptor = {
  id : string;
  aliases : string list;
  summary : string;
  caps : caps;
  chaos : chaos_profile;
  recovery_extras : string list;
  tunables : string list;
  crash_leak_per_victim : params -> int;
  build : env -> params -> built;
}

(* ----------------------------- constructors --------------------------- *)

let plain smr = { smr; ts = None }

let build_threadscan env p =
  let base =
    {
      Threadscan.Config.default with
      max_threads = env.max_threads;
      buffer_size = Option.value p.buffer ~default:64;
    }
  in
  let config =
    match env.budgets with
    | None -> base
    | Some b ->
        {
          base with
          ack_budget = b.ack_budget;
          suspect_phases = b.suspect_phases;
          takeover_steps = b.takeover_steps;
          overflow_after = b.overflow_after;
        }
  in
  let ts = Threadscan.create ~config () in
  { smr = Threadscan.smr ts; ts = Some ts }

let no_reclaim =
  {
    wedges_under_stall = false;
    protect_slots = false;
    ts_protocol = false;
    neutralizes = false;
    (* nothing is ever freed, so a held reference never dangles *)
    pins_frames = true;
    reclaims = false;
  }

let reclaims = { no_reclaim with reclaims = true; pins_frames = false }
let epoch_caps = { reclaims with wedges_under_stall = true }

let all =
  [
    {
      id = "leaky";
      aliases = [ "none" ];
      summary = "never frees: the throughput ceiling and leak baseline";
      caps = no_reclaim;
      chaos = Unchecked;
      recovery_extras = [];
      tunables = [];
      crash_leak_per_victim = (fun _ -> 0);
      build = (fun _ _ -> plain (Ts_reclaim.Leaky.create ()));
    };
    {
      id = "threadscan";
      aliases = [ "ts" ];
      summary = "signal-driven stack/buffer scan with a crash/stall degradation ladder";
      caps = { reclaims with ts_protocol = true; pins_frames = true };
      chaos = Self_healing;
      recovery_extras = [ "reaps"; "takeovers"; "proxy-scans"; "recoveries" ];
      tunables = [ "buffer" ];
      crash_leak_per_victim = (fun _ -> 1);
      build = build_threadscan;
    };
    {
      id = "hazard";
      aliases = [ "hp" ];
      summary = "hazard pointers: per-read protection slots, per-thread retired lists";
      caps = { reclaims with protect_slots = true };
      chaos = Unchecked;
      recovery_extras = [];
      tunables = [];
      (* a corpse strands its protected slots plus one in-flight retire *)
      crash_leak_per_victim = (fun _ -> 4);
      build =
        (fun env _ ->
          plain
            (Ts_reclaim.Hazard.create ~slots:env.hazard_slots ~max_threads:env.max_threads ()));
    };
    {
      id = "epoch";
      aliases = [ "ebr" ];
      summary = "global-epoch quiescence with per-epoch limbo lists";
      caps = epoch_caps;
      chaos = Quiescence_bound;
      recovery_extras = [];
      tunables = [ "batch" ];
      crash_leak_per_victim = (fun _ -> 0);
      build =
        (fun env p ->
          let batch = Option.value p.batch ~default:env.epoch_batch in
          plain (Ts_reclaim.Epoch.create ~batch ~max_threads:env.max_threads ()));
    };
    {
      id = "slow-epoch";
      aliases = [];
      summary = "epoch with one artificially delayed straggler (the wedge demonstrator)";
      caps = epoch_caps;
      chaos = Quiescence_bound;
      recovery_extras = [];
      tunables = [ "batch"; "delay" ];
      crash_leak_per_victim = (fun _ -> 0);
      build =
        (fun env p ->
          let batch = Option.value p.batch ~default:env.epoch_batch in
          let delay = Option.value p.delay ~default:600_000 in
          (* thread id 1 is the first worker spawned *)
          plain
            (Ts_reclaim.Epoch.create ~batch ~errant:(1, delay) ~max_threads:env.max_threads ()));
    };
    {
      id = "patient-epoch";
      aliases = [];
      summary = "epoch whose quiescence waits give up after a bounded patience";
      caps = reclaims;
      chaos = Unchecked;
      recovery_extras = [];
      tunables = [ "batch"; "patience" ];
      crash_leak_per_victim = (fun _ -> 1);
      build =
        (fun env p ->
          let batch = Option.value p.batch ~default:env.epoch_batch in
          let patience = Option.value p.patience ~default:20_000 in
          plain (Ts_reclaim.Epoch.create ~batch ~patience ~max_threads:env.max_threads ()));
    };
    {
      id = "stacktrack";
      aliases = [];
      summary = "explicit operation frames scanned cooperatively (no signals)";
      caps = { reclaims with pins_frames = true };
      chaos = Unchecked;
      recovery_extras = [];
      tunables = [];
      crash_leak_per_victim = (fun _ -> 2);
      build = (fun env _ -> plain (Ts_reclaim.Stacktrack.create ~max_threads:env.max_threads ()));
    };
    {
      id = "debra";
      aliases = [ "debra+" ];
      summary = "epoch bags with neutralizing signals: crashed/stalled readers are skipped";
      caps = { reclaims with neutralizes = true };
      chaos = Self_healing;
      recovery_extras = [ "dead-skips"; "stall-skips" ];
      tunables = [ "batch" ];
      crash_leak_per_victim = (fun _ -> 1);
      build =
        (fun env p ->
          let batch = Option.value p.batch ~default:env.epoch_batch in
          plain (Ts_reclaim.Debra.create ~batch ~max_threads:env.max_threads ()));
    };
    {
      id = "hyaline";
      aliases = [];
      summary = "reference-counted retirement batches, snapshot-free (2 FAAs per op)";
      caps = reclaims;
      chaos = Crash_healing;
      recovery_extras = [ "corpse-leaves" ];
      (* one lost (unpublished) batch plus one in-flight retire *)
      tunables = [ "batch" ];
      crash_leak_per_victim = (fun p -> Option.value p.batch ~default:64 + 1);
      build =
        (fun env p ->
          let batch = Option.value p.batch ~default:env.epoch_batch in
          plain (Ts_reclaim.Hyaline.create ~batch ~max_threads:env.max_threads ()));
    };
  ]

(* ------------------------------- lookup ------------------------------- *)

let find name =
  List.find_opt (fun d -> d.id = name || List.mem name d.aliases) all

let names () = List.map (fun d -> d.id) all

let names_doc () =
  String.concat ", "
    (List.map
       (fun d ->
         match d.aliases with
         | [] -> d.id
         | a -> d.id ^ " (" ^ String.concat "|" a ^ ")")
       all)

let unknown name =
  Printf.sprintf "unknown scheme %S (expected one of: %s)" name (names_doc ())

let get name =
  match find name with Some d -> d | None -> invalid_arg (unknown name)

let descriptor (s : spec) = get s.id

let canonical name =
  match find name with Some d -> Ok d.id | None -> Error (unknown name)

let spec ?buffer ?delay ?patience ?batch name =
  let d = get name in
  (* Drop tuning the scheme does not use: CLIs pass their flag defaults
     for every scheme, and an irrelevant parameter must not leak into
     labels or JSON (nor suggest it had an effect). *)
  let keep k v = if List.mem k d.tunables then v else None in
  {
    id = d.id;
    params =
      {
        buffer = keep "buffer" buffer;
        delay = keep "delay" delay;
        patience = keep "patience" patience;
        batch = keep "batch" batch;
      };
  }

let label (s : spec) = s.id

let params_assoc s =
  let p = s.params in
  List.filter_map
    (fun (k, v) -> Option.map (fun v -> (k, v)) v)
    [ ("buffer", p.buffer); ("delay", p.delay); ("patience", p.patience); ("batch", p.batch) ]

let describe s =
  match params_assoc s with
  | [] -> s.id
  | kv ->
      s.id ^ " "
      ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kv)

let build env s = (descriptor s).build env s.params
