(* tstrace: watch one ThreadScan collect phase happen (Figure 2, §4).

   Three worker threads traverse shared nodes; a fourth fills its delete
   buffer and becomes the reclaimer.  The timeline below is the simulator's
   deterministic trace: signal sends, handler entries/exits, scheduling.

   With --fault crash|stall, the first worker is killed (or descheduled)
   right before the collect phase, so the timeline additionally shows the
   degradation ladder: the crashed worker is reaped mid-phase, the stalled
   one goes suspect, is proxy-scanned while frozen, and recovers on wake.

   With --analyze, the happens-before race detector and SMR lifecycle
   sanitizer ride along: every violation is emitted as a note in the
   timeline at the moment of detection (showing both racing accesses
   inline), and the analyzer's report is printed after the trace.

   Usage: dune exec bin/tstrace.exe
            [-- --threads N] [--buffer N] [--cores N] [--seed N]
            [--scheme NAME] [--fault none|crash|stall|<plan>] [--analyze]

   --scheme selects any registry scheme (default threadscan).  The
   ThreadScan phase counters only appear for the ThreadScan family; for
   every other scheme the workers hold their node inside an operation
   bracket (restarting on neutralization), which is what protects it
   there in place of the stack scan.

   --fault also accepts a full Ts_util.Fault_plan expression
   (e.g. "stall:2@800:forever,release:2@40000"): each clause fires on
   worker tids 1..V after advancing the trigger's virtual cycles, so the
   timeline shows exactly when the chaos landed.  A plan that parks a
   victim forever (a forever stall with no release) is refused: the
   trace would never end.  The bare crash/stall keywords are one-victim
   shapes fired at once. *)

module Sim = Ts_sim.Runtime (* tslint: allow facade -- trace replay drives the simulator backend directly *)
module Runtime = Ts_rt
module Trace = Ts_sim.Trace (* tslint: allow facade -- renders the simulator's trace entries *)
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr
module Registry = Ts_scheme.Registry
module Fault_plan = Ts_util.Fault_plan

let default_scheme = "threadscan"

let parse_args () =
  let threads = ref 3
  and buffer = ref 8
  and cores = ref 0
  and scheme = ref default_scheme
  and fault = ref "none"
  and analyze = ref false
  and seed = ref Sim.default_config.Sim.seed in
  let rec go = function
    | [] -> ()
    | "--threads" :: n :: rest ->
        threads := int_of_string n;
        go rest
    | "--buffer" :: n :: rest ->
        buffer := int_of_string n;
        go rest
    | "--cores" :: n :: rest ->
        cores := int_of_string n;
        go rest
    | "--scheme" :: n :: rest ->
        (match Registry.canonical n with
        | Ok id -> scheme := id
        | Error e -> failwith e);
        go rest
    | "--fault" :: f :: rest ->
        if not (List.mem f [ "none"; "crash"; "stall" ]) then begin
          match Fault_plan.parse f with
          | Ok plan when Fault_plan.parks_forever plan ->
              failwith
                ("fault plan " ^ f
               ^ " parks a victim forever and the trace would never end; add a release clause")
          | Ok _ -> ()
          | Error e -> failwith ("unknown fault: " ^ f ^ " (none|crash|stall) or a plan: " ^ e)
        end;
        fault := f;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        go rest
    | "--analyze" :: rest ->
        analyze := true;
        go rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!threads, !buffer, !cores, !scheme, !fault, !seed, !analyze)

let () =
  let nthreads, buffer_size, cores, scheme, fault, seed, analyze = parse_args () in
  let record, entries = Trace.recorder () in
  let config =
    {
      Sim.default_config with
      cores;
      seed;
      (* under multiplexing, a short quantum makes the scheduling visible *)
      quantum = (if cores > 0 then 2_000 else Sim.default_config.Sim.quantum);
      trace = Some record;
    }
  in
  let phases = ref 0 and signals = ref 0 and carried = ref 0 in
  let has_ts = ref false in
  (* Attach before the run so the decorator observes the backend install;
     violations surface as trace notes the moment they are detected. *)
  let an = if analyze then Some (Ts_analyze.Analyze.attach ()) else None in
  let wrap_analyzed smr =
    match an with Some a -> Ts_analyze.Analyze.wrap_smr a smr | None -> smr
  in
  ignore
    (Sim.run ~config (fun () ->
         let env =
           {
             Registry.max_threads = nthreads + 2;
             hazard_slots = 3;
             epoch_batch = 32;
             budgets =
               (if fault = "none" then None
                else
                  (* budgets small enough that the ladder fires inside this
                     tiny run: the ack wait gives up quickly and suspects
                     are visible *)
                  Some
                    {
                      Registry.ack_budget = 2_000;
                      suspect_phases = 2;
                      takeover_steps = Threadscan.Config.default.Threadscan.Config.takeover_steps;
                      overflow_after = Threadscan.Config.default.Threadscan.Config.overflow_after;
                    });
           }
         in
         let built = Registry.build env (Registry.spec ~buffer:buffer_size scheme) in
         let smr = wrap_analyzed built.Registry.smr in
         (* schemes without a stack scan protect the held node with an
            operation bracket instead (restarted if neutralized) *)
         let bracket = built.Registry.ts = None in
         smr.Smr.thread_init ();
         let cells = Runtime.alloc_region nthreads in
         let stop = Runtime.alloc_region 1 in
         (* workers: each holds a private reference to a published node and
            keeps working until released — their handlers will mark it *)
         let ws =
           List.init nthreads (fun i ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   Frame.with_frame 1 (fun fr ->
                       let p = Ptr.of_addr (Runtime.malloc 3) in
                       Frame.set fr 0 p;
                       let rec hold () =
                         match
                           if bracket then smr.Smr.op_begin ();
                           while Runtime.read stop = 0 do
                             Runtime.advance 20
                           done;
                           if bracket then smr.Smr.op_end ()
                         with
                         | () -> ()
                         | exception Smr.Neutralized -> hold ()
                       in
                       Runtime.write (cells + i) p;
                       hold ();
                       Frame.set fr 0 0);
                   smr.Smr.thread_exit ()))
         in
         Runtime.advance 500;
         (* Fault demo: take out the first worker (tid 1) right before the
            collect phase, while it still holds its published node.  A crash
            drops its pin for good (the node is freed, not carried); a stall
            leaves it frozen mid-hold, so the reclaimer must suspect it and
            proxy-scan its stack to keep the node alive until it wakes. *)
         (match fault with
         | "crash" -> Fault_plan.inflict 1 Crash
         | "stall" -> Fault_plan.inflict 1 (Stall (Bounded 30_000))
         | "none" -> ()
         | plan ->
             (* full plan: fire each clause on worker tids 1..V, advancing
                to its (virtual-cycle) trigger first.  Wall-clock triggers
                have no meaning in the sim. *)
             let clauses =
               match Fault_plan.parse plan with Ok cs -> cs | Error e -> failwith e
             in
             List.iter
               (fun { Fault_plan.victims; at; event } ->
                 (match at with
                 | Fault_plan.At k -> Runtime.advance k
                 | Fault_plan.At_ms _ ->
                     failwith "wall-clock (ms) triggers need the native backend");
                 for v = 1 to min victims nthreads do
                   Fault_plan.inflict v event
                 done)
               clauses);
         (* the main thread retires nodes until its buffer overflows: it
            becomes the reclaimer of Figure 2 *)
         for i = 0 to nthreads - 1 do
           let p = Runtime.read (cells + i) in
           if not (Ptr.is_null p) then begin
             Runtime.write (cells + i) 0;
             smr.Smr.retire p (* still held by worker i: will be marked *)
           end
         done;
         for _ = 1 to buffer_size do
           smr.Smr.retire (Ptr.of_addr (Runtime.malloc 3))
         done;
         (match built.Registry.ts with
         | Some ts ->
             has_ts := true;
             phases := Threadscan.phases ts;
             signals := Threadscan.signals_sent ts;
             carried := Threadscan.carried_last ts
         | None -> ());
         Runtime.write stop 1;
         List.iter Runtime.join ws;
         smr.Smr.thread_exit ();
         smr.Smr.flush ()));
  (if !has_ts then
     Fmt.pr
       "One ThreadScan collect phase, traced (threads=%d, buffer=%d, cores=%s, fault=%s, seed=%d):@.@."
       nthreads buffer_size
       (if cores <= 0 then "dedicated" else string_of_int cores)
       fault seed
   else
     Fmt.pr
       "One %s reclamation pass, traced (threads=%d, buffer=%d, cores=%s, fault=%s, seed=%d):@.@."
       scheme nthreads buffer_size
       (if cores <= 0 then "dedicated" else string_of_int cores)
       fault seed);
  Fmt.pr
    "replay: dune exec bin/tstrace.exe -- --threads %d --buffer %d --cores %d%s --fault %s \
     --seed %d%s@."
    nthreads buffer_size cores
    (if scheme = default_scheme then "" else " --scheme " ^ scheme)
    fault seed
    (if analyze then " --analyze" else "");
  Fmt.pr "(entries are in global schedule order; times are per-thread local clocks)@.";
  Fmt.pr "%10s  %s@." "cycles" "event";
  List.iter (fun e -> Fmt.pr "%a@." Trace.pp e) (entries ());
  if !has_ts then
    Fmt.pr "@.phases completed: %d;  signals sent: %d;  nodes carried (still referenced): %d@."
      !phases !signals !carried;
  match an with
  | None -> ()
  | Some a ->
      Ts_analyze.Analyze.detach a;
      Fmt.pr "@.%s" (Ts_analyze.Analyze.report_to_string a)
