(* The happens-before race detector + SMR lifecycle sanitizer.

   Three angles:

   - soundness of the quiet side: every structure in the repository, on
     both backends, runs under the analyzer with zero reports (the
     structures are correct; a false positive here would poison every
     sweep);
   - each deliberately seeded bug is caught, with the right violation
     kind and attribution (checker validation — a detector that never
     fires is indistinguishable from one that works);
   - determinism: the same spec yields a byte-identical report, which is
     what makes a failing sweep's replay command trustworthy;

   plus the backend-registration guard the analyzer's decorator relies
   on: entering a second backend mid-run must fail loudly rather than
   silently swapping the ops table out from under the instrumentation. *)

module Rt = Ts_rt
module Frame = Ts_rt.Frame
module Smr = Ts_smr.Smr
module Ptr = Ts_umem.Ptr
module Analyze = Ts_analyze.Analyze
module Scenario = Ts_check.Scenario
module Report = Ts_check.Report

let check = Alcotest.(check int)

type runner = { rname : string; exec : (unit -> unit) -> int }

let sim_runner =
  {
    rname = "sim";
    exec =
      (fun body ->
        let module R = Ts_sim.Runtime in
        let cfg = { R.default_config with strict_mem = true; propagate_failures = true } in
        let rt = R.create cfg in
        ignore (R.add_thread rt body);
        ignore (R.start rt);
        Ts_umem.Mem.total_faults (R.mem rt));
  }

let native_runner =
  {
    rname = "native";
    exec =
      (fun body ->
        let module R = Ts_par.Runtime in
        let cfg = { R.default_config with strict_mem = true; pool = 4 } in
        let res = R.run ~config:cfg body in
        Ts_par.Heap.total_faults res.R.heap);
  }

let runners = [ sim_runner; native_runner ]

(* ------------------------------------------------------------------ *)
(* Clean structures stay clean under the analyzer                     *)
(* ------------------------------------------------------------------ *)

let make_ds smr = function
  | "list" -> Ts_ds.Michael_list.create ~smr ()
  | "hash" -> Ts_ds.Hash_table.create ~smr ~buckets:32 ()
  | "skiplist" -> Ts_ds.Skiplist.create ~smr ~max_height:6 ()
  | "lazy-list" -> Ts_ds.Lazy_list.create ~smr ()
  | s -> invalid_arg s

let test_clean r kind () =
  let an = Analyze.attach ~notes:false () in
  let faults =
    Fun.protect
      ~finally:(fun () -> Analyze.detach an)
      (fun () ->
        r.exec (fun () ->
            let config = { Threadscan.Config.default with max_threads = 8; buffer_size = 16 } in
            let smr = Analyze.wrap_smr an (Threadscan.smr (Threadscan.create ~config ())) in
            smr.Smr.thread_init ();
            let ds = make_ds smr kind in
            let ws =
              List.init 4 (fun _ ->
                  Rt.spawn (fun () ->
                      smr.Smr.thread_init ();
                      ignore (Frame.push 8);
                      for _ = 1 to 150 do
                        let key = Rt.rand_below 32 in
                        match Rt.rand_below 3 with
                        | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                        | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                        | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                      done;
                      smr.Smr.thread_exit ()))
            in
            List.iter Rt.join ws;
            ds.Ts_ds.Set_intf.check ();
            smr.Smr.thread_exit ();
            smr.Smr.flush ()))
  in
  check "no memory faults" 0 faults;
  Alcotest.(check bool) "analyzer observed the run" true (Analyze.ops_seen an > 0);
  Alcotest.(check bool) "allocations tracked" true (Analyze.allocs_seen an > 0);
  Alcotest.(check (list string)) "no violations"
    []
    (List.map Analyze.violation_to_string (Analyze.violations an))

(* ------------------------------------------------------------------ *)
(* Seeded bugs are caught, with the right attribution                 *)
(* ------------------------------------------------------------------ *)

(* Known-firing specs (found by sweeping, kept deterministic by seed;
   see test/cram/tscheck_race.t for the CLI view of the same runs). *)
let bug_spec bug =
  let base =
    { Scenario.default with Scenario.ds = Scenario.bug_ds bug; analyze = true; bug = Some bug }
  in
  match bug with
  | Scenario.Bug_elide_lock -> { base with Scenario.threads = 3; ops = 5; key_range = 4; seed = 1 }
  | Scenario.Bug_retire_early -> { base with Scenario.threads = 1; ops = 2; key_range = 4 }
  | Scenario.Bug_skip_fence -> { base with Scenario.threads = 3; ops = 15; key_range = 8; seed = 9 }

let races o =
  List.filter_map (function Report.Race r -> Some r | _ -> None) o.Scenario.violations

let lifecycles o =
  List.filter_map (function Report.Lifecycle l -> Some l | _ -> None) o.Scenario.violations

let test_elide_lock () =
  let o = Scenario.run (bug_spec Scenario.Bug_elide_lock) in
  let write_write =
    List.filter
      (fun (r : Ts_analyze.Analyze.race) ->
        r.rc_first.a_op = "write" && r.rc_second.a_op = "write"
        && r.rc_first.a_tid <> r.rc_second.a_tid)
      (races o)
  in
  Alcotest.(check bool) "unordered write-write pair reported" true (write_write <> []);
  List.iter
    (fun (r : Ts_analyze.Analyze.race) ->
      Alcotest.(check bool) "racing word attributed to an allocation" true
        (r.rc_alloc <> None))
    write_write

let test_retire_early () =
  let o = Scenario.run (bug_spec Scenario.Bug_retire_early) in
  let kinds = List.map (fun (l : Ts_analyze.Analyze.lifecycle) -> l.lc_kind) (lifecycles o) in
  Alcotest.(check bool) "retire-before-unlink reported" true
    (List.mem Ts_analyze.Analyze.Retire_before_unlink kinds);
  Alcotest.(check bool) "double-retire reported" true
    (List.mem Ts_analyze.Analyze.Double_retire kinds);
  List.iter
    (fun (l : Ts_analyze.Analyze.lifecycle) ->
      Alcotest.(check string) "attributed to the owning scheme" "threadscan" l.lc_scheme)
    (lifecycles o)

let test_skip_fence () =
  let o = Scenario.run (bug_spec Scenario.Bug_skip_fence) in
  let free_races =
    List.filter
      (fun (r : Ts_analyze.Analyze.race) ->
        r.rc_first.a_op = "free" || r.rc_second.a_op = "free")
      (races o)
  in
  Alcotest.(check bool) "free-vs-access race reported" true (free_races <> []);
  List.iter
    (fun (r : Ts_analyze.Analyze.race) ->
      Alcotest.(check bool) "free races a different thread's access" true
        (r.rc_first.a_tid <> r.rc_second.a_tid))
    free_races

(* ------------------------------------------------------------------ *)
(* The retire-before-unlink verdict waits for the references          *)
(* ------------------------------------------------------------------ *)

(* A node unlinked but not yet retired still links to its successor, so
   a successor unlinked and retired before it has a counted reference at
   its retire (a lazy-list remove racing the remove of its predecessor).
   The referrer's own retire acquits; a link overwritten after the
   retire, or still standing at the end, convicts. *)
let test_retire_verdict () =
  let kinds body =
    let an = Analyze.attach ~notes:false () in
    let (_ : int) =
      Fun.protect
        ~finally:(fun () -> Analyze.detach an)
        (fun () ->
          sim_runner.exec (fun () ->
              let smr = Analyze.wrap_smr an (Ts_reclaim.Leaky.create ()) in
              let head = Rt.alloc_region 1 in
              let node next =
                let p = Ptr.of_addr (Rt.malloc 2) in
                Rt.write (Ptr.addr p + 1) next;
                p
              in
              body smr head node))
    in
    List.map
      (fun (l : Analyze.lifecycle) -> Analyze.kind_to_string l.lc_kind)
      (Analyze.lifecycle_violations an)
  in
  let unlinked_referrer =
    kinds (fun smr head node ->
        let y = node (node Ptr.null) in
        let x = node y in
        Rt.write head x;
        Rt.write head y (* x unlinked, still linking to y *);
        Rt.write head (Rt.read (Ptr.addr y + 1)) (* y unlinked *);
        smr.Smr.retire y;
        smr.Smr.retire x)
  in
  Alcotest.(check (list string)) "referrer retired too: acquitted" [] unlinked_referrer;
  let unlinked_late =
    kinds (fun smr head node ->
        let y = node Ptr.null in
        Rt.write head y;
        smr.Smr.retire y;
        Rt.write head Ptr.null)
  in
  Alcotest.(check (list string)) "unlinked after retire: convicted" [ "retire-before-unlink" ]
    unlinked_late;
  let never_unlinked =
    kinds (fun smr head node ->
        let y = node Ptr.null in
        Rt.write head y;
        smr.Smr.retire y)
  in
  Alcotest.(check (list string)) "still linked at the end: convicted" [ "retire-before-unlink" ]
    never_unlinked

(* ------------------------------------------------------------------ *)
(* scan_words is one read per word to the analyzer                    *)
(* ------------------------------------------------------------------ *)

(* t1 scans a block t0 wrote; t0 then frees it with no happens-before
   edge back from t1 (the handoff is an OCaml atomic the analyzer cannot
   see).  The analyzer reports a read racing a free, not one racing a
   plain store (a stale read of a live word is defined; docs/ANALYSIS.md),
   so the free is the racing write here.  Returns the ops t1's scan added
   to [ops_seen] and the reports. *)
let scan_race r scan =
  let len = 4 in
  let an = Analyze.attach ~notes:false () in
  let seen = ref (-1) in
  let (_ : int) =
    Fun.protect
      ~finally:(fun () -> Analyze.detach an)
      (fun () ->
        r.exec (fun () ->
            let block = Rt.malloc len in
            for i = 0 to len - 1 do
              Rt.write (block + i) i
            done;
            let scanned = Atomic.make false in
            let t1 =
              Rt.spawn (fun () ->
                  let before = Analyze.ops_seen an in
                  (* an empty window: no word reaches [f], yet every word is
                     read *)
                  scan block len ~lo:max_int ~hi:min_int (fun _ -> ());
                  seen := Analyze.ops_seen an - before;
                  Atomic.set scanned true)
            in
            while not (Atomic.get scanned) do
              Rt.yield ()
            done;
            Rt.free block;
            Rt.join t1))
  in
  (len, !seen, Analyze.races an, List.map Analyze.violation_to_string (Analyze.violations an))

let test_scan_words_race r () =
  let read_loop base len ~lo ~hi f =
    for a = base to base + len - 1 do
      let w = Rt.read a in
      if w >= lo && w <= hi then f w
    done
  in
  let len, seen, races, report = scan_race r Rt.scan_words in
  check "ops_seen grows by len" len seen;
  (match races with
  | [ rc ] ->
      Alcotest.(check (pair int string)) "first site: t1's scan" (1, "read")
        (rc.rc_first.a_tid, rc.rc_first.a_op);
      Alcotest.(check (pair int string)) "second site: t0's free" (0, "free")
        (rc.rc_second.a_tid, rc.rc_second.a_op)
  | l -> Alcotest.failf "expected one race, got %d" (List.length l));
  let _, loop_seen, _, loop_report = scan_race r read_loop in
  check "a read loop counts the same" loop_seen seen;
  if r.rname = "sim" then
    Alcotest.(check (list string)) "byte-identical to a read loop's report" loop_report report

(* A search is one read per probe to the analyzer, as the read loop it
   stands for is. *)
let test_search_reads r () =
  let an = Analyze.attach ~notes:false () in
  let counts = ref [] in
  let (_ : int) =
    Fun.protect
      ~finally:(fun () -> Analyze.detach an)
      (fun () ->
        r.exec (fun () ->
            let n = 9 in
            let block = Rt.malloc n in
            for i = 0 to n - 1 do
              Rt.write (block + i) (i * 10)
            done;
            let seen search key =
              let before = Analyze.ops_seen an in
              let i = search block n key in
              (i, Analyze.ops_seen an - before)
            in
            counts :=
              List.map
                (fun key ->
                  let probes = ref 0 in
                  let loop b n k = Rt.search_by (fun a -> incr probes; Rt.read a) b n k in
                  let via_loop = seen loop key in
                  (!probes, via_loop, seen Rt.search key))
                [ 0; 40; 80; 35; -5; 95 ];
            Rt.free block))
  in
  List.iter
    (fun (probes, (li, lseen), (si, sseen)) ->
      check "the loop: one op per probe" probes lseen;
      check "search: one op per probe" probes sseen;
      check "the same index" li si)
    !counts

(* The phase's buffer ops are, to the analyzer, their reference loops:
   one event per word read or written, as many as the loop's. *)
let test_buffer_ops_events r () =
  let an = Analyze.attach ~notes:false () in
  let counts = ref [] in
  let (_ : int) =
    Fun.protect
      ~finally:(fun () -> Analyze.detach an)
      (fun () ->
        r.exec (fun () ->
            let words = ref 0 in
            let read a =
              incr words;
              Rt.read a
            and write a v =
              incr words;
              Rt.write a v
            in
            (* a ring of 4 slots holding 3 pointers across its wrap, and a
               table of 4 entries and their marks, every other one set *)
            let state () =
              let ring = Rt.malloc 6 and table = Rt.malloc 8 in
              Rt.write ring 9;
              Rt.write (ring + 1) 6;
              for i = 0 to 3 do
                Rt.write (ring + 2 + i) (100 + i);
                Rt.write (table + i) (8 * (i + 1));
                Rt.write (table + 4 + i) (i land 1)
              done;
              (ring, table)
            in
            let seen f =
              let before = Analyze.ops_seen an in
              f ();
              Analyze.ops_seen an - before
            in
            let compare name loop op =
              let ring, table = state () in
              words := 0;
              let loop_seen = seen (fun () -> loop read write ring table) in
              let n = !words in
              let ring, table = state () in
              counts := (name, n, loop_seen, seen (fun () -> op ring table)) :: !counts
            in
            let into = Array.make 4 0 in
            compare "drain (room for 2)"
              (fun read write ring dst -> Rt.drain_by read write ring 4 ~dst ~cap:2 (ref 0))
              (fun ring dst -> Rt.drain ring 4 ~dst ~cap:2 (ref 0));
            compare "read_words"
              (fun read _ _ base -> Rt.read_words_by read base 4 into)
              (fun _ base -> Rt.read_words base 4 into);
            compare "publish"
              (fun _ write _ t -> Rt.publish_by write ~entries:t ~marks:(t + 4) into 4)
              (fun _ t -> Rt.publish ~entries:t ~marks:(t + 4) into 4);
            compare "sweep"
              (fun read write _ t ->
                ignore
                  (Rt.sweep_by read write ~entries:t ~marks:(t + 4) ~ignore_marks:false 4 into))
              (fun _ t -> ignore (Rt.sweep ~entries:t ~marks:(t + 4) ~ignore_marks:false 4 into))))
  in
  check "four ops" 4 (List.length !counts);
  List.iter
    (fun (name, words, loop_seen, op_seen) ->
      check (name ^ ": the loop, one event per word") words loop_seen;
      check (name ^ ": the op, the loop's events") loop_seen op_seen)
    !counts

(* ------------------------------------------------------------------ *)
(* Determinism                                                        *)
(* ------------------------------------------------------------------ *)

let report_of o = List.map Report.to_string o.Scenario.violations

let test_deterministic_report () =
  let spec = bug_spec Scenario.Bug_elide_lock in
  let a = Scenario.run spec and b = Scenario.run spec in
  Alcotest.(check bool) "the seeded bug fired" true (a.Scenario.violations <> []);
  Alcotest.(check (list string)) "same seed, byte-identical report" (report_of a) (report_of b);
  let other = Scenario.run { spec with Scenario.seed = spec.Scenario.seed + 1 } in
  (* not an assertion that it MUST differ — just record that a different
     seed is a different schedule *)
  ignore other

(* ------------------------------------------------------------------ *)
(* Backend install guard                                              *)
(* ------------------------------------------------------------------ *)

let test_install_guard () =
  let refused = ref false in
  let (_ : int) =
    sim_runner.exec (fun () ->
        (* entering the native backend while the simulator run is active
           must be refused — it would swap the ops table (and any attached
           analyzer) out from under every running fiber *)
        match Ts_par.Runtime.run (fun () -> ()) with
        | _ -> ()
        | exception Failure msg ->
            refused := String.length msg > 0;
            ())
  in
  Alcotest.(check bool) "second backend install refused mid-run" true !refused

let test_reinstall_between_runs () =
  (* sequential sim and native runs in one process keep working: install
     between runs is the documented, supported reinstall path *)
  let s1 = sim_runner.exec (fun () -> ignore (Rt.malloc 2)) in
  let n1 = native_runner.exec (fun () -> ignore (Rt.malloc 2)) in
  let s2 = sim_runner.exec (fun () -> ignore (Rt.malloc 2)) in
  check "sim leak-free" 0 s1;
  check "native leak-free" 0 n1;
  check "sim again leak-free" 0 s2

(* ------------------------------------------------------------------ *)

let per_backend name f =
  List.map
    (fun r -> Alcotest.test_case (Fmt.str "%s [%s]" name r.rname) `Quick (fun () -> f r ()))
    runners

let ds_kinds = [ "list"; "hash"; "skiplist"; "lazy-list" ]

let () =
  Alcotest.run "analyze"
    [
      ("clean", List.concat_map (fun k -> per_backend k (fun r -> test_clean r k)) ds_kinds);
      ( "seeded-bugs",
        [
          Alcotest.test_case "elide-lock: unordered write-write" `Quick test_elide_lock;
          Alcotest.test_case "retire-early: lifecycle automaton" `Quick test_retire_early;
          Alcotest.test_case "skip-fence: free-vs-access race" `Quick test_skip_fence;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "retire verdict waits for the references" `Quick test_retire_verdict ]
      );
      ("scan-words", per_backend "free racing a scan is reported" test_scan_words_race);
      ("search", per_backend "one read per probe" test_search_reads);
      ( "phase-buffer-ops",
        per_backend "one event per word, as the loop" test_buffer_ops_events );
      ( "determinism",
        [ Alcotest.test_case "same seed, same report" `Quick test_deterministic_report ] );
      ( "backend-guard",
        [
          Alcotest.test_case "install refused while a run is active" `Quick test_install_guard;
          Alcotest.test_case "reinstall between runs is supported" `Quick
            test_reinstall_between_runs;
        ] );
    ]
