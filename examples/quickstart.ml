(* Quickstart: ThreadScan in five steps.
   Run with: dune exec examples/quickstart.exe

   Everything happens inside the simulated multiprocessor
   (Ts_sim.Runtime.run): memory words, threads, signals and the virtual
   clock all live there.  The flow below is the paper's programming model:
   the data structure only ever calls [retire]; scanning and freeing are
   ThreadScan's business. *)

module Runtime = Ts_sim.Runtime
module Smr = Ts_smr.Smr
module Set_intf = Ts_ds.Set_intf

let () =
  ignore
    (Runtime.run (fun () ->
         (* 1. Create a ThreadScan instance: per-thread delete buffers of 32
            pointers, up to 16 participating threads. *)
         let ts =
           Threadscan.create
             ~config:{ Threadscan.Config.default with max_threads = 16; buffer_size = 32 }
             ()
         in
         let smr = Threadscan.smr ts in

         (* 2. Register the current thread (installs the TS-Scan signal
            handler) and build a data structure on top of the scheme. *)
         smr.Smr.thread_init ();
         let set = Ts_ds.Michael_list.create ~smr () in

         (* 3. Run a few concurrent workers.  Each registers itself, does
            ordinary inserts/removes/lookups, and deregisters.  No hazard
            pointers to place, no epochs to bracket: removal inside the list
            just hands unlinked nodes to [retire]. *)
         let workers =
           List.init 4 (fun i ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for k = 0 to 199 do
                     let key = (100 * i) + (k mod 100) in
                     ignore (set.Set_intf.insert key (key * 7));
                     if k mod 3 = 0 then ignore (set.Set_intf.remove key);
                     ignore (set.Set_intf.contains key)
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join workers;

         (* 4. Quiesce: free everything still buffered. *)
         smr.Smr.thread_exit ();
         smr.Smr.flush ();

         (* 5. Inspect. *)
         Fmt.pr "final set size:        %d@." (Set_intf.size set);
         Fmt.pr "nodes retired:         %d@." (Smr.retired smr);
         Fmt.pr "nodes freed:           %d@." (Smr.freed smr);
         Fmt.pr "reclamation phases:    %d@." (Threadscan.phases ts);
         Fmt.pr "signals sent:          %d@." (Threadscan.signals_sent ts);
         Fmt.pr "stack words scanned:   %d@." (Threadscan.scan_words ts);
         Fmt.pr "virtual time elapsed:  %d cycles@." (Runtime.now ());
         assert (Smr.retired smr = Smr.freed smr);
         Fmt.pr "@.every retired node was reclaimed — no leaks, no dangling reads.@."))
