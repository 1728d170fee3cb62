(* Bringing your own data structure to ThreadScan.
   Run with: dune exec examples/custom_ds.exe

   A Treiber stack, written from scratch against the SMR interface.  The
   integration checklist is short — this is the paper's ease-of-use claim:

   1. keep private node pointers in shadow-stack frames (Ts_rt.Frame);
   2. call [retire] on a node once it is unlinked;
   3. have each thread call [thread_init]/[thread_exit].

   No per-read announcements, no epochs: with ThreadScan behind the
   interface, [protect] is a no-op.  (The same code runs unchanged on
   hazard pointers because we still call [protect] and re-validate — other
   schemes simply make it free.) *)

module Runtime = Ts_sim.Runtime
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr

module Treiber_stack = struct
  (* node layout: [value][next] *)
  type t = { smr : Smr.t; top : int (* cell holding the top pointer *) }

  let create ~smr =
    let top = Runtime.alloc_region 1 in
    Runtime.write top Ptr.null;
    { smr; top }

  let push t v =
    Frame.with_frame 1 (fun fr ->
        let node = Ptr.of_addr (Runtime.malloc 2) in
        Frame.set fr 0 node;
        Runtime.write (Ptr.addr node) v;
        let rec loop () =
          let old = Runtime.read t.top in
          Runtime.write (Ptr.addr node + 1) old;
          if not (Runtime.cas t.top old node) then loop ()
        in
        loop ())

  let pop t =
    t.smr.Smr.op_begin ();
    let result =
      Frame.with_frame 1 (fun fr ->
          let rec loop () =
            let old = t.smr.Smr.protect ~slot:0 (Runtime.read t.top) in
            Frame.set fr 0 old;
            if Ptr.is_null old then None
            else if Runtime.read t.top <> old then loop () (* validate *)
            else
              let next = Runtime.read (Ptr.addr old + 1) in
              if Runtime.cas t.top old next then begin
                let v = Runtime.read (Ptr.addr old) in
                (* unlinked: hand it to the reclamation scheme *)
                t.smr.Smr.retire old;
                Some v
              end
              else loop ()
          in
          loop ())
    in
    t.smr.Smr.release ~slot:0;
    t.smr.Smr.op_end ();
    result
end

let () =
  ignore
    (Runtime.run (fun () ->
         let ts =
           Threadscan.create
             ~config:{ Threadscan.Config.default with max_threads = 16; buffer_size = 16 }
             ()
         in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         let stack = Treiber_stack.create ~smr in
         let popped = Runtime.alloc_region 1 in
         let workers =
           List.init 6 (fun i ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for k = 0 to 149 do
                     Treiber_stack.push stack ((1000 * i) + k);
                     if k mod 2 = 0 then
                       match Treiber_stack.pop stack with
                       | Some _ -> ignore (Runtime.faa popped 1)
                       | None -> ()
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join workers;
         (* drain what's left *)
         let rec drain n = match Treiber_stack.pop stack with Some _ -> drain (n + 1) | None -> n in
         let drained = drain 0 in
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         Fmt.pr "pushes:              %d@." (6 * 150);
         Fmt.pr "pops (racing):       %d@." (Runtime.read popped);
         Fmt.pr "pops (final drain):  %d@." drained;
         Fmt.pr "retired = freed:     %d = %d@." (Smr.retired smr) (Smr.freed smr);
         Fmt.pr "reclamation phases:  %d@." (Threadscan.phases ts);
         assert (6 * 150 = Runtime.read popped + drained);
         assert (Smr.retired smr = Smr.freed smr);
         Fmt.pr "@.a brand-new lock-free stack got safe reclamation from three integration points.@."))
