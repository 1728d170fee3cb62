(* The paper's §7 target: "large legacy systems, such as … the kernel
   reference counted data-structures (for example, the VMA)".
   Run with: dune exec examples/kernel_vma.exe

   A miniature address space: virtual memory areas (VMAs) live in a sorted
   lock-based list keyed by their start page (the kernel's mmap_sem-free
   dream).  Page-fault handlers are pure traversals — the hot path the
   kernel would love to keep unsynchronized — while mmap/munmap insert and
   delete areas.  ThreadScan reclaims unmapped VMA descriptors without any
   reference counting in the fault path. *)

module Runtime = Ts_sim.Runtime
module Smr = Ts_smr.Smr
module Set_intf = Ts_ds.Set_intf

let pages = 512 (* address space size, in pages *)

let vma_span = 8 (* pages per area *)

let () =
  ignore
    (Runtime.run ~config:{ Runtime.default_config with cores = 4; seed = 7 } (fun () ->
         let ts =
           Threadscan.create
             ~config:{ Threadscan.Config.default with max_threads = 16; buffer_size = 16 }
             ()
         in
         let smr = Threadscan.smr ts in
         smr.Smr.thread_init ();
         (* the "VMA tree": start-page -> protection bits *)
         let address_space = Ts_ds.Lazy_list.create ~smr () in
         (* initially map every even-numbered area *)
         let nareas = pages / vma_span in
         for a = 0 to nareas - 1 do
           if a mod 2 = 0 then ignore (address_space.Set_intf.insert (a * vma_span) 0o755)
         done;
         let faults = Runtime.alloc_region 1 in
         let segv = Runtime.alloc_region 1 in
         let remaps = Runtime.alloc_region 1 in
         (* fault handlers: translate a page to its area — pure traversal *)
         let fault_threads =
           List.init 4 (fun _ ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for _ = 1 to 400 do
                     let page = Runtime.rand_below pages in
                     let start = page - (page mod vma_span) in
                     if address_space.Set_intf.contains start then ignore (Runtime.faa faults 1)
                     else ignore (Runtime.faa segv 1)
                   done;
                   smr.Smr.thread_exit ()))
         in
         (* mmap/munmap churn: remap areas, freeing old descriptors *)
         let map_threads =
           List.init 2 (fun _ ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for _ = 1 to 200 do
                     let a = Runtime.rand_below nareas in
                     let start = a * vma_span in
                     if address_space.Set_intf.remove start then begin
                       (* unmapped: the old VMA descriptor is retired by the
                          list; now remap with fresh protections *)
                       ignore (address_space.Set_intf.insert start 0o700);
                       ignore (Runtime.faa remaps 1)
                     end
                     else ignore (address_space.Set_intf.insert start 0o755)
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join fault_threads;
         List.iter Runtime.join map_threads;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         address_space.Set_intf.check ();
         Fmt.pr "page faults resolved:   %d@." (Runtime.read faults);
         Fmt.pr "segfaults (unmapped):   %d@." (Runtime.read segv);
         Fmt.pr "areas remapped:         %d@." (Runtime.read remaps);
         Fmt.pr "VMA descriptors retired=%d freed=%d — no refcounts in the fault path@."
           (Smr.retired smr) (Smr.freed smr);
         assert (Smr.retired smr = Smr.freed smr)))
