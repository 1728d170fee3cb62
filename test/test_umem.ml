module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Ptr = Ts_umem.Ptr
module Size_class = Ts_umem.Size_class
module Splitmix = Ts_util.Splitmix

let check = Alcotest.(check int)

let fresh () =
  let mem = Mem.create () in
  let alloc = Alloc.create ~max_threads:4 mem in
  (mem, alloc)

(* --------------------------------- Ptr ---------------------------------- *)

let test_ptr_roundtrip () =
  List.iter
    (fun a -> check "roundtrip" a (Ptr.addr (Ptr.of_addr a)))
    [ 1; 2; 1000; 123456; (1 lsl 40) - 1 ]

let test_ptr_marking () =
  let p = Ptr.of_addr 77 in
  Alcotest.(check bool) "fresh unmarked" false (Ptr.is_marked p);
  let m = Ptr.mark p in
  Alcotest.(check bool) "marked" true (Ptr.is_marked m);
  check "addr survives mark" 77 (Ptr.addr m);
  check "unmark restores" p (Ptr.unmark m)

let test_ptr_null () =
  Alcotest.(check bool) "null is null" true (Ptr.is_null Ptr.null);
  Alcotest.(check bool) "tagged null is null" true (Ptr.is_null (Ptr.mark Ptr.null));
  Alcotest.(check bool) "non-null" false (Ptr.is_null (Ptr.of_addr 1))

let test_ptr_mask () =
  check "mask clears 3 bits" (Ptr.of_addr 5) (Ptr.mask (Ptr.of_addr 5 lor 7))

(* --------------------------------- Mem ---------------------------------- *)

let test_mem_reserve_rw () =
  let mem = Mem.create () in
  let base = Mem.reserve mem 10 in
  Mem.mark_live mem base 10;
  Mem.write mem base 42;
  Mem.write mem (base + 9) 43;
  check "read back" 42 (Mem.read mem base);
  check "read back end" 43 (Mem.read mem (base + 9))

let test_mem_wild_access () =
  let mem = Mem.create () in
  let base = Mem.reserve mem 4 in
  (* reserved but never marked live *)
  Alcotest.check_raises "wild read" (Mem.Fault (Mem.Wild_read, base)) (fun () ->
      ignore (Mem.read mem base));
  Alcotest.check_raises "wild write" (Mem.Fault (Mem.Wild_write, base)) (fun () ->
      Mem.write mem base 1)

let test_mem_null_page () =
  let mem = Mem.create () in
  Alcotest.check_raises "null deref" (Mem.Fault (Mem.Wild_read, 0)) (fun () ->
      ignore (Mem.read mem 0))

let test_mem_uaf () =
  let mem = Mem.create () in
  let base = Mem.reserve mem 4 in
  Mem.mark_live mem base 4;
  Mem.write mem base 7;
  Mem.mark_freed mem base 4;
  Alcotest.check_raises "uaf read" (Mem.Fault (Mem.Uaf_read, base)) (fun () ->
      ignore (Mem.read mem base));
  Alcotest.check_raises "uaf write" (Mem.Fault (Mem.Uaf_write, base + 1)) (fun () ->
      Mem.write mem (base + 1) 1)

let test_mem_poison () =
  let mem = Mem.create () in
  let base = Mem.reserve mem 4 in
  Mem.mark_live mem base 4;
  Mem.write mem base 7;
  Mem.mark_freed mem base 4;
  check "poisoned" Mem.poison (Mem.raw_read mem base)

let test_mem_nonstrict_counts () =
  let mem = Mem.create ~strict:false () in
  let base = Mem.reserve mem 2 in
  Mem.mark_live mem base 2;
  Mem.mark_freed mem base 2;
  check "uaf read returns poison" Mem.poison (Mem.read mem base);
  Mem.write mem base 9;
  check "uaf read count" 1 (Mem.fault_count mem Mem.Uaf_read);
  check "uaf write count" 1 (Mem.fault_count mem Mem.Uaf_write);
  check "total" 2 (Mem.total_faults mem)

let test_mem_realloc_clears_state () =
  let mem = Mem.create () in
  let base = Mem.reserve mem 4 in
  Mem.mark_live mem base 4;
  Mem.mark_freed mem base 4;
  Mem.mark_live mem base 4;
  check "zeroed on relive" 0 (Mem.read mem base)

let test_mem_capacity_limit () =
  let mem = Mem.create ~capacity_limit:1024 () in
  ignore (Mem.reserve mem 1000);
  Alcotest.check_raises "oom" (Mem.Fault (Mem.Out_of_memory, 1001)) (fun () ->
      ignore (Mem.reserve mem 100))

(* ------------------------------ Size_class ------------------------------ *)

let test_size_class_monotone () =
  for n = 1 to Size_class.max_small do
    let c = Size_class.of_size n in
    Alcotest.(check bool) "class fits" true (Size_class.size c >= n);
    if c > 0 then
      Alcotest.(check bool) "tightest class" true (Size_class.size (c - 1) < n)
  done

let test_size_class_bounds () =
  Alcotest.(check bool) "0 not small" false (Size_class.is_small 0);
  Alcotest.(check bool) "max small" true (Size_class.is_small Size_class.max_small);
  Alcotest.(check bool) "beyond" false (Size_class.is_small (Size_class.max_small + 1))

(* -------------------------------- Alloc --------------------------------- *)

let test_alloc_basic () =
  let mem, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 3 in
  check "zero filled" 0 (Mem.read mem a);
  Mem.write mem a 11;
  Mem.write mem (a + 2) 13;
  check "rw" 11 (Mem.read mem a);
  check "live blocks" 1 (Alloc.live_blocks alloc);
  Alloc.free alloc ~tid:0 a;
  check "live blocks after free" 0 (Alloc.live_blocks alloc)

let test_alloc_reuse_same_class () =
  let _, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 3 in
  Alloc.free alloc ~tid:0 a;
  let b = Alloc.malloc alloc ~tid:0 3 in
  check "cache reuses freed block" a b

let test_alloc_usable_size () =
  let _, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 5 in
  Alcotest.(check bool) "usable >= requested" true (Alloc.block_size alloc a >= 5)

let test_alloc_double_free () =
  let _, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 2 in
  Alloc.free alloc ~tid:0 a;
  Alcotest.check_raises "double free" (Mem.Fault (Mem.Double_free, a)) (fun () ->
      Alloc.free alloc ~tid:0 a)

let test_alloc_interior_free () =
  let _, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 8 in
  Alcotest.check_raises "interior free" (Mem.Fault (Mem.Bad_free, a + 1)) (fun () ->
      Alloc.free alloc ~tid:0 (a + 1))

let test_alloc_header_protected () =
  let mem, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 2 in
  Alcotest.check_raises "header is not data" (Mem.Fault (Mem.Wild_read, a - 1)) (fun () ->
      ignore (Mem.read mem (a - 1)))

let test_alloc_uaf_detected () =
  let mem, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 2 in
  Alloc.free alloc ~tid:0 a;
  Alcotest.check_raises "uaf" (Mem.Fault (Mem.Uaf_read, a)) (fun () ->
      ignore (Mem.read mem a))

let test_alloc_large () =
  let mem, alloc = fresh () in
  let n = Size_class.max_small * 3 in
  let a = Alloc.malloc alloc ~tid:0 n in
  Mem.write mem (a + n - 1) 5;
  check "large rw" 5 (Mem.read mem (a + n - 1));
  check "large exact size" n (Alloc.block_size alloc a);
  Alloc.free alloc ~tid:0 a;
  let b = Alloc.malloc alloc ~tid:0 n in
  check "large reuse" a b

let test_alloc_is_block () =
  let _, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 4 in
  Alcotest.(check bool) "base is block" true (Alloc.is_block alloc a);
  Alcotest.(check bool) "interior is not" false (Alloc.is_block alloc (a + 1));
  Alloc.free alloc ~tid:0 a;
  Alcotest.(check bool) "freed is not" false (Alloc.is_block alloc a)

let test_alloc_cross_thread_free () =
  let _, alloc = fresh () in
  let a = Alloc.malloc alloc ~tid:0 3 in
  Alloc.free alloc ~tid:1 a;
  (* Thread 1's cache owns it now; thread 1 reuses it. *)
  let b = Alloc.malloc alloc ~tid:1 3 in
  check "migrated to freeing thread's cache" a b

let test_alloc_region_permanent () =
  let mem, alloc = fresh () in
  let r = Alloc.alloc_region alloc 16 in
  Mem.write mem (r + 15) 3;
  check "region rw" 3 (Mem.read mem (r + 15));
  Alcotest.check_raises "regions cannot be freed" (Mem.Fault (Mem.Bad_free, r)) (fun () ->
      Alloc.free alloc ~tid:0 r)

let test_alloc_stats () =
  let _, alloc = fresh () in
  let blocks = List.init 10 (fun _ -> Alloc.malloc alloc ~tid:0 4) in
  check "peak" 10 (Alloc.peak_live_blocks alloc);
  List.iter (Alloc.free alloc ~tid:0) blocks;
  check "mallocs" 10 (Alloc.total_mallocs alloc);
  check "frees" 10 (Alloc.total_frees alloc);
  check "live" 0 (Alloc.live_blocks alloc);
  check "live words" 0 (Alloc.live_words alloc);
  Alcotest.(check bool) "cache hits happened" true (Alloc.cache_hits alloc > 0);
  check "one central refill was enough" 1 (Alloc.central_refills alloc)

(* ------------------------------ properties ------------------------------ *)

(* Random malloc/free interleavings: live blocks never overlap, contents are
   independent, sizes honoured. *)
let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"random alloc/free: live blocks disjoint" ~count:100
    QCheck.(pair int (list (pair bool (int_range 1 300))))
    (fun (seed, ops) ->
      let mem = Mem.create () in
      let alloc = Alloc.create ~max_threads:2 mem in
      let rng = Splitmix.create seed in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || Hashtbl.length live = 0 then begin
            let a = Alloc.malloc alloc ~tid:(Splitmix.below rng 2) n in
            let size = Alloc.block_size alloc a in
            (* stamp the block with its own id *)
            for i = 0 to size - 1 do
              Mem.write mem (a + i) a
            done;
            Hashtbl.replace live a size
          end
          else begin
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
            let victim = List.nth keys (Splitmix.below rng (List.length keys)) in
            (* before freeing, verify the stamp is intact: overlap would have
               corrupted it *)
            let size = Hashtbl.find live victim in
            for i = 0 to size - 1 do
              if Mem.read mem (victim + i) <> victim then failwith "overlap!"
            done;
            Alloc.free alloc ~tid:(Splitmix.below rng 2) victim;
            Hashtbl.remove live victim
          end)
        ops;
      Hashtbl.iter
        (fun a size ->
          for i = 0 to size - 1 do
            if Mem.read mem (a + i) <> a then failwith "corrupt survivor"
          done)
        live;
      Hashtbl.length live = Alloc.live_blocks alloc)

let prop_alloc_balance =
  QCheck.Test.make ~name:"mallocs - frees = live" ~count:100
    QCheck.(list (int_range 1 64))
    (fun sizes ->
      let mem = Mem.create () in
      let alloc = Alloc.create ~max_threads:1 mem in
      let blocks = List.map (fun n -> Alloc.malloc alloc ~tid:0 n) sizes in
      let half = List.filteri (fun i _ -> i mod 2 = 0) blocks in
      List.iter (Alloc.free alloc ~tid:0) half;
      Alloc.total_mallocs alloc - Alloc.total_frees alloc = Alloc.live_blocks alloc)

(* Magazine conservation: tiny per-thread magazines (cache_cap 4, batch 2)
   forced through constant refill/flush churn must neither lose nor
   duplicate a block against the central lists.  Duplication is caught
   directly (a returned base already live, or the strict heap's
   double-free fault); loss is caught by the capacity limit — the heap is
   sized for a handful of working sets, so a block stranded per round
   would grow the reserve until [Out_of_memory].  Every working set
   carries nine same-class blocks on top of the generated sizes: freed
   across two threads, at least five land on one magazine, which then
   overflows [cache_cap] and must flush — so the flush path runs on every
   case, not only on generated lists that happen to crowd one class. *)
let prop_magazine_conservation =
  QCheck.Test.make ~name:"magazines: refill/flush loses and duplicates nothing" ~count:60
    QCheck.(pair int (list (int_range 1 16)))
    (fun (seed, sizes) ->
      let sizes = List.init 9 (fun _ -> 3) @ sizes in
      let words = List.fold_left ( + ) 0 sizes in
      (* ~6 working sets incl. headers: ample steady state, fatal leak *)
      let mem = Mem.create ~capacity_limit:(1024 + (6 * (words + (3 * List.length sizes)))) () in
      let alloc = Alloc.create ~cache_cap:4 ~batch:2 ~max_threads:2 mem in
      let rng = Splitmix.create seed in
      let live = Hashtbl.create 16 in
      for _round = 1 to 40 do
        let blocks =
          List.map
            (fun n ->
              let a = Alloc.malloc alloc ~tid:(Splitmix.below rng 2) n in
              if Hashtbl.mem live a then failwith "block handed out twice";
              Hashtbl.replace live a ();
              a)
            sizes
        in
        (* cross-thread frees push the flush path on both magazine rows *)
        List.iter
          (fun a ->
            Hashtbl.remove live a;
            Alloc.free alloc ~tid:(Splitmix.below rng 2) a)
          blocks
      done;
      Alloc.live_blocks alloc = 0
      && Alloc.total_mallocs alloc = Alloc.total_frees alloc
      && Alloc.cache_flushes alloc > 0 (* the churn actually exercised the path *))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ts_umem"
    [
      ( "ptr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ptr_roundtrip;
          Alcotest.test_case "marking" `Quick test_ptr_marking;
          Alcotest.test_case "null" `Quick test_ptr_null;
          Alcotest.test_case "mask" `Quick test_ptr_mask;
        ] );
      ( "mem",
        [
          Alcotest.test_case "reserve + rw" `Quick test_mem_reserve_rw;
          Alcotest.test_case "wild access faults" `Quick test_mem_wild_access;
          Alcotest.test_case "null page faults" `Quick test_mem_null_page;
          Alcotest.test_case "use-after-free faults" `Quick test_mem_uaf;
          Alcotest.test_case "freed words poisoned" `Quick test_mem_poison;
          Alcotest.test_case "non-strict counting" `Quick test_mem_nonstrict_counts;
          Alcotest.test_case "realloc clears state" `Quick test_mem_realloc_clears_state;
          Alcotest.test_case "capacity limit" `Quick test_mem_capacity_limit;
        ] );
      ( "size_class",
        [
          Alcotest.test_case "classes tight and monotone" `Quick test_size_class_monotone;
          Alcotest.test_case "bounds" `Quick test_size_class_bounds;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "malloc/free basic" `Quick test_alloc_basic;
          Alcotest.test_case "cache reuse" `Quick test_alloc_reuse_same_class;
          Alcotest.test_case "usable size" `Quick test_alloc_usable_size;
          Alcotest.test_case "double free detected" `Quick test_alloc_double_free;
          Alcotest.test_case "interior free detected" `Quick test_alloc_interior_free;
          Alcotest.test_case "header protected" `Quick test_alloc_header_protected;
          Alcotest.test_case "UAF detected" `Quick test_alloc_uaf_detected;
          Alcotest.test_case "large blocks" `Quick test_alloc_large;
          Alcotest.test_case "is_block" `Quick test_alloc_is_block;
          Alcotest.test_case "cross-thread free" `Quick test_alloc_cross_thread_free;
          Alcotest.test_case "regions permanent" `Quick test_alloc_region_permanent;
          Alcotest.test_case "stats" `Quick test_alloc_stats;
          qt prop_alloc_no_overlap;
          qt prop_alloc_balance;
        ] );
      ("magazines", [ qt prop_magazine_conservation ]);
    ]
