module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc
module Ptr = Ts_umem.Ptr
module Size_class = Ts_umem.Size_class
module Splitmix = Ts_util.Splitmix
module Heap = Ts_par.Heap

let check = Alcotest.(check int)

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

let test_mem_capacity_limit_nonstrict () =
  let mem = Mem.create ~strict:false ~capacity_limit:8192 () in
  check "null base past the limit" 0 (Mem.reserve mem 10_000);
  check "one fault" 1 (Mem.fault_count mem Mem.Out_of_memory);
  let base = Mem.reserve mem 100 in
  Mem.mark_live mem base 100;
  Mem.write mem (base + 99) 7;
  check "what fits is still served" 7 (Mem.read mem (base + 99));
  check "still one fault" 1 (Mem.total_faults mem)

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

(* One allocator under test: the simulator's instance over [Mem], or the
   native one inside [Ts_par.Heap], driven from the calling domain. *)
type heap = {
  malloc : tid:int -> int -> int;
  free : tid:int -> int -> unit;
  alloc_region : int -> int;
  read : int -> int;
  write : int -> int -> unit;
  block_size : int -> int;
  is_block : int -> bool;
  stats : unit -> Alloc.stats;
  ooms : unit -> int;
}

let sim_heap ?strict ?capacity () =
  let mem = Mem.create ?strict ?capacity_limit:capacity () in
  let a = Alloc.create ~max_threads:4 mem in
  {
    malloc = Alloc.malloc a;
    free = Alloc.free a;
    alloc_region = Alloc.alloc_region a;
    read = Mem.read mem;
    write = Mem.write mem;
    block_size = Alloc.block_size a;
    is_block = Alloc.is_block a;
    stats = (fun () -> Alloc.stats a);
    ooms = (fun () -> Mem.fault_count mem Mem.Out_of_memory);
  }

let native_heap ?strict ?(capacity = 1 lsl 20) () =
  let h = Heap.create ?strict ~capacity ~max_threads:4 () in
  {
    malloc = Heap.malloc h;
    free = Heap.free h;
    alloc_region = Heap.alloc_region h;
    read = Heap.read h;
    write = Heap.write h;
    block_size = Heap.block_size h;
    is_block = Heap.is_block h;
    stats = (fun () -> Heap.stats h);
    ooms = (fun () -> Heap.fault_count h Mem.Out_of_memory);
  }

type make = ?strict:bool -> ?capacity:int -> unit -> heap

(* The simulator cases keep their plain names; each has a "[native]" twin. *)
let instances : (string * make) list = [ ("", sim_heap); (" [native]", native_heap) ]

let live h = (h.stats ()).Alloc.live_blocks

let test_alloc_basic h =
  let a = h.malloc ~tid:0 3 in
  check "zero filled" 0 (h.read a);
  h.write a 11;
  h.write (a + 2) 13;
  check "rw" 11 (h.read a);
  check "live blocks" 1 (live h);
  h.free ~tid:0 a;
  check "live blocks after free" 0 (live h)

let test_alloc_reuse_same_class h =
  let a = h.malloc ~tid:0 3 in
  h.free ~tid:0 a;
  let b = h.malloc ~tid:0 3 in
  check "cache reuses freed block" a b

let test_alloc_usable_size h =
  let a = h.malloc ~tid:0 5 in
  Alcotest.(check bool) "usable >= requested" true (h.block_size a >= 5)

let test_alloc_double_free h =
  let a = h.malloc ~tid:0 2 in
  h.free ~tid:0 a;
  Alcotest.check_raises "double free" (Mem.Fault (Mem.Double_free, a)) (fun () ->
      h.free ~tid:0 a)

let test_alloc_interior_free h =
  let a = h.malloc ~tid:0 8 in
  Alcotest.check_raises "interior free" (Mem.Fault (Mem.Bad_free, a + 1)) (fun () ->
      h.free ~tid:0 (a + 1))

let test_alloc_header_protected h =
  let a = h.malloc ~tid:0 2 in
  Alcotest.check_raises "header is not data" (Mem.Fault (Mem.Wild_read, a - 1)) (fun () ->
      ignore (h.read (a - 1)))

let test_alloc_uaf_detected h =
  let a = h.malloc ~tid:0 2 in
  h.free ~tid:0 a;
  Alcotest.check_raises "uaf" (Mem.Fault (Mem.Uaf_read, a)) (fun () -> ignore (h.read a))

let test_alloc_large h =
  let n = Size_class.max_small * 3 in
  let a = h.malloc ~tid:0 n in
  h.write (a + n - 1) 5;
  check "large rw" 5 (h.read (a + n - 1));
  check "large exact size" n (h.block_size a);
  h.free ~tid:0 a;
  let b = h.malloc ~tid:0 n in
  check "large reuse" a b

let test_alloc_is_block h =
  let a = h.malloc ~tid:0 4 in
  Alcotest.(check bool) "base is block" true (h.is_block a);
  Alcotest.(check bool) "interior is not" false (h.is_block (a + 1));
  h.free ~tid:0 a;
  Alcotest.(check bool) "freed is not" false (h.is_block a)

let test_alloc_cross_thread_free h =
  let a = h.malloc ~tid:0 3 in
  h.free ~tid:1 a;
  (* Thread 1's cache owns it now; thread 1 reuses it. *)
  let b = h.malloc ~tid:1 3 in
  check "migrated to freeing thread's cache" a b

let test_alloc_region_permanent h =
  let r = h.alloc_region 16 in
  h.write (r + 15) 3;
  check "region rw" 3 (h.read (r + 15));
  Alcotest.check_raises "regions cannot be freed" (Mem.Fault (Mem.Bad_free, r)) (fun () ->
      h.free ~tid:0 r)

let test_alloc_stats h =
  let blocks = List.init 10 (fun _ -> h.malloc ~tid:0 4) in
  check "peak" 10 (h.stats ()).Alloc.peak_live_blocks;
  List.iter (h.free ~tid:0) blocks;
  let s = h.stats () in
  check "mallocs" 10 s.Alloc.total_mallocs;
  check "frees" 10 s.Alloc.total_frees;
  check "live" 0 s.Alloc.live_blocks;
  check "live words" 0 s.Alloc.live_words;
  Alcotest.(check bool) "cache hits happened" true (s.Alloc.cache_hits > 0);
  check "one central refill was enough" 1 s.Alloc.central_refills

(* Past the capacity a non-strict heap counts one fault per failed
   request and hands out the null address; what still fits is served. *)
let test_alloc_out_of_memory (make : make) =
  let h = make ~strict:false ~capacity:8192 () in
  check "large block past the limit is null" 0 (h.malloc ~tid:0 10_000);
  check "one fault" 1 (h.ooms ());
  ignore (h.alloc_region 8000);
  check "an exhausted refill is null" 0 (h.malloc ~tid:0 Size_class.max_small);
  check "one more fault" 2 (h.ooms ());
  check "nothing live" 0 (live h);
  Alcotest.(check bool) "a small block still fits" true (h.malloc ~tid:0 1 > 0)

(* ------------------------------ properties ------------------------------ *)

(* Random malloc/free interleavings: live blocks never overlap, contents are
   independent, sizes honoured. *)
let prop_alloc_no_overlap (suffix, (make : make)) =
  QCheck.Test.make ~name:("random alloc/free: live blocks disjoint" ^ suffix) ~count:100
    QCheck.(pair int (list (pair bool (int_range 1 300))))
    (fun (seed, ops) ->
      let h = make () in
      let rng = Splitmix.create seed in
      let live_set = Hashtbl.create 16 in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || Hashtbl.length live_set = 0 then begin
            let a = h.malloc ~tid:(Splitmix.below rng 2) n in
            let size = h.block_size a in
            (* stamp the block with its own id *)
            for i = 0 to size - 1 do
              h.write (a + i) a
            done;
            Hashtbl.replace live_set a size
          end
          else begin
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live_set [] in
            let victim = List.nth keys (Splitmix.below rng (List.length keys)) in
            (* before freeing, verify the stamp is intact: overlap would have
               corrupted it *)
            let size = Hashtbl.find live_set victim in
            for i = 0 to size - 1 do
              if h.read (victim + i) <> victim then failwith "overlap!"
            done;
            h.free ~tid:(Splitmix.below rng 2) victim;
            Hashtbl.remove live_set victim
          end)
        ops;
      Hashtbl.iter
        (fun a size ->
          for i = 0 to size - 1 do
            if h.read (a + i) <> a then failwith "corrupt survivor"
          done)
        live_set;
      Hashtbl.length live_set = live h)

let prop_alloc_balance (suffix, (make : make)) =
  QCheck.Test.make ~name:("mallocs - frees = live" ^ suffix) ~count:100
    QCheck.(list (int_range 1 64))
    (fun sizes ->
      let h = make () in
      let blocks = List.map (fun n -> h.malloc ~tid:0 n) sizes in
      let half = List.filteri (fun i _ -> i mod 2 = 0) blocks in
      List.iter (h.free ~tid:0) half;
      let s = h.stats () in
      s.Alloc.total_mallocs - s.Alloc.total_frees = s.Alloc.live_blocks)

(* Magazine conservation: magazines forced through constant refill/flush
   churn must neither lose nor duplicate a block against the central
   lists.  Duplication is caught directly (a returned base already live,
   or the strict heap's double-free fault); loss is caught by the
   capacity limit.  With two threads, a class's central list is refilled
   only when it and the caller's magazine are empty, so at most the other
   magazine's [cache_cap] blocks and one fresh [batch] sit beside the
   live ones: a heap of exactly that many blocks per class never runs
   out, and a stranded block per round soon would.  Every working set
   carries [2 * cache_cap + 1] same-class blocks on top of the generated
   sizes: freed across two threads, more than [cache_cap] land on one
   magazine, which then must flush — so the flush path runs on every
   case, not only on generated lists that happen to crowd one class. *)
let prop_magazine_conservation (suffix, (make : make)) =
  QCheck.Test.make
    ~name:("magazines: refill/flush loses and duplicates nothing" ^ suffix)
    ~count:60
    QCheck.(pair int (list (int_range 1 16)))
    (fun (seed, sizes) ->
      let sizes = List.init ((2 * Alloc.cache_cap) + 1) (fun _ -> 3) @ sizes in
      let per_class = Hashtbl.create 16 in
      List.iter
        (fun n ->
          let c = Size_class.of_size n in
          Hashtbl.replace per_class c (1 + Option.value ~default:0 (Hashtbl.find_opt per_class c)))
        sizes;
      let capacity =
        Hashtbl.fold
          (fun c n acc -> acc + ((n + Alloc.cache_cap + Alloc.batch) * (Size_class.size c + 1)))
          per_class 1
      in
      let h = make ~capacity () in
      let rng = Splitmix.create seed in
      let live_set = Hashtbl.create 16 in
      for _round = 1 to 40 do
        let blocks =
          List.map
            (fun n ->
              let a = h.malloc ~tid:(Splitmix.below rng 2) n in
              if Hashtbl.mem live_set a then failwith "block handed out twice";
              Hashtbl.replace live_set a ();
              a)
            sizes
        in
        (* cross-thread frees push the flush path on both magazine rows *)
        List.iter
          (fun a ->
            Hashtbl.remove live_set a;
            h.free ~tid:(Splitmix.below rng 2) a)
          blocks
      done;
      let s = h.stats () in
      s.Alloc.live_blocks = 0
      && s.Alloc.total_mallocs = s.Alloc.total_frees
      && s.Alloc.cache_flushes > 0 (* the churn actually exercised the path *))

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
          Alcotest.test_case "capacity limit, non-strict" `Quick test_mem_capacity_limit_nonstrict;
        ] );
      ( "size_class",
        [
          Alcotest.test_case "classes tight and monotone" `Quick test_size_class_monotone;
          Alcotest.test_case "bounds" `Quick test_size_class_bounds;
        ] );
      ( "alloc",
        List.concat_map
          (fun (suffix, (make : make)) ->
            let case name f = Alcotest.test_case (name ^ suffix) `Quick (fun () -> f (make ())) in
            [
              case "malloc/free basic" test_alloc_basic;
              case "cache reuse" test_alloc_reuse_same_class;
              case "usable size" test_alloc_usable_size;
              case "double free detected" test_alloc_double_free;
              case "interior free detected" test_alloc_interior_free;
              case "header protected" test_alloc_header_protected;
              case "UAF detected" test_alloc_uaf_detected;
              case "large blocks" test_alloc_large;
              case "is_block" test_alloc_is_block;
              case "cross-thread free" test_alloc_cross_thread_free;
              case "regions permanent" test_alloc_region_permanent;
              case "stats" test_alloc_stats;
              Alcotest.test_case ("out of memory: one fault, null block" ^ suffix) `Quick
                (fun () -> test_alloc_out_of_memory make);
              qt (prop_alloc_no_overlap (suffix, make));
              qt (prop_alloc_balance (suffix, make));
            ])
          instances );
      ("magazines", List.map (fun i -> qt (prop_magazine_conservation i)) instances);
    ]
