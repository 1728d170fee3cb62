module Runtime = Ts_sim.Runtime
module Ptr = Ts_umem.Ptr
module Alloc = Ts_umem.Alloc
module Smr = Ts_smr.Smr
module Leaky = Ts_reclaim.Leaky
module Hazard = Ts_reclaim.Hazard
module Epoch = Ts_reclaim.Epoch
module Set_intf = Ts_ds.Set_intf
module Michael_list = Ts_ds.Michael_list
module Hash_table = Ts_ds.Hash_table
module Skiplist = Ts_ds.Skiplist
module Lazy_list = Ts_ds.Lazy_list
module Split_hash = Ts_ds.Split_hash

let check = Alcotest.(check int)

let cfg = Runtime.default_config

let sl_height = 8

(* scheme constructors, parameterised by how many protection slots the
   structure needs (hazard pointers) *)
let scheme_of ~slots ~max_threads = function
  | "leaky" -> Leaky.create ()
  | "threadscan" ->
      Threadscan.smr
        (Threadscan.create
           ~config:{ Threadscan.Config.default with max_threads; buffer_size = 16 }
           ())
  | "hazard" -> Hazard.create ~slots ~threshold_extra:16 ~max_threads ()
  | "epoch" -> Epoch.create ~batch:32 ~max_threads ()
  | s -> invalid_arg s

let ds_of ?padding ~smr = function
  | "list" -> Michael_list.create ~smr ?padding ()
  | "hash" -> Hash_table.create ~smr ?padding ~buckets:16 ()
  | "skip" -> Skiplist.create ~smr ~max_height:sl_height ?padding ()
  | "lazy" -> Lazy_list.create ~smr ?padding ()
  | "split" -> Split_hash.set (Split_hash.create ~smr ?padding ~max_buckets:64 ())
  | s -> invalid_arg s

let slots_for = function
  | "skip" -> Skiplist.hazard_slots ~max_height:sl_height
  | _ -> 3

let all_ds = [ "list"; "hash"; "skip"; "lazy"; "split" ]

let all_schemes = [ "leaky"; "threadscan"; "hazard"; "epoch" ]

(* ----------------------------- sequential ------------------------------- *)

let sequential_basic ds_name () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let ds = ds_of ~smr ds_name in
         Alcotest.(check bool) "insert new" true (ds.Set_intf.insert 5 50);
         Alcotest.(check bool) "insert dup" false (ds.Set_intf.insert 5 51);
         Alcotest.(check bool) "contains" true (ds.Set_intf.contains 5);
         Alcotest.(check bool) "not contains" false (ds.Set_intf.contains 6);
         Alcotest.(check bool) "insert more" true (ds.Set_intf.insert 3 30);
         Alcotest.(check bool) "insert more" true (ds.Set_intf.insert 9 90);
         Alcotest.(check (list (pair int int)))
           "sorted contents"
           [ (3, 30); (5, 50); (9, 90) ]
           (ds.Set_intf.to_list ());
         Alcotest.(check bool) "remove hit" true (ds.Set_intf.remove 5);
         Alcotest.(check bool) "remove miss" false (ds.Set_intf.remove 5);
         Alcotest.(check bool) "gone" false (ds.Set_intf.contains 5);
         ds.Set_intf.check ();
         check "size" 2 (Set_intf.size ds)))

let sequential_model ds_name =
  QCheck.Test.make
    ~name:(Fmt.str "%s matches a sequential set model" ds_name)
    ~count:30
    QCheck.(list (pair (int_bound 2) (int_bound 40)))
    (fun ops ->
      let ok = ref true in
      ignore
        (Runtime.run ~config:cfg (fun () ->
             let smr = Leaky.create () in
             smr.Smr.thread_init ();
             let ds = ds_of ~smr ds_name in
             let model = Hashtbl.create 16 in
             List.iter
               (fun (op, key) ->
                 match op with
                 | 0 ->
                     let expect = not (Hashtbl.mem model key) in
                     if expect then Hashtbl.replace model key (key * 10);
                     if ds.Set_intf.insert key (key * 10) <> expect then ok := false
                 | 1 ->
                     let expect = Hashtbl.mem model key in
                     Hashtbl.remove model key;
                     if ds.Set_intf.remove key <> expect then ok := false
                 | _ -> if ds.Set_intf.contains key <> Hashtbl.mem model key then ok := false)
               ops;
             ds.Set_intf.check ();
             let expected =
               Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
             in
             if ds.Set_intf.to_list () <> expected then ok := false));
      !ok)

(* ----------------------------- concurrent ------------------------------- *)

(* The master invariant: final size = successful inserts - successful
   removes, contents are sorted and structurally valid, and — for the
   reclaiming schemes — the allocator holds exactly the blocks the
   structure still references after flush. *)
let churn ?padding ~ds_name ~scheme_name ~threads ~ops ~seed () =
  let r = Runtime.create { cfg with cores = 4; seed } in
  let baseline = ref 0 in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr = scheme_of ~slots:(slots_for ds_name) ~max_threads:(threads + 2) scheme_name in
         smr.Smr.thread_init ();
         baseline := Alloc.live_blocks (Runtime.alloc r);
         let ds = ds_of ?padding ~smr ds_name in
         let sentinel_blocks = Alloc.live_blocks (Runtime.alloc r) - !baseline in
         let inserts = Array.make threads 0 in
         let removes = Array.make threads 0 in
         let key_range = 32 in
         let worker i () =
           smr.Smr.thread_init ();
           for _ = 1 to ops do
             let key = Runtime.rand_below key_range in
             match Runtime.rand_below 10 with
             | 0 | 1 -> if ds.Set_intf.insert key key then inserts.(i) <- inserts.(i) + 1
             | 2 | 3 -> if ds.Set_intf.remove key then removes.(i) <- removes.(i) + 1
             | _ -> ignore (ds.Set_intf.contains key)
           done;
           smr.Smr.thread_exit ()
         in
         let ws = List.init threads (fun i -> Runtime.spawn (worker i)) in
         List.iter Runtime.join ws;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         ds.Set_intf.check ();
         let net =
           Array.fold_left ( + ) 0 inserts - Array.fold_left ( + ) 0 removes
         in
         check (Fmt.str "%s/%s net size" ds_name scheme_name) net (Set_intf.size ds);
         if scheme_name <> "leaky" then begin
           (* every retired node must be freed *)
           check
             (Fmt.str "%s/%s retired all reclaimed" ds_name scheme_name)
             0
             (smr.Smr.counters.retired - smr.Smr.counters.freed);
           (* and for structures with a fixed set of immortal nodes the
              allocator-level accounting is exact (split-hash installs
              bucket dummies lazily, so its immortal set grows) *)
           if ds_name <> "split" then
             check
               (Fmt.str "%s/%s no leaks" ds_name scheme_name)
               (Set_intf.size ds + sentinel_blocks)
               (Alloc.live_blocks (Runtime.alloc r) - !baseline)
         end));
  ignore (Runtime.start r)

let churn_cases =
  List.concat_map
    (fun ds ->
      List.map
        (fun scheme ->
          Alcotest.test_case (Fmt.str "churn %s + %s" ds scheme) `Quick
            (churn ~ds_name:ds ~scheme_name:scheme ~threads:6 ~ops:80 ~seed:42))
        all_schemes)
    all_ds

(* disjoint-range concurrent inserts: everything must land *)
let test_disjoint_inserts ds_name () =
  ignore
    (Runtime.run ~config:{ cfg with cores = 4 } (fun () ->
         let smr = scheme_of ~slots:(slots_for ds_name) ~max_threads:8 "threadscan" in
         smr.Smr.thread_init ();
         let ds = ds_of ~smr ds_name in
         let per = 40 in
         let ws =
           List.init 4 (fun i ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for k = i * per to (i * per) + per - 1 do
                     if not (ds.Set_intf.insert k k) then failwith "disjoint insert failed"
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join ws;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         ds.Set_intf.check ();
         check "all inserted" (4 * per) (Set_intf.size ds);
         for k = 0 to (4 * per) - 1 do
           if not (ds.Set_intf.contains k) then failwith "missing key"
         done))

(* every key removed exactly once even when racing *)
let test_racing_removes ds_name () =
  ignore
    (Runtime.run ~config:{ cfg with cores = 4; seed = 3 } (fun () ->
         let smr = scheme_of ~slots:(slots_for ds_name) ~max_threads:8 "threadscan" in
         smr.Smr.thread_init ();
         let ds = ds_of ~smr ds_name in
         let n = 60 in
         for k = 0 to n - 1 do
           ignore (ds.Set_intf.insert k k)
         done;
         let wins = Runtime.alloc_region 1 in
         let ws =
           List.init 4 (fun _ ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for k = 0 to n - 1 do
                     if ds.Set_intf.remove k then ignore (Runtime.faa wins 1)
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join ws;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "each key removed exactly once" n (Runtime.read wins);
         check "empty" 0 (Set_intf.size ds);
         ds.Set_intf.check ()))

(* the paper's scenario: unsynchronized readers traverse while removers
   reclaim under them; strict memory proves no reader ever touches freed
   memory *)
let test_readers_vs_removers ds_name scheme_name () =
  ignore
    (Runtime.run ~config:{ cfg with cores = 4; seed = 17 } (fun () ->
         let smr = scheme_of ~slots:(slots_for ds_name) ~max_threads:10 scheme_name in
         smr.Smr.thread_init ();
         let ds = ds_of ~smr ds_name in
         let n = 48 in
         for k = 0 to n - 1 do
           ignore (ds.Set_intf.insert k k)
         done;
         let readers =
           List.init 4 (fun i ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   for round = 0 to 5 do
                     for k = 0 to n - 1 do
                       ignore (ds.Set_intf.contains ((k + (i * round)) mod n))
                     done
                   done;
                   smr.Smr.thread_exit ()))
         in
         let removers =
           List.init 2 (fun i ->
               Runtime.spawn (fun () ->
                   smr.Smr.thread_init ();
                   let start = i * (n / 2) in
                   for k = start to start + (n / 2) - 1 do
                     ignore (ds.Set_intf.remove k);
                     ignore (ds.Set_intf.insert k (k * 2));
                     ignore (ds.Set_intf.remove k)
                   done;
                   smr.Smr.thread_exit ()))
         in
         List.iter Runtime.join readers;
         List.iter Runtime.join removers;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         ds.Set_intf.check ();
         check "drained" 0 (Set_intf.size ds)))

(* Nodes padded past the largest size class are large blocks: they skip
   the magazines and cycle through the allocator's exact-size free lists,
   which the churn's exact leak accounting then covers. *)
let oversize_cases =
  List.map
    (fun ds ->
      Alcotest.test_case (Fmt.str "churn %s + threadscan" ds) `Quick
        (churn ~padding:Ts_umem.Size_class.max_small ~ds_name:ds ~scheme_name:"threadscan"
           ~threads:4 ~ops:60 ~seed:7))
    [ "list"; "hash"; "skip"; "lazy" ]

(* ------------------------- structure specifics -------------------------- *)

let test_list_padding () =
  check "default node is 3 words" 3 (Michael_list.node_words ~padding:0);
  check "paper nodes are 22 words" 22 (Michael_list.node_words ~padding:19)

let test_hash_distribution () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let ds = ds_of ~smr "hash" in
         for k = 0 to 255 do
           ignore (ds.Set_intf.insert k k)
         done;
         ds.Set_intf.check ();
         check "all present" 256 (Set_intf.size ds)))

let test_skiplist_levels () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let ds = Skiplist.create ~smr ~max_height:6 () in
         for k = 0 to 199 do
           ignore (ds.Set_intf.insert k k)
         done;
         for k = 0 to 199 do
           if k mod 3 = 0 then ignore (ds.Set_intf.remove k)
         done;
         ds.Set_intf.check ();
         check "size" (200 - 67) (Set_intf.size ds)))

(* ------------------------------ split hash ------------------------------ *)

let test_split_hash_grows () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let sh = Split_hash.create ~smr ~max_buckets:64 ~load_factor:2 () in
         let ds = Split_hash.set sh in
         check "starts with two buckets" 2 (Split_hash.bucket_count sh);
         for k = 0 to 99 do
           ignore (ds.Set_intf.insert k k)
         done;
         Alcotest.(check bool) "table doubled repeatedly" true
           (Split_hash.bucket_count sh >= 32);
         check "maintained size" 100 (Split_hash.size sh);
         check "to_list agrees" 100 (Set_intf.size ds);
         ds.Set_intf.check ()))

let test_split_hash_dummies_immortal () =
  let r = Runtime.create cfg in
  ignore
    (Runtime.add_thread r (fun () ->
         let smr =
           Threadscan.smr
             (Threadscan.create
                ~config:{ Threadscan.Config.default with max_threads = 4; buffer_size = 8 }
                ())
         in
         smr.Smr.thread_init ();
         let sh = Split_hash.create ~smr ~max_buckets:32 ~load_factor:2 () in
         let ds = Split_hash.set sh in
         for k = 0 to 63 do
           ignore (ds.Set_intf.insert k k)
         done;
         for k = 0 to 63 do
           ignore (ds.Set_intf.remove k)
         done;
         smr.Smr.thread_exit ();
         smr.Smr.flush ();
         check "all elements reclaimed" 0 (smr.Smr.counters.retired - smr.Smr.counters.freed);
         check "empty" 0 (Set_intf.size ds);
         (* the dummy chain survives reclamation: reusable immediately *)
         Alcotest.(check bool) "reinsert works" true (ds.Set_intf.insert 7 7);
         ds.Set_intf.check ()));
  ignore (Runtime.start r)

let test_split_hash_key_bounds () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let ds = Split_hash.set (Split_hash.create ~smr ()) in
         Alcotest.(check bool) "max key ok" true (ds.Set_intf.insert Split_hash.max_key 1);
         Alcotest.check_raises "oversized key rejected"
           (Invalid_argument "Split_hash: key out of range") (fun () ->
             ignore (ds.Set_intf.insert (Split_hash.max_key + 1) 1))))

let test_skiplist_sentinel_safety () =
  ignore
    (Runtime.run ~config:cfg (fun () ->
         let smr = Leaky.create () in
         smr.Smr.thread_init ();
         let ds = Skiplist.create ~smr ~max_height:4 () in
         (* operations on an empty structure touch only sentinels *)
         Alcotest.(check bool) "contains on empty" false (ds.Set_intf.contains 1);
         Alcotest.(check bool) "remove on empty" false (ds.Set_intf.remove 1);
         ds.Set_intf.check ()))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ts_ds"
    [
      ( "sequential",
        List.map
          (fun ds -> Alcotest.test_case (Fmt.str "%s basics" ds) `Quick (sequential_basic ds))
          all_ds
        @ List.map (fun ds -> qt (sequential_model ds)) all_ds );
      ("churn", churn_cases);
      ( "concurrent",
        List.map
          (fun ds ->
            Alcotest.test_case (Fmt.str "%s disjoint inserts" ds) `Quick
              (test_disjoint_inserts ds))
          all_ds
        @ List.map
            (fun ds ->
              Alcotest.test_case (Fmt.str "%s racing removes" ds) `Quick
                (test_racing_removes ds))
            all_ds
        @ List.concat_map
            (fun ds ->
              List.map
                (fun scheme ->
                  Alcotest.test_case
                    (Fmt.str "%s readers vs removers (%s)" ds scheme)
                    `Quick
                    (test_readers_vs_removers ds scheme))
                [ "threadscan"; "hazard"; "epoch" ])
            all_ds );
      ( "specifics",
        [
          Alcotest.test_case "list padding" `Quick test_list_padding;
          Alcotest.test_case "hash distribution" `Quick test_hash_distribution;
          Alcotest.test_case "skiplist levels" `Quick test_skiplist_levels;
          Alcotest.test_case "skiplist sentinels" `Quick test_skiplist_sentinel_safety;
        ] );
      ("oversize-nodes", oversize_cases);
      ( "split-hash",
        [
          Alcotest.test_case "grows" `Quick test_split_hash_grows;
          Alcotest.test_case "dummies immortal" `Quick test_split_hash_dummies_immortal;
          Alcotest.test_case "key bounds" `Quick test_split_hash_key_bounds;
        ] );
    ]
