module Splitmix = Ts_util.Splitmix
module Vec = Ts_util.Vec
module Isort = Ts_util.Isort
module Padded = Ts_util.Padded

let check = Alcotest.(check int)

(* ------------------------------- Splitmix ------------------------------ *)

let test_rng_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    check "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_rng_seed_matters () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Splitmix.next a <> Splitmix.next b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_below_bounds () =
  let r = Splitmix.create 7 in
  for _ = 1 to 10_000 do
    let v = Splitmix.below r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_below_covers () =
  let r = Splitmix.create 3 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Splitmix.below r 8) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Fmt.str "bucket %d hit" i) true s) seen

let test_rng_int_in () =
  let r = Splitmix.create 11 in
  for _ = 1 to 1_000 do
    let v = Splitmix.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_split_independent () =
  let parent = Splitmix.create 5 in
  let c1 = Splitmix.split parent in
  let c2 = Splitmix.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Splitmix.next c1 = Splitmix.next c2 then incr same
  done;
  Alcotest.(check bool) "children differ" true (!same < 4)

(* The exact SplitMix64 stream: every simulated schedule draws from it,
   so a change of representation must not move a single bit. *)
let test_rng_golden () =
  let golden seed ~next ~below ~child ~parent ~raw ~child_raw =
    let r = Splitmix.create seed in
    let ck what = Alcotest.(check (list int)) (Fmt.str "seed %d %s" seed what) in
    let n1 = Splitmix.next r in
    let n2 = Splitmix.next r in
    let n3 = Splitmix.next r in
    ck "next" next [ n1; n2; n3 ];
    let b1 = Splitmix.below r 1000 in
    let b2 = Splitmix.below r 7 in
    let b3 = Splitmix.below r max_int in
    ck "below" below [ b1; b2; b3 ];
    let c = Splitmix.split r in
    let cn = Splitmix.next c in
    ck "split: child, then parent" [ child; parent ] [ cn; Splitmix.next r ];
    Alcotest.(check int64) "raw state" raw (Splitmix.raw_state r);
    Alcotest.(check int64) "child raw state" child_raw (Splitmix.raw_state c);
    (* rewinding to a raw state replays the stream from there *)
    let ahead = Splitmix.next r in
    Splitmix.set_raw_state r raw;
    check "set_raw_state rewinds" ahead (Splitmix.next r);
    let other = Splitmix.create 1 in
    Splitmix.set_raw_state other raw;
    Alcotest.(check int64) "raw state round-trips" raw (Splitmix.raw_state other)
  in
  golden 0
    ~next:[ 3535418189901915863; 3980143261097177850; 243808509735772839 ]
    ~below:[ 318; 4; 3019047300631581045 ]
    ~child:3839612256768486958 ~parent:2504574914372785566 ~raw:(-1028001813962170200L)
    ~child_raw:(-3838733228386046218L);
  golden 0x5EED
    ~next:[ 358316333273208026; 3069548440181523002; 3363596436466409945 ]
    ~below:[ 598; 1; 3412598862942846565 ]
    ~child:2016470105990197786 ~parent:667890968176923352 ~raw:(-1028001813962145899L)
    ~child_raw:(-4061038860289180763L)

let test_rng_copy () =
  let a = Splitmix.create 9 in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  for _ = 1 to 50 do
    check "copy matches" (Splitmix.next a) (Splitmix.next b)
  done

let test_rng_float_range () =
  let r = Splitmix.create 13 in
  for _ = 1 to 1_000 do
    let f = Splitmix.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Splitmix.create 21 in
  let a = Array.init 100 Fun.id in
  Splitmix.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

(* --------------------------------- Vec ---------------------------------- *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check "length" 100 (Vec.length v);
  for i = 99 downto 0 do
    check "pop order" i (Vec.pop v)
  done;
  Alcotest.(check bool) "empty" true (Vec.is_empty v)

let test_vec_get_set () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Vec.set v 1 42;
  check "set/get" 42 (Vec.get v 1);
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 3))

let test_vec_pop_empty () =
  let v = Vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_growth () =
  let v = Vec.create ~capacity:1 () in
  for i = 0 to 9999 do
    Vec.push v i
  done;
  check "length after growth" 10000 (Vec.length v);
  check "first survives" 0 (Vec.get v 0);
  check "last survives" 9999 (Vec.get v 9999)

let test_vec_swap_remove () =
  let v = Vec.of_array [| 10; 20; 30; 40 |] in
  check "removed" 20 (Vec.swap_remove v 1);
  check "length" 3 (Vec.length v);
  check "swapped in" 40 (Vec.get v 1)

let test_vec_sort_iter () =
  let v = Vec.of_array [| 5; 1; 4; 2; 3 |] in
  Vec.sort v;
  let out = ref [] in
  Vec.iter (fun x -> out := x :: !out) v;
  Alcotest.(check (list int)) "sorted" [ 5; 4; 3; 2; 1 ] !out

let test_vec_exists_clear () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  Vec.clear v;
  check "cleared" 0 (Vec.length v)

let test_vec_append_array () =
  let v = Vec.of_array [| 1 |] in
  Vec.append_array v [| 2; 3 |];
  Alcotest.(check (array int)) "appended" [| 1; 2; 3 |] (Vec.to_array v)

(* -------------------------------- Isort --------------------------------- *)

let test_sort_prefix () =
  let a = [| 5; 3; 9; 1; 7; 100; -1 |] in
  Isort.sort_prefix a 5;
  Alcotest.(check (array int)) "prefix sorted, tail untouched" [| 1; 3; 5; 7; 9; 100; -1 |] a

let test_sort_empty_and_single () =
  let a = [| 3; 1 |] in
  Isort.sort_prefix a 0;
  Isort.sort_prefix a 1;
  Alcotest.(check (array int)) "untouched" [| 3; 1 |] a

let test_binary_search_hits () =
  let a = [| 2; 4; 6; 8; 10; 999 |] in
  List.iteri
    (fun i x -> check (Fmt.str "find %d" x) i (Isort.binary_search a 5 x))
    [ 2; 4; 6; 8; 10 ]

let test_binary_search_misses () =
  let a = [| 2; 4; 6; 8; 10 |] in
  List.iter
    (fun x -> check (Fmt.str "miss %d" x) (-1) (Isort.binary_search a 5 x))
    [ 1; 3; 5; 7; 9; 11; 999 ]

let test_binary_search_excludes_tail () =
  let a = [| 2; 4; 6; 8; 10 |] in
  check "tail not searched" (-1) (Isort.binary_search a 3 8)

let test_dedup_sorted () =
  let a = [| 1; 1; 2; 2; 2; 3; 5; 5 |] in
  let n = Isort.dedup_sorted a 8 in
  check "new length" 4 n;
  Alcotest.(check (array int)) "prefix deduped" [| 1; 2; 3; 5 |] (Array.sub a 0 n)

(* ------------------------------- Padded --------------------------------- *)

let test_padded_copy_preserves () =
  let r = Padded.copy { contents = 42 } in
  check "field preserved" 42 r.contents;
  r.contents <- 7;
  check "mutable" 7 r.contents

let test_padded_atomic () =
  let a = Padded.atomic 3 in
  check "initial" 3 (Atomic.get a);
  ignore (Atomic.fetch_and_add a 2);
  check "faa" 5 (Atomic.get a)

(* ------------------------------ properties ------------------------------ *)

let prop_sort_matches_stdlib =
  QCheck.Test.make ~name:"Isort.sort_prefix matches Array.sort" ~count:500
    QCheck.(list int)
    (fun l ->
      let a = Array.of_list l in
      let b = Array.copy a in
      Isort.sort_prefix a (Array.length a);
      Array.sort compare b;
      a = b)

let prop_binary_search_complete =
  QCheck.Test.make ~name:"binary_search finds every member" ~count:500
    QCheck.(list small_nat)
    (fun l ->
      let a = Array.of_list l in
      Isort.sort_prefix a (Array.length a);
      List.for_all
        (fun x ->
          let i = Isort.binary_search a (Array.length a) x in
          i >= 0 && a.(i) = x)
        l)

let prop_binary_search_sound =
  QCheck.Test.make ~name:"binary_search never false-positives" ~count:500
    QCheck.(pair (list small_nat) small_nat)
    (fun (l, probe) ->
      let a = Array.of_list l in
      Isort.sort_prefix a (Array.length a);
      let i = Isort.binary_search a (Array.length a) probe in
      if List.mem probe l then i >= 0 && a.(i) = probe else i = -1)

let prop_vec_model =
  QCheck.Test.make ~name:"Vec behaves like a list model" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun (push, x) ->
          if push then begin
            Vec.push v x;
            model := x :: !model
          end
          else if !model <> [] then begin
            let got = Vec.pop v in
            match !model with
            | m :: tl ->
                model := tl;
                if got <> m then failwith "pop mismatch"
            | [] -> ()
          end)
        ops;
      Vec.to_array v = Array.of_list (List.rev !model))

(* ------------------------------ Fault_plan ----------------------------- *)

module Fault_plan = Ts_util.Fault_plan

let test_plan_empty () =
  Alcotest.(check bool) "none is empty" true (Fault_plan.parse "none" = Ok []);
  Alcotest.(check bool) "blank is empty" true (Fault_plan.parse "" = Ok []);
  Alcotest.(check string) "empty prints none" "none" (Fault_plan.to_string [])

let test_plan_single_clauses () =
  let ok s expected =
    match Fault_plan.parse s with
    | Ok [ c ] -> Alcotest.(check bool) (s ^ " shape") true (c = expected)
    | Ok _ -> Alcotest.failf "%s: expected one clause" s
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "crash:2@100" { Fault_plan.victims = 2; at = At 100; event = Crash };
  ok "stall:1@50:400" { Fault_plan.victims = 1; at = At 50; event = Stall (Bounded 400) };
  ok "stall:1@50:forever" { Fault_plan.victims = 1; at = At 50; event = Stall Forever };
  ok "release:1@900" { Fault_plan.victims = 1; at = At 900; event = Unstall };
  ok "drop-signals:3@0:5" { Fault_plan.victims = 3; at = At 0; event = Drop_signals 5 };
  ok "delay-signals:1@10:200"
    { Fault_plan.victims = 1; at = At 10; event = Delay_signals 200 };
  ok "crash:1@250ms" { Fault_plan.victims = 1; at = At_ms 250; event = Crash }

let test_plan_multi_roundtrip () =
  let s = "stall:2@800:forever,release:2@40000,drop-signals:1@100:3" in
  match Fault_plan.parse s with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check int) "three clauses" 3 (List.length plan);
      Alcotest.(check string) "round-trips" s (Fault_plan.to_string plan);
      (match Fault_plan.parse (Fault_plan.to_string plan) with
      | Ok plan' -> Alcotest.(check bool) "reparse equal" true (plan = plan')
      | Error e -> Alcotest.fail e)

let test_plan_legacy_printer () =
  (* the shapes Ts_check always printed in replay commands *)
  Alcotest.(check string) "crash" "crash:1@7"
    (Fault_plan.clause_to_string { Fault_plan.victims = 1; at = At 7; event = Crash });
  Alcotest.(check string) "stall" "stall:2@9:40"
    (Fault_plan.clause_to_string
       { Fault_plan.victims = 2; at = At 9; event = Stall (Bounded 40) })

let test_plan_errors () =
  let bad s =
    match Fault_plan.parse s with
    | Error e ->
        (* every diagnosis names the offending clause *)
        Alcotest.(check bool)
          (Fmt.str "%S error mentions clause (got %S)" s e)
          true
          (String.length e > 0)
    | Ok _ -> Alcotest.failf "%S should not parse" s
  in
  bad "crash@oops";
  bad "crash:0@100" (* victims must be positive *);
  bad "crash:1@-5" (* trigger must be non-negative *);
  bad "stall:1@100:0" (* stall cycles must be positive *);
  bad "stall:1@100" (* stall needs a duration *);
  bad "drop-signals:1@100:0";
  bad "explode:1@100";
  bad "crash:1@100ns" (* only the ms suffix exists *);
  bad "crash:1@100,,stall:1@2:3" (* empty clause in a list *)

let test_plan_feature_flags () =
  let plan s = match Fault_plan.parse s with Ok p -> p | Error e -> failwith e in
  Alcotest.(check bool) "wall trigger" true
    (Fault_plan.has_wall_triggers (plan "crash:1@5ms"));
  Alcotest.(check bool) "no wall trigger" false
    (Fault_plan.has_wall_triggers (plan "crash:1@5"));
  Alcotest.(check bool) "unreleased forever parks" true
    (Fault_plan.parks_forever (plan "stall:1@5:forever"));
  Alcotest.(check bool) "bounded stall does not park" false
    (Fault_plan.parks_forever (plan "stall:1@5:9"));
  Alcotest.(check bool) "released forever does not park" false
    (Fault_plan.parks_forever (plan "stall:1@5:forever,release:1@50"));
  Alcotest.(check bool) "crash does not park" false (Fault_plan.parks_forever (plan "crash:1@5"))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ts_util"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "empty plans" `Quick test_plan_empty;
          Alcotest.test_case "single clauses" `Quick test_plan_single_clauses;
          Alcotest.test_case "multi-clause round-trip" `Quick test_plan_multi_roundtrip;
          Alcotest.test_case "legacy printer shapes" `Quick test_plan_legacy_printer;
          Alcotest.test_case "parse errors" `Quick test_plan_errors;
          Alcotest.test_case "feature flags" `Quick test_plan_feature_flags;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
          Alcotest.test_case "below bounds" `Quick test_rng_below_bounds;
          Alcotest.test_case "below covers all buckets" `Quick test_rng_below_covers;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "golden stream" `Quick test_rng_golden;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "get/set + bounds" `Quick test_vec_get_set;
          Alcotest.test_case "pop empty" `Quick test_vec_pop_empty;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "sort + iter" `Quick test_vec_sort_iter;
          Alcotest.test_case "exists + clear" `Quick test_vec_exists_clear;
          Alcotest.test_case "append_array" `Quick test_vec_append_array;
          qt prop_vec_model;
        ] );
      ( "isort",
        [
          Alcotest.test_case "sort prefix" `Quick test_sort_prefix;
          Alcotest.test_case "sort degenerate" `Quick test_sort_empty_and_single;
          Alcotest.test_case "search hits" `Quick test_binary_search_hits;
          Alcotest.test_case "search misses" `Quick test_binary_search_misses;
          Alcotest.test_case "search respects prefix" `Quick test_binary_search_excludes_tail;
          Alcotest.test_case "dedup" `Quick test_dedup_sorted;
          qt prop_sort_matches_stdlib;
          qt prop_binary_search_complete;
          qt prop_binary_search_sound;
        ] );
      ( "padded",
        [
          Alcotest.test_case "copy preserves fields" `Quick test_padded_copy_preserves;
          Alcotest.test_case "line-isolated atomic" `Quick test_padded_atomic;
        ] );
    ]
