open Tsperf_lib

(* ---- histograms ---- *)

let samples n =
  let st = Random.State.make [| 42 |] in
  (* log-uniform over 1 ns .. ~1 s, plus a few exact small values *)
  List.init n (fun i ->
      if i mod 50 = 0 then i mod 64 else int_of_float (Float.exp (Random.State.float st 21.0)))

let test_percentiles () =
  let xs = samples 20_000 in
  let h = Hist.create () in
  List.iter (Hist.add h) xs;
  let sorted = Array.of_list (List.sort compare xs) in
  let n = Array.length sorted in
  List.iter
    (fun q ->
      let exact = sorted.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1) in
      let got = Hist.percentile h q in
      (* the bucket holding [exact] is at most exact/64 wide *)
      let bound = (float_of_int exact /. 64.0) +. 0.5 in
      if Float.abs (got -. float_of_int exact) > bound then
        Alcotest.failf "p%g: got %g, exact %d (allowed %g)" (q *. 100.0) got exact bound)
    [ 0.0001; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  Alcotest.(check int) "count" n (Hist.count h);
  (* the exact tail reader clamps like [tail_percentile]: 10 samples
     beyond, never below the median *)
  let fsorted = Array.map float_of_int sorted in
  List.iter
    (fun (q, rank) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "tail_of_sorted %g" q)
        fsorted.(rank - 1) (Hist.tail_of_sorted fsorted q))
    [ (0.5, n / 2); (0.99, n * 99 / 100); (0.9999, n - 10); (0.1, n / 2) ];
  Alcotest.(check (float 0.0)) "tail_of_sorted empty" 0.0 (Hist.tail_of_sorted [||] 0.99)

let test_buckets () =
  (* every value lands in a bucket whose bounds contain it *)
  List.iter
    (fun v ->
      let lower, width = Hist.bounds (Hist.index v) in
      if v < lower || v - lower >= width then Alcotest.failf "%d outside [%d, +%d)" v lower width;
      if v >= 64 && width * 64 > v then Alcotest.failf "%d: bucket width %d over 1/64" v width)
    (List.init 5000 (fun i -> i) @ [ 1 lsl 40; (1 lsl 61) + 12345; max_int ])

let test_merge () =
  let xs = samples 9_000 in
  let all = Hist.create () in
  let parts = Array.init 3 (fun _ -> Hist.create ()) in
  List.iteri
    (fun i x ->
      Hist.add all x;
      Hist.add parts.(i mod 3) x)
    xs;
  Alcotest.(check bool) "merged = single" true (Hist.equal all (Hist.merge (Array.to_list parts)))

(* ---- stage resolution ---- *)

let test_stages () =
  let open Stages in
  let phases =
    [|
      (* phase 0: signals t2 at 110; t2 scans 115..140 *)
      { p_enter = 100; p_first_sig = 110; p_exit = 200 };
      (* phase 1: signals t2 twice before t2 runs; both handlers pair in
         order, the last returns at 330 *)
      { p_enter = 250; p_first_sig = 260; p_exit = 400 };
      (* phase 2: its signal is never handled: all of it after the
         signal is handshake *)
      { p_enter = 500; p_first_sig = 505; p_exit = 600 };
      (* phase 3: the handler returns after the phase gave up *)
      { p_enter = 700; p_first_sig = 710; p_exit = 750 };
    |]
  in
  let sends =
    [|
      { s_t = 110; s_target = 2; s_phase = 0 };
      { s_t = 261; s_target = 2; s_phase = 1 };
      { s_t = 260; s_target = 2; s_phase = 1 };
      { s_t = 505; s_target = 3; s_phase = 2 };
      { s_t = 710; s_target = 2; s_phase = 3 };
    |]
  in
  let handlers =
    [|
      { h_tid = 2; h_start = 300; h_end = 330 };
      { h_tid = 2; h_start = 115; h_end = 140 };
      (* a handler for a signal sent before the log started *)
      { h_tid = 2; h_start = 50; h_end = 60 };
      { h_tid = 2; h_start = 270; h_end = 290 };
      { h_tid = 2; h_start = 720; h_end = 800 };
    |]
  in
  let r = resolve ~phases ~sends ~handlers in
  let stage = Alcotest.(triple int int int) in
  let got i = (r.stages.(i).collect, r.stages.(i).handshake, r.stages.(i).sweep) in
  Alcotest.check stage "phase 0" (10, 30, 60) (got 0);
  Alcotest.check stage "phase 1" (10, 70, 70) (got 1);
  Alcotest.check stage "phase 2" (5, 95, 0) (got 2);
  Alcotest.check stage "phase 3" (10, 40, 0) (got 3);
  Alcotest.(check (list int)) "delivery" [ 5; 10; 39; 10 ] (Array.to_list r.delivery)

(* ---- compare ---- *)

let test_quartiles () =
  let q = Verdict.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (array (float 1e-9))) "as statistics.quantiles" [| 2.75; 5.5; 8.25 |] q

let test_verdicts () =
  let v better bound a b = Verdict.to_string (Verdict.judge ~better ~bound a b).Verdict.verdict in
  let steady = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  let shift k = List.map (fun x -> x *. k) steady in
  Alcotest.(check string) "same" "unchanged" (v Metrics.Lower 0.1 steady (shift 1.02));
  Alcotest.(check string) "slower" "worse" (v Metrics.Lower 0.1 steady (shift 1.3));
  Alcotest.(check string) "faster" "better" (v Metrics.Lower 0.1 steady (shift 0.8));
  Alcotest.(check string) "higher is better" "worse" (v Metrics.Higher 0.1 steady (shift 0.8));
  Alcotest.(check string) "noisy" "unresolved"
    (v Metrics.Lower 0.1 [ 50.0; 100.0; 150.0; 80.0; 120.0 ] [ 60.0; 110.0; 140.0; 90.0; 100.0 ])

(* ---- BENCHMARK.json and the catalogue agree ---- *)

let test_benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let j = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let names key =
    List.map
      (fun m ->
        ( Option.get (Json.to_str (Json.member "name" m)),
          Option.get (Json.to_str (Json.member "unit" m)),
          Option.get (Json.to_str (Json.member "better" m)) ))
      (Json.to_list (Json.member key j))
  in
  let ours l = List.map (fun (m : Metrics.t) -> (m.name, m.unit_, Metrics.better_to_string m.better)) l in
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "end_to_end" (ours Metrics.end_to_end) (names "end_to_end");
  Alcotest.check t "per_layer" (ours Metrics.per_layer) (names "per_layer");
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all)
    (List.map
       (fun w ->
         ( Option.get (Json.to_str (Json.member "name" w)),
           Option.get (Json.to_str (Json.member "why" w)) ))
       (Json.to_list (Json.member "workloads" j)))

let test_numbers () =
  List.iter
    (fun f ->
      let s = Json.number f in
      match Json.parse s with
      | Json.Num g when g = f -> ()
      | _ -> Alcotest.failf "%h printed as %s" f s)
    [ 0.0; 1.0; 512.0; 0.1; 1934567.1; 2.0 /. 3.0; 1e-9; 6.02e23 ]

let () =
  Alcotest.run "tsperf"
    [
      ( "hist",
        [
          Alcotest.test_case "percentiles within the bucket bound" `Quick test_percentiles;
          Alcotest.test_case "buckets hold their values" `Quick test_buckets;
          Alcotest.test_case "merge equals one histogram" `Quick test_merge;
        ] );
      ("stages", [ Alcotest.test_case "synthetic span log" `Quick test_stages ]);
      ( "compare",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json;
          Alcotest.test_case "numbers read back" `Quick test_numbers;
        ] );
    ]
