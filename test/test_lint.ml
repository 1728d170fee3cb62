(* ts_lint regression suite.

   Each fixture in lint_fixtures/ seeds violations for exactly one
   pass; the suite pins the reported pass id, file and line numbers so
   a pass that drifts (stops seeing a shape, or starts mis-locating
   it) fails here before it rots the tree.  The facade fixture carries
   the module-alias and [open] shapes the original textual grep could
   not see — the regression that motivated the AST rewrite. *)

module Diagnostic = Ts_lint.Diagnostic
module Driver = Ts_lint.Driver
module Waiver = Ts_lint.Waiver

(* `dune runtest` runs in test/; a bare `dune exec` runs at the root *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let errors ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds

(* Run one pass over one fixture; check every diagnostic cites the
   right pass and file, and the error lines are exactly [expected]. *)
let check_fixture ~pass name expected () =
  let ds = Driver.lint_file ~passes:[ pass ] (fixture name) in
  List.iter
    (fun d ->
      Alcotest.(check string) "pass id" pass d.Diagnostic.pass;
      Alcotest.(check string) "file" name (Filename.basename d.Diagnostic.file))
    ds;
  Alcotest.(check (list int))
    "error lines" expected
    (List.map (fun d -> d.Diagnostic.line) (errors ds))

(* The alias/open regression, spelled out: line 9 USES the alias
   ([A.make]) and must stay silent — the violation is pinned on the
   binding (line 5), not smuggled through the use. *)
let test_facade_alias_flagged_at_binding () =
  let ds = errors (Driver.lint_file ~passes:[ "facade" ] (fixture "fixture_facade.ml")) in
  Alcotest.(check bool)
    "alias binding flagged" true
    (List.exists (fun d -> d.Diagnostic.line = 5) ds);
  Alcotest.(check bool)
    "alias use not re-flagged" false
    (List.exists (fun d -> d.Diagnostic.line = 9) ds)

(* All passes at once still attribute each violation to its own pass. *)
let test_all_passes_attribution () =
  let ds = errors (Driver.lint_file (fixture "fixture_padded.ml")) in
  let padded = List.filter (fun d -> d.Diagnostic.pass = "padded") ds in
  Alcotest.(check (list int))
    "padded lines under full run" [ 8; 10; 14 ]
    (List.map (fun d -> d.Diagnostic.line) padded)

(* ------------------------------ waivers ------------------------------ *)

let test_waiver_parses () =
  let src = "let x = 1 (* tslint: allow facade -- demo backdoor *)\nlet y = 2\n" in
  let ws, warns = Waiver.scan ~file:"x.ml" src in
  Alcotest.(check int) "one waiver" 1 (List.length ws);
  Alcotest.(check int) "no warnings" 0 (List.length warns);
  Alcotest.(check bool) "covers its line" true (Waiver.covers ws ~pass:"facade" ~line:1);
  Alcotest.(check bool) "covers next line" true (Waiver.covers ws ~pass:"facade" ~line:2);
  Alcotest.(check bool) "not other passes" false (Waiver.covers ws ~pass:"retire" ~line:1);
  Alcotest.(check bool) "not later lines" false (Waiver.covers ws ~pass:"facade" ~line:3)

let test_waiver_requires_reason () =
  let _, warns = Waiver.scan ~file:"x.ml" "(* tslint: allow facade *)\n" in
  Alcotest.(check int) "malformed reported" 1 (List.length warns)

let test_waiver_prose_is_not_directive () =
  let ws, warns =
    Waiver.scan ~file:"x.ml" "(* the tslint: marker mid-comment is prose *)\n"
  in
  Alcotest.(check int) "no waiver" 0 (List.length ws);
  Alcotest.(check int) "no warning" 0 (List.length warns)

let test_unused_waiver_reported () =
  let ws, _ = Waiver.scan ~file:"x.ml" "(* tslint: allow facade -- nothing here *)\n" in
  Alcotest.(check int) "unused under its pass" 1
    (List.length (Waiver.unused ws ~file:"x.ml" ~ran:[ "facade" ]));
  Alcotest.(check int) "silent when pass not run" 0
    (List.length (Waiver.unused ws ~file:"x.ml" ~ran:[ "retire" ]))

let () =
  Alcotest.run "ts_lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "facade" `Quick
            (check_fixture ~pass:"facade" "fixture_facade.ml" [ 5; 7; 10 ]);
          Alcotest.test_case "critical" `Quick
            (check_fixture ~pass:"critical" "fixture_critical.ml" [ 5; 6; 7; 10; 12 ]);
          Alcotest.test_case "padded" `Quick
            (check_fixture ~pass:"padded" "fixture_padded.ml" [ 8; 10; 14 ]);
          Alcotest.test_case "sigsafe" `Quick
            (check_fixture ~pass:"sigsafe" "fixture_sigsafe.ml" [ 8; 9 ]);
          Alcotest.test_case "sigsafe loop read-modify-write" `Quick
            (check_fixture ~pass:"sigsafe" "fixture_sigsafe_loop.ml" [ 11; 15 ]);
          Alcotest.test_case "retire" `Quick
            (check_fixture ~pass:"retire" "fixture_retire.ml" [ 8 ]);
          Alcotest.test_case "facade alias at binding" `Quick
            test_facade_alias_flagged_at_binding;
          Alcotest.test_case "full-run attribution" `Quick test_all_passes_attribution;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "parses" `Quick test_waiver_parses;
          Alcotest.test_case "requires reason" `Quick test_waiver_requires_reason;
          Alcotest.test_case "prose ignored" `Quick test_waiver_prose_is_not_directive;
          Alcotest.test_case "unused reported" `Quick test_unused_waiver_reported;
        ] );
    ]
