type summary = {
  runs : int;
  total_events : int;
  total_phases : int;
  total_steps : int;
  lin_keys : int;
  skipped_segments : int;
  failures : Scenario.outcome list;
}

let sweep ?(progress = fun _ -> ()) specs =
  let runs = ref 0
  and ev = ref 0
  and ph = ref 0
  and st = ref 0
  and keys = ref 0
  and sk = ref 0
  and failures = ref [] in
  List.iter
    (fun spec ->
      let o = Scenario.run spec in
      incr runs;
      ev := !ev + o.Scenario.events;
      ph := !ph + o.Scenario.phases;
      st := !st + o.Scenario.steps;
      keys := !keys + o.Scenario.lin_keys;
      sk := !sk + o.Scenario.skipped_segments;
      if Scenario.failed o then failures := o :: !failures;
      progress !runs)
    specs;
  {
    runs = !runs;
    total_events = !ev;
    total_phases = !ph;
    total_steps = !st;
    lin_keys = !keys;
    skipped_segments = !sk;
    failures = List.rev !failures;
  }

(* The seed family a sweep walks: alternate the random-walk and PCT
   policies so every second schedule probes ordering bugs of bounded
   preemption depth. *)
let sweep_specs ~base ~schedules ~seed0 ~pct_depth =
  List.init schedules (fun i ->
      let policy = if i mod 2 = 0 then Scenario.Uniform else Scenario.Pct pct_depth in
      { base with Scenario.policy; seed = seed0 + i })

let fails spec = Scenario.failed (Scenario.run spec)

type shrink_stats = { candidates : int; runs_executed : int; memo_hits : int }

(* Greedy shrink: each reduction is kept only if the spec still fails.
   Deterministic replay makes this sound — no flakiness to chase.

   Every candidate verdict is snapshotted in a memo table keyed by the
   spec, so the fixpoint passes below never re-run a scenario they have
   already judged: revisiting a candidate (the axes interact — halving
   ops can re-enable a thread reduction that previously survived, so we
   sweep the axes until none of them moves) costs a hash lookup, not a
   full simulator run. *)
let shrink_memo ?(fails = fails) spec =
  let memo : (Scenario.spec, bool) Hashtbl.t = Hashtbl.create 64 in
  let candidates = ref 0 and executed = ref 0 and hits = ref 0 in
  let check c =
    incr candidates;
    match Hashtbl.find_opt memo c with
    | Some v ->
        incr hits;
        v
    | None ->
        incr executed;
        let v = fails c in
        Hashtbl.add memo c v;
        v
  in
  let s = ref spec in
  if not (check spec) then (!s, { candidates = !candidates; runs_executed = !executed; memo_hits = !hits })
  else begin
    let reduce_axis shrink_one bottom =
      let moved = ref false in
      let continue_ = ref true in
      while !continue_ && not (bottom !s) do
        let c = shrink_one !s in
        if check c then begin
          s := c;
          moved := true
        end
        else continue_ := false
      done;
      !moved
    in
    let pass () =
      let t =
        reduce_axis
          (fun s -> { s with Scenario.threads = s.Scenario.threads - 1 })
          (fun s -> s.Scenario.threads <= 1)
      in
      let o =
        reduce_axis
          (fun s -> { s with Scenario.ops = s.Scenario.ops / 2 })
          (fun s -> s.Scenario.ops <= 4)
      in
      let k =
        reduce_axis
          (fun s -> { s with Scenario.key_range = s.Scenario.key_range / 2 })
          (fun s -> s.Scenario.key_range <= 4)
      in
      t || o || k
    in
    while pass () do
      ()
    done;
    (* Finally prefer the smallest failing seed in a short scan: stop at
       the first failing seed, and never scan past the current seed or
       the 64-seed horizon. *)
    let rec seed_scan i =
      if i < !s.Scenario.seed && i < 64 then
        if check { !s with Scenario.seed = i } then s := { !s with Scenario.seed = i }
        else seed_scan (i + 1)
    in
    seed_scan 0;
    (!s, { candidates = !candidates; runs_executed = !executed; memo_hits = !hits })
  end

let shrink spec = fst (shrink_memo spec)
