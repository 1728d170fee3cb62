(* Per-layer spans, recorded from outside the library.

   The hooks are public surfaces only: a {!Ts_rt.set_decorator} wraps
   [malloc], [free], [signal], [yield] and [set_signal_handler] (the
   wrapped handler times each TS-Scan), a copy of the {!Ts_smr.Smr.t}
   record wraps [retire], and the worker loop opens one span per
   {!Ts_ds.Set_intf} call.

   Each thread keeps a span stack and adds a closing span's duration to
   its parent's child time, so self times (span minus child spans) are
   summed online.  Only the rare events that cross threads — signal
   sends, handler runs, slow retires — are logged, into preallocated
   arrays, for {!Stages} to resolve after the run.  Only the handler
   wrapper, which runs once per signal, allocates. *)

let op = 0
let malloc = 1
let free = 2
let retire = 3
let scan = 4
let layers = 5
let max_depth = 16

type th = {
  kind : int array;
  start : int array;
  child : int array;
  mutable depth : int;
  self : int array;  (** per layer: summed self time, ns *)
  calls : int array;  (** per layer: closed spans *)
  mutable op_ns : int;  (** summed inclusive [op] spans *)
  (* the open retire, if any *)
  mutable in_retire : bool;
  mutable r_first_sig : int;
  mutable r_yield : bool;
  mutable r_frees : int;
  mutable r_sig_lo : int;
  mutable fast_ns : int;
  mutable fast_n : int;
  mutable wait_ns : int;
  mutable wait_n : int;
  mutable scan_words : int;
  (* cross-thread logs *)
  send_t : int array;
  send_to : int array;
  send_ph : int array;
  mutable nsend : int;
  h_start : int array;
  h_end : int array;
  mutable nh : int;
  ph_enter : int array;
  ph_sig : int array;
  ph_exit : int array;
  ph_frees : int array;
  mutable nph : int;
  mutable lost : int;  (** log entries dropped because a log was full *)
}

type t = { states : th option array; active : bool Atomic.t }

let new_th cap =
  let a () = Array.make cap 0 in
  {
    kind = Array.make max_depth 0;
    start = Array.make max_depth 0;
    child = Array.make max_depth 0;
    depth = 0;
    self = Array.make layers 0;
    calls = Array.make layers 0;
    op_ns = 0;
    in_retire = false;
    r_first_sig = -1;
    r_yield = false;
    r_frees = 0;
    r_sig_lo = 0;
    fast_ns = 0;
    fast_n = 0;
    wait_ns = 0;
    wait_n = 0;
    scan_words = 0;
    send_t = a ();
    send_to = a ();
    send_ph = a ();
    nsend = 0;
    h_start = a ();
    h_end = a ();
    nh = 0;
    ph_enter = a ();
    ph_sig = a ();
    ph_exit = a ();
    ph_frees = a ();
    nph = 0;
    lost = 0;
  }

(* States exist only for [tids]: other threads (the main thread's prefill
   and flush) pass through untraced. *)
let create ~max_threads ~tids ~capacity =
  let states = Array.make max_threads None in
  List.iter (fun tid -> states.(tid) <- Some (new_th capacity)) tids;
  { states; active = Atomic.make false }

let set_active t b = Atomic.set t.active b
let state t tid = Option.get t.states.(tid)

let[@inline] enter th k =
  let d = th.depth in
  if d < max_depth then begin
    th.kind.(d) <- k;
    th.start.(d) <- Clock.now_ns ();
    th.child.(d) <- 0
  end;
  th.depth <- d + 1

(* Closes the innermost span; returns its duration. *)
let[@inline] leave th =
  let d = th.depth - 1 in
  th.depth <- d;
  if d < max_depth then begin
    let dur = Clock.now_ns () - th.start.(d) in
    let k = th.kind.(d) in
    th.self.(k) <- th.self.(k) + dur - th.child.(d);
    th.calls.(k) <- th.calls.(k) + 1;
    if k = op then th.op_ns <- th.op_ns + dur;
    if d > 0 then th.child.(d - 1) <- th.child.(d - 1) + dur;
    dur
  end
  else 0

(* The calling thread's state while tracing is on; [self] is only asked
   then. *)
let[@inline] lookup t self =
  if Atomic.get t.active then
    let tid = self () in
    if tid < Array.length t.states then t.states.(tid) else None
  else None

let log_send th target =
  let now = Clock.now_ns () in
  if th.in_retire && th.r_first_sig < 0 then th.r_first_sig <- now;
  let i = th.nsend in
  if i < Array.length th.send_t then begin
    th.send_t.(i) <- now;
    th.send_to.(i) <- target;
    th.send_ph.(i) <- -1;
    th.nsend <- i + 1
  end
  else th.lost <- th.lost + 1

let run_handler base th h =
  let sb, sp = base.Ts_rt.stack_range () in
  let _, regs = base.Ts_rt.saved_reg_range () in
  let priv = List.fold_left (fun acc (_, len) -> acc + len) 0 (base.Ts_rt.private_ranges ()) in
  th.scan_words <- th.scan_words + (sp - sb) + regs + priv;
  enter th scan;
  let t0 = th.start.(th.depth - 1) in
  let finish () =
    let dur = leave th in
    let i = th.nh in
    if i < Array.length th.h_start then begin
      th.h_start.(i) <- t0;
      th.h_end.(i) <- t0 + dur;
      th.nh <- i + 1
    end
    else th.lost <- th.lost + 1
  in
  match h () with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e

let decorate t (base : Ts_rt.ops) : Ts_rt.ops =
  let traced () = lookup t base.self in
  {
    base with
    malloc =
      (fun n ->
        match traced () with
        | None -> base.malloc n
        | Some th -> (
            enter th malloc;
            match base.malloc n with
            | a ->
                ignore (leave th);
                a
            | exception e ->
                ignore (leave th);
                raise e));
    free =
      (fun a ->
        match traced () with
        | None -> base.free a
        | Some th -> (
            if th.in_retire then th.r_frees <- th.r_frees + 1;
            enter th free;
            match base.free a with
            | () -> ignore (leave th)
            | exception e ->
                ignore (leave th);
                raise e));
    signal =
      (fun u ->
        (match traced () with Some th -> log_send th u | None -> ());
        base.signal u);
    yield =
      (fun () ->
        (match traced () with Some th when th.in_retire -> th.r_yield <- true | _ -> ());
        base.yield ());
    set_signal_handler =
      (fun h ->
        base.set_signal_handler (fun () ->
            match traced () with None -> h () | Some th -> run_handler base th h));
  }

let retire_exit th =
  let d = th.depth - 1 in
  let t_enter = th.start.(d) and child = th.child.(d) in
  let dur = leave th in
  th.in_retire <- false;
  if th.r_first_sig >= 0 then begin
    let i = th.nph in
    if i < Array.length th.ph_enter then begin
      th.ph_enter.(i) <- t_enter;
      th.ph_sig.(i) <- th.r_first_sig;
      th.ph_exit.(i) <- t_enter + dur;
      th.ph_frees.(i) <- th.r_frees;
      for k = th.r_sig_lo to th.nsend - 1 do
        th.send_ph.(k) <- i
      done;
      th.nph <- i + 1
    end
    else th.lost <- th.lost + 1
  end
  else if th.r_yield then begin
    th.wait_ns <- th.wait_ns + dur - child;
    th.wait_n <- th.wait_n + 1
  end
  else begin
    th.fast_ns <- th.fast_ns + dur - child;
    th.fast_n <- th.fast_n + 1
  end

let wrap_smr t (smr : Ts_smr.Smr.t) =
  {
    smr with
    Ts_smr.Smr.retire =
      (fun p ->
        match lookup t Ts_rt.self with
        | None -> smr.Ts_smr.Smr.retire p
        | Some th -> (
            th.in_retire <- true;
            th.r_first_sig <- -1;
            th.r_yield <- false;
            th.r_frees <- 0;
            th.r_sig_lo <- th.nsend;
            enter th retire;
            match smr.Ts_smr.Smr.retire p with
            | () -> retire_exit th
            | exception e ->
                retire_exit th;
                raise e));
  }

(* ---- after the run ---- *)

type summary = {
  ops : int;
  op_ns : int;  (** inclusive time inside [Set_intf] calls *)
  self_ns : int array;  (** per layer *)
  calls : int array;
  fast_ns : int;
  fast_n : int;
  wait_ns : int;
  wait_n : int;
  scan_words : int;
  phases : int;
  useful_phases : int;  (** phases that freed at least one node *)
  sweep_frees : int;
  stages : Stages.stage array;
  delivery : Hist.t;
  lost : int;
}

let summarize t ~tids =
  let ths = List.map (state t) tids in
  let sum f = List.fold_left (fun acc th -> acc + f th) 0 ths in
  let phases = ref [] and sends = ref [] and handlers = ref [] and base = ref 0 in
  List.iter2
    (fun tid th ->
      for i = 0 to th.nph - 1 do
        phases :=
          { Stages.p_enter = th.ph_enter.(i); p_first_sig = th.ph_sig.(i); p_exit = th.ph_exit.(i) }
          :: !phases
      done;
      for i = 0 to th.nsend - 1 do
        let ph = th.send_ph.(i) in
        sends :=
          {
            Stages.s_t = th.send_t.(i);
            s_target = th.send_to.(i);
            s_phase = (if ph < 0 then -1 else !base + ph);
          }
          :: !sends
      done;
      for i = 0 to th.nh - 1 do
        handlers := { Stages.h_tid = tid; h_start = th.h_start.(i); h_end = th.h_end.(i) } :: !handlers
      done;
      base := !base + th.nph)
    tids ths;
  let r =
    Stages.resolve
      ~phases:(Array.of_list (List.rev !phases))
      ~sends:(Array.of_list !sends) ~handlers:(Array.of_list !handlers)
  in
  let delivery = Hist.create () in
  Array.iter (Hist.add delivery) r.Stages.delivery;
  let useful = ref 0 and frees = ref 0 in
  List.iter
    (fun th ->
      for i = 0 to th.nph - 1 do
        if th.ph_frees.(i) > 0 then incr useful;
        frees := !frees + th.ph_frees.(i)
      done)
    ths;
  {
    ops = sum (fun th -> th.calls.(op));
    op_ns = sum (fun th -> th.op_ns);
    self_ns = Array.init layers (fun k -> sum (fun th -> th.self.(k)));
    calls = Array.init layers (fun k -> sum (fun th -> th.calls.(k)));
    fast_ns = sum (fun th -> th.fast_ns);
    fast_n = sum (fun th -> th.fast_n);
    wait_ns = sum (fun th -> th.wait_ns);
    wait_n = sum (fun th -> th.wait_n);
    scan_words = sum (fun th -> th.scan_words);
    phases = !base;
    useful_phases = !useful;
    sweep_frees = !frees;
    stages = r.Stages.stages;
    delivery;
    lost = sum (fun th -> th.lost);
  }
