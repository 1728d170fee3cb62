(* The execution interface every layer above the runtime is written
   against.  A backend (the deterministic simulator in [Ts_sim], real
   OCaml 5 domains in [Ts_par]) installs one [ops] record; the stack
   calls the wrapper functions below and never names a backend.

   The surface is exactly the op set the simulator exposed before the
   split, plus three backend-neutral extension points:

   - [poll]: an explicit safepoint.  Native threads deliver pending
     phase signals at op boundaries; a long computation that performs
     no ops can call [poll] to stay responsive.  No-op in the sim.
   - [critical]: mutual exclusion for *OCaml-heap* state shared between
     threads (orphan lists, overflow queues).  Words in the unmanaged
     heap are already atomic; this is only for the few managed-heap
     structures the schemes share.  No-op in the sim (one fiber runs at
     a time); a global mutex natively.
   - [scan_words]: a conservative scan's loads over one range, handing
     on only the words inside a candidate window.  The sim's is
     literally a [read] loop plus that test; the native one pays the
     per-op bookkeeping once per range instead of once per word, and
     loads the caller's own stack and register words with plain loads.
   - [search]: a binary search of a sorted table of shared words, the
     scanner's lookup in the master buffer.  The sim and the analyzer
     run [search_by read], the reference loop; the native one runs the
     same loop in one C call and pays the per-op bookkeeping once.
   - [drain], [read_words], [publish], [sweep]: the reclamation phase's
     buffer loops — a delete buffer drained into the master buffer, the
     master's read-back before its sort and write-back after it, and
     the sweep's compaction pass.  Each is defined by its reference
     loop below ([drain_by] and friends), which the sim and the
     analyzer run over their own [read] and [write]; the native ones
     run the loop in one C call and pay the per-op bookkeeping once. *)

type tid = int

type ops = {
  (* unmanaged shared memory *)
  read : int -> int;
  scan_words : int -> int -> lo:int -> hi:int -> (int -> unit) -> unit;
  search : int -> int -> int -> int;
  drain : int -> int -> dst:int -> cap:int -> int ref -> unit;
  read_words : int -> int -> int array -> unit;
  publish : entries:int -> marks:int -> int array -> int -> unit;
  sweep : entries:int -> marks:int -> ignore_marks:bool -> int -> int array -> int;
  write : int -> int -> unit;
  cas : int -> int -> int -> bool;
  faa : int -> int -> int;
  fence : unit -> unit;
  malloc : int -> int;
  free : int -> unit;
  alloc_region : int -> int;
  (* scheduling *)
  yield : unit -> unit;
  advance : int -> unit;
  now : unit -> int;
  self : unit -> tid;
  rand_below : int -> int;
  steps_now : unit -> int;
  spawn : (unit -> unit) -> tid;
  join : tid -> unit;
  is_done : tid -> bool;
  poll : unit -> unit;
  (* signals *)
  signal : tid -> unit;
  set_signal_handler : (unit -> unit) -> unit;
  signal_depth : unit -> int;
  neutralize : exn -> unit;
  cancel_neutralize : unit -> unit;
  (* shadow stack, registers, scan ranges *)
  push_frame : int -> int;
  pop_frame : int -> unit;
  stack_range : unit -> int * int;
  reg_range : unit -> int * int;
  save_regs : unit -> unit;
  saved_reg_range : unit -> int * int;
  clear_regs : unit -> unit;
  add_private_range : int -> int -> unit;
  remove_private_range : int -> int -> unit;
  private_ranges : unit -> (int * int) list;
  scan_ranges_of : tid -> (int * int) list;
  (* fault status and diagnostics *)
  crash : tid -> unit;
  stall : int option -> tid -> unit;
  unstall : tid -> unit;
  drop_signals : tid -> int -> unit;
  delay_signals : tid -> int -> unit;
  sleep : int -> unit;
  is_crashed : tid -> bool;
  is_stalled : tid -> bool;
  clock_of : tid -> int;
  set_wait_note : (unit -> string) option -> unit;
  note : string -> unit;
  (* managed-heap mutual exclusion *)
  critical : 'a. (unit -> 'a) -> 'a;
}

(* Registration is split in two layers:

   - [base]: the ops record a backend installed (sim or native).
   - [decorator]: an optional wrapper (the [Ts_analyze] race/lifecycle
     detector) applied on top of whatever base is installed.

   [current] always holds [decorator (base)] and is what the wrapper
   functions below dispatch through.  Keeping [base] separate means a
   backend re-installing its own record (the simulator does so on both
   [create] and [start]) re-applies the decorator instead of silently
   dropping it — and lets [install] reject a *different* backend while a
   run is in flight, so a stray nested run can't swap the ops out from
   under an attached analyzer. *)

let current : ops option Atomic.t = Atomic.make None

let base : ops option Atomic.t = Atomic.make None

let decorator : (ops -> ops) option Atomic.t = Atomic.make None

let run_depth : int Atomic.t = Atomic.make 0

let refresh () =
  match Atomic.get base with
  | None -> Atomic.set current None
  | Some b ->
      let o = match Atomic.get decorator with None -> b | Some d -> d b in
      Atomic.set current (Some o)

let install o =
  (match Atomic.get base with
  | Some b when Atomic.get run_depth > 0 && b != o ->
      failwith
        "Ts_rt: backend install while a run is active (finish the current Ts_sim/Ts_par run \
         before entering another backend)"
  | _ -> ());
  Atomic.set base (Some o);
  refresh ()

let base_ops () = Atomic.get base

let set_decorator d =
  Atomic.set decorator d;
  refresh ()

let enter_run () = Atomic.incr run_depth

let exit_run () =
  let rec dec () =
    let d = Atomic.get run_depth in
    if d > 0 && not (Atomic.compare_and_set run_depth d (d - 1)) then dec ()
  in
  dec ()

let installed () = Atomic.get current <> None

let[@inline] ops () =
  match Atomic.get current with
  | Some o -> o
  | None ->
      failwith
        "Ts_rt: no execution backend installed (enter Ts_sim.Runtime.run or Ts_par.Runtime.run \
         first)"

let search_by (read : int -> int) base n (key : int) =
  let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    let v = read (base + mid) in
    if v = key then found := mid else if v < key then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* The phase's buffer loops.  A delete buffer is the ring [head][tail]
   [slot 0 .. len - 1] at [ring]; the master buffer's entries and marks
   are two word arrays. *)
let drain_by (read : int -> int) write ring len ~dst ~cap cursor =
  let h = read ring in
  let k = ref (read (ring + 1)) in
  let go = ref true in
  while !go && !k < h do
    let p = read (ring + 2 + (!k mod len)) in
    if !cursor < cap then begin
      write (dst + !cursor) p;
      incr cursor;
      incr k;
      write (ring + 1) !k
    end
    else go := false
  done

let read_words_by (read : int -> int) base n into =
  for i = 0 to n - 1 do
    into.(i) <- read (base + i)
  done

let publish_by write ~entries ~marks src n =
  for i = 0 to n - 1 do
    write (entries + i) src.(i);
    write (marks + i) 0
  done

let sweep_by (read : int -> int) write ~entries ~marks ~ignore_marks n unmarked =
  let carry = ref 0 and freed = ref 0 in
  for i = 0 to n - 1 do
    let p = read (entries + i) in
    if (not ignore_marks) && read (marks + i) <> 0 then begin
      write (entries + !carry) p;
      incr carry
    end
    else begin
      unmarked.(!freed) <- p;
      incr freed
    end
  done;
  !carry

let read addr = (ops ()).read addr
let scan_words base len ~lo ~hi f = (ops ()).scan_words base len ~lo ~hi f
let search base n key = (ops ()).search base n key
let drain ring len ~dst ~cap cursor = (ops ()).drain ring len ~dst ~cap cursor
let read_words base n into = (ops ()).read_words base n into
let publish ~entries ~marks src n = (ops ()).publish ~entries ~marks src n

let sweep ~entries ~marks ~ignore_marks n unmarked =
  (ops ()).sweep ~entries ~marks ~ignore_marks n unmarked

let write addr v = (ops ()).write addr v
let cas addr expected desired = (ops ()).cas addr expected desired
let faa addr delta = (ops ()).faa addr delta
let fence () = (ops ()).fence ()
let malloc n = (ops ()).malloc n
let free addr = (ops ()).free addr
let alloc_region n = (ops ()).alloc_region n
let yield () = (ops ()).yield ()
let advance n = (ops ()).advance n
let now () = (ops ()).now ()
let self () = (ops ()).self ()
let rand_below n = (ops ()).rand_below n
let steps_now () = (ops ()).steps_now ()
let spawn f = (ops ()).spawn f
let join t = (ops ()).join t
let is_done t = (ops ()).is_done t
let poll () = (ops ()).poll ()
let signal t = (ops ()).signal t
let set_signal_handler h = (ops ()).set_signal_handler h
let signal_depth () = (ops ()).signal_depth ()
let neutralize e = (ops ()).neutralize e
let cancel_neutralize () = (ops ()).cancel_neutralize ()
let push_frame n = (ops ()).push_frame n
let pop_frame base = (ops ()).pop_frame base
let stack_range () = (ops ()).stack_range ()
let reg_range () = (ops ()).reg_range ()
let save_regs () = (ops ()).save_regs ()
let saved_reg_range () = (ops ()).saved_reg_range ()
let clear_regs () = (ops ()).clear_regs ()
let add_private_range base len = (ops ()).add_private_range base len
let remove_private_range base len = (ops ()).remove_private_range base len
let private_ranges () = (ops ()).private_ranges ()
let scan_ranges_of t = (ops ()).scan_ranges_of t
let crash t = (ops ()).crash t
let stall ?cycles t = (ops ()).stall cycles t
let unstall t = (ops ()).unstall t
let drop_signals t n = (ops ()).drop_signals t n
let delay_signals t c = (ops ()).delay_signals t c
let sleep n = (ops ()).sleep n
let is_crashed t = (ops ()).is_crashed t
let is_stalled t = (ops ()).is_stalled t
let clock_of t = (ops ()).clock_of t
let set_wait_note n = (ops ()).set_wait_note n
let note s = (ops ()).note s
let critical f = (ops ()).critical f
