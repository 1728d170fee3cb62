module Smr = Ts_smr.Smr
module Runtime = Ts_rt
module Ptr = Ts_umem.Ptr
module Vec = Ts_util.Vec

(* DEBRA+ (Brown, PODC'15): epoch-based reclamation with limbo bags per
   epoch, plus neutralizing signals so reclamation never waits behind a
   stalled or crashed reader.  A thread pins the global epoch for the
   duration of each operation by publishing (epoch lsl 1) lor 1 in its
   announce word; retired nodes go into the bag tagged with the pinning
   epoch and are freed once the global epoch has advanced twice past the
   tag.  A thread that wants to advance the epoch but finds a peer pinned
   at an older epoch signals it: the peer's handler announces quiescence
   on the spot and arranges — via [Runtime.neutralize] — for the
   interrupted operation to abort at its next shared-memory access and
   restart from [op_begin].  Crashed peers are skipped outright (their
   bags are adopted), so unlike plain epoch the scheme tolerates crashes
   and unbounded stalls without wedging. *)

type bag = { tag : int; nodes : Vec.t }

type state = {
  max_threads : int;
  epoch_addr : int; (* global epoch word *)
  announce_base : int; (* one word per thread: (epoch lsl 1) lor active *)
  bags : bag list ref array; (* per thread, newest first *)
  in_section : bool array; (* plain flag the handler consults *)
  local_epoch : int array; (* epoch pinned by the current section *)
  orphans : bag list ref; (* adopted/exited bags, under Runtime.critical *)
  adopted : bool array; (* corpse bags already adopted *)
  batch : int;
  resend_every : int; (* spin iterations between signal resends *)
  stall_skip_after : int; (* resends before a parked victim is skipped *)
  mutable advances : int;
  mutable signals : int;
  mutable neutralizations : int;
  mutable dead_skips : int;
  mutable stall_skips : int;
  mutable unreclaimed_peak : int;
}

let announce_addr st tid = st.announce_base + tid

let bag_for st tid tag =
  match List.find_opt (fun b -> b.tag = tag) !(st.bags.(tid)) with
  | Some b -> b.nodes
  | None ->
      let b = { tag; nodes = Vec.create () } in
      st.bags.(tid) := b :: !(st.bags.(tid));
      b.nodes

let backlog st tid =
  List.fold_left (fun acc b -> acc + Vec.length b.nodes) 0 !(st.bags.(tid))

let free_bag (c : Smr.counters) b =
  Vec.iter
    (fun p ->
      Runtime.free (Ptr.addr p);
      Smr.add_freed c 1)
    b.nodes;
  Vec.clear b.nodes

(* Free every bag with tag <= limit from [bagsref] (a single thread's
   list, or — detached under critical first — the orphan list). *)
let free_safe st c ~limit bagsref =
  ignore st;
  let keep, ripe = List.partition (fun b -> b.tag > limit) !bagsref in
  bagsref := keep;
  List.iter (free_bag c) ripe

let free_orphans st c ~limit =
  if !(st.orphans) <> [] then begin
    let ripe =
      Runtime.critical (fun () ->
          let keep, ripe = List.partition (fun b -> b.tag > limit) !(st.orphans) in
          st.orphans := keep;
          ripe)
    in
    List.iter (free_bag c) ripe
  end

(* A crashed peer never leaves its section: take its bags (once) and
   clear its announce word so no advancer waits on the corpse again.
   Freeing what the corpse retired is safe — it unlinked those nodes
   before retiring them, and a dead thread performs no further reads. *)
let adopt_dead st tid =
  Runtime.critical (fun () ->
      if not st.adopted.(tid) then begin
        st.adopted.(tid) <- true;
        st.orphans := !(st.bags.(tid)) @ !(st.orphans);
        st.bags.(tid) := []
      end);
  Runtime.write (announce_addr st tid) 0

(* Advance the global epoch by one, neutralizing every thread still
   pinned at an older epoch.  Termination: a live victim either finishes
   its section (announce goes even), re-pins the current epoch, or takes
   the signal and quiesces in its handler; a crashed victim is adopted; a
   parked victim is skipped once [stall_skip_after] resends sit pending —
   sound, because delivery precedes its next instruction on wake, so it
   aborts before touching shared memory again.  (The one hole: a
   drop-signals fault can eat the pending resend, reintroducing the race
   — see docs/SCHEMES.md.) *)
let try_advance st (c : Smr.counters) =
  Smr.add_cleanups c 1;
  let self = Runtime.self () in
  let e = Runtime.read st.epoch_addr in
  for u = 0 to st.max_threads - 1 do
    if u <> self then begin
      let a = Runtime.read (announce_addr st u) in
      if a land 1 = 1 && a asr 1 < e then begin
        if Runtime.is_crashed u then begin
          adopt_dead st u;
          st.dead_skips <- st.dead_skips + 1
        end
        else begin
          Runtime.signal u;
          st.signals <- st.signals + 1;
          Runtime.set_wait_note (Some (fun () -> Fmt.str "debra neutralize wait on t%d" u));
          let resends = ref 1 in
          let spins = ref 0 in
          let waiting = ref true in
          while
            !waiting
            &&
            let a' = Runtime.read (announce_addr st u) in
            a' land 1 = 1 && a' asr 1 < e
          do
            if Runtime.is_crashed u then begin
              adopt_dead st u;
              st.dead_skips <- st.dead_skips + 1;
              waiting := false
            end
            else if Runtime.is_stalled u && !resends >= st.stall_skip_after then begin
              st.stall_skips <- st.stall_skips + 1;
              waiting := false
            end
            else begin
              incr spins;
              if !spins mod st.resend_every = 0 then begin
                Runtime.signal u;
                st.signals <- st.signals + 1;
                incr resends
              end;
              Runtime.yield ()
            end
          done;
          Runtime.set_wait_note None
        end
      end
    end
  done;
  if Runtime.cas st.epoch_addr e (e + 1) then st.advances <- st.advances + 1

let create ?(batch = 64) ?(resend_every = 16) ?(stall_skip_after = 64) ~max_threads () =
  let epoch_addr = Runtime.alloc_region 1 in
  (* start at 2 so tag <= epoch - 2 never goes negative *)
  Runtime.write epoch_addr 2;
  let announce_base = Runtime.alloc_region max_threads in
  let st =
    {
      max_threads;
      epoch_addr;
      announce_base;
      bags = Array.init max_threads (fun _ -> ref []);
      in_section = Array.make max_threads false;
      local_epoch = Array.make max_threads 0;
      orphans = ref [];
      adopted = Array.make max_threads false;
      batch;
      resend_every;
      stall_skip_after;
      advances = 0;
      signals = 0;
      neutralizations = 0;
      dead_skips = 0;
      stall_skips = 0;
      unreclaimed_peak = 0;
    }
  in
  let smr = ref None in
  let cnt () = (Option.get !smr : Smr.t).Smr.counters in
  (* The handler runs on the victim thread (inline at a poll natively, as
     a same-thread fiber on the simulator).  If the victim is mid-section
     it announces quiescence right here and arms the abort; the victim
     then raises [Smr.Neutralized] at its next shared-memory access and
     the data structure's [wrap] restarts the operation from [op_begin].
     Outside a section there is nothing to unpin — in particular a signal
     landing between [op_end]'s [in_section := false] and its
     [cancel_neutralize] must NOT re-arm an abort for the operation that
     just completed. *)
  let handler () =
    let tid = Runtime.self () in
    if st.in_section.(tid) then begin
      st.in_section.(tid) <- false;
      Runtime.write (announce_addr st tid) (st.local_epoch.(tid) lsl 1);
      st.neutralizations <- st.neutralizations + 1;
      Runtime.neutralize Smr.Neutralized
    end
  in
  let thread_init () = Runtime.set_signal_handler handler in
  let op_begin () =
    let tid = Runtime.self () in
    (* a retried (neutralized) attempt enters here with no abort pending
       — the raise consumed it — but be defensive: a stale abort escaping
       into the section would tear the pin protocol *)
    Runtime.cancel_neutralize ();
    (* announce-then-recheck: the pin is only valid once the announce was
       visible while the global epoch still had the announced value —
       otherwise an advancer whose scan missed us could free a bag whose
       nodes were unlinked after we started reading *)
    let rec pin () =
      let e = Runtime.read st.epoch_addr in
      Runtime.write (announce_addr st tid) ((e lsl 1) lor 1);
      if Runtime.read st.epoch_addr <> e then pin () else e
    in
    let e = pin () in
    st.local_epoch.(tid) <- e;
    st.in_section.(tid) <- true
  in
  let reclaim_boundary st tid c =
    let e = Runtime.read st.epoch_addr in
    free_safe st c ~limit:(e - 2) st.bags.(tid);
    free_orphans st c ~limit:(e - 2)
  in
  let op_end () =
    let tid = Runtime.self () in
    (* order matters: the flag first (the handler reads it), then the
       cancel (a completed — linearized — operation must never retry),
       and only then any shared-memory effect *)
    st.in_section.(tid) <- false;
    Runtime.cancel_neutralize ();
    Runtime.write (announce_addr st tid) (st.local_epoch.(tid) lsl 1);
    let bl = backlog st tid in
    if bl > st.unreclaimed_peak then st.unreclaimed_peak <- bl;
    let c = cnt () in
    reclaim_boundary st tid c;
    let current = bag_for st tid st.local_epoch.(tid) in
    if Vec.length current >= st.batch then begin
      try_advance st c;
      reclaim_boundary st tid c
    end
  in
  let retire (c : Smr.counters) p =
    let tid = Runtime.self () in
    (* inside a section the pinning epoch tags the bag; a bare retire
       (tests, fixtures) uses the current global epoch, which is never
       older than the unlink *)
    let tag =
      if st.in_section.(tid) then st.local_epoch.(tid) else Runtime.read st.epoch_addr
    in
    (* count before push: a crash between the two leaks (bounded) rather
       than letting freed outrun retired *)
    Smr.add_retired c 1;
    Vec.push (bag_for st tid tag) (Ptr.mask p)
  in
  let thread_exit () =
    let tid = Runtime.self () in
    st.in_section.(tid) <- false;
    Runtime.cancel_neutralize ();
    Runtime.write (announce_addr st tid) 0;
    let c = cnt () in
    let e = Runtime.read st.epoch_addr in
    free_safe st c ~limit:(e - 2) st.bags.(tid);
    Runtime.critical (fun () ->
        st.orphans := !(st.bags.(tid)) @ !(st.orphans);
        st.bags.(tid) := [])
  in
  let flush () =
    let c = cnt () in
    (* Drive the full neutralizing protocol a few hops so every straggler
       is quiesced, adopted, or carries a pending abort; after that every
       bag is safe — a neutralized thread that wakes later aborts before
       its next shared-memory access. *)
    for _ = 1 to 3 do
      try_advance st c
    done;
    for tid = 0 to st.max_threads - 1 do
      free_safe st c ~limit:max_int st.bags.(tid)
    done;
    free_orphans st c ~limit:max_int
  in
  let t =
    Smr.make ~name:"debra" ~thread_init ~thread_exit ~op_begin ~op_end ~flush
      ~retired_access:Smr.In_op
      ~extras:(fun () ->
        [
          ("epoch-advances", st.advances);
          ("neutralize-signals", st.signals);
          ("neutralizations", st.neutralizations);
          ("dead-skips", st.dead_skips);
          ("stall-skips", st.stall_skips);
          ("unreclaimed-peak", st.unreclaimed_peak);
        ])
      ~retire ()
  in
  smr := Some t;
  t
