(* Happens-before race detector + SMR lifecycle sanitizer.

   Implemented as a decorator over the installed backend's [Ts_rt.ops]
   record: every unmanaged-memory access, spawn/join, signal and
   critical section flows through here, on either backend, without a
   single data-structure line changing.

   Memory model (docs/ANALYSIS.md has the long version): the detector
   renders x86-TSO, the machine the paper targets.

   - Program order: each thread carries a vector clock, bumped per op.
   - Reads-from edges carry the writer's FULL clock: a TSO store buffer
     drains in order, so a read observing write W also observes W's
     thread's entire program prefix.  Concretely, every write releases
     the writer's whole clock into a per-word sync clock and every read
     (including CAS failures and spin reads) acquires it.
   - spawn/join, signal delivery, [critical] sections, a true
     [is_done]/[is_crashed]/[is_stalled] answer, and [fence] (via one
     global fence clock) are further release/acquire pairs.

   Reported conflicts are (a) write-write on the same word where the
   previous write's epoch is not covered by the writer's clock —
   excepting same-value stores (idempotent flag/mark stores are how
   ThreadScan's handlers talk) and pairs where both stores come from
   inside an Smr hook (scheme-internal protocol memory, e.g. the
   reclaimer-takeover path, is managed by the scheme's own generation
   discipline, not by happens-before) — and (b) free-vs-any-access: freeing a
   block whose last write or any unordered read is not behind the
   freeing thread.  Read-write conflicts are deliberately not reported:
   every simulated word is a machine word with atomic access, so a racy
   read is a stale read, not undefined behaviour; it only becomes a bug
   when the block is freed under the reader, which (b) catches.

   Last accesses use the FastTrack adaptive representation: one
   (tid, clock) epoch per word for the last write and for the last read,
   escalating the read side to a full vector clock only when genuinely
   concurrent reads accumulate.

   The lifecycle automaton tracks every allocation through
   allocated -> published -> unlinked -> retired -> freed, counting
   incoming references from shared memory (region words and words of
   published blocks; shadow-stack frames, registered private ranges and
   scheme-internal buffers are roots, not links — retiring a node the
   reclaimer can still see in a frame is ThreadScan's whole point).
   Flagged: retire with counted references that are later overwritten or
   still stand at the end, rather than retired with their own block
   (retire-before-unlink),
   retire of an already-retired or freed block (double-retire), and a
   word access inside a retired block by a thread the owning scheme does
   not protect (access-after-retire): under hazard pointers the accessor
   must hold a protect slot on the block, under epoch schemes it must be
   inside an op_begin/op_end section; schemes with invisible readers
   (threadscan, leaky, stacktrack) permit such reads by design.

   Thread safety: all analyzer state is mutated inside the backend's own
   [critical] (a no-op in the deterministic simulator, the global mutex
   natively).  On the native backend each memory op performs its effect
   and its analysis inside one critical section, so the recorded order
   is an order the machine really executed — heavy serialization, but
   --analyze is a checking mode, not a benchmarking mode. *)

module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr

(* ------------------------------------------------------------------ *)
(* Vector clocks                                                      *)
(* ------------------------------------------------------------------ *)

module Vc = struct
  type t = { mutable a : int array }

  let create () = { a = Array.make 8 0 }

  let ensure t n =
    if n >= Array.length t.a then begin
      let b = Array.make (max (n + 1) (2 * Array.length t.a)) 0 in
      Array.blit t.a 0 b 0 (Array.length t.a);
      t.a <- b
    end

  let get t i = if i >= 0 && i < Array.length t.a then t.a.(i) else 0

  let set t i v =
    ensure t i;
    t.a.(i) <- v

  let join dst src =
    let n = Array.length src.a in
    if n > 0 then ensure dst (n - 1);
    for i = 0 to n - 1 do
      if src.a.(i) > dst.a.(i) then dst.a.(i) <- src.a.(i)
    done

  let copy src = { a = Array.copy src.a }
  let covers t ~tid ~clk = get t tid >= clk
end

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

type lifecycle_kind = Retire_before_unlink | Double_retire | Access_after_retire

type lifecycle = {
  lc_kind : lifecycle_kind;
  lc_scheme : string;
  lc_tid : int;
  lc_base : int;
  lc_alloc : int;
  lc_detail : string;
}

type lifecycle_state =
  | Alive
  | Retired of { r_scheme : string; r_tid : int; r_access : Smr.retired_access }
  | Freed

type alloc = {
  al_id : int;  (* allocation sequence number, deterministic in the sim *)
  al_base : int;
  al_words : int;
  al_creator : int;
  mutable al_refs : int;  (* counted incoming references *)
  mutable al_published : bool;
  mutable al_state : lifecycle_state;
  mutable al_suspect : lifecycle option;  (* retired while still referenced *)
}

type word = {
  mutable wr_tid : int;  (* -1 = never written *)
  mutable wr_clk : int;
  mutable wr_op : string;
  mutable wr_val : int;
  mutable wr_scheme : bool;  (* last write came from inside an Smr hook *)
  mutable rd_tid : int;  (* -1 = never read, -2 = escalated to vector *)
  mutable rd_clk : int;
  mutable rd_vc : Vc.t option;
  mutable sync : Vc.t option;  (* accumulated release clock of all writers *)
  mutable owner : alloc option;
  mutable target : alloc option;  (* allocation this word's value points at *)
  mutable counted : bool;  (* does [target] count toward al_refs? *)
}

type thread = {
  th_tid : int;
  vc : Vc.t;
  mutable frames : (int * int) list;  (* active shadow-stack frames *)
  mutable priv : (int * int) list;  (* registered private ranges *)
  mutable scheme_depth : int;  (* inside an Smr hook body *)
  mutable in_op : bool;  (* between op_begin and op_end *)
  protects : (int, int) Hashtbl.t;  (* protect slot -> protected block base *)
}

type access = { a_tid : int; a_clk : int; a_op : string }

type race = {
  rc_addr : int;
  rc_alloc : (int * int) option;  (* (allocation id, word offset) *)
  rc_first : access;
  rc_second : access;
}

type violation = Race of race | Lifecycle of lifecycle

type t = {
  mutable orig : Ts_rt.ops option;  (* the ops being decorated *)
  threads : (int, thread) Hashtbl.t;
  words : (int, word) Hashtbl.t;
  allocs : (int, alloc) Hashtbl.t;  (* live block base -> alloc *)
  chans : (int, Vc.t) Hashtbl.t;  (* signal channel per target tid *)
  fence_vc : Vc.t;
  crit_vc : Vc.t;
  mutable crit_owner : int;  (* tid holding the analyzer's critical section *)
  mutable next_alloc : int;
  mutable n_allocs : int;
  mutable ops_seen : int;
  raced : (int, unit) Hashtbl.t;  (* word addrs already reported *)
  flagged : (int, unit) Hashtbl.t;  (* alloc ids with access-after-retire *)
  mutable viols : violation list;  (* reversed *)
  mutable suspects : alloc list;  (* reversed; see [note_retire] *)
  mutable n_viols : int;
  mutable dropped : int;
  max_reports : int;
  notes : bool;
}

let create ?(max_reports = 32) ?(notes = true) () =
  {
    orig = None;
    threads = Hashtbl.create 16;
    words = Hashtbl.create 1024;
    allocs = Hashtbl.create 256;
    chans = Hashtbl.create 16;
    fence_vc = Vc.create ();
    crit_vc = Vc.create ();
    crit_owner = -1;
    next_alloc = 0;
    n_allocs = 0;
    ops_seen = 0;
    raced = Hashtbl.create 8;
    flagged = Hashtbl.create 8;
    viols = [];
    suspects = [];
    n_viols = 0;
    dropped = 0;
    max_reports;
    notes;
  }

let thread an tid =
  match Hashtbl.find_opt an.threads tid with
  | Some th -> th
  | None ->
      let th =
        {
          th_tid = tid;
          vc = Vc.create ();
          frames = [];
          priv = [];
          scheme_depth = 0;
          in_op = false;
          protects = Hashtbl.create 4;
        }
      in
      Vc.set th.vc tid 1;
      Hashtbl.add an.threads tid th;
      th

let word an addr =
  match Hashtbl.find_opt an.words addr with
  | Some w -> w
  | None ->
      let w =
        {
          wr_tid = -1;
          wr_clk = 0;
          wr_op = "";
          wr_val = 0;
          wr_scheme = false;
          rd_tid = -1;
          rd_clk = 0;
          rd_vc = None;
          sync = None;
          owner = None;
          target = None;
          counted = false;
        }
      in
      Hashtbl.add an.words addr w;
      w

let chan an tid =
  match Hashtbl.find_opt an.chans tid with
  | Some v -> v
  | None ->
      let v = Vc.create () in
      Hashtbl.add an.chans tid v;
      v

(* Reentrancy-aware mutual exclusion for analyzer state.  Signal
   handlers run from the poll inside a delegated op, i.e. while the
   interrupted op still holds the section; [crit_owner] lets the
   handler's ops analyze without re-taking the (non-reentrant native)
   mutex.  The unlocked read is safe: only thread [tid] ever stores
   [tid] there, and it clears it before unlocking. *)
let with_crit an (o : Ts_rt.ops) tid f =
  if an.crit_owner = tid then f ()
  else
    (* tslint: allow sigsafe -- the crit_owner guard above makes the handler path re-entry-safe: a thread interrupted inside the bracket still owns it and skips the lock *)
    o.critical (fun () ->
        an.crit_owner <- tid;
        Fun.protect ~finally:(fun () -> an.crit_owner <- -1) f)

let tick th =
  let c = Vc.get th.vc th.th_tid + 1 in
  Vc.set th.vc th.th_tid c;
  c

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let kind_to_string = function
  | Retire_before_unlink -> "retire-before-unlink"
  | Double_retire -> "double-retire"
  | Access_after_retire -> "access-after-retire"

let pp_access ppf a = Fmt.pf ppf "t%d %s@%d" a.a_tid a.a_op a.a_clk

let pp_race ppf r =
  let pp_where ppf () =
    match r.rc_alloc with
    | Some (id, off) -> Fmt.pf ppf "word %d (alloc #%d+%d)" r.rc_addr id off
    | None -> Fmt.pf ppf "word %d" r.rc_addr
  in
  Fmt.pf ppf "race on %a: %a vs %a" pp_where () pp_access r.rc_first pp_access r.rc_second

let pp_lifecycle ppf l =
  Fmt.pf ppf "lifecycle [%s] %s: alloc #%d (base %d) by t%d: %s" l.lc_scheme
    (kind_to_string l.lc_kind) l.lc_alloc l.lc_base l.lc_tid l.lc_detail

let pp_violation ppf = function
  | Race r -> pp_race ppf r
  | Lifecycle l -> pp_lifecycle ppf l

let violation_to_string v = Fmt.str "%a" pp_violation v

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let add_violation an v =
  if an.n_viols < an.max_reports then begin
    an.viols <- v :: an.viols;
    an.n_viols <- an.n_viols + 1;
    if an.notes then
      match an.orig with
      | Some o -> o.note (Fmt.str "analyze: %a" pp_violation v)
      | None -> ()
  end
  else an.dropped <- an.dropped + 1

let word_alloc_info w addr =
  match w.owner with Some a -> Some (a.al_id, addr - a.al_base) | None -> None

let report_race an ~addr ~first ~second w =
  if not (Hashtbl.mem an.raced addr) then begin
    Hashtbl.replace an.raced addr ();
    add_violation an
      (Race { rc_addr = addr; rc_alloc = word_alloc_info w addr; rc_first = first; rc_second = second })
  end

(* ------------------------------------------------------------------ *)
(* Happens-before bookkeeping                                         *)
(* ------------------------------------------------------------------ *)

let acquire th w = match w.sync with Some s -> Vc.join th.vc s | None -> ()

let release th w =
  match w.sync with
  | Some s -> Vc.join s th.vc
  | None -> w.sync <- Some (Vc.copy th.vc)

let record_read th w =
  let tid = th.th_tid in
  let clk = Vc.get th.vc tid in
  match w.rd_tid with
  | -2 -> Vc.set (Option.get w.rd_vc) tid clk
  | t when t = tid || t < 0 ->
      w.rd_tid <- tid;
      w.rd_clk <- clk
  | t ->
      if Vc.covers th.vc ~tid:t ~clk:w.rd_clk then begin
        w.rd_tid <- tid;
        w.rd_clk <- clk
      end
      else begin
        let v = match w.rd_vc with Some v -> v | None -> Vc.create () in
        Vc.set v t w.rd_clk;
        Vc.set v tid clk;
        w.rd_vc <- Some v;
        w.rd_tid <- -2
      end

(* Write-write conflicts where BOTH stores come from inside an Smr hook
   are protocol memory, not data: a reclamation scheme is free to run
   deliberately racy internal protocols (ThreadScan's reclaimer takeover
   overwrites a stalled peer's work queue and heartbeat by design,
   guarded by generation checks rather than happens-before).  Those
   words are managed — the analyzer's charter is the unmanaged ones. *)
let check_write_race an th w addr op v =
  if
    w.wr_tid >= 0 && w.wr_tid <> th.th_tid && v <> w.wr_val
    && not (w.wr_scheme && th.scheme_depth > 0)
    && not (Vc.covers th.vc ~tid:w.wr_tid ~clk:w.wr_clk)
  then
    report_race an ~addr
      ~first:{ a_tid = w.wr_tid; a_clk = w.wr_clk; a_op = w.wr_op }
      ~second:{ a_tid = th.th_tid; a_clk = Vc.get th.vc th.th_tid; a_op = op }
      w

let record_write th w op v =
  w.wr_tid <- th.th_tid;
  w.wr_clk <- Vc.get th.vc th.th_tid;
  w.wr_op <- op;
  w.wr_val <- v;
  w.wr_scheme <- th.scheme_depth > 0

(* ------------------------------------------------------------------ *)
(* Lifecycle automaton                                                *)
(* ------------------------------------------------------------------ *)

let decref a = a.al_refs <- a.al_refs - 1

let rec incref an a =
  a.al_refs <- a.al_refs + 1;
  if not a.al_published then publish an a

(* First counted incoming reference (or first read by a thread other
   than the creator, which proves reachability through memory the
   analyzer does not map, e.g. an OCaml-side anchor to a sentinel):
   the block's own outgoing pointers start counting. *)
and publish an a =
  a.al_published <- true;
  for i = 0 to a.al_words - 1 do
    match Hashtbl.find_opt an.words (a.al_base + i) with
    | Some w when not w.counted -> (
        match w.target with
        | Some c when c.al_state = Alive ->
            w.counted <- true;
            incref an c
        | _ -> ())
    | _ -> ()
  done

let drop_outgoing an a =
  for i = 0 to a.al_words - 1 do
    match Hashtbl.find_opt an.words (a.al_base + i) with
    | Some w ->
        (match w.target with
        | Some c when w.counted ->
            decref c;
            (* its last referrer was itself unlinked: acquitted *)
            if c.al_refs = 0 then c.al_suspect <- None
        | _ -> ());
        w.target <- None;
        w.counted <- false
    | None -> ()
  done

let in_ranges ranges addr = List.exists (fun (b, n) -> addr >= b && addr < b + n) ranges

(* A counted link to [c] is overwritten.  If [c] was retired while
   referenced ([note_retire]), this link was still standing then. *)
let drop_link an c =
  decref c;
  Option.iter (fun l -> add_violation an (Lifecycle l)) c.al_suspect;
  c.al_suspect <- None

let map_write an th w addr v =
  (match w.target with Some c when w.counted -> drop_link an c | _ -> ());
  w.target <- None;
  w.counted <- false;
  let base = Ptr.addr v in
  if base <> 0 then
    match Hashtbl.find_opt an.allocs base with
    | Some ({ al_state = Alive; _ } as c) ->
        let private_ =
          th.scheme_depth > 0 || in_ranges th.frames addr || in_ranges th.priv addr
        in
        let owner_ok =
          match w.owner with None -> true | Some o -> o.al_state = Alive
        in
        if (not private_) && owner_ok then begin
          w.target <- Some c;
          let counted = match w.owner with None -> true | Some o -> o.al_published in
          w.counted <- counted;
          if counted then incref an c
        end
    | _ -> ()

let maybe_publish_on_read an th w =
  match w.owner with
  | Some a when (not a.al_published) && a.al_creator <> th.th_tid && a.al_state = Alive ->
      publish an a
  | _ -> ()

(* May [th] legally touch a word of a retired block?  Decided by the
   [Smr.retired_access] policy the retiring scheme declared — the
   analyzer carries no per-scheme knowledge of its own. *)
let retired_access_allowed th ~access a =
  th.scheme_depth > 0
  ||
  match (access : Smr.retired_access) with
  | Smr.Protected_slots ->
      Hashtbl.fold (fun _ b acc -> acc || b = a.al_base) th.protects false
  | Smr.In_op -> th.in_op
  | Smr.Invisible -> true (* readers are invisible by design *)

let check_retired_access an th w addr op =
  match w.owner with
  | Some ({ al_state = Retired { r_scheme; r_access; _ }; _ } as a)
    when not (Hashtbl.mem an.flagged a.al_id) ->
      if not (retired_access_allowed th ~access:r_access a) then begin
        Hashtbl.replace an.flagged a.al_id ();
        add_violation an
          (Lifecycle
             {
               lc_kind = Access_after_retire;
               lc_scheme = r_scheme;
               lc_tid = th.th_tid;
               lc_base = a.al_base;
               lc_alloc = a.al_id;
               lc_detail =
                 Fmt.str "unprotected %s of word %d (+%d) after retire" op addr
                   (addr - a.al_base);
             })
      end
  | _ -> ()

let check_free_races an th a =
  let tid = th.th_tid in
  let hit = ref false in
  for i = 0 to a.al_words - 1 do
    if not !hit then
      match Hashtbl.find_opt an.words (a.al_base + i) with
      | None -> ()
      | Some w ->
          let addr = a.al_base + i in
          let second = { a_tid = tid; a_clk = Vc.get th.vc tid; a_op = "free" } in
          if w.wr_tid >= 0 && w.wr_tid <> tid && not (Vc.covers th.vc ~tid:w.wr_tid ~clk:w.wr_clk)
          then begin
            hit := true;
            report_race an ~addr ~first:{ a_tid = w.wr_tid; a_clk = w.wr_clk; a_op = w.wr_op }
              ~second w
          end
          else if w.rd_tid >= 0 && w.rd_tid <> tid
                  && not (Vc.covers th.vc ~tid:w.rd_tid ~clk:w.rd_clk)
          then begin
            hit := true;
            report_race an ~addr ~first:{ a_tid = w.rd_tid; a_clk = w.rd_clk; a_op = "read" }
              ~second w
          end
          else if w.rd_tid = -2 then
            match w.rd_vc with
            | Some v ->
                let n = Array.length v.Vc.a in
                let j = ref 0 in
                while (not !hit) && !j < n do
                  let c = v.Vc.a.(!j) in
                  if c > 0 && !j <> tid && not (Vc.covers th.vc ~tid:!j ~clk:c) then begin
                    hit := true;
                    report_race an ~addr ~first:{ a_tid = !j; a_clk = c; a_op = "read" } ~second w
                  end;
                  incr j
                done
            | None -> ()
  done

let lifecycle_violation an th kind ~scheme a detail =
  add_violation an
    (Lifecycle
       {
         lc_kind = kind;
         lc_scheme = scheme;
         lc_tid = th.th_tid;
         lc_base = a.al_base;
         lc_alloc = a.al_id;
         lc_detail = detail;
       })

let note_retire an ~scheme ~access p =
  match an.orig with
  | None -> ()
  | Some o ->
      let tid = o.self () in
      with_crit an o tid (fun () ->
          let th = thread an tid in
          let base = Ptr.addr p in
          match Hashtbl.find_opt an.allocs base with
          | None -> ()
          | Some a -> (
              match a.al_state with
              | Retired { r_scheme; _ } ->
                  lifecycle_violation an th Double_retire ~scheme a
                    (Fmt.str "already retired to %s" r_scheme)
              | Freed ->
                  lifecycle_violation an th Double_retire ~scheme a "retire of a freed block"
              | Alive ->
                  (* A referrer may itself be unlinked and await its own
                     retire (a lazy-list node removed just before its
                     successor), so the verdict waits: overwriting a
                     remaining link convicts ([drop_link]), the retire of
                     the last referrer acquits ([drop_outgoing]), and a
                     link still standing at the end convicts
                     ([violations]). *)
                  if a.al_refs > 0 then begin
                    a.al_suspect <-
                      Some
                        {
                          lc_kind = Retire_before_unlink;
                          lc_scheme = scheme;
                          lc_tid = tid;
                          lc_base = a.al_base;
                          lc_alloc = a.al_id;
                          lc_detail =
                            Fmt.str "%d live shared reference%s at retire" a.al_refs
                              (if a.al_refs = 1 then "" else "s");
                        };
                    an.suspects <- a :: an.suspects
                  end;
                  a.al_state <- Retired { r_scheme = scheme; r_tid = tid; r_access = access };
                  drop_outgoing an a))

(* ------------------------------------------------------------------ *)
(* The decorator                                                      *)
(* ------------------------------------------------------------------ *)

let wrap an (o : Ts_rt.ops) : Ts_rt.ops =
  an.orig <- Some o;
  let mem_read addr =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let v = o.read addr in
        let th = thread an tid in
        ignore (tick th);
        an.ops_seen <- an.ops_seen + 1;
        let w = word an addr in
        acquire th w;
        maybe_publish_on_read an th w;
        record_read th w;
        check_retired_access an th w addr "read";
        v)
  in
  (* a scanned range is, to the analyzer, one read per word *)
  let mem_scan_words base len ~lo ~hi f =
    for a = base to base + len - 1 do
      let w = mem_read a in
      if w >= lo && w <= hi then f w
    done
  in
  (* and a search is one read per probe *)
  let mem_search base n key = Ts_rt.search_by mem_read base n key in
  let mem_write addr v =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        o.write addr v;
        let th = thread an tid in
        ignore (tick th);
        an.ops_seen <- an.ops_seen + 1;
        let w = word an addr in
        check_write_race an th w addr "write" v;
        record_write th w "write" v;
        release th w;
        check_retired_access an th w addr "write";
        map_write an th w addr v)
  in
  (* the phase's buffer loops are their reference loops over both *)
  let mem_drain ring len ~dst ~cap cursor =
    Ts_rt.drain_by mem_read mem_write ring len ~dst ~cap cursor
  in
  let mem_read_words base n into = Ts_rt.read_words_by mem_read base n into in
  let mem_publish ~entries ~marks src n = Ts_rt.publish_by mem_write ~entries ~marks src n in
  let mem_sweep ~entries ~marks ~ignore_marks n unmarked =
    Ts_rt.sweep_by mem_read mem_write ~entries ~marks ~ignore_marks n unmarked
  in
  let mem_cas addr expected desired =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let ok = o.cas addr expected desired in
        let th = thread an tid in
        ignore (tick th);
        an.ops_seen <- an.ops_seen + 1;
        let w = word an addr in
        acquire th w;
        if ok then begin
          check_write_race an th w addr "cas" desired;
          record_write th w "cas" desired;
          release th w;
          map_write an th w addr desired
        end
        else record_read th w;
        check_retired_access an th w addr "cas";
        ok)
  in
  let mem_faa addr delta =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let old = o.faa addr delta in
        let th = thread an tid in
        ignore (tick th);
        an.ops_seen <- an.ops_seen + 1;
        let w = word an addr in
        acquire th w;
        check_write_race an th w addr "faa" (old + delta);
        record_write th w "faa" (old + delta);
        release th w;
        check_retired_access an th w addr "faa";
        old)
  in
  let mem_fence () =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        o.fence ();
        let th = thread an tid in
        ignore (tick th);
        Vc.join th.vc an.fence_vc;
        Vc.join an.fence_vc th.vc)
  in
  let mem_malloc n =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let base = o.malloc n in
        let th = thread an tid in
        ignore (tick th);
        an.ops_seen <- an.ops_seen + 1;
        let a =
          {
            al_id = an.next_alloc;
            al_base = base;
            al_words = n;
            al_creator = tid;
            al_refs = 0;
            al_published = false;
            al_state = Alive;
            al_suspect = None;
          }
        in
        an.next_alloc <- an.next_alloc + 1;
        an.n_allocs <- an.n_allocs + 1;
        Hashtbl.replace an.allocs base a;
        for i = 0 to n - 1 do
          Hashtbl.remove an.words (base + i);
          let w = word an (base + i) in
          w.owner <- Some a;
          (* allocation hands the block to its creator: later same-thread
             accesses are ordered by program order, cross-thread access
             before publication would be the racing write it looks like *)
          record_write th w "malloc" 0
        done;
        base)
  in
  let mem_free addr =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        o.free addr;
        let th = thread an tid in
        ignore (tick th);
        an.ops_seen <- an.ops_seen + 1;
        match Hashtbl.find_opt an.allocs addr with
        | None -> ()
        | Some a ->
            check_free_races an th a;
            drop_outgoing an a;
            a.al_state <- Freed;
            for i = 0 to a.al_words - 1 do
              Hashtbl.remove an.words (addr + i)
            done;
            Hashtbl.remove an.allocs addr)
  in
  let sched_spawn f =
    let tid = o.self () in
    let snap =
      with_crit an o tid (fun () ->
          let th = thread an tid in
          ignore (tick th);
          Vc.copy th.vc)
    in
    o.spawn (fun () ->
        let me = o.self () in
        with_crit an o me (fun () ->
            let th = thread an me in
            Vc.join th.vc snap;
            ignore (tick th));
        f ())
  in
  let join_target tid u =
    with_crit an o tid (fun () ->
        let th = thread an tid in
        (match Hashtbl.find_opt an.threads u with
        | Some tu -> Vc.join th.vc tu.vc
        | None -> ());
        ignore (tick th))
  in
  let sched_join u =
    o.join u;
    join_target (o.self ()) u
  in
  let status_query q u =
    let r = q u in
    if r then join_target (o.self ()) u;
    r
  in
  let sig_send u =
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let th = thread an tid in
        ignore (tick th);
        Vc.join (chan an u) th.vc);
    o.signal u
  in
  let sig_set_handler h =
    o.set_signal_handler (fun () ->
        let me = o.self () in
        with_crit an o me (fun () ->
            let th = thread an me in
            Vc.join th.vc (chan an me);
            ignore (tick th));
        h ())
  in
  let crit_section : 'a. (unit -> 'a) -> 'a =
   fun f ->
    o.critical (fun () ->
        let tid = o.self () in
        an.crit_owner <- tid;
        Fun.protect
          ~finally:(fun () ->
            (match Hashtbl.find_opt an.threads tid with
            | Some th -> Vc.join an.crit_vc th.vc
            | None -> ());
            an.crit_owner <- -1)
          (fun () ->
            let th = thread an tid in
            ignore (tick th);
            Vc.join th.vc an.crit_vc;
            f ()))
  in
  let frame_push n =
    let b = o.push_frame n in
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let th = thread an tid in
        th.frames <- (b, n) :: th.frames);
    b
  in
  let frame_pop b =
    o.pop_frame b;
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let th = thread an tid in
        let rec drop = function
          | (bb, _) :: rest when bb >= b -> drop rest
          | l -> l
        in
        th.frames <- drop th.frames)
  in
  let priv_add b n =
    o.add_private_range b n;
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let th = thread an tid in
        th.priv <- (b, n) :: th.priv)
  in
  let priv_remove b n =
    o.remove_private_range b n;
    let tid = o.self () in
    with_crit an o tid (fun () ->
        let th = thread an tid in
        let rec dropone = function
          | [] -> []
          | (bb, nn) :: rest when bb = b && nn = n -> rest
          | r :: rest -> r :: dropone rest
        in
        th.priv <- dropone th.priv)
  in
  {
    o with
    read = mem_read;
    scan_words = mem_scan_words;
    search = mem_search;
    drain = mem_drain;
    read_words = mem_read_words;
    publish = mem_publish;
    sweep = mem_sweep;
    write = mem_write;
    cas = mem_cas;
    faa = mem_faa;
    fence = mem_fence;
    malloc = mem_malloc;
    free = mem_free;
    spawn = sched_spawn;
    join = sched_join;
    is_done = status_query o.is_done;
    is_crashed = status_query o.is_crashed;
    is_stalled = status_query o.is_stalled;
    signal = sig_send;
    set_signal_handler = sig_set_handler;
    critical = crit_section;
    push_frame = frame_push;
    pop_frame = frame_pop;
    add_private_range = priv_add;
    remove_private_range = priv_remove;
  }

(* ------------------------------------------------------------------ *)
(* SMR hook instrumentation                                           *)
(* ------------------------------------------------------------------ *)

let with_scheme an f =
  match an.orig with
  | None -> f ()
  | Some o ->
      let tid = o.self () in
      let bump d =
        with_crit an o tid (fun () ->
            let th = thread an tid in
            th.scheme_depth <- th.scheme_depth + d)
      in
      bump 1;
      Fun.protect ~finally:(fun () -> bump (-1)) f

let set_in_op an v =
  match an.orig with
  | None -> ()
  | Some o ->
      let tid = o.self () in
      with_crit an o tid (fun () -> (thread an tid).in_op <- v)

let note_protect an slot p =
  match an.orig with
  | None -> ()
  | Some o ->
      let tid = o.self () in
      with_crit an o tid (fun () -> Hashtbl.replace (thread an tid).protects slot (Ptr.addr p))

let note_release an slot =
  match an.orig with
  | None -> ()
  | Some o ->
      let tid = o.self () in
      with_crit an o tid (fun () -> Hashtbl.remove (thread an tid).protects slot)

let wrap_smr an (s : Smr.t) : Smr.t =
  {
    s with
    thread_init = (fun () -> with_scheme an s.thread_init);
    thread_exit = (fun () -> with_scheme an s.thread_exit);
    op_begin =
      (fun () ->
        set_in_op an true;
        with_scheme an s.op_begin);
    op_end =
      (fun () ->
        with_scheme an s.op_end;
        set_in_op an false);
    protect =
      (fun ~slot p ->
        note_protect an slot p;
        with_scheme an (fun () -> s.protect ~slot p));
    release =
      (fun ~slot ->
        note_release an slot;
        with_scheme an (fun () -> s.release ~slot));
    retire =
      (fun p ->
        note_retire an ~scheme:s.name ~access:s.retired_access p;
        with_scheme an (fun () -> s.retire p));
    flush = (fun () -> with_scheme an s.flush);
  }

(* ------------------------------------------------------------------ *)
(* Attach / report                                                    *)
(* ------------------------------------------------------------------ *)

let attach ?max_reports ?notes () =
  let an = create ?max_reports ?notes () in
  Ts_rt.set_decorator (Some (wrap an));
  an

let detach _an = Ts_rt.set_decorator None

let violations an =
  let standing =
    List.filter_map (fun a -> if a.al_refs > 0 then a.al_suspect else None) an.suspects
  in
  List.rev_append an.viols (List.rev_map (fun l -> Lifecycle l) standing)

let races an =
  List.filter_map (function Race r -> Some r | Lifecycle _ -> None) (violations an)

let lifecycle_violations an =
  List.filter_map (function Lifecycle l -> Some l | Race _ -> None) (violations an)

let ops_seen an = an.ops_seen
let allocs_seen an = an.n_allocs
let dropped an = an.dropped

let pp_summary ppf an =
  Fmt.pf ppf "analyze: %d ops, %d allocs, %d race%s, %d lifecycle violation%s%s" an.ops_seen
    an.n_allocs
    (List.length (races an))
    (if List.length (races an) = 1 then "" else "s")
    (List.length (lifecycle_violations an))
    (if List.length (lifecycle_violations an) = 1 then "" else "s")
    (if an.dropped > 0 then Fmt.str " (+%d dropped)" an.dropped else "")

let report_to_string an =
  let b = Buffer.create 256 in
  Buffer.add_string b (Fmt.str "%a" pp_summary an);
  List.iter
    (fun v ->
      Buffer.add_char b '\n';
      Buffer.add_string b (violation_to_string v))
    (violations an);
  Buffer.contents b
