module Smr = Ts_smr.Smr
module Runtime = Ts_rt
module Ptr = Ts_umem.Ptr
module Vec = Ts_util.Vec

(* Hyaline (Nikolaev & Ravindran, SPAA'19): snapshot-free reclamation by
   reference-counted retirement batches.  All retired batches live on one
   global list whose head is packed together with a count of the threads
   currently inside an operation:

       HH = (href lsl ref_shift) lor head_addr

   Enter bumps href with one fetch-and-add and remembers the head it saw
   (its handle).  A batch is published with its ref field set to the href
   captured by the same CAS that inserts it — exactly the set of threads
   active at that instant, each of which will walk past the batch when it
   leaves.  Leave decrements href and walks the list from the head it saw
   down to its handle, decrementing each batch's ref and freeing a batch
   when its count hits zero.  No per-thread snapshot, no epochs: the cost
   is two fetch-and-adds per operation, and memory bounded by the number
   of batches retired while any given reader is active. *)

let ref_shift = 36
let addr_mask = (1 lsl ref_shift) - 1
let ref_one = 1 lsl ref_shift

(* Batch node layout: [ref][next][count][ptr0 .. ptr(count-1)] *)
let off_ref = 0
let off_next = 1
let off_count = 2
let off_ptrs = 3

type state = {
  max_threads : int;
  hh : int; (* the packed (href, head) word *)
  pending : Vec.t array; (* per-thread retired, not yet batched *)
  handles : int array; (* head observed at enter *)
  registered : bool array; (* tids that ever ran thread_init *)
  entered : bool array;
  adopted : bool array; (* corpse's leave already performed by proxy *)
  registry : (int, unit) Hashtbl.t; (* published batches, for flush teardown *)
  batch : int;
  mutable batches : int;
  mutable immediate : int; (* batches freed on the spot: href was 0 *)
  mutable corpse_leaves : int;
  mutable unreclaimed_peak : int;
}

let free_batch st (c : Smr.counters) node =
  (* unregister first: a crash mid-free must leak, never expose the
     half-freed batch to the flush teardown for a second free *)
  Runtime.critical (fun () -> Hashtbl.remove st.registry node);
  let n = Runtime.read (node + off_count) in
  for i = 0 to n - 1 do
    Runtime.free (Ptr.addr (Runtime.read (node + off_ptrs + i)));
    Smr.add_freed c 1
  done;
  Runtime.free node

(* Walk from [from] (a head captured by the fetch-and-add that gave up
   the reference) down to — exclusive — [until] (the handle), dropping
   one reference per batch.  Every batch in that range was inserted while
   the departing thread was counted, so its ref is at least one until we
   decrement it: reading [next] before the decrement is safe. *)
let traverse st c ~from ~until =
  let p = ref from in
  while !p <> until && !p <> 0 do
    let next = Runtime.read (!p + off_next) in
    let r = Runtime.faa (!p + off_ref) (-1) in
    if r = 1 then free_batch st c !p;
    p := next
  done

(* A thread that crashed inside an operation never performs its leave:
   its +1 on href would pin every batch forever.  Perform the leave on
   its behalf, exactly once, using the handle it recorded at enter.
   Its un-batched retired nodes are adopted into the caller's pending so
   they still go through the insertion protocol.  (A crash in the
   one-instruction window after the enter fetch-and-add but before the
   handle store leaves [entered] false: the ref leaks until [flush]
   resets the word — bounded, and never a use-after-free.) *)
let adopt_corpses st c ~into =
  for u = 0 to st.max_threads - 1 do
    (* only probe tids that ever registered: the runtime rejects
       liveness queries on never-spawned thread ids *)
    if u <> into && st.registered.(u) && (not st.adopted.(u)) && Runtime.is_crashed u then begin
      let leave =
        Runtime.critical (fun () ->
            if st.adopted.(u) then false
            else begin
              st.adopted.(u) <- true;
              Vec.iter (Vec.push st.pending.(into)) st.pending.(u);
              Vec.clear st.pending.(u);
              st.entered.(u)
            end)
      in
      if leave then begin
        st.corpse_leaves <- st.corpse_leaves + 1;
        let prev = Runtime.faa st.hh (-ref_one) in
        traverse st c ~from:(prev land addr_mask) ~until:st.handles.(u)
      end
    end
  done

let insert_batch st c tid =
  adopt_corpses st c ~into:tid;
  let pend = st.pending.(tid) in
  let n = Vec.length pend in
  if n > 0 then begin
    let node = Runtime.malloc (off_ptrs + n) in
    Runtime.write (node + off_count) n;
    let i = ref 0 in
    Vec.iter
      (fun p ->
        Runtime.write (node + off_ptrs + !i) p;
        incr i)
      pend;
    (* the registry entry precedes the publish: if this thread crashes
       mid-insertion the flush teardown still frees the contents *)
    Runtime.critical (fun () -> Hashtbl.replace st.registry node ());
    Vec.clear pend;
    let rec publish () =
      let cur = Runtime.read st.hh in
      let href = cur asr ref_shift in
      if href = 0 then begin
        (* nobody is inside an operation at this instant, and retirement
           implies the nodes were already unlinked: free on the spot *)
        st.immediate <- st.immediate + 1;
        free_batch st c node
      end
      else begin
        Runtime.write (node + off_next) (cur land addr_mask);
        Runtime.write (node + off_ref) href;
        if Runtime.cas st.hh cur ((href lsl ref_shift) lor node) then
          st.batches <- st.batches + 1
        else publish ()
      end
    in
    publish ()
  end

let create ?(batch = 64) ~max_threads () =
  let hh = Runtime.alloc_region 1 in
  let st =
    {
      max_threads;
      hh;
      pending = Array.init max_threads (fun _ -> Vec.create ());
      handles = Array.make max_threads 0;
      registered = Array.make max_threads false;
      entered = Array.make max_threads false;
      adopted = Array.make max_threads false;
      registry = Hashtbl.create 64;
      batch;
      batches = 0;
      immediate = 0;
      corpse_leaves = 0;
      unreclaimed_peak = 0;
    }
  in
  let smr = ref None in
  let cnt () = (Option.get !smr : Smr.t).Smr.counters in
  let thread_init () = st.registered.(Runtime.self ()) <- true in
  let op_begin () =
    let tid = Runtime.self () in
    let prev = Runtime.faa st.hh ref_one in
    st.handles.(tid) <- prev land addr_mask;
    st.entered.(tid) <- true
  in
  let op_end () =
    let tid = Runtime.self () in
    (* the flag drops before the fetch-and-add: a crash between the two
       leaks this thread's reference (bounded, cleared by flush) instead
       of letting the proxy leave run twice and free batches early *)
    st.entered.(tid) <- false;
    let c = cnt () in
    let prev = Runtime.faa st.hh (-ref_one) in
    traverse st c ~from:(prev land addr_mask) ~until:st.handles.(tid)
  in
  let retire (c : Smr.counters) p =
    let tid = Runtime.self () in
    (* count before push: a crash between the two leaks (bounded) rather
       than letting freed outrun retired *)
    Smr.add_retired c 1;
    Vec.push st.pending.(tid) (Ptr.mask p);
    let outstanding = Smr.outstanding (Option.get !smr) in
    if outstanding > st.unreclaimed_peak then st.unreclaimed_peak <- outstanding;
    if Vec.length st.pending.(tid) >= st.batch then begin
      Smr.add_cleanups c 1;
      insert_batch st c tid
    end
  in
  let thread_exit () =
    let tid = Runtime.self () in
    (* push leftovers into the protocol — active peers still hold them *)
    let c = cnt () in
    Smr.add_cleanups c 1;
    insert_batch st c tid
  in
  let flush () =
    let tid = Runtime.self () in
    let c = cnt () in
    (* post-join: every other participant is done or dead *)
    adopt_corpses st c ~into:tid;
    Runtime.critical (fun () ->
        for u = 0 to st.max_threads - 1 do
          if u <> tid then begin
            Vec.iter (Vec.push st.pending.(tid)) st.pending.(u);
            Vec.clear st.pending.(u)
          end
        done);
    insert_batch st c tid;
    (* quiescent teardown: reference counts no longer matter (any count
       still above zero belongs to a dead or departed thread); free every
       batch the registry still holds and reset the packed word *)
    let live = Runtime.critical (fun () -> Hashtbl.fold (fun k () acc -> k :: acc) st.registry []) in
    List.iter (fun node -> free_batch st c node) live;
    Runtime.write st.hh 0;
    Array.fill st.entered 0 st.max_threads false;
    Array.fill st.adopted 0 st.max_threads false
  in
  let t =
    Smr.make ~name:"hyaline" ~thread_init ~thread_exit ~op_begin ~op_end ~flush
      ~retired_access:Smr.Invisible
      ~extras:(fun () ->
        [
          ("batches", st.batches);
          ("immediate-frees", st.immediate);
          ("corpse-leaves", st.corpse_leaves);
          ("unreclaimed-peak", st.unreclaimed_peak);
        ])
      ~retire ()
  in
  smr := Some t;
  t
