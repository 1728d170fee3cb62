module Runtime = Ts_rt
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr
module Spinlock = Ts_sync.Spinlock

(* Node layout: [key][value][next][marked][lock][padding...] *)
let off_key = 0

let off_value = 1

let off_next = 2

let off_marked = 3

let off_lock = 4

let node_words ~padding = 5 + max padding 0

let key_of p = Runtime.read (Ptr.addr p + off_key)

let next_of p = Runtime.read (Ptr.addr p + off_next)

let is_marked p = Runtime.read (Ptr.addr p + off_marked) <> 0

let lock_of p = Spinlock.at (Ptr.addr p + off_lock)

let fr_pred = 0

let fr_curr = 1

let frame_slots = 2

type t = {
  smr : Smr.t;
  padding : int;
  head : int; (* region cell holding the ptr to the left sentinel *)
  elide_locks : bool; (* seeded bug: skip per-node locks entirely *)
}

let lock t l = if not t.elide_locks then Spinlock.acquire l

let unlock t l = if not t.elide_locks then Spinlock.release l

let new_node t ~key ~value ~next =
  let addr = Runtime.malloc (node_words ~padding:t.padding) in
  Runtime.write (addr + off_key) key;
  Runtime.write (addr + off_value) value;
  Runtime.write (addr + off_next) next;
  Runtime.write (addr + off_marked) 0;
  Runtime.write (addr + off_lock) 0;
  Ptr.of_addr addr

exception Restart

(* Lock-free traversal: every hop is a plain read plus the scheme's
   [protect] (only hazard pointers make that costly).  After protecting the
   successor we re-check that the node we read it from is still unmarked:
   an unmarked node is still linked, so its successor was reachable — the
   check that keeps the "invisible reader" from hopping out of a node whose
   memory a reclamation phase is about to release (a link from one retired
   node to another is exactly what Assumption 1.1 forbids).  Leaves
   pred/curr in the frame with curr.key >= key. *)
let walk t key fr =
  let rec attempt () =
    match
      let pred = ref (Runtime.read t.head) in
      ignore (t.smr.Smr.protect ~slot:0 !pred);
      Frame.set fr fr_pred !pred;
      let curr = ref (next_of !pred) in
      ignore (t.smr.Smr.protect ~slot:1 !curr);
      Frame.set fr fr_curr !curr;
      let slot = ref 1 in
      while key_of !curr < key do
        let succ = next_of !curr in
        slot := 1 - !slot;
        ignore (t.smr.Smr.protect ~slot:!slot succ);
        if is_marked !curr then raise Restart;
        pred := !curr;
        Frame.set fr fr_pred !pred;
        curr := succ;
        Frame.set fr fr_curr !curr
      done;
      (!pred, !curr)
    with
    | r -> r
    | exception Restart ->
        (* yield before retrying: under priority scheduling a walker that
           spins on a marked node would otherwise starve the remover that
           still has to unlink it *)
        Runtime.yield ();
        attempt ()
  in
  attempt ()

let validate pred curr = (not (is_marked pred)) && (not (is_marked curr)) && next_of pred = curr

let insert t key value =
  Frame.with_frame frame_slots (fun fr ->
      let rec loop () =
        let pred, curr = walk t key fr in
        lock t (lock_of pred);
        lock t (lock_of curr);
        let ok = validate pred curr in
        let result =
          if not ok then None
          else if key_of curr = key then Some false
          else begin
            let node = new_node t ~key ~value ~next:curr in
            Runtime.write (Ptr.addr pred + off_next) node;
            Some true
          end
        in
        unlock t (lock_of curr);
        unlock t (lock_of pred);
        match result with Some r -> r | None -> loop ()
      in
      loop ())

let remove t key =
  Frame.with_frame frame_slots (fun fr ->
      let rec loop () =
        let pred, curr = walk t key fr in
        lock t (lock_of pred);
        lock t (lock_of curr);
        let ok = validate pred curr in
        let result =
          if not ok then None
          else if key_of curr <> key then Some false
          else begin
            (* logical delete under the lock, then unlink *)
            Runtime.write (Ptr.addr curr + off_marked) 1;
            Runtime.write (Ptr.addr pred + off_next) (next_of curr);
            Some true
          end
        in
        unlock t (lock_of curr);
        unlock t (lock_of pred);
        match result with
        | Some true ->
            t.smr.Smr.retire curr;
            true
        | Some false -> false
        | None -> loop ()
      in
      loop ())

let contains t key =
  Frame.with_frame frame_slots (fun fr ->
      let _, curr = walk t key fr in
      key_of curr = key && not (is_marked curr))

let to_list t () =
  let rec go p acc =
    if key_of p = max_int then List.rev acc
    else
      let a = Ptr.addr p in
      let acc =
        if Runtime.read (a + off_marked) = 0 then
          (Runtime.read (a + off_key), Runtime.read (a + off_value)) :: acc
        else acc
      in
      go (Runtime.read (a + off_next)) acc
  in
  go (next_of (Runtime.read t.head)) []

let check t () =
  let keys = List.map fst (to_list t ()) in
  let rec sorted = function
    | a :: (b :: _ as tl) ->
        if a >= b then failwith "lazy list keys not strictly sorted" else sorted tl
    | _ -> ()
  in
  sorted keys

let create ~smr ?(padding = 0) ?(elide_locks = false) () =
  let head_cell = Runtime.alloc_region 1 in
  let t = { smr; padding; head = head_cell; elide_locks } in
  let tail = new_node t ~key:max_int ~value:0 ~next:Ptr.null in
  let head = new_node t ~key:min_int ~value:0 ~next:tail in
  Runtime.write head_cell head;
  let wrap f = Set_intf.wrap smr f in
  {
    Set_intf.name = "lazy-list";
    insert = (fun key value -> wrap (fun () -> insert t key value));
    remove = (fun key -> wrap (fun () -> remove t key));
    contains = (fun key -> wrap (fun () -> contains t key));
    to_list = (fun () -> to_list t ());
    check = (fun () -> check t ());
  }
