module Runtime = Ts_rt
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr

(* Node layout: [key][value][next+mark][padding...] *)
let off_key = 0

let off_value = 1

let off_next = 2

let node_words ~padding = 3 + max padding 0

let next_cell p = Ptr.addr p + off_next

let key_of p = Runtime.read (Ptr.addr p + off_key)

(* Frame slots for the traversal's private references. *)
let fr_prev = 0

let fr_cur = 1

let fr_new = 2

let frame_slots = 3

exception Restart

(* Michael's find: positions the traversal at the first node with
   key >= [key], unlinking (and retiring) marked nodes on the way.
   Returns [(found, prev_cell, cur)]; [prev_cell] is the address of the
   pointer cell that leads to [cur].  On return the frame holds prev and
   cur, and the scheme's protection slots cover both. *)
let find ~(smr : Smr.t) ~head key fr =
  let rec attempt () =
    match
      Frame.set fr fr_prev Ptr.null;
      let prev_cell = ref head in
      let cur_slot = ref 1 in
      let cur = ref (Ptr.unmark (Runtime.read head)) in
      ignore (smr.protect ~slot:!cur_slot !cur);
      if Runtime.read !prev_cell <> !cur then raise Restart;
      Frame.set fr fr_cur !cur;
      let result = ref None in
      while !result = None do
        if Ptr.is_null !cur then result := Some (false, !prev_cell, Ptr.null)
        else begin
          let next_t = Runtime.read (next_cell !cur) in
          if Ptr.is_marked next_t then begin
            (* cur is logically deleted: unlink it here. *)
            let succ = Ptr.unmark next_t in
            if not (Runtime.cas !prev_cell !cur succ) then raise Restart;
            smr.retire !cur;
            ignore (smr.protect ~slot:!cur_slot succ);
            if Runtime.read !prev_cell <> succ then raise Restart;
            cur := succ;
            Frame.set fr fr_cur succ
          end
          else begin
            let ckey = key_of !cur in
            if ckey >= key then result := Some (ckey = key, !prev_cell, !cur)
            else begin
              (* hop: prev <- cur, cur <- successor (validated) *)
              Frame.set fr fr_prev !cur;
              prev_cell := next_cell !cur;
              let succ = Ptr.unmark next_t in
              cur_slot := 1 - !cur_slot;
              ignore (smr.protect ~slot:!cur_slot succ);
              if Runtime.read !prev_cell <> succ then raise Restart;
              cur := succ;
              Frame.set fr fr_cur succ
            end
          end
        end
      done;
      Option.get !result
    with
    | r -> r
    | exception Restart -> attempt ()
  in
  attempt ()

let insert_at ~(smr : Smr.t) ~padding ~head key value =
  Frame.with_frame frame_slots (fun fr ->
      let rec loop () =
        let found, prev_cell, cur = find ~smr ~head key fr in
        if found then false
        else begin
          let addr = Runtime.malloc (node_words ~padding) in
          (* the fresh node stays private until the publishing CAS: if a
             neutralization aborts this window the node must be freed, or
             it leaks — [Runtime.free] is a non-abortable op, so the
             cleanup itself always completes *)
          match
            Runtime.write (addr + off_key) key;
            Runtime.write (addr + off_value) value;
            Runtime.write (addr + off_next) cur;
            let node = Ptr.of_addr addr in
            Frame.set fr fr_new node;
            Runtime.cas prev_cell cur node
          with
          | true -> true
          | false ->
              (* never published: plain free, no reclamation protocol needed *)
              Runtime.free addr;
              loop ()
          | exception e ->
              Runtime.free addr;
              raise e
        end
      in
      loop ())

let remove_at ~(smr : Smr.t) ?(retire_early = false) ~head key =
  Frame.with_frame frame_slots (fun fr ->
      let rec loop () =
        let found, prev_cell, cur = find ~smr ~head key fr in
        if not found then false
        else begin
          let next_t = Runtime.read (next_cell cur) in
          if Ptr.is_marked next_t then loop ()
          else if Runtime.cas (next_cell cur) next_t (Ptr.mark next_t) then begin
            if retire_early then begin
              (* seeded bug: hand the node to the scheme while the
                 predecessor still links to it — the retire-before-unlink
                 transition the lifecycle automaton must flag (and, once a
                 traversal unlinks the marked node and retires it again, a
                 double-retire). *)
              smr.retire cur; (* tslint: allow retire -- the seeded bug is the lifecycle sanitizer's positive fixture *)
              true
            end
            else begin
              (* logically deleted; now unlink (or let a traversal do it) *)
              if Runtime.cas prev_cell cur (Ptr.unmark next_t) then smr.retire cur
              else ignore (find ~smr ~head key fr);
              true
            end
          end
          else loop ()
        end
      in
      loop ())

let contains_at ~(smr : Smr.t) ~head key =
  Frame.with_frame frame_slots (fun fr ->
      let found, _, _ = find ~smr ~head key fr in
      found)

(* Quiescent-only helpers (tests, invariant checks): raw traversal. *)
let to_list_at ~head =
  let rec go p acc =
    if Ptr.is_null p then List.rev acc
    else
      let a = Ptr.addr p in
      let next_t = Runtime.read (a + off_next) in
      let acc =
        if Ptr.is_marked next_t then acc
        else (Runtime.read (a + off_key), Runtime.read (a + off_value)) :: acc
      in
      go (Ptr.unmark next_t) acc
  in
  go (Ptr.unmark (Runtime.read head)) []

let check_at ~head =
  let keys = List.map fst (to_list_at ~head) in
  let rec sorted = function
    | a :: (b :: _ as tl) -> if a >= b then failwith "list keys not strictly sorted" else sorted tl
    | _ -> ()
  in
  sorted keys

let create ~smr ?(padding = 0) ?(retire_early = false) () =
  let head = Runtime.alloc_region 1 in
  Runtime.write head Ptr.null;
  let wrap f = Set_intf.wrap smr f in
  {
    Set_intf.name = "michael-list";
    insert = (fun key value -> wrap (fun () -> insert_at ~smr ~padding ~head key value));
    remove = (fun key -> wrap (fun () -> remove_at ~smr ~retire_early ~head key));
    contains = (fun key -> wrap (fun () -> contains_at ~smr ~head key));
    to_list = (fun () -> to_list_at ~head);
    check = (fun () -> check_at ~head);
  }
