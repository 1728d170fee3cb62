module Runtime = Ts_rt
module Frame = Ts_rt.Frame
module Ptr = Ts_umem.Ptr
module Smr = Ts_smr.Smr
module Spinlock = Ts_sync.Spinlock

let max_height_default = 14

let hazard_slots ~max_height = (2 * max_height) + 2

(* Node layout: [key][value][toplevel][marked][fullylinked][lock][next0..] *)
let off_key = 0

let off_value = 1

let off_top = 2

let off_marked = 3

let off_linked = 4

let off_lock = 5

let off_next = 6

let node_words ~padding top = off_next + top + max padding 0

let key_of p = Runtime.read (Ptr.addr p + off_key)

let next_cell p level = Ptr.addr p + off_next + level

let lock_of p = Spinlock.at (Ptr.addr p + off_lock)

let is_marked p = Runtime.read (Ptr.addr p + off_marked) <> 0

let is_linked p = Runtime.read (Ptr.addr p + off_linked) <> 0

exception Restart

type t = {
  smr : Smr.t;
  height : int;
  padding : int;
  head : int; (* ptr to the left sentinel *)
}

(* Frame layout during an operation:
   [0 .. h-1]        preds per level
   [h .. 2h-1]       succs per level
   [2h], [2h+1]      traversal pred/cur
   [2h+2]            remove's victim / add's new node *)
let fr_pred _t level = level

let fr_succ t level = t.height + level

let fr_hot_pred t = 2 * t.height

let fr_hot_cur t = (2 * t.height) + 1

let fr_extra t = (2 * t.height) + 2

let frame_slots t = (2 * t.height) + 3

let new_node t ~key ~value ~top =
  let addr = Runtime.malloc (node_words ~padding:t.padding top) in
  Runtime.write (addr + off_key) key;
  Runtime.write (addr + off_value) value;
  Runtime.write (addr + off_top) top;
  Runtime.write (addr + off_marked) 0;
  Runtime.write (addr + off_linked) 0;
  Runtime.write (addr + off_lock) 0;
  Ptr.of_addr addr

(* Per-level traversal protection: pred and succ of level l live in
   protection slots 2l and 2l+1 (hazard pointers need one per held ref). *)
let protect_pair t level ~pred ~succ =
  ignore (t.smr.Smr.protect ~slot:(2 * level) pred);
  ignore (t.smr.Smr.protect ~slot:((2 * level) + 1) succ)

(* Returns the highest level at which [key] was found (-1 if absent);
   fills preds/succs frame slots for every level.  Each step validates
   that [pred] still links to [cur] and is not marked: a removed [pred]'s
   stale link can reach a node unlinked, retired and freed since, which
   no scan of this thread's stack protects. *)
let find t key fr =
  let rec attempt () =
    match
      let lfound = ref (-1) in
      let pred = ref t.head in
      Frame.set fr (fr_hot_pred t) !pred;
      for level = t.height - 1 downto 0 do
        let cur = ref (Runtime.read (next_cell !pred level)) in
        Frame.set fr (fr_hot_cur t) !cur;
        protect_pair t level ~pred:!pred ~succ:!cur;
        if Runtime.read (next_cell !pred level) <> !cur || is_marked !pred then raise Restart;
        while key_of !cur < key do
          Frame.set fr (fr_hot_pred t) !cur;
          pred := !cur;
          cur := Runtime.read (next_cell !pred level);
          Frame.set fr (fr_hot_cur t) !cur;
          protect_pair t level ~pred:!pred ~succ:!cur;
          if Runtime.read (next_cell !pred level) <> !cur || is_marked !pred then raise Restart
        done;
        if !lfound = -1 && key_of !cur = key then lfound := level;
        Frame.set fr (fr_pred t level) !pred;
        Frame.set fr (fr_succ t level) !cur
      done;
      !lfound
    with
    | r -> r
    | exception Restart ->
        (* every retry yields: under priority scheduling a retry that does
           not would starve the remover or lock holder it waits on *)
        Runtime.yield ();
        attempt ()
  in
  attempt ()

let random_level t =
  let rec go l = if l < t.height && Runtime.rand_below 2 = 0 then go (l + 1) else l in
  go 1

(* Lock preds[0..top-1] bottom-up (once per distinct node), validating that
   every level still links pred -> succ with both unmarked.  Returns the
   locked (distinct, bottom-up) preds on success. *)
let lock_and_validate t fr ~top ~check_succ_unmarked =
  let locked = ref [] in
  let last = ref Ptr.null in
  let valid = ref true in
  let level = ref 0 in
  while !valid && !level < top do
    let pred = Frame.get fr (fr_pred t !level) in
    let succ = Frame.get fr (fr_succ t !level) in
    if pred <> !last then begin
      Spinlock.acquire (lock_of pred);
      locked := pred :: !locked;
      last := pred
    end;
    valid :=
      (not (is_marked pred))
      && Runtime.read (next_cell pred !level) = succ
      && ((not check_succ_unmarked) || not (is_marked succ));
    incr level
  done;
  if !valid then Ok !locked
  else begin
    List.iter (fun p -> Spinlock.release (lock_of p)) !locked;
    Error ()
  end

let unlock_all locked = List.iter (fun p -> Spinlock.release (lock_of p)) locked

let add t key value =
  Frame.with_frame (frame_slots t) (fun fr ->
      let top = random_level t in
      let rec loop () =
        let lfound = find t key fr in
        if lfound >= 0 then begin
          let victim = Frame.get fr (fr_succ t lfound) in
          if is_marked victim then begin
            (* being removed: wait for it to disappear *)
            Runtime.yield ();
            loop ()
          end
          else if not (is_linked victim) then begin
            (* an insert of the same key is mid-flight: wait *)
            Runtime.yield ();
            loop ()
          end
          else false
        end
        else
          match lock_and_validate t fr ~top ~check_succ_unmarked:true with
          | Error () ->
              Runtime.yield ();
              loop ()
          | Ok locked ->
              let node = new_node t ~key ~value ~top in
              Frame.set fr (fr_extra t) node;
              for level = 0 to top - 1 do
                Runtime.write (next_cell node level) (Frame.get fr (fr_succ t level))
              done;
              for level = 0 to top - 1 do
                Runtime.write (next_cell (Frame.get fr (fr_pred t level)) level) node
              done;
              Runtime.write (Ptr.addr node + off_linked) 1;
              unlock_all locked;
              true
      in
      loop ())

let remove t key =
  Frame.with_frame (frame_slots t) (fun fr ->
      let victim_locked = ref false in
      let top = ref 0 in
      let rec loop () =
        let lfound = find t key fr in
        if not !victim_locked then begin
          if lfound < 0 then false
          else begin
            let victim = Frame.get fr (fr_succ t lfound) in
            Frame.set fr (fr_extra t) victim;
            if
              is_linked victim
              && Runtime.read (Ptr.addr victim + off_top) = lfound + 1
              && not (is_marked victim)
            then begin
              Spinlock.acquire (lock_of victim);
              if is_marked victim then begin
                Spinlock.release (lock_of victim);
                false
              end
              else begin
                Runtime.write (Ptr.addr victim + off_marked) 1;
                victim_locked := true;
                top := Runtime.read (Ptr.addr victim + off_top);
                unlink ()
              end
            end
            else false
          end
        end
        else unlink ()
      and unlink () =
        let victim = Frame.get fr (fr_extra t) in
        match lock_and_validate t fr ~top:!top ~check_succ_unmarked:false with
        | Error () ->
            Runtime.yield ();
            loop ()
        | Ok locked ->
            (* validate that every pred still points at the victim *)
            let still_linked = ref true in
            for level = 0 to !top - 1 do
              if Frame.get fr (fr_succ t level) <> victim then still_linked := false
            done;
            if not !still_linked then begin
              unlock_all locked;
              Runtime.yield ();
              loop ()
            end
            else begin
              for level = !top - 1 downto 0 do
                Runtime.write
                  (next_cell (Frame.get fr (fr_pred t level)) level)
                  (Runtime.read (next_cell victim level))
              done;
              Spinlock.release (lock_of victim);
              unlock_all locked;
              t.smr.Smr.retire victim;
              true
            end
      in
      loop ())

let contains t key =
  Frame.with_frame (frame_slots t) (fun fr ->
      let lfound = find t key fr in
      lfound >= 0
      &&
      let node = Frame.get fr (fr_succ t lfound) in
      is_linked node && not (is_marked node))

let to_list t () =
  let rec go p acc =
    if key_of p = max_int then List.rev acc
    else
      let a = Ptr.addr p in
      let acc =
        if Runtime.read (a + off_marked) = 0 && Runtime.read (a + off_linked) = 1 then
          (Runtime.read (a + off_key), Runtime.read (a + off_value)) :: acc
        else acc
      in
      go (Runtime.read (a + off_next)) acc
  in
  go (Runtime.read (next_cell t.head 0)) []

let check t () =
  (* level-0 strictly sorted *)
  let keys = List.map fst (to_list t ()) in
  let rec sorted = function
    | a :: (b :: _ as tl) ->
        if a >= b then failwith "skiplist keys not strictly sorted" else sorted tl
    | _ -> ()
  in
  sorted keys;
  (* every higher level must be a subsequence of level 0 *)
  for level = 1 to t.height - 1 do
    let rec walk p =
      if key_of p <> max_int then begin
        let a = Ptr.addr p in
        if Runtime.read (a + off_top) <= level then failwith "node on level above its height";
        if Runtime.read (a + off_marked) = 0 && not (List.mem (Runtime.read (a + off_key)) keys)
        then failwith "node on upper level missing from level 0";
        walk (Runtime.read (a + off_next + level))
      end
    in
    walk (Runtime.read (next_cell t.head level))
  done

let create ~smr ?(max_height = max_height_default) ?(padding = 0) () =
  if max_height < 1 then invalid_arg "Skiplist.create";
  let t = { smr; height = max_height; padding; head = Ptr.null } in
  (* sentinels: head(min_int) -> tail(max_int) at every level *)
  let tail = new_node { t with head = Ptr.null } ~key:max_int ~value:0 ~top:max_height in
  let head = new_node { t with head = Ptr.null } ~key:min_int ~value:0 ~top:max_height in
  for level = 0 to max_height - 1 do
    Runtime.write (next_cell head level) tail;
    Runtime.write (next_cell tail level) Ptr.null
  done;
  Runtime.write (Ptr.addr head + off_linked) 1;
  Runtime.write (Ptr.addr tail + off_linked) 1;
  let t = { t with head } in
  let wrap f = Set_intf.wrap smr f in
  {
    Set_intf.name = "skiplist";
    insert = (fun key value -> wrap (fun () -> add t key value));
    remove = (fun key -> wrap (fun () -> remove t key));
    contains = (fun key -> wrap (fun () -> contains t key));
    to_list = (fun () -> to_list t ());
    check = (fun () -> check t ());
  }
