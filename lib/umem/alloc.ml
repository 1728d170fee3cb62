include Alloc_intf
module Vec = Ts_util.Vec

(* Block header: one word just below the user base, magic in the high
   half, block size in the low half.  The header word is left in the
   "unallocated" shadow state so any data-plane access to it faults,
   which catches off-by-one bugs in data-structure code. *)
let live_magic = 0x1A11 lsl 32
let freed_magic = 0x0F9EE lsl 32
let magic_mask = lnot ((1 lsl 32) - 1)
let size_mask = (1 lsl 32) - 1

(* Sanitizer trailing canary: xor'd with the block base so a canary copied
   from another block is still detected. *)
let canary_magic = 0x5AFEC0DE lsl 24

let cache_cap = 64
let batch = 32

module Make (S : STORE) = struct
  type store = S.t

  type t = {
    store : S.t;
    central : Vec.t array; (* per size class, user base addresses; under the lock *)
    caches : Vec.t array option array; (* caches.(tid).(class), touched by tid only *)
    large_free : (int, Vec.t) Hashtbl.t; (* exact size -> free list; under the lock *)
    sanitize : bool;
    generations : (int, int) Hashtbl.t; (* user base -> allocation generation *)
    c : S.cell counters;
  }

  let create ?(sanitize = false) ~max_threads store =
    {
      store;
      central = Array.init Size_class.count (fun _ -> Vec.create ());
      caches = Array.make max_threads None;
      large_free = Hashtbl.create 16;
      sanitize;
      generations = Hashtbl.create 64;
      c = S.counters ();
    }

  let count cell = ignore (S.add cell 1 : int)

  (* [f] under the central lock.  Only [reserve] can raise in there (a
     strict store's out-of-memory fault); the lock must not stay held. *)
  let locked t f =
    S.lock t.store;
    match f () with
    | v ->
        S.unlock t.store;
        v
    | exception e ->
        S.unlock t.store;
        raise e

  (* One fresh block, header included, or 0 when the store is exhausted;
     sanitized blocks get one more word for the trailing canary.  The
     extra words stay in the "unallocated" shadow state, so any
     data-plane access to them faults.  Under the lock. *)
  let carve t block_w =
    let base = S.reserve t.store (block_w + if t.sanitize then 2 else 1) in
    if base = 0 then 0 else base + 1

  (* Under the lock.  Stops at the first failed carve, so an exhausted
     store counts one fault. *)
  let refill_central t cls =
    let block_w = Size_class.size cls and central = t.central.(cls) in
    let rec go n =
      if n > 0 then begin
        let a = carve t block_w in
        if a > 0 then begin
          Vec.push central a;
          go (n - 1)
        end
      end
    in
    go batch;
    count t.c.refills

  (* Under the lock.  Moves up to half a batch into the caller's magazine
     so its next allocations stay off the lock, and keeps one block for
     the caller (0 if the store is exhausted). *)
  let take_central t cls cache =
    let central = t.central.(cls) in
    if Vec.is_empty central then refill_central t cls;
    for _ = 1 to min (batch / 2) (Vec.length central - 1) do
      Vec.push cache (Vec.pop central)
    done;
    if Vec.is_empty central then 0 else Vec.pop central

  let activate t addr block_w =
    S.raw_write t.store (addr - 1) (live_magic lor block_w);
    S.mark_live t.store addr block_w;
    if t.sanitize then begin
      S.raw_write t.store (addr + block_w) (canary_magic lxor addr);
      let gen = match Hashtbl.find_opt t.generations addr with Some g -> g | None -> 0 in
      Hashtbl.replace t.generations addr (gen + 1)
    end

  let cache_row t tid =
    match t.caches.(tid) with
    | Some row -> row
    | None ->
        let row = Array.init Size_class.count (fun _ -> Vec.create ~capacity:4 ()) in
        t.caches.(tid) <- Some row;
        row

  let malloc t ~tid n =
    if n < 1 then invalid_arg "Alloc.malloc: size must be >= 1";
    let small = Size_class.is_small n in
    let addr =
      if small then begin
        let cls = Size_class.of_size n in
        let cache = (cache_row t tid).(cls) in
        if not (Vec.is_empty cache) then begin
          count t.c.hits;
          Vec.pop cache
        end
        else begin
          count t.c.misses;
          locked t (fun () -> take_central t cls cache)
        end
      end
      else
        locked t (fun () ->
            match Hashtbl.find_opt t.large_free n with
            | Some lst when not (Vec.is_empty lst) -> Vec.pop lst
            | _ -> carve t n)
    in
    if addr > 0 then begin
      let block_w = if small then Size_class.size (Size_class.of_size n) else n in
      activate t addr block_w;
      count t.c.mallocs;
      S.raise_to t.c.peak_live (S.add t.c.live 1);
      S.raise_to t.c.peak_w (S.add t.c.live_w block_w)
    end;
    addr

  let header t addr = S.raw_read t.store (addr - 1)

  let is_block t addr = header t addr land magic_mask = live_magic && S.is_live t.store addr

  let block_size t addr =
    if not (is_block t addr) then invalid_arg "Alloc.block_size: not a live block";
    header t addr land size_mask

  (* A freed block goes back to the freeing thread's magazine (exact
     class sizes) or to the large free list.  An overflowing magazine
     moves a whole batch to central under one lock acquisition, not one
     address per free. *)
  let release t ~tid addr block_w =
    if Size_class.is_small block_w && Size_class.size (Size_class.of_size block_w) = block_w
    then begin
      let cls = Size_class.of_size block_w in
      let cache = (cache_row t tid).(cls) in
      Vec.push cache addr;
      if Vec.length cache > cache_cap then begin
        locked t (fun () ->
            let central = t.central.(cls) in
            for _ = 1 to batch do
              Vec.push central (Vec.pop cache)
            done);
        count t.c.flushes
      end
    end
    else
      locked t (fun () ->
          match Hashtbl.find_opt t.large_free block_w with
          | Some lst -> Vec.push lst addr
          | None ->
              let lst = Vec.create () in
              Vec.push lst addr;
              Hashtbl.add t.large_free block_w lst)

  let free t ~tid addr =
    let hdr = header t addr in
    let block_w = hdr land size_mask in
    if hdr land magic_mask = live_magic then begin
      if t.sanitize && S.raw_read t.store (addr + block_w) <> canary_magic lxor addr then
        S.record_fault t.store Canary_overwrite addr;
      (* The live->freed header transition is a CAS: of two racing frees
         of the same block exactly one wins, the other faults below. *)
      if S.raw_cas t.store (addr - 1) hdr (freed_magic lor block_w) then begin
        S.mark_freed t.store addr block_w;
        count t.c.frees;
        ignore (S.add t.c.live (-1) : int);
        ignore (S.add t.c.live_w (-block_w) : int);
        release t ~tid addr block_w
      end
      else S.record_fault t.store Double_free addr
    end
    else if hdr land magic_mask = freed_magic then S.record_fault t.store Double_free addr
    else S.record_fault t.store Bad_free addr

  let alloc_region t n =
    if n < 1 then invalid_arg "Alloc.alloc_region";
    let base = locked t (fun () -> S.reserve t.store n) in
    if base > 0 then S.mark_live t.store base n;
    base

  let generation t addr =
    match Hashtbl.find_opt t.generations addr with Some g -> g | None -> 0

  let live_blocks t = S.get t.c.live

  let stats t =
    let g = S.get and c = t.c in
    {
      total_mallocs = g c.mallocs;
      total_frees = g c.frees;
      live_blocks = g c.live;
      live_words = g c.live_w;
      peak_live_blocks = g c.peak_live;
      peak_live_words = g c.peak_w;
      cache_hits = g c.hits;
      cache_misses = g c.misses;
      central_refills = g c.refills;
      cache_flushes = g c.flushes;
    }
end

(* The simulator's instance: one fiber steps at a time, so the lock is a
   no-op and the counters are plain ints. *)
include Make (struct
  include Mem

  let raw_cas m addr expected desired =
    raw_read m addr = expected
    && begin
         raw_write m addr desired;
         true
       end

  let lock _ = ()
  let unlock _ = ()

  type cell = int ref

  let counters () =
    {
      mallocs = ref 0;
      frees = ref 0;
      live = ref 0;
      live_w = ref 0;
      peak_live = ref 0;
      peak_w = ref 0;
      hits = ref 0;
      misses = ref 0;
      refills = ref 0;
      flushes = ref 0;
    }

  let add c d =
    c := !c + d;
    !c

  let get c = !c
  let raise_to c v = if v > !c then c := v
end)
