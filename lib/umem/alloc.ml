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

  (* A thread's magazines and its event counts, touched by that thread
     only: counting an allocation is a plain add on the owner's row. *)
  type row = {
    mags : Vec.t array; (* per size class *)
    mutable mallocs : int;
    mutable frees : int;
    mutable hits : int;
    mutable misses : int;
    mutable refills : int;
    mutable flushes : int;
  }

  type t = {
    store : S.t;
    central : Vec.t array; (* per size class, user base addresses; under the lock *)
    rows : row option array; (* by tid *)
    large_free : (int, Vec.t) Hashtbl.t; (* exact size -> free list; under the lock *)
    sanitize : bool;
    generations : (int, int) Hashtbl.t; (* user base -> allocation generation *)
    c : S.cell counters;
  }

  let create ?(sanitize = false) ~max_threads store =
    {
      store;
      central = Array.init Size_class.count (fun _ -> Vec.create ());
      rows = Array.make max_threads None;
      large_free = Hashtbl.create 16;
      sanitize;
      generations = Hashtbl.create 64;
      c = S.counters ();
    }

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
  let refill_central t row cls =
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
    row.refills <- row.refills + 1

  (* Under the lock.  Moves up to half a batch into the caller's magazine
     so its next allocations stay off the lock, and keeps one block for
     the caller (0 if the store is exhausted). *)
  let take_central t row cls cache =
    let central = t.central.(cls) in
    if Vec.is_empty central then refill_central t row cls;
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

  let row t tid =
    match t.rows.(tid) with
    | Some row -> row
    | None ->
        let row =
          Ts_util.Padded.copy
            {
              mags = Array.init Size_class.count (fun _ -> Vec.create ~capacity:4 ());
              mallocs = 0;
              frees = 0;
              hits = 0;
              misses = 0;
              refills = 0;
              flushes = 0;
            }
        in
        t.rows.(tid) <- Some row;
        row

  let malloc t ~tid n =
    if n < 1 then invalid_arg "Alloc.malloc: size must be >= 1";
    let small = Size_class.is_small n in
    let row = row t tid in
    let addr =
      if small then begin
        let cls = Size_class.of_size n in
        let cache = row.mags.(cls) in
        if not (Vec.is_empty cache) then begin
          row.hits <- row.hits + 1;
          Vec.pop cache
        end
        else begin
          row.misses <- row.misses + 1;
          locked t (fun () -> take_central t row cls cache)
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
      row.mallocs <- row.mallocs + 1;
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
  let release t row addr block_w =
    if Size_class.is_small block_w && Size_class.size (Size_class.of_size block_w) = block_w
    then begin
      let cls = Size_class.of_size block_w in
      let cache = row.mags.(cls) in
      Vec.push cache addr;
      if Vec.length cache > cache_cap then begin
        locked t (fun () ->
            let central = t.central.(cls) in
            for _ = 1 to batch do
              Vec.push central (Vec.pop cache)
            done);
        row.flushes <- row.flushes + 1
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
        let row = row t tid in
        row.frees <- row.frees + 1;
        ignore (S.add t.c.live (-1) : int);
        ignore (S.add t.c.live_w (-block_w) : int);
        release t row addr block_w
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
    let sum f = Array.fold_left (fun acc r -> match r with Some r -> acc + f r | None -> acc) 0 t.rows in
    let g = S.get and c = t.c in
    {
      total_mallocs = sum (fun r -> r.mallocs);
      total_frees = sum (fun r -> r.frees);
      live_blocks = g c.live;
      live_words = g c.live_w;
      peak_live_blocks = g c.peak_live;
      peak_live_words = g c.peak_w;
      cache_hits = sum (fun r -> r.hits);
      cache_misses = sum (fun r -> r.misses);
      central_refills = sum (fun r -> r.refills);
      cache_flushes = sum (fun r -> r.flushes);
    }
end

(* The simulator's instance: one fiber steps at a time, so the lock is a
   no-op and the shared cells are plain ints. *)
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

  let counters () = { live = ref 0; live_w = ref 0; peak_live = ref 0; peak_w = ref 0 }

  let add c d =
    c := !c + d;
    !c

  let get c = !c
  let raise_to c (v : int) = if v > !c then c := v
end)
