module Vec = Ts_util.Vec

(* Block header: one word just below the user base.  The header word is left
   in the "unallocated" shadow state so any data-plane access to it faults,
   which catches off-by-one bugs in data-structure code. *)
let live_magic = 0x1A11 lsl 32
let freed_magic = 0x0F9EE lsl 32
let magic_mask = lnot ((1 lsl 32) - 1)
let size_mask = (1 lsl 32) - 1

(* Sanitizer trailing canary: xor'd with the block base so a canary copied
   from another block is still detected. *)
let canary_magic = 0x5AFEC0DE lsl 24

type t = {
  mem : Mem.t;
  central : Vec.t array; (* per size class, user base addresses *)
  caches : Vec.t array option array; (* caches.(tid).(class), rows lazy *)
  large_free : (int, Vec.t) Hashtbl.t; (* exact size -> free list *)
  cache_cap : int;
  batch : int;
  sanitize : bool;
  generations : (int, int) Hashtbl.t; (* user base -> allocation generation *)
  mutable mallocs : int;
  mutable frees : int;
  mutable live : int;
  mutable peak_live : int;
  mutable live_w : int;
  mutable peak_w : int;
  mutable hits : int;
  mutable refills : int;
  mutable flushes : int;
  mutable misses : int;
}

let create ?(cache_cap = 64) ?(batch = 32) ?(sanitize = false) ~max_threads mem =
  {
    mem;
    central = Array.init Size_class.count (fun _ -> Vec.create ());
    caches = Array.make max_threads None;
    large_free = Hashtbl.create 16;
    cache_cap;
    batch;
    sanitize;
    generations = Hashtbl.create 64;
    mallocs = 0;
    frees = 0;
    live = 0;
    peak_live = 0;
    live_w = 0;
    peak_w = 0;
    hits = 0;
    refills = 0;
    flushes = 0;
    misses = 0;
  }

let carve t block_w =
  (* One fresh block, header included; sanitized blocks get one more word
     for the trailing canary.  The extra words stay in the "unallocated"
     shadow state, so any data-plane access to them faults. *)
  let extra = if t.sanitize then 2 else 1 in
  let base = Mem.reserve t.mem (block_w + extra) in
  base + 1

let refill_central t cls =
  let block_w = Size_class.size cls in
  let lst = t.central.(cls) in
  for _ = 1 to t.batch do
    Vec.push lst (carve t block_w)
  done;
  t.refills <- t.refills + 1

let activate t addr block_w =
  Mem.raw_write t.mem (addr - 1) (live_magic lor block_w);
  Mem.mark_live t.mem addr block_w;
  if t.sanitize then begin
    Mem.raw_write t.mem (addr + block_w) (canary_magic lxor addr);
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

let malloc_small t ~tid n =
  let cls = Size_class.of_size n in
  let addr =
    let cache = (cache_row t tid).(cls) in
    if not (Vec.is_empty cache) then begin
      t.hits <- t.hits + 1;
      Vec.pop cache
    end
    else begin
      let central = t.central.(cls) in
      if Vec.is_empty central then refill_central t cls;
      t.misses <- t.misses + 1;
      (* Move up to half a batch into the cache, keep one for the caller. *)
      let take = min (t.batch / 2) (Vec.length central - 1) in
      for _ = 1 to take do
        Vec.push cache (Vec.pop central)
      done;
      Vec.pop central
    end
  in
  activate t addr (Size_class.size cls);
  addr

let malloc_large t n =
  let addr =
    match Hashtbl.find_opt t.large_free n with
    | Some lst when not (Vec.is_empty lst) -> Vec.pop lst
    | _ -> carve t n
  in
  activate t addr n;
  addr

let bump_stats_alloc t n =
  t.mallocs <- t.mallocs + 1;
  t.live <- t.live + 1;
  if t.live > t.peak_live then t.peak_live <- t.live;
  t.live_w <- t.live_w + n;
  if t.live_w > t.peak_w then t.peak_w <- t.live_w

let malloc t ~tid n =
  if n < 1 then invalid_arg "Alloc.malloc: size must be >= 1";
  let addr = if Size_class.is_small n then malloc_small t ~tid n else malloc_large t n in
  let hdr = Mem.raw_read t.mem (addr - 1) in
  bump_stats_alloc t (hdr land size_mask);
  addr

let header t addr = if addr >= 2 then Mem.raw_read t.mem (addr - 1) else 0

let is_block t addr = header t addr land magic_mask = live_magic && Mem.is_live t.mem addr

let block_size t addr =
  if not (is_block t addr) then invalid_arg "Alloc.block_size: not a live block";
  header t addr land size_mask

let free t ~tid addr =
  let hdr = header t addr in
  if hdr land magic_mask = live_magic then begin
    let block_w = hdr land size_mask in
    if t.sanitize && Mem.raw_read t.mem (addr + block_w) <> canary_magic lxor addr then
      Mem.record_fault t.mem Mem.Canary_overwrite addr;
    Mem.raw_write t.mem (addr - 1) (freed_magic lor block_w);
    Mem.mark_freed t.mem addr block_w;
    t.frees <- t.frees + 1;
    t.live <- t.live - 1;
    t.live_w <- t.live_w - block_w;
    if Size_class.is_small block_w && Size_class.size (Size_class.of_size block_w) = block_w
    then begin
      let cls = Size_class.of_size block_w in
      let cache = (cache_row t tid).(cls) in
      Vec.push cache addr;
      if Vec.length cache > t.cache_cap then begin
        let central = t.central.(cls) in
        for _ = 1 to t.batch do
          Vec.push central (Vec.pop cache)
        done;
        t.flushes <- t.flushes + 1
      end
    end
    else begin
      let lst =
        match Hashtbl.find_opt t.large_free block_w with
        | Some lst -> lst
        | None ->
            let lst = Vec.create () in
            Hashtbl.add t.large_free block_w lst;
            lst
      in
      Vec.push lst addr
    end
  end
  else if hdr land magic_mask = freed_magic then Mem.record_fault t.mem Mem.Double_free addr
  else Mem.record_fault t.mem Mem.Bad_free addr

let alloc_region t n =
  if n < 1 then invalid_arg "Alloc.alloc_region";
  let base = Mem.reserve t.mem n in
  Mem.mark_live t.mem base n;
  base

let sanitized t = t.sanitize

let generation t addr =
  match Hashtbl.find_opt t.generations addr with Some g -> g | None -> 0

let live_blocks t = t.live

let live_words t = t.live_w

let peak_live_blocks t = t.peak_live

let peak_live_words t = t.peak_w

let total_mallocs t = t.mallocs

let total_frees t = t.frees

let cache_hits t = t.hits

let central_refills t = t.refills

let cache_flushes t = t.flushes

let cache_misses t = t.misses

let pp_stats ppf t =
  Fmt.pf ppf
    "mallocs=%d frees=%d live=%d peak=%d live_words=%d cache_hits=%d misses=%d refills=%d \
     flushes=%d"
    t.mallocs t.frees t.live t.peak_live t.live_w t.hits t.misses t.refills t.flushes
