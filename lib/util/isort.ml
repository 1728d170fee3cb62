(* LSD radix sort on the prefix, one stable counting pass per 8-bit digit:
   O(n) per pass, recursion-free so it is safe to call from simulator
   fibers, and each call allocates a 256-entry count table and, unless
   the caller lends one ([?tmp]), a scratch array of [n] words.

   Only the digits in which some two keys differ are sorted on: [diff]
   has a bit set wherever a key differs from the first, and a pass over a
   digit all keys share would permute nothing.  A master buffer's masked
   addresses share their high digits and their low three bits, so a phase
   usually takes two or three passes.  Digits are read from [x lxor
   min_int], which flips the sign bit: as an unsigned number that key
   orders negative ints before non-negative ones, as [compare] does.

   Every array is annotated [int array] and no comparison is polymorphic:
   a polymorphic one compiles to a C call ([caml_lessthan] and friends),
   which made the sort of one phase's master buffer cost more than its
   signal handshake (docs/PERF.md). *)

let sort_prefix ?tmp (a : int array) n =
  if n > Array.length a then invalid_arg "Isort.sort_prefix";
  if n > 1 then begin
    (* every index below is < n <= the length of [a] and of the scratch
       array, and every digit is < 256: the loads need no bounds check *)
    let first = Array.unsafe_get a 0 in
    let diff = ref 0 in
    for i = 1 to n - 1 do
      diff := !diff lor (Array.unsafe_get a i lxor first)
    done;
    let counts = Array.make 256 0 in
    let scratch =
      match tmp with
      | None -> Array.make n 0
      | Some (b : int array) ->
          if n > Array.length b || b == a then invalid_arg "Isort.sort_prefix";
          b
    in
    let src = ref a and dst = ref scratch in
    (* [Sys.int_size] is 63: the last digit, at shift 56, has 7 bits *)
    let shift = ref 0 in
    while !shift < Sys.int_size do
      let s = !shift in
      if (!diff lsr s) land 255 <> 0 then begin
        let from : int array = !src and into : int array = !dst in
        Array.fill counts 0 256 0;
        for i = 0 to n - 1 do
          let d = ((Array.unsafe_get from i lxor min_int) lsr s) land 255 in
          Array.unsafe_set counts d (Array.unsafe_get counts d + 1)
        done;
        let sum = ref 0 in
        for d = 0 to 255 do
          let c = Array.unsafe_get counts d in
          Array.unsafe_set counts d !sum;
          sum := !sum + c
        done;
        for i = 0 to n - 1 do
          let x = Array.unsafe_get from i in
          let d = ((x lxor min_int) lsr s) land 255 in
          let p = Array.unsafe_get counts d in
          Array.unsafe_set into p x;
          Array.unsafe_set counts d (p + 1)
        done;
        src := into;
        dst := from
      end;
      shift := s + 8
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

let binary_search (a : int array) n (key : int) =
  let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    let v = a.(mid) in
    if v = key then found := mid
    else if v < key then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let dedup_sorted (a : int array) n =
  if n <= 1 then n
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    !w
  end
