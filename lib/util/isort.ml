(* Bottom-up heapsort on the prefix: in-place, no allocation, O(n log n)
   worst case; recursion-free so it is safe to call from simulator fibers.

   Every array is annotated [int array]: without the annotation the
   comparisons below are polymorphic and compile to C calls
   ([caml_lessthan] and friends), which made the sort of one phase's
   master buffer cost more than its signal handshake (docs/PERF.md). *)

let sort_prefix (a : int array) n =
  if n > 1 then begin
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    let sift_down start last =
      let root = ref start in
      let continue = ref true in
      while !continue do
        let child = (2 * !root) + 1 in
        if child > last then continue := false
        else begin
          let child = if child + 1 <= last && a.(child) < a.(child + 1) then child + 1 else child in
          if a.(!root) < a.(child) then begin
            swap !root child;
            root := child
          end
          else continue := false
        end
      done
    in
    for start = (n - 2) / 2 downto 0 do
      sift_down start (n - 1)
    done;
    for last = n - 1 downto 1 do
      swap 0 last;
      sift_down 0 (last - 1)
    done
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
