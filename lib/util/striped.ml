(* One [Padded.atomic] cell per domain slot, so the bumps of different
   domains land on different cache lines and no bump takes a lock.  The
   slot count is a power of two above the handful of domains a native
   run keeps alive; domain ids grow with every spawn, so live domains
   can still share a slot, which costs sharing, never a count. *)

let slots = 16

type t = { cells : int Atomic.t array } (* tslint: allow facade -- the striped
   counter owns its cells and is the one reader of the domain id in lib *)
let slot () = (Domain.self () :> int) land (slots - 1)

let create () = { cells = Array.init slots (fun _ -> Padded.atomic 0) }

let add t n =
  ignore (Atomic.fetch_and_add (Array.unsafe_get t.cells (slot ())) n : int) (* tslint: allow facade -- a bump and a read are the cells' only uses *)
let sum t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells
