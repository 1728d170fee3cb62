module Striped = Ts_util.Striped

type counters = {
  mutable retired : int;
  mutable freed : int;
  mutable cleanups : int;
  retired_by : Striped.t;
  freed_by : Striped.t;
  cleanups_by : Striped.t;
}

(* Raised inside a data-structure operation whose thread was neutralized
   by a scheme's signal handler (DEBRA+): the handler unpinned the
   thread, so the op must restart from its [Set_intf.wrap] bracket
   without calling [op_end]. *)
exception Neutralized

(* When may a thread legally touch a word of a retired-but-not-freed
   block?  Declared by the scheme so analysis tools (the lifecycle
   sanitizer) need no per-scheme knowledge. *)
type retired_access =
  | Invisible  (** readers are invisible by design: any access is fine
                   until the free (ThreadScan, leaky, StackTrack,
                   Hyaline) *)
  | Protected_slots  (** only while a protect slot covers the block
                         (hazard pointers) *)
  | In_op  (** only between [op_begin] and [op_end] (epoch family,
               DEBRA+) *)

type t = {
  name : string;
  thread_init : unit -> unit;
  thread_exit : unit -> unit;
  op_begin : unit -> unit;
  op_end : unit -> unit;
  protect : slot:int -> int -> int;
  release : slot:int -> unit;
  retire : int -> unit;
  flush : unit -> unit;
  counters : counters;
  extras : unit -> (string * int) list;
  retired_access : retired_access;
}

let nop () = ()

(* A bump is one atomic add on the calling domain's cell (no lock, no
   backend op); a read sums the cells.  The three mutable fields are a
   snapshot of the sums, rewritten at every [add_cleanups] and when
   [flush] returns. *)

let add_retired c n = Striped.add c.retired_by n
let add_freed c n = Striped.add c.freed_by n

let snapshot c =
  (* freed first: every free follows its retire, so the snapshot never
     shows more freed than retired *)
  c.freed <- Striped.sum c.freed_by;
  c.retired <- Striped.sum c.retired_by;
  c.cleanups <- Striped.sum c.cleanups_by

let add_cleanups c n =
  Striped.add c.cleanups_by n;
  snapshot c

let retired t = Striped.sum t.counters.retired_by
let freed t = Striped.sum t.counters.freed_by
let cleanups t = Striped.sum t.counters.cleanups_by

let outstanding t =
  let freed = freed t in
  retired t - freed

let make ~name ?(thread_init = nop) ?(thread_exit = nop) ?(op_begin = nop) ?(op_end = nop)
    ?(protect = fun ~slot:_ p -> p) ?(release = fun ~slot:_ -> ()) ?(flush = nop)
    ?(extras = fun () -> []) ?(retired_access = Invisible) ~retire () =
  (* the snapshot is written by whichever thread runs a cleanup; keep it
     off the lines of anything else *)
  let counters =
    Ts_util.Padded.copy
      {
        retired = 0;
        freed = 0;
        cleanups = 0;
        retired_by = Striped.create ();
        freed_by = Striped.create ();
        cleanups_by = Striped.create ();
      }
  in
  {
    name;
    thread_init;
    thread_exit;
    op_begin;
    op_end;
    protect;
    release;
    retire = (fun p -> retire counters p);
    flush =
      (fun () ->
        flush ();
        snapshot counters);
    counters;
    extras;
    retired_access;
  }

let pp ppf t =
  Fmt.pf ppf "%s: retired=%d freed=%d cleanups=%d" t.name (retired t) (freed t) (cleanups t);
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%d" k v) (t.extras ())
