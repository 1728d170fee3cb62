(* Phase stages, resolved after the run from the span log.

   A reclamation phase is observed from outside as a slow [retire]: one
   during which its thread sent at least one signal.  Its three stages:

   - collect: retire entry to the first signal;
   - handshake: first signal to the last TS-Scan handler return on a
     peer this phase signaled;
   - sweep: from there to retire return.

   Each signal is paired with the first handler that starts on its
   target at or after the send, in send order: a target runs one handler
   per pending signal, so the pairing is first-in first-out. *)

type phase = { p_enter : int; p_first_sig : int; p_exit : int }

type send = { s_t : int; s_target : int; s_phase : int (* index into phases, or -1 *) }

type handler = { h_tid : int; h_start : int; h_end : int }

type stage = { collect : int; handshake : int; sweep : int }

type resolved = {
  stages : stage array;  (** one per phase, in the order given *)
  delivery : int array;  (** send-to-handler-start latency of every paired signal *)
}

let resolve ~phases ~sends ~handlers =
  let by_target = Hashtbl.create 8 in
  Array.iter
    (fun h ->
      let l = try Hashtbl.find by_target h.h_tid with Not_found -> [] in
      Hashtbl.replace by_target h.h_tid (h :: l))
    handlers;
  let queues = Hashtbl.create 8 in
  Hashtbl.iter
    (fun tid l ->
      let a = Array.of_list l in
      Array.sort (fun a b -> compare a.h_start b.h_start) a;
      Hashtbl.replace queues tid (a, ref 0))
    by_target;
  let sends = Array.copy sends in
  Array.stable_sort (fun a b -> compare a.s_t b.s_t) sends;
  let last_return = Array.map (fun _ -> min_int) phases in
  let delivery = ref [] in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt queues s.s_target with
      | None -> ()
      | Some (hs, next) ->
          while !next < Array.length hs && hs.(!next).h_start < s.s_t do
            incr next
          done;
          if !next < Array.length hs then begin
            let h = hs.(!next) in
            incr next;
            delivery := (h.h_start - s.s_t) :: !delivery;
            if s.s_phase >= 0 then last_return.(s.s_phase) <- max last_return.(s.s_phase) h.h_end
          end)
    sends;
  let stages =
    Array.mapi
      (fun i p ->
        (* No paired return (the peer acked after the phase gave up, or
           never): the whole remainder was spent waiting for it. *)
        let hs_end =
          if last_return.(i) = min_int then p.p_exit
          else max p.p_first_sig (min p.p_exit last_return.(i))
        in
        {
          collect = p.p_first_sig - p.p_enter;
          handshake = hs_end - p.p_first_sig;
          sweep = p.p_exit - hs_end;
        })
      phases
  in
  { stages; delivery = Array.of_list (List.rev !delivery) }
