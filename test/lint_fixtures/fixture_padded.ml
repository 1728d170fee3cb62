(* Seeded [padded] violations against the fixture whitelist entry in
   lib/lint/pass_padding.ml.  Parse-only — linted, never compiled. *)

type hot = { sig_word : int Atomic.t; ack_word : int Atomic.t; owner : int }

type cell = { value : int Atomic.t }

let make_hot () = { sig_word = Atomic.make 0; ack_word = Ts_util.Padded.atomic 0; owner = 0 }

let make_cell () = { value = Atomic.make 0 }

type stripes = { cells : int Atomic.t array }

let make_stripes () = { cells = Array.make 4 (Ts_util.Padded.atomic 0) }

let make_good_stripes () = { cells = Array.init 4 (fun _ -> Ts_util.Padded.atomic 0) }
