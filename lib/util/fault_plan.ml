type stall_dur = Bounded of int | Forever

type event =
  | Crash
  | Stall of stall_dur
  | Unstall
  | Drop_signals of int
  | Delay_signals of int

type trigger = At of int | At_ms of int

type clause = { victims : int; at : trigger; event : event }

type t = clause list

let grammar =
  "none|crash:V@K|stall:V@K:C|stall:V@K:forever|release:V@K|\
   drop-signals:V@K:N|delay-signals:V@K:C (comma-separated; K may end in 'ms')"

let int_of s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Some n
  | None -> None

let trigger_of s =
  let s = String.trim s in
  let n = String.length s in
  if n > 2 && String.sub s (n - 2) 2 = "ms" then
    match int_of (String.sub s 0 (n - 2)) with
    | Some k -> Some (At_ms k)
    | None -> None
  else match int_of s with Some k -> Some (At k) | None -> None

(* Split "V@K" into victims + trigger. *)
let head_of clause s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "clause %S: expected V@K" clause)
  | Some i -> (
      let v = String.sub s 0 i in
      let k = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of v, trigger_of k) with
      | Some v, Some at when v > 0 ->
          let ok = match at with At k | At_ms k -> k >= 0 in
          if ok then Ok (v, at)
          else Error (Printf.sprintf "clause %S: trigger must be >= 0" clause)
      | Some v, Some _ when v <= 0 ->
          Error (Printf.sprintf "clause %S: victims must be > 0" clause)
      | _ -> Error (Printf.sprintf "clause %S: expected V@K" clause))

let parse_clause s =
  let s = String.trim s in
  let parts = String.split_on_char ':' s in
  let bad () = Error (Printf.sprintf "unknown fault clause %S (%s)" s grammar) in
  match parts with
  | [ "crash"; vk ] -> (
      match head_of s vk with
      | Ok (victims, at) -> Ok { victims; at; event = Crash }
      | Error e -> Error e)
  | [ "stall"; vk; dur ] -> (
      match head_of s vk with
      | Error e -> Error e
      | Ok (victims, at) -> (
          if String.trim dur = "forever" then
            Ok { victims; at; event = Stall Forever }
          else
            match int_of dur with
            | Some c when c > 0 -> Ok { victims; at; event = Stall (Bounded c) }
            | Some _ -> Error (Printf.sprintf "clause %S: cycles must be > 0" s)
            | None -> bad ()))
  | [ "release"; vk ] -> (
      match head_of s vk with
      | Ok (victims, at) -> Ok { victims; at; event = Unstall }
      | Error e -> Error e)
  | [ "drop-signals"; vk; n ] -> (
      match head_of s vk with
      | Error e -> Error e
      | Ok (victims, at) -> (
          match int_of n with
          | Some n when n > 0 -> Ok { victims; at; event = Drop_signals n }
          | Some _ -> Error (Printf.sprintf "clause %S: count must be > 0" s)
          | None -> bad ()))
  | [ "delay-signals"; vk; c ] -> (
      match head_of s vk with
      | Error e -> Error e
      | Ok (victims, at) -> (
          match int_of c with
          | Some c when c > 0 -> Ok { victims; at; event = Delay_signals c }
          | Some _ -> Error (Printf.sprintf "clause %S: cycles must be > 0" s)
          | None -> bad ()))
  | _ -> bad ()

let parse s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest -> (
          match parse_clause c with
          | Ok cl -> go (cl :: acc) rest
          | Error e -> Error e)
    in
    go [] (String.split_on_char ',' s)

let trigger_to_string = function
  | At k -> string_of_int k
  | At_ms k -> Printf.sprintf "%dms" k

let clause_to_string { victims; at; event } =
  let vk = Printf.sprintf "%d@%s" victims (trigger_to_string at) in
  match event with
  | Crash -> Printf.sprintf "crash:%s" vk
  | Stall (Bounded c) -> Printf.sprintf "stall:%s:%d" vk c
  | Stall Forever -> Printf.sprintf "stall:%s:forever" vk
  | Unstall -> Printf.sprintf "release:%s" vk
  | Drop_signals n -> Printf.sprintf "drop-signals:%s:%d" vk n
  | Delay_signals c -> Printf.sprintf "delay-signals:%s:%d" vk c

let to_string = function
  | [] -> "none"
  | cs -> String.concat "," (List.map clause_to_string cs)

let has_wall_triggers t =
  List.exists (fun c -> match c.at with At_ms _ -> true | At _ -> false) t

let parks_forever t =
  List.exists (fun c -> c.event = Stall Forever) t
  && not (List.exists (fun c -> c.event = Unstall) t)

let inflict tid = function
  | Crash -> Ts_rt.crash tid
  | Stall (Bounded c) -> Ts_rt.stall ~cycles:c tid
  | Stall Forever -> Ts_rt.stall tid
  | Unstall -> Ts_rt.unstall tid
  | Drop_signals n -> Ts_rt.drop_signals tid n
  | Delay_signals c -> Ts_rt.delay_signals tid c
