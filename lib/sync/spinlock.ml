module Runtime = Ts_rt

type t = { addr : int }

let create () =
  let addr = Runtime.alloc_region 1 in
  Runtime.write addr 0;
  { addr }

let at addr = { addr }

let try_acquire t = Runtime.read t.addr = 0 && Runtime.cas t.addr 0 1

let acquire t =
  if not (try_acquire t) then begin
    Runtime.set_wait_note (Some (fun () -> Fmt.str "spinning on lock@%d" t.addr));
    let b = Backoff.create () in
    while not (try_acquire t) do
      Backoff.once b
    done;
    Runtime.set_wait_note None
  end

let release t = Runtime.write t.addr 0

let is_held t = Runtime.read t.addr <> 0

let word t = t.addr
