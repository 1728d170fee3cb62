(* Pass "sigsafe": signal-path safety.

   The paper's handler discipline (§3): the code a ThreadScan/DEBRA+
   signal handler runs must be async-safe — it may scan, mark and
   write flags, but it must not allocate or free through the managed
   allocator and must not take locks, because the interrupted thread
   may hold the very lock (or be mid-malloc in the very allocator) the
   handler would need.  Both backends today deliver signals at
   safepoint polls, which softens the constraint in practice — but the
   discipline is what makes a preemptive-delivery port possible at
   all, so the tree keeps it, with waivers marking the two places that
   knowingly lean on polled delivery.

   Mechanics: the pass finds every [set_signal_handler] registration,
   resolves the handler to a function body (a literal [fun] or an
   in-file [let]-bound name), and walks the in-file call graph
   reachable from it — a mention of a local function name anywhere in
   a reachable body (including partial applications passed to
   [List.iter] etc.) makes that function reachable.  In reachable
   code it flags:

   - [malloc]/[free] through the facade (qualified with Ts_rt or an
     alias, or an ops-record field access);
   - lock acquisition: [Ts_rt.critical], [Mutex.lock],
     [Spinlock.acquire], [Ticket_lock.acquire];
   - a mutable-field read-modify-write ([x.f <- x.f + ...]) inside a
     [for]/[while] body.  Handler state is shared: the reclaimer and
     every signalled scanner write the same record, so a per-iteration
     store bounces that field's cache line once per iteration.  Count
     in a local and add once after the loop.  The [padded] pass cannot
     see this: the field lives in the OCaml heap, not in a padded cell.

   The analysis is intra-file: a reachable call into another module is
   not followed (the dynamic checker owns that depth).  docs/LINT.md
   spells out the limitation. *)

open Parsetree

let pass_id = "sigsafe"

let alloc_calls = [ "malloc"; "free" ]

(* (module head or None-for-field, function) pairs that take a lock *)
let lock_calls =
  [ (None, "critical"); (Some "Mutex", "lock"); (Some "Spinlock", "acquire"); (Some "Ticket_lock", "acquire") ]

(* [a] and [b] name the same record: the same variable, or the same
   field path off it. *)
let rec same_record a b =
  match (a.pexp_desc, b.pexp_desc) with
  | Pexp_ident { txt = l1; _ }, Pexp_ident { txt = l2; _ } -> Ast_util.flatten l1 = Ast_util.flatten l2
  | Pexp_field (a', { txt = f1; _ }), Pexp_field (b', { txt = f2; _ }) ->
      Ast_util.flatten f1 = Ast_util.flatten f2 && same_record a' b'
  | _ -> false

(* Does [rhs] read field [f] of the record [x] it is stored into? *)
let reads_own_field x f rhs =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_field (x', { txt = f'; _ })
            when Ast_util.flatten f' = Ast_util.flatten f && same_record x x' ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it rhs;
  !found

let scan ctx str =
  let acc = ref [] in
  let rt_aliases = Ast_util.module_aliases str ~target:[ "Ts_rt" ] in
  let bodies = Ast_util.function_bodies str in
  (* Registration sites: set_signal_handler applied to a handler. *)
  let registrations = ref [] in
  Ast_util.iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply (f, args) when Ast_util.callee_last f = Some "set_signal_handler" -> (
          match Ast_util.first_positional args with
          | Some h -> registrations := (e.pexp_loc, h) :: !registrations
          | None -> ())
      | _ -> ())
    str;
  let check_reachable (reg_loc : Location.t) handler =
    let visited = Hashtbl.create 16 in
    let rec visit_body via body =
      let loop_depth = ref 0 in
      let in_loop (self : Ast_iterator.iterator) e =
        incr loop_depth;
        self.expr self e;
        decr loop_depth
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_setfield (x, { txt = f; _ }, rhs)
                when !loop_depth > 0 && reads_own_field x f rhs ->
                  flag_rmw e (String.concat "." (Ast_util.flatten f)) via
              | Pexp_apply (f, _) -> (
                  match List.rev (Ast_util.callee_path f) with
                  | [ fn ] when List.mem fn alloc_calls && (match f.pexp_desc with Pexp_field _ -> true | _ -> false) ->
                      flag e fn via
                  | [ fn; m ] when List.mem fn alloc_calls && List.mem m rt_aliases ->
                      flag e fn via
                  | [ fn ] when List.exists (fun (m, n) -> m = None && n = fn) lock_calls
                                && (match f.pexp_desc with Pexp_field _ -> true | _ -> false) ->
                      flag_lock e fn via
                  | [ fn; m ]
                    when List.exists
                           (fun (mh, n) ->
                             n = fn && (mh = Some m || (mh = None && List.mem m rt_aliases)))
                           lock_calls ->
                      flag_lock e fn via
                  | _ -> ())
              | _ -> ());
              (* any mention of a local function name marks it reachable,
                 covering partial applications handed to HOFs *)
              (match e.pexp_desc with
              | Pexp_ident { txt = Longident.Lident n; _ } when Hashtbl.mem bodies n ->
                  if not (Hashtbl.mem visited n) then begin
                    Hashtbl.add visited n ();
                    visit_body (via @ [ n ]) (Hashtbl.find bodies n)
                  end
              | _ -> ());
              match e.pexp_desc with
              | Pexp_for (_, lo, hi, _, loop_body) ->
                  self.expr self lo;
                  self.expr self hi;
                  in_loop self loop_body
              | Pexp_while (cond, loop_body) ->
                  in_loop self cond;
                  in_loop self loop_body
              | _ -> Ast_iterator.default_iterator.expr self e);
        }
      in
      it.expr it body
    and flag e fn via =
      acc :=
        Pass.err ~pass:pass_id ctx e.pexp_loc
          "%s on the signal path (handler registered at line %d%s) — handlers must not \
           touch the managed allocator"
          fn reg_loc.loc_start.pos_lnum (via_string via)
        :: !acc
    and flag_lock e fn via =
      acc :=
        Pass.err ~pass:pass_id ctx e.pexp_loc
          "%s on the signal path (handler registered at line %d%s) — the interrupted \
           thread may hold the lock the handler would block on"
          fn reg_loc.loc_start.pos_lnum (via_string via)
        :: !acc
    and flag_rmw e field via =
      acc :=
        Pass.err ~pass:pass_id ctx e.pexp_loc
          "%s read-modify-written in a loop on the signal path (handler registered at line \
           %d%s) — the field is shared with the reclaimer and every other scanner; count in \
           a local and add once after the loop"
          field reg_loc.loc_start.pos_lnum (via_string via)
        :: !acc
    and via_string = function [] -> "" | vs -> ", via " ^ String.concat " -> " vs in
    match handler.pexp_desc with
    | Pexp_fun (_, _, _, body) -> visit_body [] body
    | Pexp_ident { txt = Longident.Lident n; _ } when Hashtbl.mem bodies n ->
        Hashtbl.add visited n ();
        visit_body [ n ] (Hashtbl.find bodies n)
    | _ -> visit_body [] handler
  in
  List.iter (fun (loc, h) -> check_reachable loc h) (List.rev !registrations);
  List.rev !acc

let pass =
  {
    Pass.id = pass_id;
    doc =
      "code reachable from signal-handler registration must not malloc/free, lock, or RMW a \
       field in a loop";
    impl = Some (fun ctx str -> if Pass.is_backend ctx then [] else scan ctx str);
    intf = None;
  }
