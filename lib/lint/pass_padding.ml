(* Pass "padded": the false-sharing audit.

   OCaml allocates small blocks back to back, so hot cells and records
   touched by different threads routinely share a cache line; every
   write by one thread then invalidates the other's line.  The cure is
   [Ts_util.Padded.copy] (docs/PERF.md), and this pass makes the cure a
   checked invariant instead of a code-review habit:

   - a whitelist of known-hot types (seeded below, extended as new
     shared words appear — the ROADMAP's standing ask) pins down the
     fields that MUST be line-isolated: constructing such a record with
     a hot field not wrapped in [Padded.copy]/[Padded.atomic] is an
     error, as is constructing a whole-record entry outside a
     [Padded.copy] application;
   - independently, in the audited directories any record field whose
     value is a bare [Atomic.make ...] is flagged: a freshly made cell
     stored straight into a field is exactly the allocation pattern
     that lands two threads' hot words on one line.  (Cells created
     inside [Array.init] are deliberately not flagged: an array of
     atomics is a layout decision the whitelist governs, not a per-cell
     accident.)

   A whitelist entry that no longer matches a type declaration is
   reported as a warning so the seed list cannot rot along with the
   code it describes. *)

open Parsetree

let pass_id = "padded"

(* Directories (relative to a scanned root) under audit: the native
   backend, the reclamation schemes, the ThreadScan core, the SMR
   counter plumbing every scheme shares, the allocator and the striped
   counter. *)
let audited_dirs = [ "core"; "reclaim"; "par"; "smr"; "umem"; "util" ]

(* Known-hot types: (file basename, type name, hot fields).  An empty
   field list means the whole record must be constructed under
   [Padded.copy] (its fields are immediates mutated in place); a
   non-empty list names pointer fields whose cells must each be padded.
   A field named ["f[]"] holds an array of cells: it must be built as
   [Array.init n (fun _ -> <a Padded application>)], one padded cell
   per element. *)
let hot_types =
  [
    (* par backend: every op bumps these; neighbours must not share lines *)
    ("runtime.ml", "t", [ "next_tid" ]);
    ( "runtime.ml",
      "ctx",
      [ "pending"; "kill"; "finished"; "stall_req"; "stalled_flag"; "stall_release" ] );
    (* the allocator's shared cells ride the malloc/free hot path too *)
    ("heap.ml", "counters", [ "live"; "live_w"; "peak_live"; "peak_w" ]);
    (* a thread's magazines and event counts: its owner writes them on
       every malloc and free *)
    ("alloc.ml", "row", []);
    (* a striped counter's cells: every domain bumps its own *)
    ("striped.ml", "t", [ "cells[]" ]);
    (* SMR counters: the snapshot is rewritten by whichever thread runs a
       cleanup — the record itself must sit on its own line *)
    ("smr.ml", "counters", []);
    (* regression fixtures *)
    ("fixture_padded.ml", "hot", [ "sig_word"; "ack_word" ]);
    ("fixture_padded.ml", "stripes", [ "cells[]" ]);
  ]

let padded_heads = [ "copy"; "atomic" ]

(* [Padded.copy e] / [Ts_util.Padded.atomic v] / an alias of
   Ts_util.Padded. *)
let is_padded_app aliases e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match List.rev (Ast_util.callee_path f) with
      | fn :: "Padded" :: _ -> List.mem fn padded_heads
      | [ fn; m ] -> List.mem fn padded_heads && List.mem m aliases
      | _ -> false)
  | _ -> false

(* [Array.init n (fun _ -> <padded application>)]: one padded cell per
   element. *)
let is_padded_array aliases e =
  match e.pexp_desc with
  | Pexp_apply (f, [ _; (Asttypes.Nolabel, { pexp_desc = Pexp_fun (_, _, _, body); _ }) ]) ->
      Ast_util.callee_path f = [ "Array"; "init" ] && is_padded_app aliases body
  | _ -> false

let field_name f = if Filename.check_suffix f "[]" then Filename.chop_suffix f "[]" else f

let is_atomic_make e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Ast_util.callee_path f with [ "Atomic"; "make" ] -> true | _ -> false)
  | _ -> false

let label_last (lid : Longident.t Asttypes.loc) = Ast_util.last lid.txt

let scan ctx str =
  let base = Filename.basename ctx.Pass.rel in
  let acc = ref [] in
  let aliases = Ast_util.module_aliases str ~target:[ "Ts_util"; "Padded" ] in
  let my_hot = List.filter (fun (f, _, _) -> f = base) hot_types in
  (* Declared label sets for this file's record types. *)
  let decls = Hashtbl.create 8 in
  let it_decl =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
              Hashtbl.replace decls td.ptype_name.txt
                (List.map (fun l -> l.pld_name.txt) labels)
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  it_decl.structure it_decl str;
  (* Stale whitelist entries: the type vanished or a hot field did. *)
  List.iter
    (fun (_, tname, fields) ->
      match Hashtbl.find_opt decls tname with
      | None ->
          acc :=
            Pass.warn ~pass:pass_id ctx Location.none
              "stale padded whitelist entry: no record type %S in %s" tname base
            :: !acc
      | Some labels ->
          List.iter
            (fun f ->
              if not (List.mem (field_name f) labels) then
                acc :=
                  Pass.warn ~pass:pass_id ctx Location.none
                    "stale padded whitelist entry: type %S has no field %S" tname (field_name f)
                  :: !acc)
            fields)
    my_hot;
  (* Record constructions sitting directly under a Padded application —
     the legal way to build a whole-record hot type. *)
  let wrapped = Hashtbl.create 8 in
  Ast_util.iter_exprs
    (fun e ->
      if is_padded_app aliases e then
        match e.pexp_desc with
        | Pexp_apply (_, args) -> (
            match Ast_util.first_positional args with
            | Some { pexp_desc = Pexp_record (_, None); pexp_loc; _ } ->
                Hashtbl.replace wrapped pexp_loc ()
            | _ -> ())
        | _ -> ())
    str;
  (* Which hot entry does a record construction belong to?  All declared
     labels present (OCaml requires totality without `with`), matched by
     the construction's label set. *)
  let hot_entry_of labels_used =
    List.find_opt
      (fun (_, tname, _) ->
        match Hashtbl.find_opt decls tname with
        | Some decl_labels ->
            List.length labels_used = List.length decl_labels
            && List.for_all (fun l -> List.mem l decl_labels) labels_used
        | None -> false)
      my_hot
  in
  Ast_util.iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_record (fields, None) -> (
          let labels_used = List.filter_map (fun (l, _) -> label_last l) fields in
          match hot_entry_of labels_used with
          | Some (_, tname, []) ->
              if not (Hashtbl.mem wrapped e.pexp_loc) then
                acc :=
                  Pass.err ~pass:pass_id ctx e.pexp_loc
                    "construction of hot type %s is not wrapped in Ts_util.Padded.copy — \
                     its fields are mutated cross-thread and must own their cache lines"
                    tname
                  :: !acc
          | Some (_, tname, hot_fields) ->
              List.iter
                (fun (l, v) ->
                  match label_last l with
                  | Some name when List.mem (name ^ "[]") hot_fields ->
                      if not (is_padded_array aliases v) then
                        acc :=
                          Pass.err ~pass:pass_id ctx v.pexp_loc
                            "hot array %s.%s is not built one padded cell per element — \
                             use Array.init with Ts_util.Padded"
                            tname name
                          :: !acc
                  | Some name when List.mem name hot_fields ->
                      if not (is_padded_app aliases v) then
                        acc :=
                          Pass.err ~pass:pass_id ctx v.pexp_loc
                            "hot field %s.%s is not line-isolated — wrap the cell in \
                             Ts_util.Padded.copy"
                            tname name
                          :: !acc
                  | _ -> ())
                fields
          | None ->
              List.iter
                (fun (l, v) ->
                  if is_atomic_make v then
                    acc :=
                      Pass.err ~pass:pass_id ctx v.pexp_loc
                        "record field %s holds a bare Atomic.make cell — adjacent cells \
                         share a cache line; wrap it in Ts_util.Padded.copy (or \
                         whitelist the type as cold)"
                        (Option.value ~default:"?" (label_last l))
                      :: !acc)
                fields)
      | _ -> ())
    str;
  List.rev !acc

let applies ctx = Pass.in_dir ctx audited_dirs || Pass.is_fixture ctx

let pass =
  {
    Pass.id = pass_id;
    doc = "cross-thread-hot record fields in core/reclaim/par/smr/umem/util must be Ts_util.Padded";
    impl = Some (fun ctx str -> if applies ctx then scan ctx str else []);
    intf = None;
  }
