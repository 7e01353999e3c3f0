open Fscope_slang.Ast

let i n = Int n
let l name = Local name
let tid = Tid
let g name = Read (Global name)
let elem arr idx = Read (Elem (arr, idx))
let fld instance field = Read (Field (instance, field))
let fldelem instance field idx = Read (Field_elem (instance, field, idx))

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( % ) a b = Binop (Rem, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( &&& ) a b = Binop (Band, a, b)
let ( ||| ) a b = Binop (Bor, a, b)
let ( << ) a b = Binop (Shl, a, b)
let ( >> ) a b = Binop (Shr, a, b)
let bxor a b = Binop (Bxor, a, b)
let not_ e = Not e

let let_ name e = Let (name, e)
let set name e = Assign (name, e)
let sg name e = Store (Global name, e)
let selem arr idx v = Store (Elem (arr, idx), v)
let sfld instance field v = Store (Field (instance, field), v)
let sfldelem instance field idx v = Store (Field_elem (instance, field, idx), v)
let if_ cond then_b else_b = If (cond, then_b, else_b)
let when_ cond then_b = If (cond, then_b, [])
let while_ cond body = While (cond, body)
let fence = Fence (F_full, FF_full)
let fence_class = Fence (F_class, FF_full)
let fence_set vars = Fence (F_set vars, FF_full)

let flavored flavor stmt =
  match stmt with
  | Fence (spec, _) -> Fence (spec, flavor)
  | _ -> invalid_arg "Dsl.flavored: not a fence"

let fence_ss stmt = flavored FF_store_store stmt
let fence_ll stmt = flavored FF_load_load stmt
let fence_sl stmt = flavored FF_store_load stmt

let cas_g dst global expected desired = Cas { dst; lv = Global global; expected; desired }

let cas_elem dst arr idx expected desired =
  Cas { dst; lv = Elem (arr, idx); expected; desired }

let cas_fld dst instance field expected desired =
  Cas { dst; lv = Field (instance, field); expected; desired }

let cas_fldelem dst instance field idx expected desired =
  Cas { dst; lv = Field_elem (instance, field, idx); expected; desired }

let call instance meth args = Call_stmt { instance = Some instance; meth; args }
let callv dst instance meth args = Call_assign (dst, { instance = Some instance; meth; args })
let return_ e = Return (Some e)

(* A deterministic all-register countdown of [n] iterations ([n] may
   be an expression, e.g. a baked per-request gap).  The loop body
   touches no memory, so it can never arm the spin fast-forward. *)
let delay ~unique n =
  let d = unique ^ "_d" in
  [ let_ d n; while_ (l d > i 0) [ set d (l d - i 1) ] ]

(* Atomic fetch-and-add on a scalar global via a CAS retry loop; the
   server workloads use it for shared completion / termination
   counters. *)
let fetch_add_g ~unique name by =
  let ok = unique ^ "_ok" and cur = unique ^ "_c" in
  [
    let_ ok (i 0);
    while_
      (not_ (l ok))
      [ let_ cur (g name); cas_g ok name (l cur) (l cur + by) ];
  ]

let incr_elem arr idx = selem arr idx (elem arr idx + i 1)

(* Like [delay], but each iteration stores into the thread-private
   array [arr] (size >= 64): the request-handler work of the server
   workloads.  The dirty private lines are what a traditional fence
   must drain and a scoped fence may ignore — the paper's Fig. 12
   effect, produced by the workload itself rather than the harness. *)
let scratch_work ~unique ~arr n =
  let d = unique ^ "_w" in
  [
    let_ d n;
    while_ (l d > i 0) [ selem arr (l d % i 64) (l d); set d (l d - i 1) ];
  ]

let meth mname params ?(returns = false) body = { mname; params; returns; body }
let scalar name init = (name, init)
let array name size = (name, size, None)
let array_init name values = (name, Array.length values, Some values)
