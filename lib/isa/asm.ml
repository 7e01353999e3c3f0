type label = int

type pending =
  | Ready of Instr.t
  | Branch_to of Instr.branch_cond * Reg.t * label
  | Jump_to of label

type t = {
  mutable code : pending list; (* reversed *)
  mutable len : int;
  mutable next_label : int;
  placed : (label, int) Hashtbl.t;
}

let create () = { code = []; len = 0; next_label = 0; placed = Hashtbl.create 16 }

let fresh_label t =
  let l = t.next_label in
  t.next_label <- t.next_label + 1;
  l

let place t label =
  if Hashtbl.mem t.placed label then invalid_arg "Asm.place: label placed twice";
  Hashtbl.add t.placed label t.len

let push t p =
  t.code <- p :: t.code;
  t.len <- t.len + 1

let emit t instr = push t (Ready instr)
let branch t cond src label = push t (Branch_to (cond, src, label))
let jump t label = push t (Jump_to label)

let finish t =
  let resolve label =
    match Hashtbl.find_opt t.placed label with
    | Some pos -> pos
    | None -> invalid_arg "Asm.finish: unplaced label"
  in
  let instrs =
    List.rev_map
      (fun p ->
        match p with
        | Ready i -> i
        | Branch_to (cond, src, label) ->
          Instr.Branch { cond; src; target = resolve label }
        | Jump_to label -> Instr.Jump (resolve label))
      t.code
  in
  Array.of_list instrs
