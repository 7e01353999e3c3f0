module Config = Fscope_machine.Config
module Table = Fscope_util.Table

let table3 (c : Config.t) =
  let t = Table.create ~title:"Table III — architectural parameters" ~header:[ "parameter"; "value" ] in
  let mem = c.Config.mem and exec = c.Config.exec and scope = c.Config.scope in
  let line_bytes = mem.Fscope_mem.Hierarchy.line_words * 4 in
  List.iter (Table.add_row t)
    [
      [ "processor"; "8 core CMP, out-of-order (one core per program thread)" ];
      [ "ROB size"; string_of_int exec.Fscope_cpu.Exec_config.rob_size ];
      [ "store buffer"; string_of_int exec.Fscope_cpu.Exec_config.sb_size ^ " entries" ];
      [
        "L1 cache";
        Printf.sprintf "private %d KB, %d way, %d-cycle latency"
          (mem.Fscope_mem.Hierarchy.l1_sets * mem.Fscope_mem.Hierarchy.l1_ways * line_bytes
          / 1024)
          mem.Fscope_mem.Hierarchy.l1_ways mem.Fscope_mem.Hierarchy.l1_latency;
      ];
      [
        "L2 cache";
        Printf.sprintf "shared %d MB, %d way, %d-cycle latency"
          (mem.Fscope_mem.Hierarchy.l2_sets * mem.Fscope_mem.Hierarchy.l2_ways * line_bytes
          / 1024 / 1024)
          mem.Fscope_mem.Hierarchy.l2_ways mem.Fscope_mem.Hierarchy.l2_latency;
      ];
      [ "memory"; Printf.sprintf "%d-cycle latency" mem.Fscope_mem.Hierarchy.mem_latency ];
      [ "# of FSB entries"; string_of_int scope.Fscope_core.Scope_unit.fsb_entries ];
      [ "# of FSS entries"; string_of_int scope.Fscope_core.Scope_unit.fss_entries ];
      [ "# of MT entries"; string_of_int scope.Fscope_core.Scope_unit.mt_entries ];
    ];
  t

let table4 () =
  let t =
    Table.create ~title:"Table IV — benchmark description"
      ~header:[ "benchmark"; "type"; "description" ]
  in
  List.iter (Table.add_row t)
    [
      [ "dekker"; "set"; "Dekker algorithm (Fig. 11 try-lock)" ];
      [ "wsq"; "class"; "Chase-Lev work-stealing queue (Fig. 2)" ];
      [ "msn"; "class"; "Michael-Scott non-blocking queue" ];
      [ "harris"; "class"; "Harris's lock-free sorted-list set" ];
      [ "barnes"; "set"; "Barnes-Hut-style n-body force kernel, SC-fenced" ];
      [ "radiosity"; "set"; "radiosity-style patch interactions, SC-fenced" ];
      [ "pst"; "class"; "parallel spanning tree over work-stealing queues" ];
      [ "ptc"; "class"; "parallel transitive closure over work-stealing queues" ];
    ];
  t

(* Total extra state per core: FSB bits on every ROB and store-buffer
   entry, the mapping table (8-bit cid tag + column index per entry),
   FSS and its shadow (one column index per slot), and the overflow
   counter. *)
let hardware_cost_bits (c : Config.t) =
  let scope = c.Config.scope and exec = c.Config.exec in
  let fsb = scope.Fscope_core.Scope_unit.fsb_entries in
  let column_bits =
    (* index width for one FSB column *)
    let rec bits v acc = if v <= 1 then max acc 1 else bits (v / 2) (acc + 1) in
    bits (fsb - 1) 1
  in
  let rob_bits = exec.Fscope_cpu.Exec_config.rob_size * fsb in
  let sb_bits = exec.Fscope_cpu.Exec_config.sb_size * fsb in
  let mt_bits = scope.Fscope_core.Scope_unit.mt_entries * (8 + column_bits) in
  let fss_bits = 2 * scope.Fscope_core.Scope_unit.fss_entries * column_bits in
  let counter_bits = 8 in
  rob_bits + sb_bits + mt_bits + fss_bits + counter_bits

let hardware_cost (c : Config.t) =
  let bits = hardware_cost_bits c in
  let t =
    Table.create ~title:"Hardware cost per core (paper: < 80 bytes)"
      ~header:[ "structure"; "bits" ]
  in
  let scope = c.Config.scope and exec = c.Config.exec in
  let fsb = scope.Fscope_core.Scope_unit.fsb_entries in
  Table.add_row t
    [ Printf.sprintf "ROB FSBs (%d x %d)" exec.Fscope_cpu.Exec_config.rob_size fsb;
      string_of_int (exec.Fscope_cpu.Exec_config.rob_size * fsb) ];
  Table.add_row t
    [ Printf.sprintf "SB FSBs (%d x %d)" exec.Fscope_cpu.Exec_config.sb_size fsb;
      string_of_int (exec.Fscope_cpu.Exec_config.sb_size * fsb) ];
  Table.add_row t [ "mapping table + FSS + FSS' + counter";
                    string_of_int (bits - (exec.Fscope_cpu.Exec_config.rob_size * fsb)
                                   - (exec.Fscope_cpu.Exec_config.sb_size * fsb)) ];
  Table.add_row t [ "total"; Printf.sprintf "%d bits = %d bytes" bits ((bits + 7) / 8) ];
  t
