(** The paper's tables: architectural parameters (Table III), the
    benchmark roster (Table IV), and the hardware-cost estimate of
    §VI-E. *)

val table3 : Fscope_machine.Config.t -> Fscope_util.Table.t
(** The active architectural parameters, in Table III's layout. *)

val table4 : unit -> Fscope_util.Table.t
(** The eight benchmarks with their scope types and descriptions. *)

val hardware_cost : Fscope_machine.Config.t -> Fscope_util.Table.t
(** The §VI-E claim: under the default configuration the overhead is
    less than 80 bytes per core. *)
