(** The qualitative comparison matrix of Table I.

    Each row describes a ledger system along the paper's six dimensions.
    All six rows — LedgerDB, SQL Ledger, QLDB, ProvenDB, Fabric and
    Factom — name the module in this repository that models them
    ({!implemented}). *)

type efficiency = High | Medium | Low

type profile = {
  system : string;
  trusted_dependency : string;
  dasein_support : string;  (** which of what/when/who are rigorous *)
  verify_efficiency : efficiency;
  storage_overhead : string;
  verifiable_mutation : bool;
  verifiable_n_lineage : bool;
  implemented : string option;  (** backing module in this repo, if any *)
}

val all : profile list
(** Rows in the paper's order. *)

val to_row : profile -> string list
(** For {!Ledger_bench_util.Table.print_table}. *)

val header : string list
