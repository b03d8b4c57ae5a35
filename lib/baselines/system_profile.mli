(** The qualitative comparison matrix of Table I.

    Each row describes a ledger system along the paper's six dimensions.
    The LedgerDB, QLDB-style, Fabric-style and ProvenDB-style rows are
    backed by implementations in this repository ({!implemented}); the
    SQL Ledger and Factom rows are reproduced from the paper for
    completeness. *)

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
