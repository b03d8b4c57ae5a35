(** Paper-style table and series printers for the bench harness. *)

val print_title : string -> unit
(** Underlined section header. *)

val print_table : header:string list -> string list list -> unit
(** Column-aligned text table. *)

val print_multi_series : title:string -> x_label:string ->
  series_labels:string list -> (string * float list) list -> unit
(** Several y-columns per x (e.g. tim vs fam-5..fam-25). *)

val human_rate : float -> string
(** "52.3K", "1.2M" etc. *)

val human_ms : float -> string
