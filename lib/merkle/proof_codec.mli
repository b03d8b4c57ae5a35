(** Binary codecs for every proof object a verifier may receive over the
    wire: audit paths, node sets, Shrubs proofs, fam (chained and
    anchored) proofs, and batch range proofs.

    Writers append into an open {!Ledger_crypto.Wire.writer} so proofs
    compose into larger protocol messages; [decode_*] helpers wrap the
    matching readers totally ([None] on corruption). *)

open Ledger_crypto

val w_path : Wire.writer -> Proof.path -> unit
val r_path : Wire.reader -> Proof.path

val w_fam_proof : Wire.writer -> Fam.proof -> unit
val r_fam_proof : Wire.reader -> Fam.proof

val fam_proof_size : Fam.proof -> int
(** The byte length {!w_fam_proof} writes, from the proof's shape
    alone. *)

val w_range_proof : Wire.writer -> Range_proof.t -> unit
val r_range_proof : Wire.reader -> Range_proof.t

val encode_fam_proof : Fam.proof -> bytes
val decode_fam_proof : bytes -> Fam.proof option

val encode_fam_anchored : Fam.anchored_proof -> bytes

val encode_range_proof : Range_proof.t -> bytes
val decode_range_proof : bytes -> Range_proof.t option

val w_fam_extension : Wire.writer -> Fam.extension_proof -> unit
val r_fam_extension : Wire.reader -> Fam.extension_proof

val encode_fam_extension : Fam.extension_proof -> bytes
val decode_fam_extension : bytes -> Fam.extension_proof option
