open Ledger_crypto
open Ledger_storage

type t =
  | Real
  | Simulated of { sign_us : float; verify_us : float }

let default_simulated = Simulated { sign_us = 30.; verify_us = 70. }

(* A simulated signature binds (public key, digest) deterministically, so
   any payload tampering still breaks verification. *)
let simulated_signature pub digest =
  let key = Hash.to_bytes (Ecdsa.public_key_id pub) in
  let mac = Hmac_sha256.mac ~key (Hash.to_bytes digest) in
  let b = Bytes.create 64 in
  Bytes.blit mac 0 b 0 32;
  Bytes.blit mac 0 b 32 32;
  match Ecdsa.signature_of_bytes b with Some s -> s | None -> assert false

let charge clock us = Clock.advance clock (Int64.of_float us)

let sign_pure t ~priv ~pub digest =
  match t with
  | Real -> Ecdsa.sign priv digest
  | Simulated _ ->
      ignore priv;
      simulated_signature pub digest

let sign_many t ~priv ~pub digests =
  match t with
  | Real -> Ecdsa.sign_many priv digests
  | Simulated _ -> Array.map (simulated_signature pub) digests

let charge_sign t clock =
  match t with
  | Real -> ()
  | Simulated { sign_us; _ } -> charge clock sign_us

let sign t clock ~priv ~pub digest =
  charge_sign t clock;
  sign_pure t ~priv ~pub digest

(* Pure signature predicate: no clock, no mutation — safe to evaluate
   from pooled tasks.  [verify] = [charge_verify] then [check], so the
   sequential path's clock behaviour is unchanged. *)
let check t ~pub digest signature =
  match t with
  | Real -> Ecdsa.verify pub digest signature
  | Simulated _ ->
      Ecdsa.signature_to_bytes (simulated_signature pub digest)
      = Ecdsa.signature_to_bytes signature

let check_many t ~pub items =
  match t with
  | Real -> Ecdsa.verify_many pub items
  | Simulated _ ->
      Array.map (fun (digest, signature) -> check t ~pub digest signature) items

let charge_verify t clock =
  match t with
  | Real -> ()
  | Simulated { verify_us; _ } -> charge clock verify_us

let verify t clock ~pub digest signature =
  charge_verify t clock;
  check t ~pub digest signature
