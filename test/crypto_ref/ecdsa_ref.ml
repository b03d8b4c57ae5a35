(* Reference signer/verifier over [Secp256k1_ref]: the pre-kernel
   pipeline (long-division scalar arithmetic, double-and-add ladders).
   Nonce derivation is the same as [Ecdsa]'s, so [sign] must produce bit
   for bit the signature [Ecdsa.sign] does; the differential suites
   assert that sign and verify agree with the fast path. *)

open Ledger_crypto
module Uint256 = Uint256_ref

let n = Secp256k1.n
let n_minus_1 = fst (Uint256.sub n Uint256.one)
let in_range v = not (Uint256.is_zero v) && Uint256.compare v n < 0

(* A signature is abstract and held as its 64-byte encoding r ∥ s;
   the batteries build and take apart edge vectors through these. *)
let signature ~r ~s =
  Option.get
    (Ecdsa.signature_of_bytes
       (Bytes.cat (Uint256.to_bytes_be r) (Uint256.to_bytes_be s)))

let half sg off = Uint256.of_bytes_be (Bytes.sub (Ecdsa.signature_to_bytes sg) off 32)
let sig_r sg = half sg 0
let sig_s sg = half sg 32

let z_of_hash h =
  snd (Uint256_ref.div_mod (Uint256.of_bytes_be (Hash.to_bytes h)) n)

let scalar_of_bytes b =
  let v = Uint256.of_bytes_be b in
  let v = snd (Uint256_ref.div_mod v n_minus_1) in
  fst (Uint256.add v Uint256.one)

let nonce d msg_hash attempt =
  let key = Uint256.to_bytes_be d in
  let data = Bytes.create 33 in
  Bytes.blit (Hash.to_bytes msg_hash) 0 data 0 32;
  Bytes.set data 32 (Char.chr (attempt land 0xFF));
  scalar_of_bytes (Hmac_sha256.mac ~key data)

let sign (priv : Ecdsa.private_key) msg_hash =
  let d = (priv :> Uint256.t) in
  let z = z_of_hash msg_hash in
  let rec attempt i =
    if i > 100 then failwith "Ecdsa_ref.sign: could not find a valid nonce";
    let k = nonce d msg_hash i in
    let kg = Secp256k1_ref.scalar_mul k Secp256k1_ref.generator in
    match Secp256k1_ref.to_affine kg with
    | None -> attempt (i + 1)
    | Some (x, _) ->
        let r = snd (Uint256_ref.div_mod x n) in
        if Uint256.is_zero r then attempt (i + 1)
        else begin
          let kinv = Uint256.inv_mod k n in
          let rd = Uint256_ref.mul_mod r d n in
          let s = Uint256_ref.mul_mod kinv (Uint256.add_mod z rd n) n in
          if Uint256.is_zero s then attempt (i + 1) else signature ~r ~s
        end
  in
  attempt 0

(* Accepts the fast-representation public key and re-expresses it, via
   its 64-byte encoding, for the reference ladder, so both verifiers
   can be run on identical inputs.  The key at infinity has no encoding
   and verifies nothing. *)
let verify q msg_hash sg =
  let r = sig_r sg and s = sig_s sg in
  if not (in_range r && in_range s) then false
  else
    match Ecdsa.public_key_to_bytes q with
    | exception Invalid_argument _ -> false
    | b ->
        let q =
          Secp256k1_ref.of_affine
            (Uint256.of_bytes_be (Bytes.sub b 0 32))
            (Uint256.of_bytes_be (Bytes.sub b 32 32))
        in
        let z = z_of_hash msg_hash in
        let w = Uint256.inv_mod s n in
        let u1 = Uint256_ref.mul_mod z w n in
        let u2 = Uint256_ref.mul_mod r w n in
        let pt = Secp256k1_ref.double_scalar_mul u1 Secp256k1_ref.generator u2 q in
        (match Secp256k1_ref.to_affine pt with
        | None -> false
        | Some (x, _) -> Uint256.equal (snd (Uint256_ref.div_mod x n)) r)

(* Differential canary over the fast/reference pair: one fixed digest
   signed through the comb/GLV pipeline and through this one must give
   byte-identical signatures that both verifiers accept, and the two
   SHA-256 implementations must agree.  Cheap: two signs, two
   verifies. *)
let self_check () =
  let msg = Bytes.of_string "crypto_profile differential canary" in
  let digest = Hash.of_bytes (Sha256.digest_bytes msg) in
  let priv, pub = Ecdsa.generate ~seed:"crypto-profile-canary" in
  let s_fast = Ecdsa.sign priv digest in
  let s_ref = sign priv digest in
  Bytes.equal (Ecdsa.signature_to_bytes s_fast) (Ecdsa.signature_to_bytes s_ref)
  && Ecdsa.verify pub digest s_fast
  && verify pub digest s_fast
  && Bytes.equal (Sha256.digest_bytes msg) (Sha256_ref.digest_bytes msg)

(* Minor-heap words per item of [Ecdsa.sign_many] and then
   [Ecdsa.verify_many] over [n] digests under a key generated from
   [seed], each read on the calling domain after one warm-up call.  A
   count, not a time: with fixed inputs it repeats exactly.  The third
   result says whether every signature verified. *)
let minor_words_per_item ~seed n =
  let priv, pub = Ecdsa.generate ~seed in
  let digests =
    Array.init n (fun i -> Hash.digest_string (seed ^ ":" ^ string_of_int i))
  in
  let per_item f =
    ignore (f ());
    let before = Gc.minor_words () in
    let result = f () in
    (result, (Gc.minor_words () -. before) /. float_of_int n)
  in
  let sigs, sign_words = per_item (fun () -> Ecdsa.sign_many priv digests) in
  let claims = Array.mapi (fun i d -> (d, sigs.(i))) digests in
  let verdicts, verify_words =
    per_item (fun () -> Ecdsa.verify_many pub claims)
  in
  (sign_words, verify_words, Array.for_all Fun.id verdicts)
