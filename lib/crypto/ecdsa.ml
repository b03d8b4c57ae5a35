type private_key = Uint256.t

(* A finite key carries its verification table, built once; [None] is
   the point at infinity, which verifies nothing. *)
type public_key = Secp256k1.table option

(* r ∥ s, 32 bytes each, big-endian: the ledger keeps one per journal,
   so it is held in its compact 10-word encoded form and decoded only
   by the verifier. *)
type signature = string

module Scalar = Secp256k1.Scalar

let public_key_of_point pt =
  if Secp256k1.is_infinity pt then None else Some (Secp256k1.precompute pt)

let public_key d = Secp256k1.base_table d

let generate ~seed =
  let k = Scalar.create () in
  Scalar.load_nonzero k (Sha256.digest_string ("ledgerdb-key:" ^ seed)) 0;
  let d = Scalar.to_u256 k in
  (d, public_key d)

(* Deterministic nonce in the spirit of RFC 6979: chained HMAC over the
   private key and digest, with a retry counter.  [key] is the private
   key prepared once per call; [data] is the call's 33-byte buffer. *)
let nonce_into k key data msg_hash attempt =
  Bytes.blit (Hash.to_bytes msg_hash) 0 data 0 32;
  Bytes.set data 32 (Char.chr (attempt land 0xFF));
  Scalar.load_nonzero k (Hmac_sha256.mac_keyed key data) 0

(* z: the digest's 32 bytes at [off] of [b], reduced mod n *)
let z_into z b off =
  Scalar.load z b off;
  Scalar.reduce_into z z

let scalars count = Array.init count (fun _ -> Scalar.create ())

(* Every digest still unsigned tries nonce [i]; the x(kG) of the whole
   round share one field inversion and the k share one scalar
   inversion.  A nonce giving r = 0 or s = 0 sends its digest to round
   i + 1, exactly as one-at-a-time signing would.  Every temporary but
   one is the call's: one [ctx], the HMAC key state and three columns
   of scalars.  The k·G of the batch go into the domain's points buffer
   ({!Secp256k1.with_points}). *)
let sign_many d digests =
  let count = Array.length digests in
  let sigs = Array.make count "" in
  let c = Secp256k1.ctx () in
  let dk = Scalar.create () and z = Scalar.create () and s = Scalar.create () in
  Scalar.set_u256 dk d;
  let key = Hmac_sha256.keyed (Uint256.to_bytes_be d) in
  let data = Bytes.create 33 in
  let ks = scalars count and rs = scalars count and kinvs = scalars count in
  let pending = Array.init count Fun.id and left = ref count and i = ref 0 in
  Secp256k1.with_points count @@ fun pts ->
  while !left > 0 do
    if !i > 100 then failwith "Ecdsa.sign: could not find a valid nonce";
    for m = 0 to !left - 1 do
      nonce_into ks.(m) key data digests.(pending.(m)) !i;
      Secp256k1.mul_base_into c ks.(m) pts m
    done;
    Secp256k1.x_mod_n_batch c pts !left rs;
    Scalar.inv_batch_into kinvs ks !left;
    let kept = ref 0 in
    for m = 0 to !left - 1 do
      let j = pending.(m) in
      (* s = k⁻¹ (z + r·d) *)
      z_into z (Hash.to_bytes digests.(j)) 0;
      Scalar.mul_into s rs.(m) dk;
      Scalar.add_into s z s;
      Scalar.mul_into s kinvs.(m) s;
      if Scalar.is_zero rs.(m) || Scalar.is_zero s then begin
        pending.(!kept) <- j;
        incr kept
      end
      else begin
        let b = Bytes.create 64 in
        Scalar.store b 0 rs.(m);
        Scalar.store b 32 s;
        sigs.(j) <- Bytes.unsafe_to_string b
      end
    done;
    left := !kept;
    incr i
  done;
  sigs

let sign d msg_hash = (sign_many d [| msg_hash |]).(0)

(* r ∥ s are read straight from each signature's bytes into the call's
   scalars: every s once, to share one inversion, and r where it is
   used. *)
let verify_many q items =
  match q with
  | None -> Array.map (fun _ -> false) items
  | Some tq ->
      let count = Array.length items in
      let c = Secp256k1.ctx () in
      let r = Scalar.create () and z = Scalar.create () in
      let u1 = Scalar.create () and u2 = Scalar.create () in
      let ss = scalars count and ws = scalars count in
      let ok = Array.make count false in
      for i = 0 to count - 1 do
        let sg = Bytes.unsafe_of_string (snd items.(i)) in
        Scalar.load r sg 0;
        Scalar.load ss.(i) sg 32;
        (* an out-of-range s stands in as 1; its inverse is never read *)
        if Scalar.in_range r && Scalar.in_range ss.(i) then ok.(i) <- true
        else Scalar.set_u256 ss.(i) Uint256.one
      done;
      Scalar.inv_batch_into ws ss count;
      for i = 0 to count - 1 do
        if ok.(i) then begin
          let msg_hash, sg = items.(i) in
          Scalar.load r (Bytes.unsafe_of_string sg) 0;
          z_into z (Hash.to_bytes msg_hash) 0;
          Scalar.mul_into u1 z ws.(i);
          Scalar.mul_into u2 r ws.(i);
          (* compare x(u1·G + u2·Q) to r without an affine conversion:
             r is already known to be in [1, n) here *)
          ok.(i) <- Secp256k1.check_x c u1 u2 tq r
        end
      done;
      ok

let verify q msg_hash signature = (verify_many q [| (msg_hash, signature) |]).(0)

let public_key_to_bytes q =
  match q with
  | None -> invalid_arg "Ecdsa.public_key_to_bytes: infinity"
  | Some tq -> Secp256k1.table_to_bytes tq

let public_key_of_bytes b =
  if Bytes.length b <> 64 then None
  else begin
    let x = Uint256.of_bytes_be (Bytes.sub b 0 32) in
    let y = Uint256.of_bytes_be (Bytes.sub b 32 32) in
    if Secp256k1.is_on_curve x y then
      Some (public_key_of_point (Secp256k1.of_affine x y))
    else None
  end

let public_key_id q = Hash.digest_bytes (public_key_to_bytes q)

let signature_to_bytes sg = Bytes.of_string sg
let blit_signature sg dst pos = Bytes.blit_string sg 0 dst pos 64

let signature_of_bytes b =
  if Bytes.length b <> 64 then None else Some (Bytes.to_string b)

(* the first 8 hex digits of r and of s *)
let pp_signature fmt sg =
  let hex off =
    String.concat ""
      (List.init 4 (fun k -> Printf.sprintf "%02x" (Char.code sg.[off + k])))
  in
  Format.fprintf fmt "sig(r=%s…, s=%s…)" (hex 0) (hex 32)
