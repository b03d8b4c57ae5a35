type private_key = Uint256.t

(* A finite key carries its verification table, built once; [None] is
   the point at infinity, which verifies nothing. *)
type public_key = Secp256k1.table option

(* r ∥ s, 32 bytes each, big-endian: the ledger keeps one per journal,
   so it is held in its compact 10-word encoded form and decoded only
   by the verifier. *)
type signature = string

let n = Secp256k1.n
let n_minus_1 = fst (Uint256.sub n Uint256.one)

(* Map 32 bytes to [1, n-1].  v < 2^256 < 2(n-1), so reduction mod n-1
   is a single conditional subtraction. *)
let scalar_of_bytes b =
  let v = Uint256.of_bytes_be b in
  let v =
    if Uint256.compare v n_minus_1 >= 0 then fst (Uint256.sub v n_minus_1)
    else v
  in
  fst (Uint256.add v Uint256.one)

let public_key_of_point pt =
  if Secp256k1.is_infinity pt then None else Some (Secp256k1.precompute pt)

let public_key d = public_key_of_point (Secp256k1.scalar_mul_base d)

let generate ~seed =
  let d = scalar_of_bytes (Sha256.digest_string ("ledgerdb-key:" ^ seed)) in
  (d, public_key d)

(* Deterministic nonce in the spirit of RFC 6979: chained HMAC over the
   private key and digest, with a retry counter. *)
let nonce d msg_hash attempt =
  let key = Uint256.to_bytes_be d in
  let data = Bytes.create 33 in
  Bytes.blit (Hash.to_bytes msg_hash) 0 data 0 32;
  Bytes.set data 32 (Char.chr (attempt land 0xFF));
  scalar_of_bytes (Hmac_sha256.mac ~key data)

let encode r s =
  let b = Bytes.create 64 in
  Bytes.blit (Uint256.to_bytes_be r) 0 b 0 32;
  Bytes.blit (Uint256.to_bytes_be s) 0 b 32 32;
  Bytes.unsafe_to_string b

let half sg off = Uint256.of_bytes_be (Bytes.sub (Bytes.unsafe_of_string sg) off 32)

let z_of_hash h =
  Secp256k1.Scalar.reduce (Uint256.of_bytes_be (Hash.to_bytes h))

(* Every digest still unsigned tries nonce [i]; the x(kG) of the whole
   round share one field inversion and the k share one scalar
   inversion.  A nonce giving r = 0 or s = 0 sends its digest to round
   i + 1, exactly as one-at-a-time signing would. *)
let sign_many d digests =
  let sigs = Array.make (Array.length digests) None in
  let rec round i pending =
    if pending <> [] then begin
      if i > 100 then failwith "Ecdsa.sign: could not find a valid nonce";
      let ks =
        Array.of_list (List.map (fun j -> nonce d digests.(j) i) pending)
      in
      let xs =
        Secp256k1.affine_x_batch (Array.map Secp256k1.scalar_mul_base ks)
      in
      let kinvs = Secp256k1.Scalar.inv_batch ks in
      let signed m j =
        match xs.(m) with
        | None -> false
        | Some x ->
            let r = Secp256k1.Scalar.reduce x in
            let s =
              Secp256k1.Scalar.mul kinvs.(m)
                (Secp256k1.Scalar.add (z_of_hash digests.(j))
                   (Secp256k1.Scalar.mul r d))
            in
            if Uint256.is_zero r || Uint256.is_zero s then false
            else begin
              sigs.(j) <- Some (encode r s);
              true
            end
      in
      round (i + 1) (List.filteri (fun m j -> not (signed m j)) pending)
    end
  in
  round 0 (List.init (Array.length digests) Fun.id);
  Array.map Option.get sigs

let sign d msg_hash = (sign_many d [| msg_hash |]).(0)

let in_range v = not (Uint256.is_zero v) && Uint256.compare v n < 0

let verify_many q items =
  match q with
  | None -> Array.map (fun _ -> false) items
  | Some tq ->
      (* every r ∥ s decoded once, here *)
      let decoded = Array.map (fun (_, sg) -> (half sg 0, half sg 32)) items in
      let valid (r, s) = in_range r && in_range s in
      (* one shared inversion for every s; an out-of-range s stands in
         as 1 and its result is never read *)
      let ws =
        Secp256k1.Scalar.inv_batch
          (Array.map
             (fun ((_, s) as rs) -> if valid rs then s else Uint256.one)
             decoded)
      in
      Array.mapi
        (fun i (msg_hash, _) ->
          let ((r, _) as rs) = decoded.(i) in
          valid rs
          &&
          let z = z_of_hash msg_hash in
          let u1 = Secp256k1.Scalar.mul z ws.(i) in
          let u2 = Secp256k1.Scalar.mul r ws.(i) in
          (* compare x(u1·G + u2·Q) to r without an affine conversion:
             r is already known to be in [1, n) here *)
          Secp256k1.has_x_mod_n (Secp256k1.double_scalar_mul_base u1 u2 tq) r)
        items

let verify q msg_hash signature = (verify_many q [| (msg_hash, signature) |]).(0)

let public_key_to_bytes q =
  match q with
  | None -> invalid_arg "Ecdsa.public_key_to_bytes: infinity"
  | Some tq ->
      let x, y = Secp256k1.table_affine tq in
      let b = Bytes.create 64 in
      Bytes.blit (Uint256.to_bytes_be x) 0 b 0 32;
      Bytes.blit (Uint256.to_bytes_be y) 0 b 32 32;
      b

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

let signature_of_bytes b =
  if Bytes.length b <> 64 then None else Some (Bytes.to_string b)

(* the first 8 hex digits of r and of s *)
let pp_signature fmt sg =
  let hex off =
    String.concat ""
      (List.init 4 (fun k -> Printf.sprintf "%02x" (Char.code sg.[off + k])))
  in
  Format.fprintf fmt "sig(r=%s…, s=%s…)" (hex 0) (hex 32)
