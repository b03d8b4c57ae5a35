(* Unit and property tests for the cryptographic substrate. *)

open Ledger_crypto
module Uint256 = Uint256_ref

let check = Alcotest.check
let tc = Alcotest.test_case

(* --- SHA-256 / SHA-3 / HMAC test vectors --------------------------------- *)

let hex_of_bytes b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]
  in
  List.iter
    (fun (msg, expected) ->
      check Alcotest.string msg expected (hex_of_bytes (Sha256.digest_string msg)))
    cases;
  check Alcotest.string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_of_bytes (Sha256.digest_string (String.make 1_000_000 'a')))

let test_sha256_streaming () =
  (* absorbing in arbitrary chunks must match the one-shot digest *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let one_shot = Sha256.digest_string msg in
  let ctx = Sha256.init () in
  let rec absorb off =
    if off < String.length msg then begin
      let len = min (1 + (off mod 97)) (String.length msg - off) in
      Sha256.update_sub ctx (Bytes.of_string msg) off len;
      absorb (off + len)
    end
  in
  absorb 0;
  check Alcotest.string "streaming = one-shot" (hex_of_bytes one_shot)
    (hex_of_bytes (Sha256.finalize ctx))

let test_sha3_vectors () =
  let cases =
    [
      ("", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
      ("abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
      ( String.make 200 '\xa3',
        "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787" );
    ]
  in
  List.iter
    (fun (msg, expected) ->
      check Alcotest.string "sha3" expected (hex_of_bytes (Sha3.digest_string msg)))
    cases

let test_hmac_vectors () =
  (* RFC 4231 cases 1, 2, and 3 *)
  let tag1 =
    Hmac_sha256.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")
  in
  check Alcotest.string "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex_of_bytes tag1);
  let tag2 = Hmac_sha256.mac_string ~key:"Jefe" "what do ya want for nothing?" in
  check Alcotest.string "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex_of_bytes tag2);
  let tag3 =
    Hmac_sha256.mac ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')
  in
  check Alcotest.string "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex_of_bytes tag3)

(* --- Hash ---------------------------------------------------------------- *)

let test_hash_roundtrip () =
  let h = Hash.digest_string "hello" in
  check Alcotest.string "hex roundtrip" (Hash.to_hex h)
    (Hash.to_hex (Hash.of_hex (Hash.to_hex h)));
  check Alcotest.bool "bytes roundtrip" true
    (Hash.equal h (Hash.of_bytes (Hash.to_bytes h)));
  check Alcotest.bool "combine is ordered" false
    (Hash.equal (Hash.combine h Hash.zero) (Hash.combine Hash.zero h));
  check Alcotest.bool "tagged separates domains" false
    (Hash.equal (Hash.combine_tagged "a" h h) (Hash.combine_tagged "b" h h))

(* --- Uint256 ------------------------------------------------------------- *)

let u256 = Alcotest.testable Uint256.pp Uint256.equal

let arb_u256 =
  QCheck.map
    (fun (a, b, c, d) ->
      let buf = Bytes.create 32 in
      List.iteri
        (fun i v -> Bytes.set_int64_be buf (8 * i) v)
        [ a; b; c; d ];
      Uint256.of_bytes_be buf)
    (QCheck.quad QCheck.int64 QCheck.int64 QCheck.int64 QCheck.int64)

let test_u256_basics () =
  check u256 "of_int 0" Uint256.zero (Uint256_ref.of_int 0);
  check (Alcotest.option Alcotest.int) "to_int" (Some 123456)
    (Uint256_ref.to_int_opt (Uint256_ref.of_int 123456));
  check Alcotest.int "num_bits 1" 1 (Uint256_ref.num_bits Uint256.one);
  check Alcotest.int "num_bits 255"
    256
    (Uint256_ref.num_bits
       (Uint256.of_hex
          "8000000000000000000000000000000000000000000000000000000000000000"));
  let x = Uint256.of_hex "deadbeef" in
  check Alcotest.bool "bit 0" true (Uint256_ref.bit x 0);
  check Alcotest.bool "bit 4" false (Uint256_ref.bit x 4);
  (* shifting *)
  check u256 "shift roundtrip" x
    (Uint256_ref.shift_right (Uint256_ref.shift_left x 13) 13)

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"u256 (a+b)-b = a" ~count:300
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, b) ->
      let s, _ = Uint256.add a b in
      let d, _ = Uint256.sub s b in
      Uint256.equal d a)

let prop_mul_matches_divmod =
  QCheck.Test.make ~name:"u256 divmod inverts mul" ~count:200
    (QCheck.pair arb_u256 arb_u256)
    (fun (a, m) ->
      QCheck.assume (not (Uint256.is_zero m));
      let q, r = Uint256_ref.div_mod a m in
      (* a = q*m + r with r < m; verify via wide arithmetic mod 2^512 *)
      let qm = Uint256.mul_wide q m in
      let rl = Uint256.limbs r in
      let sum = Array.copy qm in
      let carry = ref 0 in
      for i = 0 to 15 do
        let s = sum.(i) + rl.(i) + !carry in
        sum.(i) <- s land 0xFFFF;
        carry := s lsr 16
      done;
      let rec prop i c =
        if c = 0 then true
        else begin
          let s = sum.(i) + c in
          sum.(i) <- s land 0xFFFF;
          prop (i + 1) (s lsr 16)
        end
      in
      ignore (prop 16 !carry);
      let al = Uint256.limbs a in
      Uint256.compare r m < 0
      && Array.for_all (fun x -> x = 0) (Array.sub sum 16 16)
      && Array.for_all2 ( = ) (Array.sub sum 0 16) al)

let prop_modinv =
  QCheck.Test.make ~name:"u256 x * inv(x) = 1 mod n" ~count:100 arb_u256
    (fun x ->
      let n = Secp256k1.n in
      let x = snd (Uint256_ref.div_mod x n) in
      QCheck.assume (not (Uint256.is_zero x));
      let xi = Uint256.inv_mod x n in
      Uint256.equal (Uint256_ref.mul_mod x xi n) Uint256.one)

let test_pow_mod () =
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = Secp256k1.p in
  let p_minus_1 = fst (Uint256.sub p Uint256.one) in
  let a = Uint256.of_hex "1234567890abcdef" in
  check u256 "fermat" Uint256.one (Uint256_ref.pow_mod a p_minus_1 p);
  check u256 "pow 0" Uint256.one (Uint256_ref.pow_mod a Uint256.zero p)

(* --- secp256k1 ----------------------------------------------------------- *)

let test_curve_generator () =
  (match Secp256k1.to_affine Secp256k1.generator with
  | Some (x, y) ->
      Alcotest.(check bool) "G on curve" true (Secp256k1.is_on_curve x y)
  | None -> Alcotest.fail "generator is infinity");
  Alcotest.(check bool) "n*G = infinity" true
    (Secp256k1.is_infinity (Secp256k1.scalar_mul Secp256k1.n Secp256k1.generator))

let test_curve_known_multiples () =
  (* known x-coordinates of k*G *)
  let expect k hex =
    match
      Secp256k1.to_affine
        (Secp256k1.scalar_mul (Uint256_ref.of_int k) Secp256k1.generator)
    with
    | Some (x, _) -> check Alcotest.string (string_of_int k) hex (Uint256.to_hex x)
    | None -> Alcotest.fail "unexpected infinity"
  in
  expect 2 "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5";
  expect 3 "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9";
  expect 7 "5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc"

let test_curve_group_laws () =
  let g = Secp256k1.generator in
  let two_g = Secp256k1.double g in
  let three_a = Secp256k1.add two_g g in
  let three_b = Secp256k1.scalar_mul (Uint256_ref.of_int 3) g in
  Alcotest.(check bool) "2G+G = 3G" true (Secp256k1.equal three_a three_b);
  Alcotest.(check bool) "G + (-G) = inf" true
    (Secp256k1.is_infinity (Secp256k1.add g (Secp256k1.negate g)));
  Alcotest.(check bool) "add commutes" true
    (Secp256k1.equal (Secp256k1.add two_g three_a) (Secp256k1.add three_a two_g))

let prop_scalar_distributes =
  QCheck.Test.make ~name:"secp256k1 (a+b)G = aG + bG" ~count:20
    (QCheck.pair (QCheck.int_range 1 100000) (QCheck.int_range 1 100000))
    (fun (a, b) ->
      let g = Secp256k1.generator in
      let lhs = Secp256k1.scalar_mul (Uint256_ref.of_int (a + b)) g in
      let rhs =
        Secp256k1.add
          (Secp256k1.scalar_mul (Uint256_ref.of_int a) g)
          (Secp256k1.scalar_mul (Uint256_ref.of_int b) g)
      in
      Secp256k1.equal lhs rhs)

let test_double_scalar_mul () =
  let g = Secp256k1.generator in
  let q = Secp256k1.scalar_mul (Uint256_ref.of_int 777) g in
  let a = Uint256_ref.of_int 123 and b = Uint256_ref.of_int 456 in
  let expected =
    Secp256k1.add (Secp256k1.scalar_mul a g) (Secp256k1.scalar_mul b q)
  in
  Alcotest.(check bool) "shamir matches" true
    (Secp256k1.equal
       (Secp256k1.double_scalar_mul_base a b (Secp256k1.precompute q))
       expected)

(* --- ECDSA --------------------------------------------------------------- *)

let test_ecdsa_roundtrip () =
  let priv, pub = Ecdsa.generate ~seed:"alice" in
  let d = Hash.digest_string "message" in
  let s = Ecdsa.sign priv d in
  Alcotest.(check bool) "verifies" true (Ecdsa.verify pub d s);
  Alcotest.(check bool) "wrong message" false
    (Ecdsa.verify pub (Hash.digest_string "other") s);
  let _, pub2 = Ecdsa.generate ~seed:"bob" in
  Alcotest.(check bool) "wrong key" false (Ecdsa.verify pub2 d s)

let test_ecdsa_deterministic () =
  let priv, _ = Ecdsa.generate ~seed:"alice" in
  let d = Hash.digest_string "message" in
  let s1 = Ecdsa.sign priv d and s2 = Ecdsa.sign priv d in
  Alcotest.(check bool) "deterministic nonce" true
    (Uint256.equal (Ecdsa_ref.sig_r s1) (Ecdsa_ref.sig_r s2)
    && Uint256.equal (Ecdsa_ref.sig_s s1) (Ecdsa_ref.sig_s s2))

let test_ecdsa_bitflip () =
  let priv, pub = Ecdsa.generate ~seed:"carol" in
  let d = Hash.digest_string "payload" in
  let s = Ecdsa.sign priv d in
  let b = Ecdsa.signature_to_bytes s in
  Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 1));
  match Ecdsa.signature_of_bytes b with
  | Some s' -> Alcotest.(check bool) "flipped sig fails" false (Ecdsa.verify pub d s')
  | None -> ()

let test_ecdsa_encoding () =
  let _, pub = Ecdsa.generate ~seed:"dave" in
  let b = Ecdsa.public_key_to_bytes pub in
  (match Ecdsa.public_key_of_bytes b with
  | Some pub' ->
      Alcotest.(check bool) "pubkey roundtrip" true
        (Hash.equal (Ecdsa.public_key_id pub) (Ecdsa.public_key_id pub'))
  | None -> Alcotest.fail "failed to parse encoded public key");
  (* corrupt: not on curve *)
  Bytes.set b 5 (Char.chr (Char.code (Bytes.get b 5) lxor 0xFF));
  Alcotest.(check bool) "off-curve rejected" true
    (Ecdsa.public_key_of_bytes b = None)

let prop_ecdsa_roundtrip =
  QCheck.Test.make ~name:"ecdsa sign/verify roundtrips" ~count:10
    QCheck.small_string (fun seed ->
      let priv, pub = Ecdsa.generate ~seed in
      let d = Hash.digest_string ("msg:" ^ seed) in
      Ecdsa.verify pub d (Ecdsa.sign priv d))

let qcheck = QCheck_alcotest.to_alcotest

let base_suite =
  [
    tc "sha256 vectors" `Quick test_sha256_vectors;
    tc "sha256 streaming" `Quick test_sha256_streaming;
    tc "sha3 vectors" `Quick test_sha3_vectors;
    tc "hmac vectors" `Quick test_hmac_vectors;
    tc "hash roundtrips" `Quick test_hash_roundtrip;
    tc "u256 basics" `Quick test_u256_basics;
    qcheck prop_add_sub_roundtrip;
    qcheck prop_mul_matches_divmod;
    qcheck prop_modinv;
    tc "pow_mod fermat" `Quick test_pow_mod;
    tc "curve generator" `Quick test_curve_generator;
    tc "curve known multiples" `Quick test_curve_known_multiples;
    tc "curve group laws" `Quick test_curve_group_laws;
    qcheck prop_scalar_distributes;
    tc "double scalar mul" `Quick test_double_scalar_mul;
    tc "ecdsa roundtrip" `Quick test_ecdsa_roundtrip;
    tc "ecdsa deterministic" `Quick test_ecdsa_deterministic;
    tc "ecdsa bitflip rejected" `Quick test_ecdsa_bitflip;
    tc "ecdsa key encoding" `Quick test_ecdsa_encoding;
    qcheck prop_ecdsa_roundtrip;
  ]

(* --- additional edge cases ------------------------------------------------- *)

let test_u256_edges () =
  let max =
    Uint256.of_hex
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
  in
  (* wrap-around *)
  let z, carry = Uint256.add max Uint256.one in
  Alcotest.(check bool) "max + 1 wraps" true (carry && Uint256.is_zero z);
  let m, borrow = Uint256.sub Uint256.zero Uint256.one in
  Alcotest.(check bool) "0 - 1 borrows to max" true (borrow && Uint256.equal m max);
  (* shifts at boundaries *)
  Alcotest.(check bool) "shift out" true
    (Uint256.is_zero (Uint256_ref.shift_left Uint256.one 256));
  Alcotest.(check bool) "shift 255 round trip" true
    (Uint256.equal Uint256.one
       (Uint256_ref.shift_right (Uint256_ref.shift_left Uint256.one 255) 255));
  (* division edge cases *)
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Uint256_ref.div_mod Uint256.one Uint256.zero));
  let q, r = Uint256_ref.div_mod max max in
  Alcotest.(check bool) "x / x" true
    (Uint256.equal q Uint256.one && Uint256.is_zero r);
  (* hex validation *)
  Alcotest.check_raises "bad hex digit"
    (Invalid_argument "Uint256.of_hex: bad digit") (fun () ->
      ignore (Uint256.of_hex "xyz"));
  Alcotest.check_raises "hex too long"
    (Invalid_argument "Uint256.of_hex: bad length") (fun () ->
      ignore (Uint256.of_hex (String.make 65 'a')));
  (* bytes round trip *)
  let v = Uint256.of_hex "0102030405060708090a0b0c0d0e0f10" in
  Alcotest.(check bool) "bytes roundtrip" true
    (Uint256.equal v (Uint256.of_bytes_be (Uint256.to_bytes_be v)))

let test_curve_edges () =
  let g = Secp256k1.generator in
  (* scalar 0 and 1 *)
  Alcotest.(check bool) "0 * G = inf" true
    (Secp256k1.is_infinity (Secp256k1.scalar_mul Uint256.zero g));
  Alcotest.(check bool) "1 * G = G" true
    (Secp256k1.equal (Secp256k1.scalar_mul Uint256.one g) g);
  (* (n-1) * G = -G *)
  let n_minus_1 = fst (Uint256.sub Secp256k1.n Uint256.one) in
  Alcotest.(check bool) "(n-1)G = -G" true
    (Secp256k1.equal (Secp256k1.scalar_mul n_minus_1 g) (Secp256k1.negate g));
  (* infinity is absorbing *)
  Alcotest.(check bool) "inf + G = G" true
    (Secp256k1.equal (Secp256k1.add Secp256k1.infinity g) g);
  Alcotest.(check bool) "double inf = inf" true
    (Secp256k1.is_infinity (Secp256k1.double Secp256k1.infinity));
  (* adding a point to itself routes through double *)
  Alcotest.(check bool) "P + P = 2P" true
    (Secp256k1.equal (Secp256k1.add g g) (Secp256k1.double g));
  (* off-curve coordinates rejected *)
  Alcotest.(check bool) "off-curve" false
    (Secp256k1.is_on_curve Uint256.one Uint256.one);
  (* ECDSA's x mod n comparison: r = x + (2^256 - n) is below n but not
     congruent to x, and r + n wraps past 2^256 back to x *)
  let pt = Secp256k1.scalar_mul_base (Uint256_ref.of_int 12345) in
  let x =
    match Secp256k1.to_affine pt with Some (x, _) -> x | None -> assert false
  in
  let r, carry = Uint256.add x (fst (Uint256.sub Uint256.zero Secp256k1.n)) in
  Alcotest.(check bool) "r = x + (2^256 - n) is a valid r" true
    ((not carry) && Uint256.compare r Secp256k1.n < 0);
  Alcotest.(check bool) "x itself matches" true (Secp256k1.has_x_mod_n pt x);
  Alcotest.(check bool) "x + (2^256 - n) rejected" false
    (Secp256k1.has_x_mod_n pt r);
  (* field helpers *)
  Alcotest.check_raises "inverse of zero"
    (Invalid_argument "Secp256k1.fe_inv: zero") (fun () ->
      ignore (Secp256k1.fe_inv Uint256.zero))

let test_ecdsa_degenerate_signatures () =
  let _, pub = Ecdsa.generate ~seed:"edge" in
  let d = Hash.digest_string "msg" in
  (* zero / out-of-range components are rejected outright *)
  List.iter
    (fun (r, s) ->
      Alcotest.(check bool) "degenerate rejected" false
        (Ecdsa.verify pub d (Ecdsa_ref.signature ~r ~s)))
    [
      (Uint256.zero, Uint256.one);
      (Uint256.one, Uint256.zero);
      (Secp256k1.n, Uint256.one);
      (Uint256.one, Secp256k1.n);
    ]

let edge_suite =
  [
    tc "u256 edges" `Quick test_u256_edges;
    tc "curve edges" `Quick test_curve_edges;
    tc "ecdsa degenerate signatures" `Quick test_ecdsa_degenerate_signatures;
  ]

let suite = base_suite @ edge_suite
