(* Known-answer vector suite for the crypto kernel.

   Runs as its own executable so a tier-1 failure names the offending
   vector id directly.  The reference data is vendored: NIST/RFC SHA-256
   and HMAC-SHA256 vectors, independently computed secp256k1 scalar
   multiples and field/scalar arithmetic vectors, and a Wycheproof-style
   battery of ECDSA edge cases — every degenerate input must fail closed
   on the fast path, and the fast and reference pipelines must agree. *)

open Ledger_crypto
module Uint256 = Uint256_ref

let bytes_of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> invalid_arg "bytes_of_hex"
  in
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let hex_of_bytes b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (Bytes.to_seq b)))

let check_hex id expect got =
  Alcotest.(check string) id expect (hex_of_bytes got)

(* --- SHA-256 (FIPS 180-4 / NIST CAVP style) ----------------------------- *)

(* (id, message hex, digest hex) *)
let sha256_vectors =
  [
    ("sha256-empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("sha256-a", "61", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
    ("sha256-abc", "616263", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ("sha256-message-digest", "6d65737361676520646967657374",
     "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650");
    ("sha256-alphabet", "6162636465666768696a6b6c6d6e6f707172737475767778797a",
     "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2daf18b73");
    ("sha256-448bit",
     "6162636462636465636465666465666765666768666768696768696a68696a6b696a6b6c6a6b6c6d6b6c6d6e6c6d6e6f6d6e6f706e6f7071",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    ("sha256-896bit",
     "61626364656667686263646566676869636465666768696a6465666768696a6b65666768696a6b6c666768696a6b6c6d6768696a6b6c6d6e68696a6b6c6d6e6f696a6b6c6d6e6f706a6b6c6d6e6f70716b6c6d6e6f7071726c6d6e6f707172736d6e6f70717273746e6f707172737475",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    ("sha256-bytes-0-255",
     "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
     "40aff2e9d2d8922e47afd4648e6967497158785fbd1da870e7110266bf944880");
    (* padding boundaries: 55, 56, 63, 64, 65 bytes of 'x' *)
    ("sha256-pad55", String.concat "" (List.init 55 (fun _ -> "78")),
     "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
    ("sha256-pad56", String.concat "" (List.init 56 (fun _ -> "78")),
     "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
    ("sha256-pad63", String.concat "" (List.init 63 (fun _ -> "78")),
     "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
    ("sha256-pad64", String.concat "" (List.init 64 (fun _ -> "78")),
     "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
    ("sha256-pad65", String.concat "" (List.init 65 (fun _ -> "78")),
     "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9");
  ]

let test_sha256 () =
  List.iter
    (fun (id, msg_hex, digest_hex) ->
      let msg = bytes_of_hex msg_hex in
      check_hex id digest_hex (Sha256.digest_bytes msg);
      check_hex (id ^ "/ref") digest_hex (Sha256_ref.digest_bytes msg))
    sha256_vectors

let test_sha256_million_a () =
  (* NIST long vector: 10^6 repetitions of 'a', exercised through the
     streaming API in uneven chunks *)
  let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" in
  let ctx = Sha256.init () in
  let chunk = Bytes.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.update ctx chunk;
    fed := !fed + 997
  done;
  Sha256.update ctx (Bytes.make (1_000_000 - !fed) 'a');
  check_hex "sha256-million-a" expect (Sha256.finalize ctx);
  check_hex "sha256-million-a/ref" expect
    (Sha256_ref.digest_bytes (Bytes.make 1_000_000 'a'))

(* --- HMAC-SHA256 (RFC 4231 cases 1-7) ----------------------------------- *)

let hmac_vectors =
  [
    ("hmac-rfc4231-1", "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "4869205468657265",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    ("hmac-rfc4231-2", "4a656665", "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    ("hmac-rfc4231-3", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
     "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd",
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    ("hmac-rfc4231-4", "0102030405060708090a0b0c0d0e0f10111213141516171819",
     "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    ("hmac-rfc4231-5", "0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c", "546573742057697468205472756e636174696f6e",
     "a3b6167473100ee06e0c796c2955552bfa6f7c0a6a8aef8b93f860aab0cd20c5");
    ("hmac-rfc4231-6",
     String.concat "" (List.init 131 (fun _ -> "aa")),
     "54657374205573696e67204c6172676572205468616e20426c6f636b2d53697a65204b6579202d2048617368204b6579204669727374",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    ("hmac-rfc4231-7",
     String.concat "" (List.init 131 (fun _ -> "aa")),
     "5468697320697320612074657374207573696e672061206c6172676572207468616e20626c6f636b2d73697a65206b657920616e642061206c6172676572207468616e20626c6f636b2d73697a6520646174612e20546865206b6579206e6565647320746f20626520686173686564206265666f7265206265696e6720757365642062792074686520484d414320616c676f726974686d2e",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  ]

let test_hmac () =
  List.iter
    (fun (id, key_hex, msg_hex, tag_hex) ->
      let tag = Hmac_sha256.mac ~key:(bytes_of_hex key_hex) (bytes_of_hex msg_hex) in
      check_hex id tag_hex tag)
    hmac_vectors

(* --- secp256k1 scalar multiples of G ------------------------------------ *)

(* (id, k, affine x, affine y), computed with an independent
   implementation *)
let kg_vectors =
  [
    ("kG-1", "0000000000000000000000000000000000000000000000000000000000000001",
     "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
     "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
    ("kG-2", "0000000000000000000000000000000000000000000000000000000000000002",
     "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
     "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
    ("kG-3", "0000000000000000000000000000000000000000000000000000000000000003",
     "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
     "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672");
    ("kG-7", "0000000000000000000000000000000000000000000000000000000000000007",
     "5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc",
     "6aebca40ba255960a3178d6d861a54dba813d0b813fde7b5a5082628087264da");
    ("kG-20", "0000000000000000000000000000000000000000000000000000000000000014",
     "4ce119c96e2fa357200b559b2f7dd5a5f02d5290aff74b03f3e471b273211c97",
     "12ba26dcb10ec1625da61fa10a844c676162948271d96967450288ee9233dc3a");
    ("kG-56bit", "000000000000000000000000000000000000000000000000018ebbb95eed0e13",
     "a90cc3d3f3e146daadfc74ca1372207cb4b725ae708cef713a98edd73d99ef29",
     "5a79d6b289610c68bc3b47f3d72f9788a26a06868b4d8e433e1e2ad76fb7dc76");
    ("kG-2^128", "0000000000000000000000000000000100000000000000000000000000000000",
     "8f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da",
     "662a9f2dba063986de1d90c2b6be215dbbea2cfe95510bfdf23cbf79501fff82");
    ("kG-2^255", "8000000000000000000000000000000000000000000000000000000000000000",
     "b23790a42be63e1b251ad6c94fdef07271ec0aada31db6c3e8bd32043f8be384",
     "fc6b694919d55edbe8d50f88aa81f94517f004f4149ecb58d10a473deb19880e");
    ("kG-n-1", "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
     "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
     "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777");
    ("kG-n-2", "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd036413f",
     "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
     "e51e970159c23cc65c3a7be6b99315110809cd9acd992f1edc9bce55af301705");
    ("kG-random", "aa5e28d6a97a2479a65527f7290311a3624d4cc0fa1578598ee3c2613bf99522",
     "34f9460f0e4f08393d192b3c5133a6ba099aa0ad9fd54ebccfacdfa239ff49c6",
     "0b71ea9bd730fd8923f6d25a7a91e7dd7728a960686cb5a901bb419e0f2ca232");
  ]

let test_kg () =
  List.iter
    (fun (id, k_hex, x_hex, y_hex) ->
      let k = Uint256.of_hex k_hex in
      (match Secp256k1.to_affine (Secp256k1.scalar_mul_base k) with
      | None -> Alcotest.failf "%s: got infinity" id
      | Some (x, y) ->
          Alcotest.(check string) (id ^ "/x") x_hex (Uint256.to_hex x);
          Alcotest.(check string) (id ^ "/y") y_hex (Uint256.to_hex y));
      match Secp256k1_ref.to_affine (Secp256k1_ref.scalar_mul k Secp256k1_ref.generator) with
      | None -> Alcotest.failf "%s/ref: got infinity" id
      | Some (x, y) ->
          Alcotest.(check string) (id ^ "/ref-x") x_hex (Uint256.to_hex x);
          Alcotest.(check string) (id ^ "/ref-y") y_hex (Uint256.to_hex y))
    kg_vectors;
  match Secp256k1.to_affine (Secp256k1.scalar_mul_base Secp256k1.n) with
  | None -> ()
  | Some _ -> Alcotest.fail "kG-n: n*G must be the point at infinity"

(* Nibble walls (16^i ± 1), a full nibble (15), the first carry (16),
   n − 1 and scalars at or above n (reduced first) must match the
   reference double-and-add; for the signed-digit comb, whose teeth sit
   8 bits apart, they are runs of equal digits and flips between them. *)
let test_kg_comb_walls () =
  let u = Uint256.of_hex in
  let pow16 i =
    let b = Bytes.make 32 '\x00' in
    Bytes.set b (31 - (i / 2)) (Char.chr (1 lsl (4 * (i mod 2))));
    Uint256.of_bytes_be b
  in
  let walls =
    List.concat_map
      (fun i ->
        let w = pow16 i in
        [ fst (Uint256.add w Uint256.one); fst (Uint256.sub w Uint256.one) ])
      (List.init 63 (fun i -> i + 1))
  in
  let n = Secp256k1.n in
  List.iter
    (fun k ->
      let id = "comb k=" ^ Uint256.to_hex k in
      let fast = Secp256k1.to_affine (Secp256k1.scalar_mul_base k) in
      let refp =
        Secp256k1_ref.to_affine
          (Secp256k1_ref.scalar_mul k Secp256k1_ref.generator)
      in
      match (fast, refp) with
      | None, None -> ()
      | Some (x1, y1), Some (x2, y2) ->
          Alcotest.(check string) (id ^ "/x") (Uint256.to_hex x2) (Uint256.to_hex x1);
          Alcotest.(check string) (id ^ "/y") (Uint256.to_hex y2) (Uint256.to_hex y1)
      | _ -> Alcotest.failf "%s: infinity on one side only" id)
    ([ Uint256.one; Uint256_ref.of_int 15; Uint256_ref.of_int 16;
       fst (Uint256.sub n Uint256.one); n; fst (Uint256.add n Uint256.one);
       fst (Uint256.add n (Uint256_ref.of_int 16));
       u (String.make 64 'f') ]
    @ walls)

(* --- field and scalar arithmetic vectors -------------------------------- *)

(* (a, b, a*b, a+b, a-b, a^-1) mod p *)
let fe_vectors =
  [
    ("fe-1",
     "23b8c1e9392456de3eb13b9046685257bdd640fb06671ad11c80317fa3b1799e",
     "972a846916419f828b9d2434e465e150bd9c66b3ad3c2d6d1a3d1fa7bc8960aa",
     "eb806bdbc8ed01ebdf4c8fb0499aa57e923fd6bc8cadceaf7922086d9f8810a9",
     "bae346524f65f660ca4e5fc52ace33a87b72a7aeb3a3483e36bd5127603ada48",
     "8c8e3d8022e2b75bb314175b620271070039da47592aed64024311d6e7281523",
     "fd4a85bcee337c9c7728bdb88c7ae94d14a1a1f015eb9138629e0ced9d71207b");
    ("fe-2",
     "9a1de644815ef6d13b8faa1837f8a88b17fc695a07a0ca6e0822e8f36c03119a",
     "6b65a6a48b8148f6b38a088ca65ed389b74d0fb132e706298fadc1a606cb0fb4",
     "8bfafcd4d08b351a94f6bc75067d9aecc69ab6b1de1e840638ffcf8a8ebdd955",
     "05838ce90ce03fc7ef19b2a4de577c14cf49790b3a87d09797d0aa9a72ce251f",
     "2eb83f9ff5ddadda8805a18b9199d50160af59a8d4b9c4447875274d653801e6",
     "8935ce894d2ff61de1999c53c737bab93159b09e05f8f9756990addb088093b1");
    ("fe-3",
     "c241330b01a9e71fde8a774bcf36d58b4737819096da1dac72ff5d2a386ecbe1",
     "371ecd7b27cd813047229389571aa8766c307511b2b9437a28df6ec4ce4a2bbe",
     "6ede59ccacf45b88e3b5281c04e5083bcdde3754fb4cff0e71f40fbbaa5bb167",
     "f96000862977685025ad0ad526517e01b367f6a2499361269bdecbef06b8f79f",
     "8b22658fd9dc65ef9767e3c2781c2d14db070c7ee420da324a1fee656a24a023",
     "8a6e9fe622cf2af7f14294c1f34bcc180947bff2686b471779c84561912af86b");
    ("fe-4",
     "5be6128e18c267976142ea7d17be31111a2a73ed562b0f79c37459eef50bea64",
     "759cde66bacfb3d00b1f9163ce9ff57f43b7a3a69a8dca03580d7b71d8f56414",
     "e998a34d6b902f25167d27ffa77abc36e38577121fea39f8c570f68c65f3de6e",
     "d182f0f4d3921b676c627be0e65e26905de21793f0b8d97d1b81d560ce014e78",
     "e64934275df2b3c756235919491e3b91d672d046bb9d45766b66de7c1c16827f",
     "2b35391b8018d1c2e0b0accae7d456e9e374b5d4ef0a952ea1f5556ef82f4497");
  ]

let test_fe () =
  List.iter
    (fun (id, a, b, prod, sum, diff, inv) ->
      let a = Uint256.of_hex a and b = Uint256.of_hex b in
      let chk tag expect got =
        Alcotest.(check string) (id ^ tag) expect (Uint256.to_hex got)
      in
      chk "/mul" prod (Secp256k1.fe_mul a b);
      chk "/add" sum (Secp256k1.fe_add a b);
      chk "/sub" diff (Secp256k1.fe_sub a b);
      chk "/inv" inv (Secp256k1.fe_inv a);
      chk "/sqr-mulself" (Uint256.to_hex (Secp256k1.fe_mul a a)) (Secp256k1.fe_sqr a);
      chk "/ref-mul" prod (Secp256k1_ref.fe_mul a b);
      chk "/ref-inv" inv (Secp256k1_ref.fe_inv a))
    fe_vectors;
  (* boundary products around p *)
  let pm1 = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e" in
  let one = "0000000000000000000000000000000000000000000000000000000000000001" in
  List.iter
    (fun (id, a, b, expect) ->
      Alcotest.(check string) id expect
        (Uint256.to_hex (Secp256k1.fe_mul (Uint256.of_hex a) (Uint256.of_hex b))))
    [
      ("feb-(p-1)^2", pm1, pm1, one);
      ("feb-(p-1)*1", pm1, one, pm1);
    ]

let test_scalar () =
  let n1 = "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140" in
  let chk id a b expect =
    Alcotest.(check string) id expect
      (Uint256.to_hex (Secp256k1.Scalar.mul (Uint256.of_hex a) (Uint256.of_hex b)))
  in
  chk "sn-(n-1)^2" n1 n1
    "0000000000000000000000000000000000000000000000000000000000000001";
  chk "sn-tn" "000000000000000000000000000000014551231950b75fc4402da1732fc9bebf"
    "000000000000000000000000000000014551231950b75fc4402da1732fc9bebe"
    "9d671cd581c69bc5e697f5e45bcd07c52ec373a8bdc598b4493f50a1380e1281"

(* --- ECDSA edge cases (Wycheproof style) -------------------------------- *)

let u256 = Uint256.of_hex
let gx_hex = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

(* d = 1, k = 1, message "vector": r = x(G) and s = z + r mod n, verified
   against an independent implementation *)
let k1_sig () =
  Ecdsa_ref.signature ~r:(u256 gx_hex)
    ~s:(u256 "2a9382d7c2967da0ae9b41ac965a806b56e23d995e0719f62dd07eddebaf621d")

let pub_of_d1 () =
  match Ecdsa.public_key_of_bytes (bytes_of_hex (gx_hex ^ "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")) with
  | Some q -> q
  | None -> Alcotest.fail "generator must parse as a public key"

let both_reject id q digest signature =
  Alcotest.(check bool) (id ^ "/fast") false (Ecdsa.verify q digest signature);
  Alcotest.(check bool) (id ^ "/ref") false (Ecdsa_ref.verify q digest signature)

let test_ecdsa_k1 () =
  let q = pub_of_d1 () in
  let digest = Hash.digest_string "vector" in
  let signature = k1_sig () in
  Alcotest.(check bool) "ecdsa-k1/fast" true (Ecdsa.verify q digest signature);
  Alcotest.(check bool) "ecdsa-k1/ref" true (Ecdsa_ref.verify q digest signature)

let test_ecdsa_degenerate () =
  let q = pub_of_d1 () in
  let digest = Hash.digest_string "vector" in
  let k1 = k1_sig () in
  let r = Ecdsa_ref.sig_r k1 and s = Ecdsa_ref.sig_s k1 in
  let n = Secp256k1.n in
  let sg r s = Ecdsa_ref.signature ~r ~s in
  both_reject "ecdsa-r0" q digest (sg Uint256.zero s);
  both_reject "ecdsa-s0" q digest (sg r Uint256.zero);
  both_reject "ecdsa-r=n" q digest (sg n s);
  both_reject "ecdsa-s=n" q digest (sg r n);
  both_reject "ecdsa-r0s0" q digest (sg Uint256.zero Uint256.zero);
  (* r > n aliasing: a value that reduces to a small r mod n must be
     rejected by the range check, not silently reduced and accepted *)
  let r_alias = fst (Uint256.add n Uint256.one) in
  both_reject "ecdsa-r-gt-n" q digest (sg r_alias s)

let test_ecdsa_malleability () =
  (* (r, n - s) verifies too: this implementation does not enforce
     low-s, and fast and reference must agree on accepting it *)
  let q = pub_of_d1 () in
  let digest = Hash.digest_string "vector" in
  let k1 = k1_sig () in
  let s' = fst (Uint256.sub Secp256k1.n (Ecdsa_ref.sig_s k1)) in
  let high_s = Ecdsa_ref.signature ~r:(Ecdsa_ref.sig_r k1) ~s:s' in
  Alcotest.(check bool) "ecdsa-highs/fast" true
    (Ecdsa.verify q digest high_s);
  Alcotest.(check bool) "ecdsa-highs/ref" true
    (Ecdsa_ref.verify q digest high_s)

let test_ecdsa_infinity_pubkey () =
  (* n*G is the point at infinity; verification must fail closed *)
  let q_inf = Secp256k1.scalar_mul_base Secp256k1.n in
  Alcotest.(check bool) "infinity pubkey is infinity" true
    (Secp256k1.is_infinity q_inf);
  let digest = Hash.digest_string "vector" in
  let key = Ecdsa.public_key_of_point q_inf in
  both_reject "ecdsa-inf-pubkey" key digest (k1_sig ());
  Alcotest.(check (array bool)) "ecdsa-inf-pubkey/many" [| false; false |]
    (Ecdsa.verify_many key [| (digest, k1_sig ()); (digest, k1_sig ()) |]);
  Alcotest.check_raises "ecdsa-inf-pubkey/encode"
    (Invalid_argument "Ecdsa.public_key_to_bytes: infinity") (fun () ->
      ignore (Ecdsa.public_key_to_bytes key))

let test_pubkey_encodings () =
  let zeros n = String.concat "" (List.init n (fun _ -> "00")) in
  let cases =
    [
      ("pubkey-off-curve", zeros 31 ^ "01" ^ zeros 31 ^ "02");
      (* x = p: non-canonical field encoding *)
      ("pubkey-x-eq-p",
       "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"
       ^ "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
      (* y = p: non-canonical field encoding of y *)
      ("pubkey-y-eq-p",
       gx_hex
       ^ "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
      ("pubkey-zero-point", zeros 64);
    ]
  in
  List.iter
    (fun (id, hex) ->
      match Ecdsa.public_key_of_bytes (bytes_of_hex hex) with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: must be rejected" id)
    cases;
  (* truncated / oversized *)
  List.iter
    (fun len ->
      match Ecdsa.public_key_of_bytes (Bytes.make len '\x01') with
      | None -> ()
      | Some _ -> Alcotest.failf "pubkey-len-%d: must be rejected" len)
    [ 0; 32; 63; 65; 128 ]

let test_signature_encodings () =
  List.iter
    (fun len ->
      match Ecdsa.signature_of_bytes (Bytes.make len '\x01') with
      | None -> ()
      | Some _ -> Alcotest.failf "sig-len-%d: must be rejected" len)
    [ 0; 32; 63; 65; 128 ]

let test_hash_lengths () =
  (* truncated / oversized digests must be rejected at the Hash boundary *)
  List.iter
    (fun len ->
      Alcotest.check_raises
        (Printf.sprintf "hash-len-%d" len)
        (Invalid_argument "Hash.of_bytes: need 32 bytes")
        (fun () -> ignore (Hash.of_bytes (Bytes.make len '\xab'))))
    [ 0; 31; 33; 64 ]

let () =
  Alcotest.run "crypto-vectors"
    [
      ( "sha256",
        [
          Alcotest.test_case "known answers (fast + ref)" `Quick test_sha256;
          Alcotest.test_case "million 'a' streaming" `Quick test_sha256_million_a;
        ] );
      ("hmac", [ Alcotest.test_case "rfc4231 cases 1-7" `Quick test_hmac ]);
      ( "secp256k1",
        [
          Alcotest.test_case "scalar multiples of G" `Quick test_kg;
          Alcotest.test_case "field arithmetic vectors" `Quick test_fe;
          Alcotest.test_case "scalar arithmetic vectors" `Quick test_scalar;
          Alcotest.test_case "comb window walls = reference" `Quick
            test_kg_comb_walls;
        ] );
      ( "ecdsa-edge",
        [
          Alcotest.test_case "k=1 signature verifies" `Quick test_ecdsa_k1;
          Alcotest.test_case "degenerate r/s fail closed" `Quick test_ecdsa_degenerate;
          Alcotest.test_case "high-s malleability agreement" `Quick test_ecdsa_malleability;
          Alcotest.test_case "infinity public key fails closed" `Quick
            test_ecdsa_infinity_pubkey;
          Alcotest.test_case "public key encodings fail closed" `Quick
            test_pubkey_encodings;
          Alcotest.test_case "signature encodings fail closed" `Quick
            test_signature_encodings;
          Alcotest.test_case "hash length policing" `Quick test_hash_lengths;
        ] );
    ]
