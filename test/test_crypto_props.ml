(* Differential and algebraic property gates for the fast crypto kernel.

   Every optimisation in lib/crypto (the C field and group law on 52-bit
   limbs, wNAF/GLV ladders, divsteps inversion, unrolled SHA-256
   compression) must be
   observationally identical to the retained reference implementations
   (Secp256k1_ref, Ecdsa_ref, Sha256_ref and Sha3_ref, in the test-only
   crypto_ref library).  These suites pin that down three ways:

   - differential qcheck gates: fast ≡ reference on random AND structured
     inputs, for field/scalar ops, scalar multiplication, sign/verify,
     and (crucially) *rejection agreement* under bit-flips;
   - algebraic laws the limb representations must satisfy (ring
     identities, reduction idempotence at the boundary values where limb
     folds historically break);
   - an end-to-end gate: a sealed ledger's journals and receipts carry
     signatures byte-identical to what the reference pipeline produces,
     so the kernel swap cannot have changed any persisted encoding. *)

open Ledger_crypto
module Uint256 = Uint256_ref
open Ledger_storage
open Ledger_core

let check = Alcotest.check
let tc = Alcotest.test_case
let qcheck = QCheck_alcotest.to_alcotest

let u256 = Alcotest.testable (fun fmt v -> Format.fprintf fmt "%s" (Uint256.to_hex v)) Uint256.equal

let p = Secp256k1.p
let n = Secp256k1.n

(* --- generators ---------------------------------------------------------- *)

let all_ones = Uint256.of_hex (String.make 64 'f')

let arb_u256 =
  QCheck.map
    ~rev:(fun v ->
      let b = Uint256.to_bytes_be v in
      let g off = Bytes.get_int64_be b off in
      (g 0, g 8, g 16, g 24))
    (fun (a, b, c, d) ->
      let buf = Bytes.create 32 in
      Bytes.set_int64_be buf 0 a;
      Bytes.set_int64_be buf 8 b;
      Bytes.set_int64_be buf 16 c;
      Bytes.set_int64_be buf 24 d;
      Uint256.of_bytes_be buf)
    (QCheck.quad QCheck.int64 QCheck.int64 QCheck.int64 QCheck.int64)

(* The boundary scalars where windowed recoding and limb folds break if
   anything is off by one: 0, 1, n±1, n, p, and 2^k ± 1 walls. *)
let structured_scalars =
  let open Uint256 in
  let pow2 k =
    let b = Bytes.make 32 '\x00' in
    Bytes.set b (31 - (k / 8)) (Char.chr (1 lsl (k mod 8)));
    of_bytes_be b
  in
  let walls =
    List.concat_map
      (fun k ->
        let w = pow2 k in
        [ w; fst (add w one); fst (sub w one) ])
      [ 1; 26; 52; 64; 128; 129; 192; 255 ]
  in
  [
    zero; one;
    fst (sub n one); n; fst (add n one);
    fst (sub p one); p;
    all_ones;
  ]
  @ walls

let affine_of_fast pt = Secp256k1.to_affine pt
let affine_of_ref pt = Secp256k1_ref.to_affine pt

let check_same_point name fast ref_pt =
  match (affine_of_fast fast, affine_of_ref ref_pt) with
  | None, None -> ()
  | Some (x1, y1), Some (x2, y2) ->
      check u256 (name ^ " x") x2 x1;
      check u256 (name ^ " y") y2 y1
  | Some _, None -> Alcotest.failf "%s: fast finite, ref infinity" name
  | None, Some _ -> Alcotest.failf "%s: fast infinity, ref finite" name

(* --- differential: field and scalar ops ---------------------------------- *)

let prop_fe_ops_differential =
  QCheck.Test.make ~name:"fe ops: fast = ref (random)" ~count:300
    (QCheck.pair arb_u256 arb_u256) (fun (a0, b0) ->
      let a = snd (Uint256_ref.div_mod a0 p) and b = snd (Uint256_ref.div_mod b0 p) in
      let open Secp256k1 in
      Uint256.equal (fe_add a b) (Secp256k1_ref.fe_add a b)
      && Uint256.equal (fe_sub a b) (Secp256k1_ref.fe_sub a b)
      && Uint256.equal (fe_mul a b) (Secp256k1_ref.fe_mul a b)
      && Uint256.equal (fe_sqr a) (Secp256k1_ref.fe_sqr a)
      && (Uint256.is_zero a
         || Uint256.equal (fe_inv a) (Secp256k1_ref.fe_inv a)))

let test_fe_ops_structured () =
  let open Secp256k1 in
  List.iter
    (fun a0 ->
      let a = snd (Uint256_ref.div_mod a0 p) in
      List.iter
        (fun b0 ->
          let b = snd (Uint256_ref.div_mod b0 p) in
          check u256 "mul" (Secp256k1_ref.fe_mul a b) (fe_mul a b);
          check u256 "add" (Secp256k1_ref.fe_add a b) (fe_add a b);
          check u256 "sub" (Secp256k1_ref.fe_sub a b) (fe_sub a b))
        structured_scalars;
      check u256 "sqr" (Secp256k1_ref.fe_sqr a) (fe_sqr a);
      if not (Uint256.is_zero a) then
        check u256 "inv" (Secp256k1_ref.fe_inv a) (fe_inv a))
    structured_scalars

let prop_scalar_ops_differential =
  QCheck.Test.make ~name:"scalar ops: fast = long-division" ~count:300
    (QCheck.pair arb_u256 arb_u256) (fun (a0, b0) ->
      let a = snd (Uint256_ref.div_mod a0 n) and b = snd (Uint256_ref.div_mod b0 n) in
      let open Secp256k1.Scalar in
      Uint256.equal (mul a b) (Uint256_ref.mul_mod a b n)
      && Uint256.equal (add a b) (Uint256.add_mod a b n)
      && (Uint256.is_zero a || Uint256.equal (inv a) (Uint256.inv_mod a n)))

(* --- differential: scalar multiplication --------------------------------- *)

let prop_scalar_mul_differential =
  QCheck.Test.make ~name:"kG: wNAF/GLV = double-and-add" ~count:40 arb_u256
    (fun k ->
      let fast = Secp256k1.scalar_mul_base k in
      let fast2 = Secp256k1.scalar_mul k Secp256k1.generator in
      let refp = Secp256k1_ref.scalar_mul k Secp256k1_ref.generator in
      check_same_point "kG base" fast refp;
      check_same_point "kG generic" fast2 refp;
      true)

let test_scalar_mul_structured () =
  List.iter
    (fun k ->
      check_same_point
        ("k=" ^ Uint256.to_hex k)
        (Secp256k1.scalar_mul_base k)
        (Secp256k1_ref.scalar_mul k Secp256k1_ref.generator))
    structured_scalars

let prop_double_scalar_mul_differential =
  QCheck.Test.make ~name:"aG+bQ: Shamir/GLV = naive" ~count:25
    (QCheck.triple arb_u256 arb_u256 arb_u256) (fun (a, b, d) ->
      QCheck.assume (not (Uint256.is_zero (Secp256k1.Scalar.reduce d)));
      let q = Secp256k1.scalar_mul_base d in
      let qx, qy =
        match Secp256k1.to_affine q with
        | Some xy -> xy
        | None -> QCheck.assume_fail ()
      in
      let q_ref = Secp256k1_ref.of_affine qx qy in
      let fast =
        Secp256k1.double_scalar_mul_base a b (Secp256k1.precompute q)
      in
      let refp =
        Secp256k1_ref.double_scalar_mul a Secp256k1_ref.generator b q_ref
      in
      check_same_point "aG+bQ" fast refp;
      true)

(* --- differential: SHA-256 and HMAC -------------------------------------- *)

let prop_sha256_differential =
  QCheck.Test.make ~name:"sha256: unrolled = ref" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun msg ->
      Bytes.equal
        (Sha256.digest_string msg)
        (Sha256_ref.digest_string msg))

(* --- differential: SHA3-256 ----------------------------------------------- *)

let prop_sha3_differential =
  QCheck.Test.make ~name:"sha3: unboxed lanes = ref" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 600))
    (fun msg ->
      Bytes.equal (Sha3.digest_string msg) (Sha3_ref.digest_string msg))

(* Every length around the first and second 136-byte rate boundary, where
   the in-place padding shares a block with the message tail, fills it
   exactly, or spills into a block of its own. *)
let test_sha3_rate_boundaries () =
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xff)) in
      check Alcotest.string
        (Printf.sprintf "length %d" len)
        (Hash.to_hex (Hash.of_bytes (Sha3_ref.digest_string msg)))
        (Hash.to_hex (Hash.of_bytes (Sha3.digest_string msg))))
    (List.init 11 (( + ) 130) @ List.init 9 (( + ) 268))

(* --- differential: ECDSA sign/verify ------------------------------------- *)

let prop_sign_byte_identical =
  QCheck.Test.make ~name:"sign: fast = ref, bit for bit" ~count:15
    (QCheck.pair QCheck.small_string QCheck.small_string) (fun (seed, msg) ->
      let priv, pub = Ecdsa.generate ~seed in
      let digest = Hash.digest_string msg in
      let s_fast = Ecdsa.sign priv digest in
      let s_ref = Ecdsa_ref.sign priv digest in
      Bytes.equal
        (Ecdsa.signature_to_bytes s_fast)
        (Ecdsa.signature_to_bytes s_ref)
      && Ecdsa.verify pub digest s_fast
      && Ecdsa_ref.verify pub digest s_fast)

let prop_bitflip_rejection_agreement =
  (* Flip one bit of signature, message digest, or public key: both
     verifiers must return the same (almost surely false) verdict.  A
     disagreement would mean the fast path accepts something the
     reference rejects — exactly the bug class this gate exists for. *)
  QCheck.Test.make ~name:"bit flips: fast and ref verdicts agree" ~count:15
    (QCheck.triple QCheck.small_string (QCheck.int_range 0 511)
       (QCheck.int_range 0 2)) (fun (seed, bit, target) ->
      let priv, pub = Ecdsa.generate ~seed in
      let digest = Hash.digest_string ("msg:" ^ seed) in
      let s = Ecdsa.sign priv digest in
      let flip b i =
        let b = Bytes.copy b in
        let i = i mod (Bytes.length b * 8) in
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
        b
      in
      let pub', digest', s' =
        match target with
        | 0 ->
            (* signature bytes *)
            let s' =
              match
                Ecdsa.signature_of_bytes (flip (Ecdsa.signature_to_bytes s) bit)
              with
              | Some s' -> s'
              | None -> s
            in
            (pub, digest, s')
        | 1 -> (pub, Hash.of_bytes (flip (Hash.to_bytes digest) bit), s)
        | _ -> (
            match
              Ecdsa.public_key_of_bytes (flip (Ecdsa.public_key_to_bytes pub) bit)
            with
            | Some pub' -> (pub', digest, s)
            | None -> (pub, digest, s) (* off-curve: both reject at parse *))
      in
      Bool.equal
        (Ecdsa.verify pub' digest' s')
        (Ecdsa_ref.verify pub' digest' s'))

(* --- batched sign/verify ---------------------------------------------- *)

let sig_bytes s = Bytes.to_string (Ecdsa.signature_to_bytes s)

(* sign_many shares its inversions across the batch; every signature
   must still be the one sign would produce alone. *)
let test_sign_many_identical () =
  let priv, _ = Ecdsa.generate ~seed:"sign-many" in
  let digest i = Hash.digest_string ("sign-many:" ^ string_of_int i) in
  let d0 = digest 0 in
  List.iter
    (fun (label, ds) ->
      check
        Alcotest.(array string)
        label
        (Array.map (fun d -> sig_bytes (Ecdsa.sign priv d)) ds)
        (Array.map sig_bytes (Ecdsa.sign_many priv ds)))
    [
      ("empty", [||]);
      ("singleton", [| d0 |]);
      ("duplicate digests", [| d0; digest 1; d0; d0 |]);
      ("257 entries", Array.init 257 digest);
    ]

(* A key whose signature (r, s) has x(R) = r + n: R is a point with
   x >= n, and Q = r^-1 (s·R - z·G) makes (r, s) valid for digest z.
   Only the verifier's r + n branch can accept it. *)
let r_plus_n_case () =
  let exp a e =
    let acc = ref Uint256.one in
    for i = Uint256_ref.num_bits e - 1 downto 0 do
      acc := Secp256k1.fe_sqr !acc;
      if Uint256_ref.bit e i then acc := Secp256k1.fe_mul !acc a
    done;
    !acc
  in
  let sqrt_exp =
    (* (p + 1) / 4 *)
    Uint256.of_hex
      "3fffffffffffffffffffffffffffffffffffffffffffffffffffffffbfffff0c"
  in
  let rec find t =
    let x = fst (Uint256.add n (Uint256_ref.of_int t)) in
    let rhs =
      Secp256k1.fe_add
        (Secp256k1.fe_mul (Secp256k1.fe_sqr x) x)
        (Uint256_ref.of_int 7)
    in
    let y = exp rhs sqrt_exp in
    if Uint256.equal (Secp256k1.fe_sqr y) rhs then (x, y) else find (t + 1)
  in
  let rx, ry = find 1 in
  let r = fst (Uint256.sub rx n) in
  let digest = Hash.digest_string "r + n candidate" in
  let z = Secp256k1.Scalar.reduce (Uint256.of_bytes_be (Hash.to_bytes digest)) in
  let s = Uint256_ref.of_int 0x1234567 in
  let big_r = Secp256k1.of_affine rx ry in
  let q =
    Secp256k1.scalar_mul (Secp256k1.Scalar.inv r)
      (Secp256k1.add (Secp256k1.scalar_mul s big_r)
         (Secp256k1.negate (Secp256k1.scalar_mul_base z)))
  in
  (Ecdsa.public_key_of_point q, digest, Ecdsa_ref.signature ~r ~s)

(* verify_many must give, item by item, the verdicts of verify and of
   the reference verifier — across the range checks, tampering and the
   r + n comparison. *)
let test_verify_many_agrees () =
  let priv, pub = Ecdsa.generate ~seed:"verify-many" in
  let _, other = Ecdsa.generate ~seed:"verify-many-other" in
  let digest i = Hash.digest_string ("verify-many:" ^ string_of_int i) in
  let signed i = (digest i, Ecdsa.sign priv (digest i)) in
  let flip v =
    let b = Uint256.to_bytes_be v in
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lxor 1));
    Uint256.of_bytes_be b
  in
  let tamper f i =
    let d, sg = signed i in
    (d, f sg)
  in
  let items =
    [|
      signed 0;
      tamper (fun sg -> Ecdsa_ref.signature ~r:(flip (Ecdsa_ref.sig_r sg)) ~s:(Ecdsa_ref.sig_s sg)) 1;
      signed 2;
      tamper (fun sg -> Ecdsa_ref.signature ~r:(Ecdsa_ref.sig_r sg) ~s:(flip (Ecdsa_ref.sig_s sg))) 3;
      tamper (fun sg -> Ecdsa_ref.signature ~r:Uint256.zero ~s:(Ecdsa_ref.sig_s sg)) 4;
      tamper (fun sg -> Ecdsa_ref.signature ~r:(Ecdsa_ref.sig_r sg) ~s:Uint256.zero) 5;
      tamper (fun sg -> Ecdsa_ref.signature ~r:n ~s:(Ecdsa_ref.sig_s sg)) 6;
      tamper (fun sg -> Ecdsa_ref.signature ~r:(Ecdsa_ref.sig_r sg) ~s:n) 7;
      (digest 9, snd (signed 8));
      signed 10;
    |]
  in
  let expect =
    [| true; false; true; false; false; false; false; false; false; true |]
  in
  let against key items expect label =
    check Alcotest.(array bool) (label ^ ": verify_many") expect
      (Ecdsa.verify_many key items);
    check Alcotest.(array bool) (label ^ ": verify") expect
      (Array.map (fun (d, sg) -> Ecdsa.verify key d sg) items);
    check Alcotest.(array bool) (label ^ ": Ref.verify") expect
      (Array.map (fun (d, sg) -> Ecdsa_ref.verify key d sg) items)
  in
  against pub items expect "mixed batch";
  against other items (Array.map (fun _ -> false) items) "wrong key";
  check Alcotest.(array bool) "empty" [||] (Ecdsa.verify_many pub [||]);
  let key, d, sg = r_plus_n_case () in
  let r_off = Ecdsa_ref.signature ~r:(flip (Ecdsa_ref.sig_r sg)) ~s:(Ecdsa_ref.sig_s sg) in
  against key [| (d, sg); (d, r_off) |] [| true; false |] "r + n candidate"

(* A key's table is shared, never rebuilt: four domains verifying with
   one key at once must all get every verdict right. *)
let test_key_shared_across_domains () =
  let priv, pub = Ecdsa.generate ~seed:"shared-key" in
  let items =
    Array.init 12 (fun i ->
        let d = Hash.digest_string ("shared:" ^ string_of_int i) in
        let sg = Ecdsa.sign priv d in
        if i mod 3 = 2 then (Hash.digest_string "other", sg) else (d, sg))
  in
  let expect = Array.mapi (fun i _ -> i mod 3 <> 2) items in
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            List.init 5 (fun round ->
                if (w + round) mod 2 = 0 then Ecdsa.verify_many pub items
                else Array.map (fun (d, sg) -> Ecdsa.verify pub d sg) items)))
  in
  List.iter
    (fun dom ->
      List.iter
        (check Alcotest.(array bool) "verdicts from a shared key" expect)
        (Domain.join dom))
    workers

(* The kernel under concurrency: four domains at once, each with its
   own key and 256 digests (every fifth tampered before verifying), run
   sign_many, verify_many and generate for 5 rounds.  Every result must
   equal, byte for byte, what the same calls gave sequentially before
   any domain was spawned.  Scratch storage shared between calls on
   different domains would corrupt a ladder mid-flight here. *)
let test_kernel_stress_across_domains () =
  let domains = 4 and rounds = 5 and items = 256 in
  let job w =
    let priv, pub = Ecdsa.generate ~seed:(Printf.sprintf "stress-%d" w) in
    let digests =
      Array.init items (fun i ->
          Hash.digest_string (Printf.sprintf "stress:%d:%d" w i))
    in
    fun round ->
      let sigs = Ecdsa.sign_many priv digests in
      let claims =
        Array.mapi
          (fun i d ->
            if i mod 5 = 4 then (Hash.digest_string "tampered", sigs.(i))
            else (d, sigs.(i)))
          digests
      in
      let _, key =
        Ecdsa.generate ~seed:(Printf.sprintf "stress-gen-%d-%d" w round)
      in
      ( Array.map sig_bytes sigs,
        Ecdsa.verify_many pub claims,
        Bytes.to_string (Ecdsa.public_key_to_bytes key) )
  in
  let jobs = Array.init domains job in
  let expect =
    Array.map (fun job -> Array.init rounds (fun round -> job round)) jobs
  in
  Array.iter
    (fun per_round ->
      let _, verdicts, _ = per_round.(0) in
      check Alcotest.(array bool) "sequential verdicts"
        (Array.init items (fun i -> i mod 5 <> 4))
        verdicts)
    expect;
  let workers =
    Array.map
      (fun job -> Domain.spawn (fun () -> List.init rounds job))
      jobs
  in
  Array.iteri
    (fun w dom ->
      List.iteri
        (fun round (sigs, verdicts, key) ->
          let e_sigs, e_verdicts, e_key = expect.(w).(round) in
          let label what = Printf.sprintf "domain %d round %d: %s" w round what in
          check Alcotest.(array string) (label "signatures") e_sigs sigs;
          check Alcotest.(array bool) (label "verdicts") e_verdicts verdicts;
          check Alcotest.string (label "generated key") e_key key)
        (Domain.join dom))
    workers

(* Minor-heap words per item of sign_many and verify_many over 256
   items, and over the 32-item chunks the domain pool runs, on one
   domain.  With a fixed key and digests the count repeats exactly, so
   this gate does not depend on timing.  When every field operation
   returned a fresh array these were 17 135 words per sign and 53 696
   per verify; with per-call field scratch, 1 423 and 2 327 (1 472 and
   2 369 at 32 items), most of it scalar arithmetic on fresh [Uint256]
   arrays.  With scalars in place too, and the nonces' HMAC key state
   built once per call, they are 112 and 46 (137 and 65 at 32 items).
   The bounds are those figures plus about 50 %. *)
let test_allocation_bound () =
  let within label words bound =
    if words > bound then
      Alcotest.failf "%s: %.0f minor words per item, bound %.0f" label words
        bound
  in
  List.iter
    (fun (n, sign_bound, verify_bound) ->
      let sign_words, verify_words, verified =
        Ecdsa_ref.minor_words_per_item ~seed:"alloc-bound" n
      in
      check Alcotest.bool "every signature verifies" true verified;
      within (Printf.sprintf "sign_many of %d" n) sign_words sign_bound;
      within (Printf.sprintf "verify_many of %d" n) verify_words verify_bound)
    [ (256, 170., 70.); (32, 205., 90.) ]

(* Minor-heap words of key generation and of the fixed tables.  A key
   computes k·G and builds its table on one accumulator, writing every
   multiple into a flat buffer: 533 words a key, against 3 333 when each
   multiple, addition and inversion returned fresh points and arrays.
   The fixed tables (the comb and G's table) were most of the 188 582
   minor words a program linking the crypto library had allocated when
   its main code started; written the same way they take 821, and that
   count is 4 104.  The
   bounds are those figures plus about 50 %.  With the C field a key
   takes 566 (its table is now small enough for the minor heap, but its
   Jacobian build buffer is the domain's points buffer) and the tables
   421. *)
let test_key_and_table_allocation_bound () =
  ignore (Ecdsa.generate ~seed:"alloc-key-warm");
  let keys = 16 in
  let before = Gc.minor_words () in
  for i = 1 to keys do
    ignore (Sys.opaque_identity (Ecdsa.generate ~seed:(Printf.sprintf "alloc-key-%d" i)))
  done;
  let per_key = (Gc.minor_words () -. before) /. float_of_int keys in
  if per_key > 800. then
    Alcotest.failf "Ecdsa.generate: %.0f minor words per key, bound 800" per_key;
  let tables = Secp256k1.table_build_words () in
  if tables > 1_200. then
    Alcotest.failf "fixed tables: %.0f minor words to build, bound 1 200" tables

(* Minor-heap words of one [Hash.scatter] of a 13-byte clue.  Keccak-f
   over an [int64 array] state boxed every lane store: 6 620 words.  On
   unboxed lanes only the 200-byte state and the 32-byte digest are
   allocated, 33 words. *)
let test_scatter_allocation_bound () =
  let clue = "acct/00001234" in
  ignore (Hash.scatter clue);
  let before = Gc.minor_words () in
  let h = Hash.scatter clue in
  let words = Gc.minor_words () -. before in
  check Alcotest.string "digest"
    (Hash.to_hex (Hash.of_bytes (Sha3_ref.digest_string clue)))
    (Hash.to_hex h);
  if words > 64. then
    Alcotest.failf "Hash.scatter: %.0f minor words, bound 64" words

(* --- algebraic laws: Uint256 / field / scalar rings ---------------------- *)

let ring_props modulus tag =
  let ( +% ) a b = Uint256.add_mod a b modulus in
  let ( *% ) a b = Uint256_ref.mul_mod a b modulus in
  QCheck.Test.make
    ~name:(Printf.sprintf "ring laws mod %s" tag)
    ~count:200
    (QCheck.triple arb_u256 arb_u256 arb_u256) (fun (a, b, c) ->
      let a = snd (Uint256_ref.div_mod a modulus)
      and b = snd (Uint256_ref.div_mod b modulus)
      and c = snd (Uint256_ref.div_mod c modulus) in
      Uint256.equal (a +% b) (b +% a)
      && Uint256.equal (a *% b) (b *% a)
      && Uint256.equal ((a +% b) +% c) (a +% (b +% c))
      && Uint256.equal ((a *% b) *% c) (a *% (b *% c))
      && Uint256.equal (a *% (b +% c)) ((a *% b) +% (a *% c)))

let fe_ring_props =
  (* same laws, but through the 26-bit-limb fast field *)
  let open Secp256k1 in
  QCheck.Test.make ~name:"ring laws, fast field layer" ~count:200
    (QCheck.triple arb_u256 arb_u256 arb_u256) (fun (a, b, c) ->
      let a = snd (Uint256_ref.div_mod a p)
      and b = snd (Uint256_ref.div_mod b p)
      and c = snd (Uint256_ref.div_mod c p) in
      Uint256.equal (fe_mul a b) (fe_mul b a)
      && Uint256.equal (fe_mul (fe_mul a b) c) (fe_mul a (fe_mul b c))
      && Uint256.equal (fe_mul a (fe_add b c)) (fe_add (fe_mul a b) (fe_mul a c))
      && Uint256.equal (fe_sqr a) (fe_mul a a)
      && Uint256.equal (fe_add (fe_sub a b) b) a)

let test_reduction_idempotence () =
  (* Values straddling p (and n): a single reduction must land in
     canonical range and a second reduction must be the identity. *)
  let open Uint256_ref in
  let boundary_values m =
    [ fst (sub m one); m; fst (add m one); all_ones ]
  in
  List.iter
    (fun v ->
      let r = Secp256k1.Scalar.reduce v in
      check u256 "scalar reduce = div_mod" (snd (div_mod v n)) r;
      check u256 "scalar reduce idempotent" r (Secp256k1.Scalar.reduce r))
    (boundary_values n);
  List.iter
    (fun v ->
      (* push the value through the fast field via a multiplicative
         identity: the result must be the canonical residue *)
      let r = Secp256k1.fe_mul v one in
      check u256 "fe canonicalises" (snd (div_mod v p)) r;
      check u256 "fe idempotent" r (Secp256k1.fe_mul r one))
    (boundary_values p)

let prop_inv_correct =
  QCheck.Test.make ~name:"x * inv(x) = 1 (field and scalar)" ~count:100
    arb_u256 (fun x0 ->
      let xp = snd (Uint256_ref.div_mod x0 p) in
      let xn = snd (Uint256_ref.div_mod x0 n) in
      QCheck.assume (not (Uint256.is_zero xp));
      QCheck.assume (not (Uint256.is_zero xn));
      Uint256.equal Uint256.one (Secp256k1.fe_mul xp (Secp256k1.fe_inv xp))
      && Uint256.equal Uint256.one
           (Secp256k1.Scalar.mul xn (Secp256k1.Scalar.inv xn)))

let test_inv_batch () =
  let xs =
    Array.of_list
      (List.filter
         (fun v -> not (Uint256.is_zero (snd (Uint256_ref.div_mod v p))))
         structured_scalars)
  in
  let xs = Array.map (fun v -> snd (Uint256_ref.div_mod v p)) xs in
  let invs = Secp256k1.fe_inv_batch xs in
  Array.iteri
    (fun i x ->
      check u256 "batch inv element" (Secp256k1.fe_inv x) invs.(i);
      check u256 "batch inv product" Uint256.one (Secp256k1.fe_mul x invs.(i)))
    xs

let prop_bytes_hex_roundtrip =
  QCheck.Test.make ~name:"u256 bytes/hex round-trips" ~count:300 arb_u256
    (fun v ->
      Uint256.equal v (Uint256.of_bytes_be (Uint256.to_bytes_be v))
      && Uint256.equal v (Uint256.of_hex (Uint256.to_hex v)))

(* --- end-to-end: sealed ledger is byte-stable under the kernel swap ------ *)

let test_sealed_ledger_byte_identity () =
  (* Run a real (non-simulated) ledger end to end, then re-derive every
     persisted signature through the *reference* pipeline.  Deterministic
     nonces make signing a pure function, so fast-kernel and
     reference-kernel ledgers are byte-identical iff every signature
     matches bit for bit — which also pins every encoded journal,
     receipt, and block hash. *)
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with
      name = "kernel-swap-gate";
      block_size = 4;
      crypto = Crypto_profile.Real;
    }
  in
  let ledger = Ledger.create ~config ~clock () in
  let alice, alice_key =
    Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user
  in
  let bob, bob_key =
    Ledger.new_member ledger ~name:"bob" ~role:Roles.Regular_user
  in
  let receipts = ref [] in
  for i = 0 to 7 do
    let member, key = if i mod 2 = 0 then (alice, alice_key) else (bob, bob_key) in
    let r =
      Ledger.append ledger ~member ~priv:key
        ~clues:[ Printf.sprintf "acct:%d" (i mod 3) ]
        (Bytes.of_string (Printf.sprintf "transfer %d" i))
    in
    receipts := r :: !receipts
  done;
  Ledger.seal_block ledger;
  check Alcotest.int "two blocks sealed" 2 (Ledger.block_count ledger);
  let lsp_pub = Ledger.lsp_public_key ledger in
  (* receipts: the LSP signature must satisfy the reference verifier *)
  List.iter
    (fun (r : Receipt.t) ->
      let final = Ledger.get_receipt ledger r.jsn in
      Alcotest.(check bool) "receipt verifies (ledger)" true
        (Ledger.verify_receipt ledger final);
      let digest =
        Receipt.signing_digest ~jsn:final.jsn ~request_hash:final.request_hash
          ~tx_hash:final.tx_hash ~block_hash:final.block_hash
          ~timestamp:final.timestamp
      in
      Alcotest.(check bool) "receipt verifies (ref kernel)" true
        (Ecdsa_ref.verify lsp_pub digest final.lsp_sig))
    !receipts;
  (* journals: π_c must be byte-identical to a reference-kernel re-sign *)
  let checked = ref 0 in
  Ledger.iter_journals ledger (fun j ->
      match j.Journal.client_sig with
      | None -> ()
      | Some sig_fast ->
          let member, key =
            if Hash.equal j.client_id alice.id then (alice, alice_key)
            else (bob, bob_key)
          in
          let digest =
            Journal.request_digest ~ledger_uri:(Ledger.uri ledger)
              ~kind_tag:(Journal.kind_tag j.kind) ~payload:j.payload
              ~clues:j.clues ~client_ts:j.client_ts ~nonce:j.nonce
          in
          let sig_ref = Ecdsa_ref.sign key digest in
          Alcotest.(check string)
            "journal sig byte-identical across kernels"
            (Fmt.str "%a" Ecdsa.pp_signature sig_ref)
            (Fmt.str "%a" Ecdsa.pp_signature sig_fast);
          Alcotest.(check bool)
            "journal sig bytes equal" true
            (Bytes.equal
               (Ecdsa.signature_to_bytes sig_ref)
               (Ecdsa.signature_to_bytes sig_fast));
          Alcotest.(check bool) "ref verifier accepts" true
            (Ecdsa_ref.verify member.pub digest sig_fast);
          (* the encoded journal digests identically under the reference
             SHA-256, so block tx-roots are pinned too *)
          let enc = Journal_codec.encode j in
          Alcotest.(check string) "encoding digest stable"
            (Fmt.str "%a" Hash.pp (Hash.of_bytes (Sha256_ref.digest_bytes enc)))
            (Fmt.str "%a" Hash.pp (Hash.of_bytes (Sha256.digest_bytes enc)));
          incr checked);
  Alcotest.(check bool) "client-signed journals were checked" true (!checked >= 8);
  (* block chain still audits *)
  let blocks = Ledger.blocks ledger in
  List.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check bool) "block chain links" true
          (Block.links_to (List.nth blocks (i - 1)) b))
    blocks

(* The differential canary must agree with everything this suite checks
   the long way round. *)
let test_profile_self_check () =
  Alcotest.(check bool)
    "Ecdsa_ref.self_check" true
    (Ecdsa_ref.self_check ())

(* --- the chunked ladder and the multi-comb at their walls ------------------

   [double_scalar_mul_base] runs each GLV half's wNAF string as two
   streams split at digit 64 (the multiples of P, then those of 2^64·P),
   and [scalar_mul_base] reads 32 teeth of 8 bits from d = (k + 2^256 −
   1)/2.  The scalars below sit where those cuts are: 2^64 ± 1, 2^128,
   λ, and scalars built from chosen GLV halves, negative or with bit 63
   set, all against the reference double-and-add. *)

let lambda =
  Uint256.of_hex
    "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"

let pow2 k =
  let b = Bytes.make 32 '\x00' in
  Bytes.set b (31 - (k / 8)) (Char.chr (1 lsl (k mod 8)));
  Uint256.of_bytes_be b

let neg_mod_n v = if Uint256.is_zero v then v else fst (Uint256.sub n v)
let ( +! ) a b = fst (Uint256.add a b)
let ( -! ) a b = fst (Uint256.sub a b)

(* (±k1) + (±k2)·λ mod n *)
let of_halves (neg1, k1) (neg2, k2) =
  let signed neg v = if neg then neg_mod_n v else v in
  Secp256k1.Scalar.add (signed neg1 k1)
    (Secp256k1.Scalar.mul (signed neg2 k2) lambda)

let wall_scalars =
  let one = Uint256.one in
  let m64 = pow2 64 -! one and b63 = pow2 63 in
  [
    Uint256.zero; one; n -! one;
    m64; pow2 64; pow2 64 +! one; b63; pow2 65 -! one;
    pow2 128; pow2 128 -! one; pow2 128 +! pow2 64;
    lambda; neg_mod_n lambda;
    of_halves (false, m64) (true, b63);
    of_halves (true, pow2 64 +! b63) (false, m64);
    of_halves (true, b63 +! one) (true, pow2 127 +! b63);
    of_halves (false, pow2 127 -! one) (true, pow2 64 -! b63);
    of_halves (true, Uint256.zero) (false, pow2 64);
  ]

let test_ladder_comb_walls () =
  let d =
    Uint256.of_hex
      "c0ffee0123456789abcdef0123456789abcdef0123456789abcdef0123456789"
  in
  let q = Secp256k1.scalar_mul_base d in
  let qx, qy = Option.get (Secp256k1.to_affine q) in
  let q_ref = Secp256k1_ref.of_affine qx qy in
  let tq = Secp256k1.precompute q in
  let g_ref = Secp256k1_ref.generator in
  List.iteri
    (fun i k ->
      let name what = Printf.sprintf "%s, k = %s" what (Uint256.to_hex k) in
      check_same_point (name "comb kG")
        (Secp256k1.scalar_mul_base k)
        (Secp256k1_ref.scalar_mul k g_ref);
      check_same_point (name "ladder kQ") (Secp256k1.scalar_mul k q)
        (Secp256k1_ref.scalar_mul k q_ref);
      (* a partner from the other end of the list, and k itself *)
      let b = List.nth wall_scalars (List.length wall_scalars - 1 - i) in
      List.iter
        (fun b ->
          check_same_point (name "aG+bQ")
            (Secp256k1.double_scalar_mul_base k b tq)
            (Secp256k1_ref.double_scalar_mul k g_ref b q_ref))
        [ b; k ])
    wall_scalars

(* Degenerate sums inside the verify ladder, with Q = G.  u1 = u2 = 1
   (r = s = z) makes both streams add G at the top step, so the
   ladder's second addition is G + G: with z = x(2G) the signature is
   valid.  u2 = n − u1 (r = n − z) cancels the streams to P + (−P) and
   the point at infinity, which no signature may verify to. *)
let test_ladder_degenerate_verify () =
  let open Secp256k1 in
  let pub_g = Ecdsa.public_key_of_point generator in
  let tg = precompute generator in
  let digest_of v = Hash.of_bytes (Uint256.to_bytes_be v) in
  let x2g = Scalar.reduce (fst (Option.get (to_affine (double generator)))) in
  let sg = Ecdsa_ref.signature ~r:x2g ~s:x2g in
  check Alcotest.bool "G + G inside: fast accepts" true
    (Ecdsa.verify pub_g (digest_of x2g) sg);
  check Alcotest.bool "G + G inside: ref accepts" true
    (Ecdsa_ref.verify pub_g (digest_of x2g) sg);
  List.iter
    (fun z ->
      let name what = Printf.sprintf "%s, u1 = %s" what (Uint256.to_hex z) in
      check Alcotest.bool (name "P + (-P) is infinity") true
        (is_infinity (double_scalar_mul_base z (neg_mod_n z) tg));
      check_same_point (name "P + P")
        (double_scalar_mul_base z z tg)
        (Secp256k1_ref.scalar_mul (Scalar.add z z) Secp256k1_ref.generator);
      let sg = Ecdsa_ref.signature ~r:(neg_mod_n z) ~s:(Uint256_ref.of_int 7) in
      let verdicts = Ecdsa.verify_many pub_g [| (digest_of z, sg) |] in
      check Alcotest.bool (name "cancelling signature: fast rejects") false
        verdicts.(0);
      check Alcotest.bool (name "cancelling signature: ref rejects") false
        (Ecdsa_ref.verify pub_g (digest_of z) sg))
    [ x2g; Uint256.one; pow2 64; pow2 64 -! Uint256.one; lambda; pow2 128 ]

(* Resident words of the crypto tables, exact and repeatable.  Before
   the multi-comb and the 2^64 split, the 4-bit comb (960 affine pairs)
   and the width-10 tables of G and λG held 35 459 words and one key
   335 (its table and the option around it), so the fixed tables plus
   65 keys (64 members and the LSP) took 57 234.  With the comb and the
   split they held 25 611 and 491, 57 526 in all; the first two bounds
   are those figures plus about 10 %, and the total stays within 10 %
   of 57 234.  With 40-byte field elements they hold 12 811 and 251,
   29 126 in all. *)
let test_table_resident_words () =
  let fixed = Secp256k1.resident_words () in
  let _, pub = Ecdsa.generate ~seed:"resident-words" in
  let key = Obj.reachable_words (Obj.repr pub) in
  let within label words bound =
    if words > bound then
      Alcotest.failf "%s: %d words resident, bound %d" label words bound
  in
  within "fixed tables" fixed 28_200;
  within "one key" key 540;
  within "fixed tables + 65 keys" (fixed + (65 * key)) 62_800

(* --- the per-domain encoding scratch ------------------------------------ *)

(* One Wire field of every writer kind. *)
type field =
  | F_u8 of int
  | F_int of int
  | F_int64 of int64
  | F_bytes of string
  | F_string of string
  | F_raw of string
  | F_hash of string
  | F_sig of string
  | F_list of int list
  | F_option of int option

let write_field w = function
  | F_u8 v -> Wire.w_u8 w v
  | F_int v -> Wire.w_int w v
  | F_int64 v -> Wire.w_int64 w v
  | F_bytes s -> Wire.w_bytes w (Bytes.of_string s)
  | F_string s -> Wire.w_string w s
  | F_raw s -> Wire.w_raw w (Bytes.of_string s)
  | F_hash s -> Wire.w_hash w (Hash.of_bytes (Bytes.of_string s))
  | F_sig s ->
      Wire.w_sig w (Option.get (Ecdsa.signature_of_bytes (Bytes.of_string s)))
  | F_list l -> Wire.w_list w (Wire.w_int w) l
  | F_option o -> Wire.w_option w (Wire.w_int w) o

let gen_field =
  let open QCheck.Gen in
  let str n = string_size ~gen:char n in
  oneof
    [
      map (fun v -> F_u8 v) (int_bound 255);
      map (fun v -> F_int v) int;
      map (fun v -> F_int64 v) ui64;
      map (fun s -> F_bytes s) (str (int_bound 300));
      map (fun s -> F_string s) (str (int_bound 40));
      map (fun s -> F_raw s) (str (int_bound 2000));
      map (fun s -> F_hash s) (str (return 32));
      map (fun s -> F_sig s) (str (return 64));
      map (fun l -> F_list l) (list_size (int_bound 8) int);
      map (fun o -> F_option o) (opt int);
    ]

let fresh_contents fields =
  let w = Wire.writer () in
  List.iter (write_field w) fields;
  Wire.contents w

(* The domain's scratch first holds an encode longer than the one under
   test (past the 64 KiB release cap on some draws), so every stale byte
   and every length left behind would show in the second answer. *)
let prop_scratch_reuse =
  QCheck.Test.make ~name:"wire: a reused scratch encodes as a fresh writer"
    ~count:300
    QCheck.(
      pair (int_range 1 80_000)
        (make Gen.(list_size (int_bound 30) gen_field)))
    (fun (extra, fields) ->
      let expected = fresh_contents fields in
      let earlier = Bytes.make (Bytes.length expected + extra) '\xa5' in
      ignore (Wire.encode (fun w -> Wire.w_raw w earlier));
      let encoded = Wire.encode (fun w -> List.iter (write_field w) fields) in
      ignore (Wire.encode_digest (fun w -> Wire.w_raw w earlier));
      let digest =
        Wire.encode_digest (fun w -> List.iter (write_field w) fields)
      in
      Bytes.equal encoded expected
      && Hash.equal digest (Hash.of_bytes (Sha256_ref.digest_bytes expected)))

(* --- the C field and group law at their limits ---------------------------

   The kernel's operations accept operands of magnitude up to 8 (limbs
   0..3 up to 16·(2^52 − 1), limb 4 up to 16·(2^48 − 1)) and write weak
   results (magnitude 1).  These gates feed them limbs at exactly those
   bounds, weak values at and above p, and zero spelled both 0 and p,
   and check every result against the reference field; the group law is
   checked where its formulas branch. *)

let m52 = (1 lsl 52) - 1
let m48 = (1 lsl 48) - 1

let fe_raw limbs =
  let b = Bytes.create 40 in
  Array.iteri (fun i v -> Bytes.set_int64_ne b (8 * i) (Int64.of_int v)) limbs;
  b

let fe_limbs b = Array.init 5 (fun i -> Int64.to_int (Bytes.get_int64_ne b (8 * i)))

(* the value of raw limbs mod p: Σ limb_i · 2^(52i) *)
let fe_value b =
  let r = Secp256k1_ref.fe_mul in
  let w = Uint256_ref.of_int (1 lsl 52) in
  let acc = ref Uint256.zero and pow = ref Uint256.one in
  Array.iter
    (fun l ->
      let l = snd (Uint256_ref.div_mod (Uint256_ref.of_int l) p) in
      acc := Secp256k1_ref.fe_add !acc (r l !pow);
      pow := r !pow w)
    (fe_limbs b);
  !acc

let max_at m = [| 2 * m * m52; 2 * m * m52; 2 * m * m52; 2 * m * m52; 2 * m * m48 |]

(* the 52-bit limbs of a value below 2^256, from its 16-bit limbs *)
let raw_of_u256 v =
  let l = Uint256.limbs v in
  let bit i = (l.(i / 16) lsr (i mod 16)) land 1 in
  Array.init 5 (fun j ->
      let x = ref 0 in
      for k = 51 downto 0 do
        let i = (52 * j) + k in
        x := (!x lsl 1) lor (if i < 256 then bit i else 0)
      done;
      !x)

let p_raw = raw_of_u256 p

(* limbs at the bounds, weak values in [p, 2p) and both zeros *)
let fe_limit_values =
  let add_limb0 a k = Array.mapi (fun i v -> if i = 0 then v + k else v) a in
  [
    ("max magnitude 8", max_at 8);
    ("max magnitude 1", max_at 1);
    ("zero as 0", Array.make 5 0);
    ("zero as p", p_raw);
    ("p + 1", add_limb0 p_raw 1);
    ("2^256 - 1", [| m52; m52; m52; m52; m48 |]);
    ("2^256 + 5 (limb 4 at 2^48)", [| 5; 0; 0; 0; 1 lsl 48 |]);
    ("zero as 2p", Array.map (fun v -> 2 * v) p_raw);
    ("2p - 1", add_limb0 (Array.map (fun v -> 2 * v) p_raw) (-1));
    ("limb 4 alone at magnitude 8", [| 0; 0; 0; 0; 16 * m48 |]);
    ("limb 0 alone at magnitude 8", [| 16 * m52; 0; 0; 0; 0 |]);
  ]

(* a result must be weak: magnitude 1 *)
let check_weak name b =
  let l = fe_limbs b in
  Array.iteri
    (fun i v ->
      let bound = if i = 4 then 2 * m48 else 2 * m52 in
      if v < 0 || v > bound then
        Alcotest.failf "%s: limb %d = %#x is above magnitude 1" name i v)
    l

let check_fe_ops name a b =
  let va = fe_value a and vb = fe_value b in
  let r = Bytes.create 40 in
  let run op_name op expect =
    op r;
    check_weak (name ^ " " ^ op_name) r;
    check u256 (name ^ " " ^ op_name) expect (Secp256k1.Fe.to_u256 r)
  in
  let open Secp256k1.Fe in
  run "mul" (fun r -> mul_into r a b) (Secp256k1_ref.fe_mul va vb);
  run "sqr" (fun r -> sqr_into r a) (Secp256k1_ref.fe_sqr va);
  run "add" (fun r -> add_into r a b) (Secp256k1_ref.fe_add va vb);
  run "sub" (fun r -> sub_into r a b) (Secp256k1_ref.fe_sub va vb);
  run "neg" (fun r -> neg_into r a) (Secp256k1_ref.fe_sub Uint256.zero va);
  if not (Uint256.is_zero va) then
    run "inv" (fun r -> inv_into r a) (Secp256k1_ref.fe_inv va);
  check Alcotest.bool (name ^ " is_zero") (Uint256.is_zero va) (is_zero a);
  check Alcotest.bool (name ^ " equal") (Uint256.equal va vb) (equal a b);
  check u256 (name ^ " to_u256") va (to_u256 a);
  (* a result aliasing its operand *)
  let c = Bytes.copy a in
  mul_into c c b;
  check u256 (name ^ " mul in place") (Secp256k1_ref.fe_mul va vb) (to_u256 c)

let test_fe_limits () =
  List.iter
    (fun (na, a) ->
      List.iter
        (fun (nb, b) -> check_fe_ops (na ^ " · " ^ nb) (fe_raw a) (fe_raw b))
        fe_limit_values)
    fe_limit_values;
  check Alcotest.bool "0 = p" true
    Secp256k1.Fe.(equal (fe_raw (Array.make 5 0)) (fe_raw p_raw))

let prop_fe_limbs_at_bound =
  let limbs =
    QCheck.Gen.(
      map
        (fun (m, l) ->
          Array.mapi (fun i f -> int_of_float (f *. float_of_int (max_at m).(i))) l)
        (pair (int_range 1 8) (array_size (return 5) (float_bound_inclusive 1.))))
  in
  let print a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%#x") a)) in
  let arb = QCheck.make ~print limbs in
  QCheck.Test.make ~name:"fe ops at random magnitudes <= 8 = ref" ~count:300
    (QCheck.pair arb arb) (fun (a, b) ->
      check_fe_ops "random" (fe_raw a) (fe_raw b);
      true)

(* Both inversions (divsteps in C) on the values where a run of the
   algorithm is shortest or longest: 1, 2, small values, m − 1, m − 2,
   every power of two below m, and 2^k − 1 for every k. *)
let test_inv_edges () =
  let edges m =
    let small = List.init 64 (fun i -> Uint256_ref.of_int (i + 1)) in
    let below k = fst (Uint256_ref.sub m (Uint256_ref.of_int k)) in
    let near = List.init 64 (fun i -> below (i + 1)) in
    let pows = List.init 256 (fun k -> Uint256_ref.shift_left Uint256.one k) in
    let ones = List.map (fun x -> fst (Uint256_ref.sub x Uint256.one)) pows in
    List.filter
      (fun x -> (not (Uint256.is_zero x)) && Uint256.compare x m < 0)
      (small @ near @ pows @ ones)
  in
  List.iter
    (fun x ->
      check u256 ("fe inv " ^ Uint256.to_hex x) (Secp256k1_ref.fe_inv x) (Secp256k1.fe_inv x))
    (edges p);
  List.iter
    (fun x ->
      check u256 ("scalar inv " ^ Uint256.to_hex x) (Uint256.inv_mod x n)
        (Secp256k1.Scalar.inv x))
    (edges n)

(* the point k·G of the reference, with its affine coordinates *)
let ref_point k =
  let pt = Secp256k1_ref.scalar_mul (Uint256_ref.of_int k) Secp256k1_ref.generator in
  Option.get (Secp256k1_ref.to_affine pt)

(* the same point with Z = z: (x·z², y·z³, z) *)
let jacobian (x, y) z =
  let z = Uint256_ref.of_int z in
  let z2 = Secp256k1_ref.fe_sqr z in
  Secp256k1.of_jacobian (Secp256k1_ref.fe_mul x z2)
    (Secp256k1_ref.fe_mul y (Secp256k1_ref.fe_mul z2 z)) z

let test_group_law_edges () =
  let ref_of (x, y) = Secp256k1_ref.of_affine x y in
  let neg (x, y) = (x, Secp256k1_ref.fe_sub Uint256.zero y) in
  List.iter
    (fun (k, zp, zq) ->
      let name what = Printf.sprintf "k=%d z=%d,%d: %s" k zp zq what in
      let pa = ref_point k and qa = ref_point (k + 1) in
      let pj = jacobian pa zp and qj = jacobian qa zq in
      let p_ref = ref_of pa and q_ref = ref_of qa in
      let x, y = pa in
      (* P + Q: Jacobian and affine operands *)
      check_same_point (name "P + Q jacobian") (Secp256k1.add pj qj)
        (Secp256k1_ref.add p_ref q_ref);
      check_same_point (name "P + Q affine")
        (Secp256k1.add_mixed qj x y ~negative:false)
        (Secp256k1_ref.add p_ref q_ref);
      (* P + P doubles *)
      check_same_point (name "P + P jacobian") (Secp256k1.add pj (jacobian pa zq))
        (Secp256k1_ref.double p_ref);
      check_same_point (name "P + P affine") (Secp256k1.add_mixed pj x y ~negative:false)
        (Secp256k1_ref.double p_ref);
      check_same_point (name "2P") (Secp256k1.double pj) (Secp256k1_ref.double p_ref);
      (* P + (−P) is infinity *)
      let nx, ny = neg pa in
      check_same_point (name "P + (-P) jacobian")
        (Secp256k1.add pj (jacobian (nx, ny) zq))
        Secp256k1_ref.infinity;
      check_same_point (name "P + (-P) affine")
        (Secp256k1.add_mixed pj x y ~negative:true)
        Secp256k1_ref.infinity;
      check_same_point (name "P - Q affine")
        (Secp256k1.add_mixed pj (fst qa) (snd qa) ~negative:true)
        (Secp256k1_ref.add p_ref (ref_of (neg qa)));
      (* the point at infinity on either side *)
      let inf = Secp256k1.infinity in
      check_same_point (name "O + P") (Secp256k1.add inf pj) p_ref;
      check_same_point (name "P + O") (Secp256k1.add pj inf) p_ref;
      check_same_point (name "O + P affine") (Secp256k1.add_mixed inf x y ~negative:false) p_ref;
      check_same_point (name "O + (-P) affine")
        (Secp256k1.add_mixed inf x y ~negative:true)
        (ref_of (neg pa));
      check_same_point (name "2O") (Secp256k1.double inf) Secp256k1_ref.infinity;
      check_same_point (name "O + O") (Secp256k1.add inf inf) Secp256k1_ref.infinity)
    [ (1, 1, 1); (2, 7, 3); (12345, 0x3fffffff, 2); (987654321, 5, 0x7fffffff) ]

(* --- the per-domain points buffer of batch signing ----------------------- *)

(* A 32-item [sign_many] wrote its k·G into a fresh 3 840-byte buffer,
   which the runtime puts straight on the major heap: 961 words a call.
   Warmed, the domain's buffer takes them and nothing reaches the major
   heap but what a minor collection promotes. *)
let test_sign_many_major_words () =
  let priv, _ = Ecdsa.generate ~seed:"points-scratch" in
  let digests = Array.init 32 (fun i -> Hash.digest_string (Printf.sprintf "ps:%d" i)) in
  ignore (Ecdsa.sign_many priv digests);
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct () in
  ignore (Sys.opaque_identity (Ecdsa.sign_many priv digests));
  let words = direct () -. before in
  if words > 0. then
    Alcotest.failf "sign_many of 32: %.0f words straight on the major heap" words

(* Two systhreads on each of two domains sign batches of 32 over and
   over; the runtime switches threads mid-batch, so a shared points
   buffer without its busy flag would mix their k·G.  A switch lands
   inside a batch only now and then, so a nested call checks the flag
   every time: a batch signed while the buffer is held must take a
   fresh one and leave the holder's point alone. *)
let test_points_scratch_threads () =
  let priv, _ = Ecdsa.generate ~seed:"points-threads" in
  let digests = Array.init 32 (fun i -> Hash.digest_string (Printf.sprintf "nest:%d" i)) in
  let alone = Array.map sig_bytes (Ecdsa.sign_many priv digests) in
  let k = Uint256.of_int 12345 in
  let x_of_k =
    match Secp256k1.to_affine (Secp256k1.scalar_mul_base k) with
    | Some (x, _) -> snd (Uint256_ref.div_mod x n)
    | None -> assert false
  in
  Secp256k1.with_points 1 (fun pts ->
      let c = Secp256k1.ctx () and ks = Secp256k1.Scalar.create () in
      Secp256k1.Scalar.set_u256 ks k;
      Secp256k1.mul_base_into c ks pts 0;
      let nested = Array.map sig_bytes (Ecdsa.sign_many priv digests) in
      let r = [| Secp256k1.Scalar.create () |] in
      Secp256k1.x_mod_n_batch c pts 1 r;
      check Alcotest.(array string) "nested sign_many = alone" alone nested;
      check u256 "the holder's point survives a nested batch" x_of_k
        (Secp256k1.Scalar.to_u256 r.(0)));
  let batch t i =
    Array.init 32 (fun j -> Hash.digest_string (Printf.sprintf "pt:%d:%d:%d" t i j))
  in
  let rounds = 60 in
  let sign_all t =
    Array.init rounds (fun i -> Array.map sig_bytes (Ecdsa.sign_many priv (batch t i)))
  in
  let expected = Array.init 4 sign_all in
  let on_domain d () =
    let out = Array.make 2 [||] in
    let ts =
      List.init 2 (fun k -> Thread.create (fun () -> out.(k) <- sign_all ((2 * d) + k)) ())
    in
    List.iter Thread.join ts;
    out
  in
  let domains = List.init 2 (fun d -> Domain.spawn (on_domain d)) in
  List.iteri
    (fun d dom ->
      let out = Domain.join dom in
      Array.iteri
        (fun k got ->
          let t = (2 * d) + k in
          Array.iteri
            (fun i sigs ->
              check Alcotest.(array string)
                (Printf.sprintf "domain %d thread %d batch %d" d k i)
                expected.(t).(i) sigs)
            got)
        out)
    domains

let suite =
  [
    qcheck prop_fe_ops_differential;
    tc "fe ops at structured boundary values" `Quick test_fe_ops_structured;
    qcheck prop_scalar_ops_differential;
    qcheck prop_scalar_mul_differential;
    tc "kG at structured scalars (0,1,n±1,2^k±1)" `Quick
      test_scalar_mul_structured;
    qcheck prop_double_scalar_mul_differential;
    qcheck prop_sha256_differential;
    qcheck prop_sign_byte_identical;
    qcheck prop_bitflip_rejection_agreement;
    qcheck (ring_props p "p");
    qcheck (ring_props n "n");
    qcheck fe_ring_props;
    tc "reduction idempotence at p/n boundaries" `Quick
      test_reduction_idempotence;
    qcheck prop_inv_correct;
    tc "batched inversion = elementwise" `Quick test_inv_batch;
    qcheck prop_bytes_hex_roundtrip;
    tc "sealed ledger byte-identical across kernel swap" `Quick
      test_sealed_ledger_byte_identity;
    tc "crypto_profile self-check canary" `Quick test_profile_self_check;
    tc "sign_many = sign per item" `Quick test_sign_many_identical;
    tc "verify_many = verify = Ref.verify" `Quick test_verify_many_agrees;
    tc "one key verifies from 4 domains" `Quick test_key_shared_across_domains;
    tc "sign, verify and generate from 4 domains = sequential" `Slow
      test_kernel_stress_across_domains;
    tc "minor words per sign and per verify are bounded" `Quick
      test_allocation_bound;
    tc "minor words per clue scatter are bounded" `Quick
      test_scatter_allocation_bound;
    qcheck prop_sha3_differential;
    tc "sha3 = ref at every length around the rate" `Quick
      test_sha3_rate_boundaries;
    tc "ladder and comb at the 2^64 split and tooth walls = ref" `Quick
      test_ladder_comb_walls;
    tc "verify ladder through P + P and P + (-P)" `Quick
      test_ladder_degenerate_verify;
    tc "resident words of the crypto tables are bounded" `Quick
      test_table_resident_words;
    tc "minor words per generated key and per table build are bounded" `Quick
      test_key_and_table_allocation_bound;
    qcheck prop_scratch_reuse;
    tc "fe ops at the magnitude bounds and both zeros = ref" `Quick test_fe_limits;
    qcheck prop_fe_limbs_at_bound;
    tc "inversions at the edges = ref" `Quick test_inv_edges;
    tc "group law: P + P, P + (-P), infinity, affine and Jacobian = ref" `Quick
      test_group_law_edges;
    tc "sign_many of 32 puts no word on the major heap" `Quick
      test_sign_many_major_words;
    tc "points buffer: systhreads, domains and nesting = sequential" `Quick
      test_points_scratch_threads;
  ]
