(* Reference SHA3-256: the original Keccak-f[1600] over an [int64 array]
   state (every lane store boxes) absorbing a padded copy of the
   message, rate 136 bytes.  The differential suite compares
   [Ledger_crypto.Sha3]'s unrolled rounds on unboxed lanes against this
   on every build. *)

let rounds = 24

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let rotation_offsets =
  (* r[x][y] indexed as x + 5*y *)
  [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21;
     8; 18; 2; 61; 56; 14 |]

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let keccak_f state =
  let c = Array.make 5 0L and d = Array.make 5 0L in
  let b = Array.make 25 0L in
  for round = 0 to rounds - 1 do
    (* theta *)
    for x = 0 to 4 do
      c.(x) <-
        Int64.logxor state.(x)
          (Int64.logxor state.(x + 5)
             (Int64.logxor state.(x + 10)
                (Int64.logxor state.(x + 15) state.(x + 20))))
    done;
    for x = 0 to 4 do
      d.(x) <- Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1)
    done;
    for x = 0 to 4 do
      for y = 0 to 4 do
        state.(x + (5 * y)) <- Int64.logxor state.(x + (5 * y)) d.(x)
      done
    done;
    (* rho + pi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let nx = y and ny = ((2 * x) + (3 * y)) mod 5 in
        b.(nx + (5 * ny)) <-
          rotl64 state.(x + (5 * y)) rotation_offsets.(x + (5 * y))
      done
    done;
    (* chi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        state.(x + (5 * y)) <-
          Int64.logxor
            b.(x + (5 * y))
            (Int64.logand
               (Int64.lognot b.(((x + 1) mod 5) + (5 * y)))
               b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    (* iota *)
    state.(0) <- Int64.logxor state.(0) round_constants.(round)
  done

let rate = 136 (* bytes, for 256-bit output *)

let digest_bytes msg =
  let state = Array.make 25 0L in
  let len = Bytes.length msg in
  (* padded message: msg || 0x06 || 0x00* || 0x80 (last byte ored) *)
  let padded_len = (len / rate * rate) + rate in
  let padded = Bytes.make padded_len '\000' in
  Bytes.blit msg 0 padded 0 len;
  Bytes.set padded len '\x06';
  Bytes.set padded (padded_len - 1)
    (Char.chr (Char.code (Bytes.get padded (padded_len - 1)) lor 0x80));
  let absorb_block off =
    for i = 0 to (rate / 8) - 1 do
      let lane = ref 0L in
      for j = 7 downto 0 do
        lane :=
          Int64.logor (Int64.shift_left !lane 8)
            (Int64.of_int (Char.code (Bytes.get padded (off + (i * 8) + j))))
      done;
      state.(i) <- Int64.logxor state.(i) !lane
    done;
    keccak_f state
  in
  let off = ref 0 in
  while !off < padded_len do
    absorb_block !off;
    off := !off + rate
  done;
  let out = Bytes.create 32 in
  for i = 0 to 3 do
    let lane = state.(i) in
    for j = 0 to 7 do
      Bytes.set out
        ((i * 8) + j)
        (Char.chr
           (Int64.to_int (Int64.shift_right_logical lane (j * 8)) land 0xFF))
    done
  done;
  out

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
