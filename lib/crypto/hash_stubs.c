/* SHA-256 and Keccak-f[1600] (see sha256.ml, sha3.ml, hmac_sha256.ml).

   SHA-256 compresses on one of two loops, chosen once when the program
   loads: the x86-64 SHA extensions when CPUID reports them (leaf 7,
   EBX bit 29, beside SSE4.1 from leaf 1), and a portable C loop
   everywhere else.  The CPU alone decides; both loops give the same
   bits, so there is nothing for a user to choose.  A test can force
   the portable loop (ldb_sha256_force_portable) to check it on a host
   that would never run it.

   A streaming context is a [bytes] holding [struct sha]: the eight
   state words, native-endian, the 64-byte block buffer, the count of
   buffered bytes and the total absorbed.  One-shot digests keep the
   same struct on the C stack and pad there; they write a 32-byte
   output the caller allocated.

   Each entry point is called from OCaml as a [@@noalloc] external: it
   allocates nothing, raises nothing and never releases the runtime, so
   no collection can move the buffers it is handed while it runs.
   Callers check offsets and lengths. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define U8(v, off) ((const uint8_t *)Bytes_val(v) + Long_val(off))

/* --- SHA-256 ---------------------------------------------------------- */

static const uint32_t K[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static const uint32_t IV[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(uint8_t *p, uint32_t v)
{
  p[0] = (uint8_t)(v >> 24);
  p[1] = (uint8_t)(v >> 16);
  p[2] = (uint8_t)(v >> 8);
  p[3] = (uint8_t)v;
}

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

/* h := the compression of [nb] 64-byte blocks at [p] into h */
static void compress_portable(uint32_t *h, const uint8_t *p, size_t nb)
{
  uint32_t w[64];
  for (; nb > 0; nb--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      const uint32_t w15 = w[i - 15], w2 = w[i - 2];
      const uint32_t s0 = ROR(w15, 7) ^ ROR(w15, 18) ^ (w15 >> 3);
      const uint32_t s1 = ROR(w2, 17) ^ ROR(w2, 19) ^ (w2 >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
      const uint32_t s1 = ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = hh + s1 + ch + K[i] + w[i];
      const uint32_t s0 = ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + s0 + maj;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
}

#undef ROR

static void (*compress_selected)(uint32_t *, const uint8_t *, size_t) =
    compress_portable;
static int forced_portable;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>

/* The same compression on the SHA extensions.  The state lives in two
   registers as ABEF and CDGH; each four rounds add four constants to
   four schedule words and run two sha256rnds2.  Schedule word group j
   (four words) is msg2(msg1(W[j-4], W[j-3]) + W[j-2..j-1] shifted by
   one word, W[j-1]); the four live groups rotate through [m]. */
__attribute__((target("sha,sse4.1"))) static void
compress_sha_ni(uint32_t *h, const uint8_t *p, size_t nb)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128((const __m128i *)&h[0]);
  __m128i st1 = _mm_loadu_si128((const __m128i *)&h[4]);
  tmp = _mm_shuffle_epi32(tmp, 0xB1);          /* CDAB */
  st1 = _mm_shuffle_epi32(st1, 0x1B);          /* EFGH */
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);  /* ABEF */
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);       /* CDGH */
  for (; nb > 0; nb--, p += 64) {
    const __m128i abef = st0, cdgh = st1;
    __m128i m[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; j++) {
      __m128i w;
      if (j < 4)
        w = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * j)),
                             bswap);
      else
        w = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(m[j & 3], m[(j + 1) & 3]),
                          _mm_alignr_epi8(m[(j + 3) & 3], m[(j + 2) & 3], 4)),
            m[(j + 3) & 3]);
      m[j & 3] = w;
      __m128i k = _mm_add_epi32(w, _mm_load_si128((const __m128i *)&K[4 * j]));
      st1 = _mm_sha256rnds2_epu32(st1, st0, k);
      k = _mm_shuffle_epi32(k, 0x0E);
      st0 = _mm_sha256rnds2_epu32(st0, st1, k);
    }
    st0 = _mm_add_epi32(st0, abef);
    st1 = _mm_add_epi32(st1, cdgh);
  }
  tmp = _mm_shuffle_epi32(st0, 0x1B);          /* FEBA */
  st1 = _mm_shuffle_epi32(st1, 0xB1);          /* DCHG */
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);       /* DCBA */
  st1 = _mm_alignr_epi8(st1, tmp, 8);          /* HGFE */
  _mm_storeu_si128((__m128i *)&h[0], st0);
  _mm_storeu_si128((__m128i *)&h[4], st1);
}

__attribute__((constructor)) static void select_compress(void)
{
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSE4_1)) return;
  if (__get_cpuid_max(0, NULL) < 7) return;
  __cpuid_count(7, 0, a, b, c, d);
  if (b & (1u << 29)) compress_selected = compress_sha_ni;
}
#endif

static inline void compress(uint32_t *h, const uint8_t *p, size_t nb)
{
  if (__atomic_load_n(&forced_portable, __ATOMIC_RELAXED))
    compress_portable(h, p, nb);
  else
    compress_selected(h, p, nb);
}

struct sha {
  uint32_t h[8];
  uint8_t buf[64];
  uint64_t n;     /* bytes in buf, below 64 */
  uint64_t total; /* bytes absorbed */
};

static void sha_init(struct sha *s)
{
  memcpy(s->h, IV, sizeof IV);
  s->n = 0;
  s->total = 0;
}

static void sha_absorb(struct sha *s, const uint8_t *p, size_t len)
{
  s->total += len;
  if (s->n > 0) {
    size_t take = 64 - s->n;
    if (take > len) take = len;
    memcpy(s->buf + s->n, p, take);
    s->n += take;
    p += take;
    len -= take;
    if (s->n < 64) return;
    compress(s->h, s->buf, 1);
    s->n = 0;
  }
  if (len >= 64) {
    compress(s->h, p, len / 64);
    p += len & ~(size_t)63;
    len &= 63;
  }
  memcpy(s->buf, p, len);
  s->n = len;
}

/* out := the digest of what [s] absorbed; [s] is left as it was.  The
   padding (0x80, zeros, the 64-bit big-endian bit count) goes into a
   copy of the buffer on the stack: one block, or two when fewer than
   nine bytes are left after the message. */
static void sha_finish(const struct sha *s, uint8_t *out)
{
  uint8_t pad[128];
  uint32_t h[8];
  const size_t n = s->n, blocks = n + 9 <= 64 ? 1 : 2;
  const uint64_t bits = s->total * 8;
  memcpy(h, s->h, sizeof h);
  memcpy(pad, s->buf, n);
  pad[n] = 0x80;
  memset(pad + n + 1, 0, 64 * blocks - 8 - (n + 1));
  store_be32(pad + 64 * blocks - 8, (uint32_t)(bits >> 32));
  store_be32(pad + 64 * blocks - 4, (uint32_t)bits);
  compress(h, pad, blocks);
  for (int i = 0; i < 8; i++) store_be32(out + 4 * i, h[i]);
}

#define CTX(v) ((struct sha *)Bytes_val(v))

value ldb_sha256_ctx_size(value unit)
{
  (void)unit;
  return Val_long(sizeof(struct sha));
}

value ldb_sha256_init(value ctx)
{
  sha_init(CTX(ctx));
  return Val_unit;
}

value ldb_sha256_update(value ctx, value src, value off, value len)
{
  sha_absorb(CTX(ctx), U8(src, off), Long_val(len));
  return Val_unit;
}

value ldb_sha256_update_char(value ctx, value c)
{
  const uint8_t b = (uint8_t)Long_val(c);
  sha_absorb(CTX(ctx), &b, 1);
  return Val_unit;
}

value ldb_sha256_final(value ctx, value out)
{
  sha_finish(CTX(ctx), Bytes_val(out));
  return Val_unit;
}

/* out := SHA-256 of [len] bytes of [src] at [off], compressed in place */
value ldb_sha256_digest(value src, value off, value len, value out)
{
  struct sha s;
  sha_init(&s);
  sha_absorb(&s, U8(src, off), Long_val(len));
  sha_finish(&s, Bytes_val(out));
  return Val_unit;
}

/* out := SHA-256 of prefix || l || r */
value ldb_sha256_pair(value prefix, value l, value r, value out)
{
  struct sha s;
  sha_init(&s);
  sha_absorb(&s, Bytes_val(prefix), caml_string_length(prefix));
  sha_absorb(&s, Bytes_val(l), caml_string_length(l));
  sha_absorb(&s, Bytes_val(r), caml_string_length(r));
  sha_finish(&s, Bytes_val(out));
  return Val_unit;
}

/* HMAC-SHA256.  A prepared key [mids] holds the state after the
   ipad block (bytes 0..31) and after the opad block (32..63), so a tag
   compresses only the message and the two final blocks. */
value ldb_hmac_sha256_key(value mids, value key)
{
  uint8_t k[64] = { 0 }, block[64];
  const size_t klen = caml_string_length(key);
  struct sha s;
  if (klen > 64) {
    sha_init(&s);
    sha_absorb(&s, Bytes_val(key), klen);
    sha_finish(&s, k);
  } else {
    memcpy(k, Bytes_val(key), klen);
  }
  for (int pass = 0; pass < 2; pass++) {
    const uint8_t x = pass == 0 ? 0x36 : 0x5c;
    for (int i = 0; i < 64; i++) block[i] = k[i] ^ x;
    memcpy(s.h, IV, sizeof IV);
    compress(s.h, block, 1);
    memcpy(Bytes_val(mids) + 32 * pass, s.h, 32);
  }
  return Val_unit;
}

static void sha_resume(struct sha *s, const uint8_t *mid)
{
  memcpy(s->h, mid, 32);
  s->n = 0;
  s->total = 64;
}

value ldb_hmac_sha256(value mids, value src, value off, value len, value out)
{
  uint8_t inner[32];
  struct sha s;
  sha_resume(&s, Bytes_val(mids));
  sha_absorb(&s, U8(src, off), Long_val(len));
  sha_finish(&s, inner);
  sha_resume(&s, Bytes_val(mids) + 32);
  sha_absorb(&s, inner, 32);
  sha_finish(&s, Bytes_val(out));
  return Val_unit;
}

/* Test-facing: whether this CPU compresses on the SHA extensions, and a
   count of callers that want every compression in the process on the
   portable loop (on: one more; off: one fewer). */
value ldb_sha256_hardware(value unit)
{
  (void)unit;
  return Val_bool(compress_selected != compress_portable);
}

value ldb_sha256_force_portable(value on)
{
  __atomic_add_fetch(&forced_portable, Bool_val(on) ? 1 : -1, __ATOMIC_RELAXED);
  return Val_unit;
}

/* --- SHA3-256 ----------------------------------------------------------

   Keccak-f[1600] on 25 lanes of 64 bits, little-endian in the state;
   rate 136 bytes, domain padding 0x06 ... 0x80.  The state is a local
   array, the message is XORed into it where it lies. */

static const uint64_t RC[24] = {
  0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
  0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
  0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
  0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
  0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
  0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
  0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
  0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL
};

#define ROL(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

static void keccak_f(uint64_t *a)
{
  for (int round = 0; round < 24; round++) {
    /* theta */
    const uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    const uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    const uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    const uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    const uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    const uint64_t d0 = c4 ^ ROL(c1, 1), d1 = c0 ^ ROL(c2, 1);
    const uint64_t d2 = c1 ^ ROL(c3, 1), d3 = c2 ^ ROL(c4, 1);
    const uint64_t d4 = c3 ^ ROL(c0, 1);
    /* rho and pi: b[y, 2x + 3y] = rotl (a[x, y] ^ d[x]) r[x, y] */
    const uint64_t b0 = a[0] ^ d0;
    const uint64_t b1 = ROL(a[6] ^ d1, 44);
    const uint64_t b2 = ROL(a[12] ^ d2, 43);
    const uint64_t b3 = ROL(a[18] ^ d3, 21);
    const uint64_t b4 = ROL(a[24] ^ d4, 14);
    const uint64_t b5 = ROL(a[3] ^ d3, 28);
    const uint64_t b6 = ROL(a[9] ^ d4, 20);
    const uint64_t b7 = ROL(a[10] ^ d0, 3);
    const uint64_t b8 = ROL(a[16] ^ d1, 45);
    const uint64_t b9 = ROL(a[22] ^ d2, 61);
    const uint64_t b10 = ROL(a[1] ^ d1, 1);
    const uint64_t b11 = ROL(a[7] ^ d2, 6);
    const uint64_t b12 = ROL(a[13] ^ d3, 25);
    const uint64_t b13 = ROL(a[19] ^ d4, 8);
    const uint64_t b14 = ROL(a[20] ^ d0, 18);
    const uint64_t b15 = ROL(a[4] ^ d4, 27);
    const uint64_t b16 = ROL(a[5] ^ d0, 36);
    const uint64_t b17 = ROL(a[11] ^ d1, 10);
    const uint64_t b18 = ROL(a[17] ^ d2, 15);
    const uint64_t b19 = ROL(a[23] ^ d3, 56);
    const uint64_t b20 = ROL(a[2] ^ d2, 62);
    const uint64_t b21 = ROL(a[8] ^ d3, 55);
    const uint64_t b22 = ROL(a[14] ^ d4, 39);
    const uint64_t b23 = ROL(a[15] ^ d0, 41);
    const uint64_t b24 = ROL(a[21] ^ d1, 2);
    /* chi, with iota folded into lane 0 */
    a[0] = b0 ^ (~b1 & b2) ^ RC[round];
    a[1] = b1 ^ (~b2 & b3);
    a[2] = b2 ^ (~b3 & b4);
    a[3] = b3 ^ (~b4 & b0);
    a[4] = b4 ^ (~b0 & b1);
    a[5] = b5 ^ (~b6 & b7);
    a[6] = b6 ^ (~b7 & b8);
    a[7] = b7 ^ (~b8 & b9);
    a[8] = b8 ^ (~b9 & b5);
    a[9] = b9 ^ (~b5 & b6);
    a[10] = b10 ^ (~b11 & b12);
    a[11] = b11 ^ (~b12 & b13);
    a[12] = b12 ^ (~b13 & b14);
    a[13] = b13 ^ (~b14 & b10);
    a[14] = b14 ^ (~b10 & b11);
    a[15] = b15 ^ (~b16 & b17);
    a[16] = b16 ^ (~b17 & b18);
    a[17] = b17 ^ (~b18 & b19);
    a[18] = b18 ^ (~b19 & b15);
    a[19] = b19 ^ (~b15 & b16);
    a[20] = b20 ^ (~b21 & b22);
    a[21] = b21 ^ (~b22 & b23);
    a[22] = b22 ^ (~b23 & b24);
    a[23] = b23 ^ (~b24 & b20);
    a[24] = b24 ^ (~b20 & b21);
  }
}

#undef ROL

#define RATE 136

/* byte j of the state ^= v; bytes run little-endian within each lane */
static inline void xor_byte(uint64_t *a, size_t j, uint8_t v)
{
  a[j / 8] ^= (uint64_t)v << (8 * (j % 8));
}

value ldb_sha3_256(value src, value off, value len, value out)
{
  uint64_t a[25] = { 0 };
  const uint8_t *p = U8(src, off);
  size_t n = Long_val(len);
  for (; n >= RATE; n -= RATE, p += RATE) {
    for (int i = 0; i < RATE / 8; i++) {
      uint64_t v = 0;
      for (int k = 7; k >= 0; k--) v = (v << 8) | p[8 * i + k];
      a[i] ^= v;
    }
    keccak_f(a);
  }
  for (size_t j = 0; j < n; j++) xor_byte(a, j, p[j]);
  xor_byte(a, n, 0x06);
  xor_byte(a, RATE - 1, 0x80);
  keccak_f(a);
  uint8_t *o = Bytes_val(out);
  for (int j = 0; j < 32; j++) o[j] = (uint8_t)(a[j / 8] >> (8 * (j % 8)));
  return Val_unit;
}
