/* The secp256k1 field and group law, scalar products mod n and both
   inversions (see secp256k1.ml).

   A field element is five little-endian limbs of 52 bits (the top one
   48), each a native uint64_t, in a 40-byte OCaml [bytes].  Products use
   unsigned __int128 columns, and p = 2^256 - 2^32 - 977 folds the high
   half down in two steps: 2^260 = 2^36 + 15632 and then 2^256 = 2^32 +
   977 (mod p).

   Magnitude.  A value of magnitude m has limbs 0..3 at most
   2m(2^52 - 1) and limb 4 at most 2m(2^48 - 1), and is congruent to the
   element it stands for without being reduced.  Every function OCaml
   calls accepts operands of magnitude at most 8 and writes a *weak*
   result: magnitude 1 and a value below 2p, so the value is the element
   or the element plus p.  Inside a group operation the lazy sums below
   raise magnitudes, and the comments give each one; a value goes into
   fe_mul or fe_sqr only at magnitude 8 or less (limbs below 2^56, so a
   column of five products stays below 2^115) and is made weak before
   it is stored.

   Every entry point reads its operands before it writes its result, so
   the result may alias an operand.  Each is called from OCaml as a
   [@@noalloc] external: it allocates nothing, raises nothing and never
   releases the runtime, so no collection can move the buffers it is
   handed while it runs. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if !defined(__SIZEOF_INT128__)
#error "the secp256k1 kernel needs unsigned __int128 (GCC or Clang, 64-bit target)"
#endif

typedef unsigned __int128 u128;

#define M52 0xFFFFFFFFFFFFFULL
#define M48 0xFFFFFFFFFFFFULL
#define R256 0x1000003D1ULL  /* 2^256 mod p */
#define R260 0x1000003D10ULL /* 2^260 mod p */
#define P0 0xFFFFEFFFFFC2FULL /* limb 0 of p; limbs 1..3 are M52, limb 4 M48 */

#define FE(v) ((uint64_t *)Bytes_val(v))
#define AT(v, off) ((uint64_t *)(Bytes_val(v) + Long_val(off)))

/* --- field ----------------------------------------------------------- */

/* The product's nine columns p0..p8 (column k at 2^(52k)) reduce in two
   carry chains that run side by side: d carries the high columns p5..p8
   down to 52-bit limbs, and each limb, at 2^260 = R260 (mod p), joins
   its low column in c as c carries p0..p4.  What c leaves above 2^256
   folds once more at R256 into limb 0, with a last carry into limb 1
   (which may end up to 2^50 above 2^52: still magnitude 1, and the
   value stays below 2^256 + 2^102 < 2p).  LO and DONE are the steps of
   the two chains, shared by fe_mul and fe_sqr. */
#define LO(k, pk)                                     \
  c += (pk) + (u128)((uint64_t)d & M52) * R260;       \
  d >>= 52;                                           \
  r##k = (uint64_t)c & M52;                           \
  c >>= 52
#define DONE(p4)                                      \
  c += (p4) + (u128)(uint64_t)d * R260;               \
  r4 = (uint64_t)c & M48;                             \
  c >>= 48;                                           \
  c = c * R256 + r0;                                  \
  r[0] = (uint64_t)c & M52;                           \
  r[1] = r1 + (uint64_t)(c >> 52);                    \
  r[2] = r2;                                          \
  r[3] = r3;                                          \
  r[4] = r4

/* r := a·b, weak; a and b of magnitude <= 8 (limbs below 2^56, so a
   column of five products stays below 2^115) */
static inline void fe_mul(uint64_t *r, const uint64_t *a, const uint64_t *b)
{
  const uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
  uint64_t r0, r1, r2, r3, r4;
  u128 c = 0, d;
  d = (u128)a1 * b4 + (u128)a2 * b3 + (u128)a3 * b2 + (u128)a4 * b1;
  LO(0, (u128)a0 * b0);
  d += (u128)a2 * b4 + (u128)a3 * b3 + (u128)a4 * b2;
  LO(1, (u128)a0 * b1 + (u128)a1 * b0);
  d += (u128)a3 * b4 + (u128)a4 * b3;
  LO(2, (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0);
  d += (u128)a4 * b4;
  LO(3, (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0);
  DONE((u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1
       + (u128)a4 * b0);
}

/* r := a², weak; a of magnitude <= 8 */
static inline void fe_sqr(uint64_t *r, const uint64_t *a)
{
  const uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  uint64_t r0, r1, r2, r3, r4;
  u128 c = 0, d;
  d = (u128)d1 * a4 + (u128)d2 * a3;
  LO(0, (u128)a0 * a0);
  d += (u128)d2 * a4 + (u128)a3 * a3;
  LO(1, (u128)d0 * a1);
  d += (u128)d3 * a4;
  LO(2, (u128)d0 * a2 + (u128)a1 * a1);
  d += (u128)a4 * a4;
  LO(3, (u128)d0 * a3 + (u128)d1 * a2);
  DONE((u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
}

#undef LO
#undef DONE

/* Carry a value of magnitude <= 32 through and fold its top once: the
   result is weak (limb 4 ends at most 2^48 + 64, the value below
   2^256 + 2^215 < 2p). */
static inline void fe_weak(uint64_t *r)
{
  uint64_t t0 = r[0], t1 = r[1], t2 = r[2], t3 = r[3], t4 = r[4];
  uint64_t x = t4 >> 48;
  t4 &= M48;
  t0 += x * R256;
  t1 += t0 >> 52; t0 &= M52;
  t2 += t1 >> 52; t1 &= M52;
  t3 += t2 >> 52; t2 &= M52;
  t4 += t3 >> 52; t3 &= M52;
  r[0] = t0; r[1] = t1; r[2] = t2; r[3] = t3; r[4] = t4;
}

/* r := the canonical value (< p) of a, of magnitude <= 32 */
static inline void fe_canonical(uint64_t *r, const uint64_t *a)
{
  uint64_t t[5];
  memcpy(t, a, sizeof t);
  fe_weak(t);
  /* below 2p now: subtract p (add 2^256 - p, drop 2^256) when >= p */
  if ((t[4] >> 48) != 0
      || (t[4] == M48 && (t[3] & t[2] & t[1]) == M52 && t[0] >= P0)) {
    t[0] += R256;
    t[1] += t[0] >> 52; t[0] &= M52;
    t[2] += t[1] >> 52; t[1] &= M52;
    t[3] += t[2] >> 52; t[2] &= M52;
    t[4] += t[3] >> 52; t[3] &= M52;
    t[4] &= M48;
  }
  memcpy(r, t, sizeof t);
}

/* a ≡ 0, for a of magnitude <= 32: its weak form spells 0 or p */
static inline int fe_is_zero(const uint64_t *a)
{
  uint64_t t[5];
  memcpy(t, a, sizeof t);
  fe_weak(t);
  uint64_t z0 = t[0] | t[1] | t[2] | t[3] | t[4];
  uint64_t z1 = (t[0] ^ P0) | (t[1] ^ M52) | (t[2] ^ M52) | (t[3] ^ M52)
                | (t[4] ^ M48);
  return z0 == 0 || z1 == 0;
}

/* r := a + b, magnitudes add */
static inline void fe_add(uint64_t *r, const uint64_t *a, const uint64_t *b)
{
  for (int i = 0; i < 5; i++) r[i] = a[i] + b[i];
}

/* r := -a for a of magnitude <= m, as 2(m + 1)p - a: magnitude m + 1 */
static inline void fe_neg(uint64_t *r, const uint64_t *a, uint64_t m)
{
  uint64_t k = 2 * (m + 1);
  r[0] = k * P0 - a[0];
  r[1] = k * M52 - a[1];
  r[2] = k * M52 - a[2];
  r[3] = k * M52 - a[3];
  r[4] = k * M48 - a[4];
}

/* r := k·r, magnitude times k */
static inline void fe_mul_int(uint64_t *r, uint64_t k)
{
  for (int i = 0; i < 5; i++) r[i] *= k;
}

/* --- group law --------------------------------------------------------

   In place on Jacobian (X, Y, Z), Z = 0 standing for the point at
   infinity whatever X and Y are.  Stored coordinates are weak. */

/* dbl-2009-l, a = 0: 2M + 5S */
static void gej_double(uint64_t *x, uint64_t *y, uint64_t *z)
{
  uint64_t a[5], b[5], c[5], d[5], t[5];
  if (fe_is_zero(z) || fe_is_zero(y)) {
    memset(z, 0, 40);
    return;
  }
  fe_sqr(a, x);
  fe_sqr(b, y);
  fe_sqr(c, b);
  /* z3 = 2·y·z, while y is still the input's */
  fe_mul(z, y, z);
  fe_mul_int(z, 2);
  fe_weak(z);
  /* d = 2((x + b)² - a - c): magnitude 2 into the square, then
     2(1 + 2 + 2) = 10 */
  fe_add(d, x, b);
  fe_sqr(d, d);
  fe_neg(t, a, 1);
  fe_add(d, d, t);
  fe_neg(t, c, 1);
  fe_add(d, d, t);
  fe_mul_int(d, 2);
  fe_weak(d);
  /* e = 3a (magnitude 3), kept in a; f = e² */
  fe_mul_int(a, 3);
  fe_sqr(b, a);
  /* x3 = f - 2d: 1 + 3 */
  fe_add(t, d, d);
  fe_neg(t, t, 2);
  fe_add(x, b, t);
  fe_weak(x);
  /* y3 = e(d - x3) - 8c: magnitude 3 into the product, then 1 + 9 */
  fe_neg(t, x, 1);
  fe_add(d, d, t);
  fe_mul(d, a, d);
  fe_mul_int(c, 8);
  fe_neg(t, c, 8);
  fe_add(y, d, t);
  fe_weak(y);
}

/* (x1, y1, z1) += (x2, y2, z2), or (x2, y2, 1) when z2 is NULL: general
   Jacobian addition is 11M + 5S, mixed addition 7M + 4S.  The operand
   must not alias the accumulator. */
static void gej_add(uint64_t *x1, uint64_t *y1, uint64_t *z1,
                    const uint64_t *x2, const uint64_t *y2, const uint64_t *z2)
{
  uint64_t u1[5], s1[5], zz[5], h[5], r[5], h2[5], h3[5], t[5];
  if (fe_is_zero(z1)) {
    memcpy(x1, x2, 40);
    memcpy(y1, y2, 40);
    if (z2) memcpy(z1, z2, 40);
    else {
      memset(z1, 0, 40);
      z1[0] = 1;
    }
    return;
  }
  if (z2 && fe_is_zero(z2)) return;
  /* u1 = x1·z2², s1 = y1·z2³: just x1 and y1 for an affine operand */
  if (z2) {
    fe_sqr(zz, z2);
    fe_mul(s1, zz, z2);
    fe_mul(u1, x1, zz);
    fe_mul(s1, y1, s1);
  } else {
    memcpy(u1, x1, 40);
    memcpy(s1, y1, 40);
  }
  /* h = x2·z1² - u1, r = y2·z1³ - s1 */
  fe_sqr(zz, z1);
  fe_mul(h, x2, zz);
  fe_mul(zz, zz, z1);
  fe_mul(r, y2, zz);
  fe_neg(t, u1, 1);
  fe_add(h, h, t);
  fe_weak(h);
  fe_neg(t, s1, 1);
  fe_add(r, r, t);
  fe_weak(r);
  if (fe_is_zero(h)) {
    if (fe_is_zero(r)) gej_double(x1, y1, z1);
    else memset(z1, 0, 40);
    return;
  }
  /* z3 = z1·h·z2 */
  fe_mul(z1, z1, h);
  if (z2) fe_mul(z1, z1, z2);
  fe_sqr(h2, h);
  fe_mul(h3, h, h2);
  /* u1h2 into h2 and s1h3 into h */
  fe_mul(h2, u1, h2);
  fe_mul(h, s1, h3);
  /* x3 = r² - h3 - 2·u1h2: 1 + 2 + 3 */
  fe_sqr(x1, r);
  fe_neg(t, h3, 1);
  fe_add(x1, x1, t);
  fe_add(t, h2, h2);
  fe_neg(t, t, 2);
  fe_add(x1, x1, t);
  fe_weak(x1);
  /* y3 = r(u1h2 - x3) - s1h3: magnitude 3 into the product */
  fe_neg(t, x1, 1);
  fe_add(h2, h2, t);
  fe_mul(h2, r, h2);
  fe_neg(t, h, 1);
  fe_add(y1, h2, t);
  fe_weak(y1);
}

/* --- OCaml entry points -----------------------------------------------

   An accumulator is an OCaml record whose first six fields are the
   40-byte elements X, Y, Z of the running point and X, Y, Z of a
   Jacobian operand (Secp256k1.acc). */

#define ACC(acc, i) FE(Field(acc, i))

value ldb_fe_mul(value r, value a, value b)
{
  fe_mul(FE(r), FE(a), FE(b));
  return Val_unit;
}

value ldb_fe_sqr(value r, value a)
{
  fe_sqr(FE(r), FE(a));
  return Val_unit;
}

value ldb_fe_add(value r, value a, value b)
{
  fe_add(FE(r), FE(a), FE(b));
  fe_weak(FE(r));
  return Val_unit;
}

value ldb_fe_sub(value r, value a, value b)
{
  uint64_t t[5];
  fe_neg(t, FE(b), 8);
  fe_add(FE(r), FE(a), t);
  fe_weak(FE(r));
  return Val_unit;
}

value ldb_fe_neg(value r, value a)
{
  fe_neg(FE(r), FE(a), 8);
  fe_weak(FE(r));
  return Val_unit;
}


value ldb_fe_is_zero(value a) { return Val_bool(fe_is_zero(FE(a))); }

value ldb_fe_equal(value a, value b)
{
  uint64_t t[5];
  fe_neg(t, FE(b), 8);
  fe_add(t, FE(a), t);
  return Val_bool(fe_is_zero(t));
}

/* OCaml scalars, and field elements on their way in and out, are
   sixteen little-endian 16-bit limbs in an int array; here they are
   four 64-bit words.  The limbs are immediates, so they are stored
   without a write barrier. */
static void limbs_load(uint64_t w[4], value l)
{
  for (int k = 0; k < 4; k++) {
    w[k] = 0;
    for (int j = 0; j < 4; j++)
      w[k] |= ((uint64_t)Long_val(Field(l, 4 * k + j)) & 0xFFFF) << (16 * j);
  }
}

static void limbs_store(value l, const uint64_t w[4])
{
  for (int i = 0; i < 16; i++)
    Field(l, i) = Val_long((w[i >> 2] >> (16 * (i & 3))) & 0xFFFF);
}

/* 256-bit words to 52-bit limbs and back */
static void pack52(uint64_t t[5], const uint64_t w[4])
{
  t[0] = w[0] & M52;
  t[1] = ((w[0] >> 52) | (w[1] << 12)) & M52;
  t[2] = ((w[1] >> 40) | (w[2] << 24)) & M52;
  t[3] = ((w[2] >> 28) | (w[3] << 36)) & M52;
  t[4] = w[3] >> 16;
}

static void unpack52(uint64_t w[4], const uint64_t t[5])
{
  w[0] = t[0] | (t[1] << 52);
  w[1] = (t[1] >> 12) | (t[2] << 40);
  w[2] = (t[2] >> 24) | (t[3] << 28);
  w[3] = (t[3] >> 36) | (t[4] << 16);
}

/* r := the value of the limbs [l], weak since it is below 2^256 */
value ldb_fe_of_limbs(value r, value l)
{
  uint64_t w[4];
  limbs_load(w, l);
  pack52(FE(r), w);
  return Val_unit;
}

/* l := the canonical value of [a] as limbs */
value ldb_fe_to_limbs(value l, value a)
{
  uint64_t t[5], w[4];
  fe_canonical(t, FE(a));
  unpack52(w, t);
  limbs_store(l, w);
  return Val_unit;
}

/* --- scalars modulo n ---------------------------------------------------

   Products are 512-bit schoolbook, reduced by folding hi·2^256 into
   hi·(2^256 − n), 129 bits, until the value fits 256 bits, and then
   subtracting n at most once (2^256 < 2n). */

static const uint64_t N[4] = { 0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                               0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL };
static const uint64_t NC[3] = { 0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL,
                                1 }; /* 2^256 − n */

static void sc_product(uint64_t t[8], const uint64_t a[4], const uint64_t b[4])
{
  memset(t, 0, 64);
  for (int i = 0; i < 4; i++) {
    u128 c = 0;
    for (int j = 0; j < 4; j++) {
      c += (u128)a[i] * b[j] + t[i + j];
      t[i + j] = (uint64_t)c;
      c >>= 64;
    }
    t[i + 4] = (uint64_t)c;
  }
}

static int sc_geq_n(const uint64_t a[4])
{
  for (int i = 3; i >= 0; i--)
    if (a[i] != N[i]) return a[i] > N[i];
  return 1;
}

/* r := x mod n for the eight-word x, which it overwrites */
static void sc_reduce(uint64_t r[4], uint64_t x[8])
{
  uint64_t u[8];
  int len = 8;
  while (len > 0 && x[len - 1] == 0) len--;
  while (len > 4) {
    memset(u, 0, sizeof u);
    memcpy(u, x, 32);
    for (int i = 4; i < len; i++) {
      u128 c = 0;
      int k = i - 4;
      for (int j = 0; j < 3; j++, k++) {
        c += (u128)x[i] * NC[j] + u[k];
        u[k] = (uint64_t)c;
        c >>= 64;
      }
      for (; c != 0; k++) {
        c += u[k];
        u[k] = (uint64_t)c;
        c >>= 64;
      }
    }
    memcpy(x, u, sizeof u);
    len = 8;
    while (len > 0 && x[len - 1] == 0) len--;
  }
  memcpy(r, x, 32);
  if (sc_geq_n(r)) {
    u128 b = 0;
    for (int i = 0; i < 4; i++) {
      b = (u128)r[i] - N[i] - (uint64_t)b;
      r[i] = (uint64_t)b;
      b = (b >> 64) & 1;
    }
  }
}

/* r := a·b mod n */
value ldb_scalar_mul(value r, value a, value b)
{
  uint64_t x[4], y[4], t[8], z[4];
  limbs_load(x, a);
  limbs_load(y, b);
  sc_product(t, x, y);
  sc_reduce(z, t);
  limbs_store(r, z);
  return Val_unit;
}

/* c := round(k·g / 2^384): words 6 and 7 of the product, plus the
   rounding bit at position 383 */
value ldb_scalar_mul_shift_384(value c, value k, value g)
{
  uint64_t x[4], y[4], t[8], z[4];
  limbs_load(x, k);
  limbs_load(y, g);
  sc_product(t, x, y);
  u128 s = (u128)t[6] + (t[5] >> 63);
  z[0] = (uint64_t)s;
  s = (s >> 64) + t[7];
  z[1] = (uint64_t)s;
  z[2] = (uint64_t)(s >> 64);
  z[3] = 0;
  limbs_store(c, z);
  return Val_unit;
}

/* --- inversion ----------------------------------------------------------

   Bernstein and Yang's divsteps ("safegcd"), in the variable-time form
   of libsecp256k1's modinv64, for an odd modulus m below 2^256 (p or
   n).  Values are five signed 62-bit limbs.  Each round runs 62
   divsteps on the low 64 bits of f and g alone, which yields a 2 × 2
   matrix t with t·(f0, g0) = 2^62·(f, g); the round then applies t to
   the full f and g, and to the cofactors d and e (kept in (−2m, m) by
   adding the multiple of m that clears their low 62 bits before the
   division by 2^62).  f starts as m and g as x; when g reaches 0, f is
   ±1 and d ≡ ±x⁻¹. */

typedef __int128 i128;

#define M62 (UINT64_MAX >> 2)

typedef struct { int64_t v[5]; } s62;

typedef struct {
  s62 m;
  uint64_t minv; /* m⁻¹ mod 2^62 */
} modinfo;

typedef struct { int64_t u, v, q, r; } trans;

/* 62 divsteps on the low bits of f and g from [eta]; the new eta */
static int64_t divsteps_62(int64_t eta, uint64_t f, uint64_t g, trans *t)
{
  uint64_t u = 1, v = 0, q = 0, r = 1, m, w;
  int i = 62, limit, zeros;
  for (;;) {
    /* a sentinel bit stops the count of zeros at i */
    zeros = __builtin_ctzll(g | (UINT64_MAX << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    /* f and g are odd: cancel the low bits of g with a multiple of f,
       at most i of them and at most eta + 1 (after which eta's sign
       flips); a negative eta first swaps (f, g) for (g, −f) */
    if (eta < 0) {
      uint64_t tmp;
      eta = -eta;
      tmp = f; f = g; g = -tmp;
      tmp = u; u = q; q = -tmp;
      tmp = v; v = r; r = -tmp;
      limit = (int)eta + 1 > i ? i : (int)eta + 1;
      m = (UINT64_MAX >> (64 - limit)) & 63;
      /* −g/f mod 64: f·(2 − f²) inverts f mod 64 */
      w = (f * g * (f * f - 2)) & m;
    } else {
      limit = (int)eta + 1 > i ? i : (int)eta + 1;
      m = (UINT64_MAX >> (64 - limit)) & 15;
      /* −g/f mod 16 */
      w = f + (((f + 1) & 4) << 1);
      w = (-w * g) & m;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t->u = (int64_t)u;
  t->v = (int64_t)v;
  t->q = (int64_t)q;
  t->r = (int64_t)r;
  return eta;
}

/* (d, e) := t·(d, e) / 2^62 mod m, for d and e in (−2m, m), which the
   result stays in */
static void update_de(s62 *d, s62 *e, const trans *t, const modinfo *mi)
{
  const int64_t u = t->u, v = t->v, q = t->q, r = t->r;
  /* md, me: the multiples of m that make the low 62 bits zero,
     starting from u or q (v or r) for a negative d (e) */
  const int64_t sd = d->v[4] >> 63, se = e->v[4] >> 63;
  int64_t md = (u & sd) + (v & se), me = (q & sd) + (r & se);
  i128 cd = (i128)u * d->v[0] + (i128)v * e->v[0];
  i128 ce = (i128)q * d->v[0] + (i128)r * e->v[0];
  md -= (int64_t)((mi->minv * (uint64_t)cd + (uint64_t)md) & M62);
  me -= (int64_t)((mi->minv * (uint64_t)ce + (uint64_t)me) & M62);
  cd += (i128)mi->m.v[0] * md;
  ce += (i128)mi->m.v[0] * me;
  cd >>= 62;
  ce >>= 62;
  for (int k = 1; k < 5; k++) {
    cd += (i128)u * d->v[k] + (i128)v * e->v[k] + (i128)mi->m.v[k] * md;
    ce += (i128)q * d->v[k] + (i128)r * e->v[k] + (i128)mi->m.v[k] * me;
    d->v[k - 1] = (int64_t)((uint64_t)cd & M62);
    e->v[k - 1] = (int64_t)((uint64_t)ce & M62);
    cd >>= 62;
    ce >>= 62;
  }
  d->v[4] = (int64_t)cd;
  e->v[4] = (int64_t)ce;
}

/* (f, g) := t·(f, g) / 2^62 over their low [len] limbs */
static void update_fg(int len, s62 *f, s62 *g, const trans *t)
{
  const int64_t u = t->u, v = t->v, q = t->q, r = t->r;
  i128 cf = (i128)u * f->v[0] + (i128)v * g->v[0];
  i128 cg = (i128)q * f->v[0] + (i128)r * g->v[0];
  cf >>= 62;
  cg >>= 62;
  for (int k = 1; k < len; k++) {
    cf += (i128)u * f->v[k] + (i128)v * g->v[k];
    cg += (i128)q * f->v[k] + (i128)r * g->v[k];
    f->v[k - 1] = (int64_t)((uint64_t)cf & M62);
    g->v[k - 1] = (int64_t)((uint64_t)cg & M62);
    cf >>= 62;
    cg >>= 62;
  }
  f->v[len - 1] = (int64_t)cf;
  g->v[len - 1] = (int64_t)cg;
}

/* d in (−2m, m) := ±d (the sign of [sign]) in [0, m) */
static void normalize(s62 *d, int64_t sign, const modinfo *mi)
{
  int64_t r[5], c;
  memcpy(r, d->v, sizeof r);
  c = r[4] >> 63;
  for (int k = 0; k < 5; k++) r[k] += mi->m.v[k] & c;
  c = sign >> 63;
  for (int k = 0; k < 5; k++) r[k] = (r[k] ^ c) - c;
  for (int k = 0; k < 4; k++) {
    r[k + 1] += r[k] >> 62;
    r[k] &= (int64_t)M62;
  }
  c = r[4] >> 63;
  for (int k = 0; k < 5; k++) r[k] += mi->m.v[k] & c;
  for (int k = 0; k < 4; k++) {
    r[k + 1] += r[k] >> 62;
    r[k] &= (int64_t)M62;
  }
  memcpy(d->v, r, sizeof r);
}

/* 256-bit words and 62-bit limbs */
static void to_s62(s62 *r, const uint64_t w[4])
{
  r->v[0] = (int64_t)(w[0] & M62);
  r->v[1] = (int64_t)(((w[0] >> 62) | (w[1] << 2)) & M62);
  r->v[2] = (int64_t)(((w[1] >> 60) | (w[2] << 4)) & M62);
  r->v[3] = (int64_t)(((w[2] >> 58) | (w[3] << 6)) & M62);
  r->v[4] = (int64_t)(w[3] >> 56);
}

static void of_s62(uint64_t w[4], const s62 *a)
{
  const uint64_t *v = (const uint64_t *)a->v;
  w[0] = v[0] | (v[1] << 62);
  w[1] = (v[1] >> 2) | (v[2] << 60);
  w[2] = (v[2] >> 4) | (v[3] << 58);
  w[3] = (v[3] >> 6) | (v[4] << 56);
}

/* w := w⁻¹ mod m for w in [0, m); 0 for 0 */
static void inv256(uint64_t w[4], const modinfo *mi)
{
  s62 d = { { 0 } }, e = { { 1 } }, f = mi->m, g;
  int64_t eta = -1;
  int len = 5;
  to_s62(&g, w);
  for (;;) {
    trans t;
    eta = divsteps_62(eta, (uint64_t)f.v[0], (uint64_t)g.v[0], &t);
    update_de(&d, &e, &t, mi);
    update_fg(len, &f, &g, &t);
    if (g.v[0] == 0) {
      int64_t rest = 0;
      for (int k = 1; k < len; k++) rest |= g.v[k];
      if (rest == 0) break;
    }
    /* drop the top limb of f and g once both fit the limbs below it */
    int64_t fn = f.v[len - 1], gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] |= (int64_t)((uint64_t)fn << 62);
      g.v[len - 2] |= (int64_t)((uint64_t)gn << 62);
      len--;
    }
  }
  normalize(&d, f.v[len - 1], mi);
  of_s62(w, &d);
}

/* p and n in 62-bit limbs, with their inverses mod 2^62 */
static const modinfo P_INFO = {
  { { 0x3FFFFFFEFFFFFC2FLL, 0x3FFFFFFFFFFFFFFFLL, 0x3FFFFFFFFFFFFFFFLL,
      0x3FFFFFFFFFFFFFFFLL, 0xFF } },
  0x27C7F6E22DDACACFULL
};
static const modinfo N_INFO = {
  { { 0x3FD25E8CD0364141LL, 0x2ABB739ABD2280EELL, 0x3FFFFFFFFFFFFFEBLL,
      0x3FFFFFFFFFFFFFFFLL, 0xFF } },
  0x34F20099AA774EC1ULL
};

/* r := a⁻¹ mod p; 0 for a ≡ 0 */
value ldb_fe_inv(value r, value a)
{
  uint64_t t[5], w[4];
  fe_canonical(t, FE(a));
  unpack52(w, t);
  inv256(w, &P_INFO);
  pack52(FE(r), w);
  return Val_unit;
}

/* r := x⁻¹ mod n for x in [1, n) */
value ldb_scalar_inv(value r, value x)
{
  uint64_t w[4];
  limbs_load(w, x);
  inv256(w, &N_INFO);
  limbs_store(r, w);
  return Val_unit;
}

value ldb_gej_double(value acc)
{
  gej_double(ACC(acc, 0), ACC(acc, 1), ACC(acc, 2));
  return Val_unit;
}

/* the point += the Jacobian operand */
value ldb_gej_add(value acc)
{
  gej_add(ACC(acc, 0), ACC(acc, 1), ACC(acc, 2), ACC(acc, 3), ACC(acc, 4),
          ACC(acc, 5));
  return Val_unit;
}

/* the point += ±(the affine point whose x is at byte [xoff] of [xs] and
   whose y is at byte [yoff] of [ys]) */
value ldb_gej_add_ge(value acc, value xs, value xoff, value ys, value yoff,
                     value negative)
{
  uint64_t y[5];
  const uint64_t *y2 = AT(ys, yoff);
  if (Bool_val(negative)) {
    fe_neg(y, y2, 1);
    fe_weak(y);
    y2 = y;
  }
  gej_add(ACC(acc, 0), ACC(acc, 1), ACC(acc, 2), AT(xs, xoff), y2, NULL);
  return Val_unit;
}

value ldb_gej_add_ge_byte(value *argv, int argn)
{
  (void)argn;
  return ldb_gej_add_ge(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}
