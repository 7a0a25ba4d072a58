#include "crypto/p256.hpp"

#include <algorithm>
#include <array>
#include <memory>

namespace aseck::crypto::p256 {

namespace {

const U256 kP = U256::from_hex(
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
const U256 kN = U256::from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
const U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
const U256 kGx = U256::from_hex(
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
const U256 kGy = U256::from_hex(
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");

// Per thread, so shard workers never share (or race on) one counter.
thread_local std::uint64_t g_fieldops = 0;

}  // namespace

const U256& P() { return kP; }
const U256& N() { return kN; }
const U256& Gx() { return kGx; }
const U256& Gy() { return kGy; }

U256 reduce_n(const U256& x) {
  if (cmp(x, kN) < 0) return x;
  U256 r;
  sub(r, x, kN);
  return r;
}

void reset_fieldop_count() { g_fieldops = 0; }
std::uint64_t fieldop_count() { return g_fieldops; }

// fadd/fsub stay on the generic U256 modular layer: the seed tier below runs
// on them, and they must not share code with the Fe tier it checks.
U256 fadd(const U256& a, const U256& b) { return add_mod(a, b, kP); }
U256 fsub(const U256& a, const U256& b) { return sub_mod(a, b, kP); }
U256 finv(const U256& a) { return inv_mod_prime(a, kP); }

namespace {

// --- Montgomery field layer (the one working tier) --------------------------
//
// Fe holds x * 2^256 mod p on four little-endian 64-bit limbs, always
// canonical (< p). p = -1 mod 2^64 makes the per-word Montgomery quotient the
// low word itself (n0' = 1), so the reduction needs no quotient multiply.
// Every public entry point converts at the U256 boundary (fe_from / fe_to)
// and runs its arithmetic here.
struct Fe {
  std::uint64_t l[4];
};

constexpr Fe kPFe{{0xffffffffffffffffULL, 0x00000000ffffffffULL, 0ULL,
                   0xffffffff00000001ULL}};
// 2^256 mod p: Montgomery representation of 1.
constexpr Fe kMontOne{{0x0000000000000001ULL, 0xffffffff00000000ULL,
                       0xffffffffffffffffULL, 0x00000000fffffffeULL}};
// 2^512 mod p: multiplying by it (with Montgomery reduction) converts a
// plain residue into the Montgomery domain.
constexpr Fe kMontRR{{0x0000000000000003ULL, 0xfffffffbffffffffULL,
                      0xfffffffffffffffeULL, 0x00000004fffffffdULL}};
// Plain 1: multiplying by it (with Montgomery reduction) leaves the domain.
constexpr Fe kPlainOne{{1ULL, 0ULL, 0ULL, 0ULL}};

inline Fe fe_zero() { return Fe{{0, 0, 0, 0}}; }
inline Fe fe_one() { return kMontOne; }

inline bool fe_is_zero(const Fe& a) {
  return (a.l[0] | a.l[1] | a.l[2] | a.l[3]) == 0;
}

/// Equality of canonical (< p) representatives; in the Montgomery domain
/// this is exactly value equality.
inline bool fe_eq(const Fe& a, const Fe& b) {
  return ((a.l[0] ^ b.l[0]) | (a.l[1] ^ b.l[1]) | (a.l[2] ^ b.l[2]) |
          (a.l[3] ^ b.l[3])) == 0;
}

inline std::uint64_t fe_add_raw(Fe& r, const Fe& a, const Fe& b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const __uint128_t t = static_cast<__uint128_t>(a.l[i]) + b.l[i] + carry;
    r.l[i] = static_cast<std::uint64_t>(t);
    carry = static_cast<std::uint64_t>(t >> 64);
  }
  return carry;
}

inline std::uint64_t fe_sub_raw(Fe& r, const Fe& a, const Fe& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const __uint128_t t =
        static_cast<__uint128_t>(a.l[i]) - b.l[i] - borrow;
    r.l[i] = static_cast<std::uint64_t>(t);
    borrow = static_cast<std::uint64_t>(t >> 64) & 1u;
  }
  return borrow;
}

inline bool fe_geq_p(const Fe& a) {
  for (int i = 3; i >= 0; --i) {
    if (a.l[i] != kPFe.l[i]) return a.l[i] > kPFe.l[i];
  }
  return true;
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  const std::uint64_t carry = fe_add_raw(r, a, b);
  if (carry || fe_geq_p(r)) {
    Fe t;
    fe_sub_raw(t, r, kPFe);
    r = t;
  }
  return r;
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  Fe r;
  if (fe_sub_raw(r, a, b)) {
    Fe t;
    fe_add_raw(t, r, kPFe);
    r = t;
  }
  return r;
}

/// Fused Montgomery multiply (CIOS): a * b / 2^256 mod p. Each round adds
/// a.l[i] * b into a six-limb accumulator and immediately folds with m = t0
/// (n0' = 1), shifting down one limb; p[2] == 0 skips one multiply per fold.
/// The accumulator has no dynamically indexed carry ripple, so it lives
/// entirely in registers. For a < 2^256 and b < p the result before the
/// final conditional subtract is < 2p, so one subtract normalises it.
inline Fe fe_mul(const Fe& a, const Fe& b) {
  ++g_fieldops;
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
#define ASECK_CIOS_ROUND(ai)                                                \
  {                                                                         \
    const std::uint64_t x = (ai);                                           \
    __uint128_t cc = static_cast<__uint128_t>(x) * b.l[0] + t0;             \
    t0 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(x) * b.l[1] + t1;                        \
    t1 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(x) * b.l[2] + t2;                        \
    t2 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(x) * b.l[3] + t3;                        \
    t3 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += t4; t4 = static_cast<std::uint64_t>(cc);                          \
    t5 = static_cast<std::uint64_t>(cc >> 64);                              \
    const std::uint64_t m = t0;                                             \
    cc = static_cast<__uint128_t>(m) * kPFe.l[0] + t0; cc >>= 64;           \
    cc += static_cast<__uint128_t>(m) * kPFe.l[1] + t1;                     \
    t0 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += t2; /* p[2] == 0 */                                               \
    t1 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(m) * kPFe.l[3] + t3;                     \
    t2 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += t4; t3 = static_cast<std::uint64_t>(cc);                          \
    t4 = t5 + static_cast<std::uint64_t>(cc >> 64);                         \
  }
  ASECK_CIOS_ROUND(a.l[0])
  ASECK_CIOS_ROUND(a.l[1])
  ASECK_CIOS_ROUND(a.l[2])
  ASECK_CIOS_ROUND(a.l[3])
#undef ASECK_CIOS_ROUND
  Fe r{{t0, t1, t2, t3}};
  if (t4 || fe_geq_p(r)) {
    Fe s;
    fe_sub_raw(s, r, kPFe);
    r = s;
  }
  return r;
}

/// Squaring reuses the CIOS multiply: the classic halve-the-cross-products
/// square needs a full-width shift-double pass whose carry chain costs more
/// than the duplicate multiplies save (measured: dedicated square 38 ns vs
/// CIOS a*a 30 ns on the dependent chain).
inline Fe fe_sqr(const Fe& a) { return fe_mul(a, a); }

/// U256 -> Montgomery domain: one Montgomery multiply by 2^512 mod p. Any
/// U256 is accepted; the result is reduced mod p.
inline Fe fe_from(const U256& a) {
  Fe r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.l[i] = std::uint64_t{a.w[2 * i]} | (std::uint64_t{a.w[2 * i + 1]} << 32);
  }
  return fe_mul(r, kMontRR);
}

/// Montgomery domain -> U256: one Montgomery multiply by plain 1.
inline U256 fe_to(const Fe& a) {
  const Fe plain = fe_mul(a, kPlainOne);
  U256 r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.w[2 * i] = static_cast<std::uint32_t>(plain.l[i]);
    r.w[2 * i + 1] = static_cast<std::uint32_t>(plain.l[i] >> 32);
  }
  return r;
}

/// x^3 - 3x + b: the right-hand side of the curve equation.
Fe curve_rhs(const Fe& x) {
  static const Fe b = fe_from(kB);
  const Fe x3 = fe_mul(fe_sqr(x), x);
  const Fe three_x = fe_add(fe_add(x, x), x);
  return fe_add(fe_sub(x3, three_x), b);
}

// --- point ops on Fe --------------------------------------------------------

struct AffFe {
  Fe x, y;
  bool inf;
};

struct JacFe {
  Fe x, y, z;  // z == 0 encodes infinity, same as JacobianPoint
};

inline JacFe jacfe_infinity() { return JacFe{fe_zero(), fe_zero(), fe_zero()}; }
inline bool jacfe_is_inf(const JacFe& p) { return fe_is_zero(p.z); }

/// Finite affine point as Jacobian (z = 1); callers handle q.inf.
inline JacFe jacfe_from_aff(const AffFe& q) {
  return JacFe{q.x, q.y, fe_one()};
}

inline AffFe afffe_from(const AffinePoint& p) {
  return AffFe{fe_from(p.x), fe_from(p.y), p.infinity};
}

inline AffinePoint afffe_to(const AffFe& p) {
  if (p.inf) return AffinePoint::make_infinity();
  return AffinePoint{fe_to(p.x), fe_to(p.y), false};
}

inline JacFe jacfe_from(const JacobianPoint& p) {
  return JacFe{fe_from(p.x), fe_from(p.y), fe_from(p.z)};
}

inline JacobianPoint jacfe_to(const JacFe& p) {
  return JacobianPoint{fe_to(p.x), fe_to(p.y), fe_to(p.z)};
}

/// Negation of a finite affine point: (x, p - y). No P-256 point has y == 0
/// (the curve has prime order and b != 0), so p - y stays in [1, p).
inline AffFe afffe_neg(const AffFe& a) {
  return AffFe{a.x, fe_sub(fe_zero(), a.y), false};
}

/// dbl-2001-b (a = -3).
JacFe dbl_fe(const JacFe& p) {
  if (jacfe_is_inf(p) || fe_is_zero(p.y)) return jacfe_infinity();
  const Fe delta = fe_sqr(p.z);
  const Fe gamma = fe_sqr(p.y);
  const Fe beta = fe_mul(p.x, gamma);
  const Fe xmd = fe_sub(p.x, delta);
  const Fe alpha = fe_mul(fe_add(fe_add(xmd, xmd), xmd), fe_add(p.x, delta));
  const Fe beta2 = fe_add(beta, beta);
  const Fe beta4 = fe_add(beta2, beta2);
  const Fe beta8 = fe_add(beta4, beta4);
  JacFe r;
  r.x = fe_sub(fe_sqr(alpha), beta8);
  r.z = fe_sub(fe_sub(fe_sqr(fe_add(p.y, p.z)), gamma), delta);
  const Fe gamma2 = fe_sqr(gamma);
  const Fe g2 = fe_add(gamma2, gamma2);
  const Fe g4 = fe_add(g2, g2);
  const Fe g8 = fe_add(g4, g4);
  r.y = fe_sub(fe_mul(alpha, fe_sub(beta4, r.x)), g8);
  return r;
}

/// Mixed addition: Jacobian + affine (8M + 3S).
JacFe add_mixed_fe(const JacFe& p, const AffFe& q) {
  if (q.inf) return p;
  if (jacfe_is_inf(p)) return jacfe_from_aff(q);
  const Fe z1z1 = fe_sqr(p.z);
  const Fe u2 = fe_mul(q.x, z1z1);
  const Fe s2 = fe_mul(fe_mul(q.y, p.z), z1z1);
  const Fe h = fe_sub(u2, p.x);
  const Fe r_ = fe_sub(s2, p.y);
  if (fe_is_zero(h)) {
    if (fe_is_zero(r_)) return dbl_fe(p);
    return jacfe_infinity();
  }
  const Fe h2 = fe_sqr(h);
  const Fe h3 = fe_mul(h2, h);
  const Fe x1h2 = fe_mul(p.x, h2);
  JacFe out;
  out.x = fe_sub(fe_sub(fe_sqr(r_), h3), fe_add(x1h2, x1h2));
  out.y = fe_sub(fe_mul(r_, fe_sub(x1h2, out.x)), fe_mul(p.y, h3));
  out.z = fe_mul(p.z, h);
  return out;
}

/// General Jacobian + Jacobian addition (12M + 4S), with no affine
/// (inversion) step: builds odd-Q multiples and backs add() and the ladder.
JacFe add_fe(const JacFe& p, const JacFe& q) {
  if (jacfe_is_inf(p)) return q;
  if (jacfe_is_inf(q)) return p;
  const Fe z1z1 = fe_sqr(p.z);
  const Fe z2z2 = fe_sqr(q.z);
  const Fe u1 = fe_mul(p.x, z2z2);
  const Fe u2 = fe_mul(q.x, z1z1);
  const Fe s1 = fe_mul(fe_mul(p.y, q.z), z2z2);
  const Fe s2 = fe_mul(fe_mul(q.y, p.z), z1z1);
  const Fe h = fe_sub(u2, u1);
  const Fe r_ = fe_sub(s2, s1);
  if (fe_is_zero(h)) {
    if (fe_is_zero(r_)) return dbl_fe(p);
    return jacfe_infinity();
  }
  const Fe h2 = fe_sqr(h);
  const Fe h3 = fe_mul(h2, h);
  const Fe u1h2 = fe_mul(u1, h2);
  JacFe out;
  out.x = fe_sub(fe_sub(fe_sqr(r_), h3), fe_add(u1h2, u1h2));
  out.y = fe_sub(fe_mul(r_, fe_sub(u1h2, out.x)), fe_mul(s1, h3));
  out.z = fe_mul(fe_mul(p.z, q.z), h);
  return out;
}

/// Converts m Jacobian points to affine with a single field inversion
/// (Montgomery's trick: prefix products, one inversion, walk back). out[i].x
/// holds the prefix product of the z's before entry i until the walk back
/// overwrites it. Infinity entries are skipped — their z == 0 must never
/// enter the product chain — and map to affine infinity.
void batch_affine_fe(const JacFe* in, AffFe* out, std::size_t m) {
  Fe acc = fe_one();
  for (std::size_t i = 0; i < m; ++i) {
    out[i].x = acc;
    if (!jacfe_is_inf(in[i])) acc = fe_mul(acc, in[i].z);
  }
  // 1 / (z_1 * ... * z_k) over the finite entries, by finv's binary GCD.
  Fe inv = fe_from(finv(fe_to(acc)));
  for (std::size_t i = m; i-- > 0;) {
    if (jacfe_is_inf(in[i])) {
      out[i] = AffFe{fe_zero(), fe_zero(), true};
      continue;
    }
    const Fe zinv = fe_mul(inv, out[i].x);
    inv = fe_mul(inv, in[i].z);
    const Fe z2 = fe_sqr(zinv);
    out[i] = AffFe{fe_mul(in[i].x, z2), fe_mul(in[i].y, fe_mul(z2, zinv)),
                   false};
  }
}

inline AffFe to_affine_fe(const JacFe& p) {
  AffFe out;
  batch_affine_fe(&p, &out, 1);
  return out;
}

// --- Signed 4-bit combs -----------------------------------------------------
//
// The comb of a base P holds comb[i * 8 + j - 1] = j * 16^i * P (affine) for
// window i in [0, 64) and j in [1, 8], plus comb[512] = 2^256 * P for the
// recoding's final carry. comb_digits recodes k into 64 digits in [-8, 7];
// a negative digit adds the negated entry, so k*P is at most 65 mixed
// additions with zero doublings. 513 entries of 72 B: ~36 KiB per comb.

constexpr int kCombEntries = 8;  // |digit| in 1..8
constexpr std::size_t kCombSize = kCombWindows * kCombEntries + 1;
using Comb = std::array<AffFe, kCombSize>;

void build_comb(const AffFe& base, Comb& out) {
  // Window bases B_i = 16^i * P for i in [0, 64], then one batch inversion;
  // B_64 is the carry entry.
  JacFe bases[kCombWindows + 1];
  JacFe b = jacfe_from_aff(base);
  for (int i = 0; i <= kCombWindows; ++i) {
    bases[i] = b;
    if (i < kCombWindows) {
      for (int d = 0; d < 4; ++d) b = dbl_fe(b);
    }
  }
  AffFe bases_aff[kCombWindows + 1];
  batch_affine_fe(bases, bases_aff, kCombWindows + 1);
  // Entries j*B_i by chained mixed additions, then one batch inversion.
  std::vector<JacFe> entries;
  entries.reserve(kCombSize - 1);
  for (int i = 0; i < kCombWindows; ++i) {
    JacFe acc = jacfe_from_aff(bases_aff[i]);
    for (int j = 1; j <= kCombEntries; ++j) {
      entries.push_back(acc);
      if (j < kCombEntries) acc = add_mixed_fe(acc, bases_aff[i]);
    }
  }
  batch_affine_fe(entries.data(), out.data(), entries.size());
  out[kCombSize - 1] = bases_aff[kCombWindows];
}

/// r += k * P, with `digits` = comb_digits(k) and `comb` built for P.
void comb_add(JacFe& r, const Comb& comb, const CombDigits& digits) {
  for (int i = 0; i < kCombWindows; ++i) {
    const int d = digits[static_cast<std::size_t>(i)];
    if (d == 0) continue;
    const AffFe& m = comb[static_cast<std::size_t>(
        i * kCombEntries + (d > 0 ? d : -d) - 1)];
    r = add_mixed_fe(r, d > 0 ? m : afffe_neg(m));
  }
  if (digits[kCombWindows]) r = add_mixed_fe(r, comb[kCombSize - 1]);
}

// --- Fixed-base tables for G ------------------------------------------------
//
// The comb of G serves scalar_mult_base and the G half of double_scalar_mult
// once Q has a comb. odd_g[m] = (2m+1) * G feeds the width-8 wNAF G-term of
// double_scalar_mult and multi_scalar_mult. ~41 KiB total, built lazily once.

constexpr int kOddG = 64;  // 1G, 3G, ..., 127G (width-8 wNAF)

struct FixedBaseTables {
  Comb comb;
  AffFe odd_g[kOddG];
};

const FixedBaseTables& fixed_base() {
  static const FixedBaseTables tables = [] {
    FixedBaseTables t;
    const AffFe g = afffe_from(generator());
    build_comb(g, t.comb);
    // Odd multiples 1G..127G: chained mixed additions of the affine 2G, one
    // batch inversion (all one-time build cost).
    const AffFe g2 = to_affine_fe(dbl_fe(jacfe_from_aff(g)));
    JacFe odd[kOddG];
    JacFe oacc = jacfe_from_aff(g);
    for (int m = 0; m < kOddG; ++m) {
      odd[m] = oacc;
      if (m + 1 < kOddG) oacc = add_mixed_fe(oacc, g2);
    }
    batch_affine_fe(odd, t.odd_g, kOddG);
    return t;
  }();
  return tables;
}

// --- Per-thread combs for recurring keys ------------------------------------
//
// Each thread keeps combs for up to kKeyCombSlots verification keys. A key
// earns one on its kKeyCombBuildAfter-th double_scalar_mult in the thread:
// a build costs about 2.4 wNAF verifies, so the key has to recur first.
// Until then its calls are counted in a FIFO of kKeyCombHorizon candidates
// that one-off keys recycle among themselves, so they never evict a built
// comb. A new comb takes a free slot, or else the least recently used comb
// if that one has been idle for more than kKeyCombHorizon calls; with every
// comb busier than that the key stays on the wNAF path, so a round-robin
// over more recurring keys than slots cannot thrash the cache with builds.
// Combs are built from public points only.

struct KeySlot {
  U256 x, y;
  std::uint64_t last_use = 0;
  std::unique_ptr<Comb> comb;  // null: free slot
};

struct Candidate {
  U256 x, y;
  int calls = 0;  // 0: free entry
};

class KeyCombCache {
 public:
  /// The comb for q (finite), or nullptr while q has none.
  const Comb* find_or_count(const AffinePoint& q) {
    ++tick_;
    for (KeySlot& s : slots_) {
      if (s.comb && s.x == q.x && s.y == q.y) {
        s.last_use = tick_;
        return s.comb.get();
      }
    }
    Candidate* c = nullptr;
    for (Candidate& e : candidates_) {
      if (e.calls > 0 && e.x == q.x && e.y == q.y) {
        c = &e;
        break;
      }
    }
    if (c == nullptr) {
      c = &candidates_[next_candidate_];
      next_candidate_ = (next_candidate_ + 1) % kKeyCombHorizon;
      *c = Candidate{q.x, q.y, 0};
    }
    if (++c->calls < kKeyCombBuildAfter) return nullptr;
    c->calls = 0;
    KeySlot* victim = &slots_[0];
    for (KeySlot& s : slots_) {
      if (!s.comb) {
        victim = &s;
        break;
      }
      if (s.last_use < victim->last_use) victim = &s;
    }
    if (victim->comb) {
      if (tick_ - victim->last_use <= kKeyCombHorizon) return nullptr;
    } else {
      victim->comb = std::make_unique<Comb>();
    }
    build_comb(afffe_from(q), *victim->comb);
    victim->x = q.x;
    victim->y = q.y;
    victim->last_use = tick_;
    return victim->comb.get();
  }

 private:
  std::array<KeySlot, kKeyCombSlots> slots_;
  std::array<Candidate, kKeyCombHorizon> candidates_;
  std::size_t next_candidate_ = 0;
  std::uint64_t tick_ = 0;
};

KeyCombCache& key_combs() {
  thread_local KeyCombCache cache;
  return cache;
}

// --- wNAF expansion ---------------------------------------------------------

/// Width-w non-adjacent form, w in [2, 8]: digits[i] are 0 or odd with
/// |d| <= 2^(w-1) - 1, at most one nonzero digit per w-1 consecutive
/// positions. Returns the digit count (<= 258 for any 256-bit k; the buffer
/// is sized with headroom).
constexpr std::size_t kMaxWnafDigits = 260;

int wnaf(const U256& k, int width, std::int8_t* digits) {
  const std::uint32_t mask = (1u << width) - 1;
  const int half = 1 << (width - 1);
  U256 x = k;
  std::uint32_t overflow = 0;  // virtual bit 256 after a d < 0 correction
  int n = 0;
  while (!x.is_zero() || overflow) {
    int d = 0;
    if (x.is_odd()) {
      const int m = static_cast<int>(x.w[0] & mask);
      d = m >= half ? m - (1 << width) : m;
      U256 tmp;
      if (d > 0) {
        sub(tmp, x, U256::from_u64(static_cast<std::uint64_t>(d)));
      } else {
        overflow += add(tmp, x, U256::from_u64(static_cast<std::uint64_t>(-d)));
      }
      x = tmp;
    }
    digits[n++] = static_cast<std::int8_t>(d);
    shr1(x);
    if (overflow) {
      x.w[7] |= 0x80000000u;
      overflow = 0;
    }
  }
  return n;
}

}  // namespace

U256 fmul(const U256& a, const U256& b) {
  return fe_to(fe_mul(fe_from(a), fe_from(b)));
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return make_infinity();
  return JacobianPoint{p.x, p.y, U256::one()};
}

AffinePoint to_affine(const JacobianPoint& p) {
  return afffe_to(to_affine_fe(jacfe_from(p)));
}

bool x_equals_mod_n(const JacobianPoint& pt, const U256& r) {
  if (pt.is_infinity()) return false;
  // x = X / Z^2, so x == r  <=>  X == r * Z^2 (mod p), with no inversion.
  const Fe x = fe_from(pt.x);
  const Fe z2 = fe_sqr(fe_from(pt.z));
  if (fe_eq(fe_mul(fe_from(r), z2), x)) return true;
  // p < 2n, so x = r + n is the only other field element with x mod n == r,
  // and only when it is actually < p, i.e. r < p - n.
  U256 p_minus_n;
  sub(p_minus_n, kP, kN);
  if (cmp(r, p_minus_n) < 0) {
    U256 rn;
    add(rn, r, kN);  // no carry: r + n < p < 2^256
    return fe_eq(fe_mul(fe_from(rn), z2), x);
  }
  return false;
}

std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& in) {
  std::vector<JacFe> jac;
  jac.reserve(in.size());
  for (const JacobianPoint& p : in) jac.push_back(jacfe_from(p));
  std::vector<AffFe> aff(in.size());
  batch_affine_fe(jac.data(), aff.data(), jac.size());
  std::vector<AffinePoint> out;
  out.reserve(in.size());
  for (const AffFe& a : aff) out.push_back(afffe_to(a));
  return out;
}

JacobianPoint dbl(const JacobianPoint& p) {
  return jacfe_to(dbl_fe(jacfe_from(p)));
}

JacobianPoint add_mixed(const JacobianPoint& p, const AffinePoint& q) {
  return jacfe_to(add_mixed_fe(jacfe_from(p), afffe_from(q)));
}

JacobianPoint add(const JacobianPoint& p, const JacobianPoint& q) {
  return jacfe_to(add_fe(jacfe_from(p), jacfe_from(q)));
}

JacobianPoint scalar_mult(const U256& k, const AffinePoint& p) {
  const AffFe pf = afffe_from(p);
  JacFe r = jacfe_infinity();
  for (int i = k.top_bit(); i >= 0; --i) {
    r = dbl_fe(r);
    if (k.bit(static_cast<unsigned>(i))) r = add_mixed_fe(r, pf);
  }
  return jacfe_to(r);
}

JacobianPoint scalar_mult_ladder(const U256& k, const AffinePoint& p,
                                 unsigned bits) {
  // Classic X-then-add ladder over (R0, R1) with R1 - R0 = P invariant.
  // Every iteration performs exactly one dbl and one add regardless of the
  // key bit, so the op count (and thus time in a software model) is
  // independent of k. Note: the *selection* below is still data-dependent
  // branching at the C++ level; real hardened code uses constant-time swaps.
  JacFe r0 = jacfe_infinity();
  JacFe r1 = jacfe_from(JacobianPoint::from_affine(p));
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    const bool bit = k.bit(static_cast<unsigned>(i));
    if (bit) {
      r0 = add_fe(r0, r1);
      r1 = dbl_fe(r1);
    } else {
      r1 = add_fe(r0, r1);
      r0 = dbl_fe(r0);
    }
  }
  return jacfe_to(r0);
}

void init_fixed_base_tables() { (void)fixed_base(); }

CombDigits comb_digits(const U256& k) {
  CombDigits d{};
  int carry = 0;
  for (int i = 0; i < kCombWindows; ++i) {
    const int nibble = static_cast<int>((k.w[static_cast<std::size_t>(i / 8)] >>
                                         (4 * (i % 8))) & 0xfu) + carry;
    carry = nibble >= 8 ? 1 : 0;
    d[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(nibble - 16 * carry);
  }
  d[kCombWindows] = static_cast<std::int8_t>(carry);
  return d;
}

JacobianPoint scalar_mult_base(const U256& k) {
  JacFe r = jacfe_infinity();
  comb_add(r, fixed_base().comb, comb_digits(k));
  return jacfe_to(r);
}

JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q) {
  // A recurring Q has a comb: two comb walks, no doublings, no inversion.
  if (!q.infinity) {
    if (const Comb* qc = key_combs().find_or_count(q)) {
      JacFe r = jacfe_infinity();
      comb_add(r, fixed_base().comb, comb_digits(u1));
      comb_add(r, *qc, comb_digits(u2));
      return jacfe_to(r);
    }
  }
  std::int8_t d1[kMaxWnafDigits], d2[kMaxWnafDigits];
  // G gets width 8 (static 64-entry table); Q gets width 4 (its 4-entry odd
  // table is built per call). An infinite Q contributes nothing; skip its
  // expansion and table.
  const int n1 = wnaf(u1, 8, d1);
  const int n2 = q.infinity ? 0 : wnaf(u2, 4, d2);

  // Odd multiples of Q: 1Q, 3Q, 5Q, 7Q. 3Q..7Q are chained in Jacobian form
  // (one general addition each, no per-entry inversion), then converted with
  // a single batched inversion. The infinity guard in the batch keeps the
  // product chain sound even for adversarial q (e.g. 3Q = O cannot happen on
  // the prime-order curve, but nothing here relies on that).
  AffFe odd_q[4];
  if (n2 > 0) {
    const AffFe qa = afffe_from(q);
    const JacFe q2 = dbl_fe(jacfe_from_aff(qa));
    JacFe mults[3];
    mults[0] = add_mixed_fe(q2, qa);           // 3Q
    mults[1] = add_fe(mults[0], q2);           // 5Q
    mults[2] = add_fe(mults[1], q2);           // 7Q
    odd_q[0] = qa;
    batch_affine_fe(mults, odd_q + 1, 3);
  }

  const FixedBaseTables& t = fixed_base();
  JacFe r = jacfe_infinity();
  for (int i = std::max(n1, n2); i-- > 0;) {
    r = dbl_fe(r);
    if (i < n1 && d1[i] != 0) {
      const AffFe& m = t.odd_g[(d1[i] > 0 ? d1[i] : -d1[i]) / 2];
      r = add_mixed_fe(r, d1[i] > 0 ? m : afffe_neg(m));
    }
    if (i < n2 && d2[i] != 0) {
      const AffFe& m = odd_q[(d2[i] > 0 ? d2[i] : -d2[i]) / 2];
      if (!m.inf) r = add_mixed_fe(r, d2[i] > 0 ? m : afffe_neg(m));
    }
  }
  return jacfe_to(r);
}

std::optional<AffinePoint> decompress(const U256& x, bool y_odd) {
  if (cmp(x, kP) >= 0) return std::nullopt;
  const Fe rhs = curve_rhs(fe_from(x));
  // p == 3 (mod 4): sqrt(a) = a^((p+1)/4) when a is a quadratic residue.
  static const U256 exp = [] {
    U256 e;
    add(e, kP, U256::one());  // p + 1 < 2^256, no carry out
    shr1(e);
    shr1(e);
    return e;
  }();
  Fe y = fe_one();
  for (int i = exp.top_bit(); i >= 0; --i) {
    y = fe_sqr(y);
    if (exp.bit(static_cast<unsigned>(i))) y = fe_mul(y, rhs);
  }
  if (!fe_eq(fe_sqr(y), rhs)) return std::nullopt;  // non-residue: no point
  U256 yu = fe_to(y);
  if (yu.is_odd() != y_odd) {
    y = fe_sub(fe_zero(), y);
    yu = fe_to(y);
    // Only y == 0 is parity-fixed under negation; no P-256 point has it
    // (b != 0, prime order), so a residual mismatch means no such point.
    if (yu.is_odd() != y_odd) return std::nullopt;
  }
  return AffinePoint{x, yu, false};
}

JacobianPoint multi_scalar_mult(const U256& g_scalar,
                                const std::vector<MultiScalarTerm>& terms) {
  // Width-5 wNAF for dynamic terms: odd multiples {1,3,...,15}P, 8 entries.
  constexpr int kTermEntries = 8;
  std::int8_t dg[kMaxWnafDigits];
  const int ng = g_scalar.is_zero() ? 0 : wnaf(g_scalar, 8, dg);

  const std::size_t nt = terms.size();
  std::vector<std::array<std::int8_t, kMaxWnafDigits>> digits(nt);
  std::vector<int> nd(nt, 0);
  int top = ng;
  for (std::size_t i = 0; i < nt; ++i) {
    if (terms[i].point.infinity || terms[i].scalar.is_zero()) continue;
    nd[i] = wnaf(terms[i].scalar, 5, digits[i].data());
    top = std::max(top, nd[i]);
  }

  // Per-term tables are chained in Jacobian form (one doubling + general
  // additions, no per-entry inversion); the entries of ALL terms are then
  // normalised to affine with one shared Montgomery batch inversion.
  std::vector<AffFe> table(nt * kTermEntries,
                           AffFe{fe_zero(), fe_zero(), true});
  std::vector<JacFe> jac;
  std::vector<std::size_t> jac_slot;
  jac.reserve(nt * (kTermEntries - 1));
  jac_slot.reserve(nt * (kTermEntries - 1));
  for (std::size_t i = 0; i < nt; ++i) {
    if (nd[i] == 0) continue;
    const AffFe base = afffe_from(terms[i].point);
    table[i * kTermEntries] = base;
    const JacFe p2 = dbl_fe(jacfe_from_aff(base));
    JacFe acc = add_mixed_fe(p2, base);  // 3P
    for (int e = 1; e < kTermEntries; ++e) {
      jac.push_back(acc);
      jac_slot.push_back(i * kTermEntries + static_cast<std::size_t>(e));
      if (e + 1 < kTermEntries) acc = add_fe(acc, p2);
    }
  }
  if (!jac.empty()) {
    std::vector<AffFe> aff(jac.size());
    batch_affine_fe(jac.data(), aff.data(), jac.size());
    for (std::size_t k = 0; k < jac.size(); ++k) table[jac_slot[k]] = aff[k];
  }

  // One shared doubling chain for every term (the Straus interleaving).
  const FixedBaseTables& t = fixed_base();
  JacFe r = jacfe_infinity();
  for (int i = top; i-- > 0;) {
    r = dbl_fe(r);
    if (i < ng && dg[i] != 0) {
      const AffFe& m = t.odd_g[(dg[i] > 0 ? dg[i] : -dg[i]) / 2];
      r = add_mixed_fe(r, dg[i] > 0 ? m : afffe_neg(m));
    }
    for (std::size_t j = 0; j < nt; ++j) {
      if (i >= nd[j]) continue;
      const int d = digits[j][static_cast<std::size_t>(i)];
      if (d == 0) continue;
      const AffFe& m = table[j * kTermEntries +
                             static_cast<std::size_t>((d > 0 ? d : -d) / 2)];
      if (!m.inf) r = add_mixed_fe(r, d > 0 ? m : afffe_neg(m));
    }
  }
  return jacfe_to(r);
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return false;
  if (cmp(p.x, kP) >= 0 || cmp(p.y, kP) >= 0) return false;
  // y^2 == x^3 - 3x + b
  return fe_eq(fe_sqr(fe_from(p.y)), curve_rhs(fe_from(p.x)));
}

AffinePoint generator() { return AffinePoint{kGx, kGy, false}; }

// --- Seed reference kernel --------------------------------------------------
//
// double_scalar_mult_shamir is the *seed's* verify kernel, preserved
// byte-for-byte in behaviour AND cost model: its field ops round-trip the
// full product through U512 + reduce_p (NIST fast reduction on 32-bit words)
// and square via a general multiply, exactly as the seed did. It is the
// independent oracle the Fe tier is tested against and the honest baseline
// in the E17 slow-vs-fast sweep; running it on the Fe core would make the
// oracle share the code it checks and silently flatter the baseline.

U256 reduce_p(const U512& x) {
  // NIST fast reduction for p256 (Hankerson-Menezes-Vanstone Alg. 2.29):
  // r = T + 2*S1 + 2*S2 + S3 + S4 - D1 - D2 - D3 - D4 mod p, with the
  // 32-bit word selections below (index 0 = least significant word).
  const std::uint32_t* c = x.w.data();
  std::int64_t acc[8];
  auto set = [&](int i, std::int64_t v) { acc[i] = v; };
  set(0, (std::int64_t)c[0] + c[8] + c[9] - c[11] - c[12] - c[13] - c[14]);
  set(1, (std::int64_t)c[1] + c[9] + c[10] - c[12] - c[13] - c[14] - c[15]);
  set(2, (std::int64_t)c[2] + c[10] + c[11] - c[13] - c[14] - c[15]);
  set(3, (std::int64_t)c[3] + 2 * (std::int64_t)c[11] + 2 * (std::int64_t)c[12] +
             c[13] - c[15] - c[8] - c[9]);
  set(4, (std::int64_t)c[4] + 2 * (std::int64_t)c[12] + 2 * (std::int64_t)c[13] +
             c[14] - c[9] - c[10]);
  set(5, (std::int64_t)c[5] + 2 * (std::int64_t)c[13] + 2 * (std::int64_t)c[14] +
             c[15] - c[10] - c[11]);
  set(6, (std::int64_t)c[6] + 2 * (std::int64_t)c[14] + 2 * (std::int64_t)c[15] +
             c[14] + c[13] - c[8] - c[9]);
  set(7, (std::int64_t)c[7] + 2 * (std::int64_t)c[15] + c[15] + c[8] - c[10] -
             c[11] - c[12] - c[13]);

  // Carry-propagate the signed accumulators into a U256 plus signed overflow.
  U256 r;
  std::int64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const std::int64_t t = acc[i] + carry;
    r.w[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(t & 0xffffffffLL);
    carry = t >> 32;  // arithmetic shift: floor division by 2^32
  }
  // Fold the +/- carry*2^256 term: 2^256 mod p == 2^256 - p.
  while (carry < 0) {
    carry += static_cast<std::int64_t>(add(r, r, kP));
  }
  while (carry > 0) {
    U256 t;
    const std::uint32_t borrow = sub(t, r, kP);
    r = t;
    carry -= static_cast<std::int64_t>(borrow);
  }
  while (cmp(r, kP) >= 0) {
    U256 t;
    sub(t, r, kP);
    r = t;
  }
  return r;
}

namespace {

U256 ref_fmul(const U256& a, const U256& b) {
  ++g_fieldops;
  return reduce_p(mul(a, b));
}
U256 ref_fsqr(const U256& a) { return ref_fmul(a, a); }

JacobianPoint ref_dbl(const JacobianPoint& p) {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint::make_infinity();
  // dbl-2001-b (a = -3), spelled as in the seed:
  const U256 delta = ref_fsqr(p.z);
  const U256 gamma = ref_fsqr(p.y);
  const U256 beta = ref_fmul(p.x, gamma);
  const U256 alpha =
      ref_fmul(fadd(fadd(fsub(p.x, delta), fsub(p.x, delta)), fsub(p.x, delta)),
               fadd(p.x, delta));  // 3*(x-delta)*(x+delta)
  const U256 beta4 = fadd(fadd(beta, beta), fadd(beta, beta));
  const U256 beta8 = fadd(beta4, beta4);
  JacobianPoint r;
  r.x = fsub(ref_fsqr(alpha), beta8);
  r.z = fsub(fsub(ref_fsqr(fadd(p.y, p.z)), gamma), delta);
  const U256 gamma2 = ref_fsqr(gamma);
  const U256 gamma2_8 =
      fadd(fadd(fadd(gamma2, gamma2), fadd(gamma2, gamma2)),
           fadd(fadd(gamma2, gamma2), fadd(gamma2, gamma2)));
  r.y = fsub(ref_fmul(alpha, fsub(beta4, r.x)), gamma2_8);
  return r;
}

JacobianPoint ref_add_mixed(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return JacobianPoint::from_affine(q);
  const U256 z1z1 = ref_fsqr(p.z);
  const U256 u2 = ref_fmul(q.x, z1z1);
  const U256 s2 = ref_fmul(ref_fmul(q.y, p.z), z1z1);
  const U256 h = fsub(u2, p.x);
  const U256 r_ = fsub(s2, p.y);
  if (h.is_zero()) {
    if (r_.is_zero()) return ref_dbl(p);
    return JacobianPoint::make_infinity();
  }
  const U256 h2 = ref_fsqr(h);
  const U256 h3 = ref_fmul(h2, h);
  const U256 x1h2 = ref_fmul(p.x, h2);
  JacobianPoint out;
  out.x = fsub(fsub(ref_fsqr(r_), h3), fadd(x1h2, x1h2));
  out.y = fsub(ref_fmul(r_, fsub(x1h2, out.x)), ref_fmul(p.y, h3));
  out.z = ref_fmul(p.z, h);
  return out;
}

}  // namespace

JacobianPoint double_scalar_mult_shamir(const U256& u1, const U256& u2,
                                        const AffinePoint& q) {
  // Shamir's trick: interleaved double-and-add with precomputed G+Q.
  const AffinePoint g = generator();
  const JacobianPoint gq_j = ref_add_mixed(JacobianPoint::from_affine(g), q);
  // G + Q is infinite when q == -G; the affine sum only exists when finite.
  const AffinePoint gq =
      gq_j.is_infinity() ? AffinePoint::make_infinity() : to_affine(gq_j);
  JacobianPoint r = JacobianPoint::make_infinity();
  const int top = std::max(u1.top_bit(), u2.top_bit());
  for (int i = top; i >= 0; --i) {
    r = ref_dbl(r);
    const bool b1 = i >= 0 && u1.bit(static_cast<unsigned>(i));
    const bool b2 = i >= 0 && u2.bit(static_cast<unsigned>(i));
    if (b1 && b2) {
      r = gq.infinity ? r : ref_add_mixed(r, gq);
    } else if (b1) {
      r = ref_add_mixed(r, g);
    } else if (b2) {
      r = ref_add_mixed(r, q);
    }
  }
  return r;
}

}  // namespace aseck::crypto::p256
