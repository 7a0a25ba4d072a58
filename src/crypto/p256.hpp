#pragma once
// NIST P-256 (secp256r1) elliptic curve arithmetic: field operations mod p,
// Jacobian-coordinate point operations, and scalar multiplication.
//
// One working tier runs every multiplication: a Montgomery-domain field core
// on 64-bit limbs, entered by converting the U256 arguments at the boundary.
// fadd/fsub/finv stay on the generic U256 layer. On that core sit the
// generic double-and-add and Montgomery-ladder routines (reference and
// side-channel-model paths) and the fast paths that ecdsa_verify/sign run on:
//  - one signed-digit 4-bit comb (64 windows x 8 entries plus a carry
//    entry, no doublings per use), built once for G and per thread for each
//    recurring verification key;
//  - a wNAF interleaving for u1*G + u2*Q while Q has no comb yet.
//
// The seed's kernel is the only second copy: reduce_p and
// double_scalar_mult_shamir keep their own NIST-reduction field multiply,
// doubling and mixed addition, as the independent oracle the tests check the
// working tier against and as E17's honest baseline.
//
// NOTE: scalar multiplication here is *not* constant-time; timing leakage of
// long-lived keys is exactly one of the side-channel classes the paper
// discusses, and src/sidechannel models it explicitly. Production silicon
// would use a hardened ladder.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/u256.hpp"

namespace aseck::crypto::p256 {

/// Field prime p and curve order n (the curve has a = -3).
const U256& P();
const U256& N();
/// Base point (affine).
const U256& Gx();
const U256& Gy();
/// x mod n for any 256-bit x: n > 2^255, so x < 2n and one conditional
/// subtraction is exact.
U256 reduce_n(const U256& x);

// --- Field arithmetic mod p -------------------------------------------------

U256 fadd(const U256& a, const U256& b);
U256 fsub(const U256& a, const U256& b);
/// Product mod p (Montgomery core; any U256 inputs).
U256 fmul(const U256& a, const U256& b);
U256 finv(const U256& a);
/// Reduces an arbitrary 512-bit value mod p: the seed kernel's NIST fast
/// reduction (Hankerson-Menezes-Vanstone Alg. 2.29).
U256 reduce_p(const U512& x);

// --- Points ------------------------------------------------------------------

/// Affine point; infinity encoded by `infinity == true`.
struct AffinePoint {
  U256 x, y;
  bool infinity = false;

  static AffinePoint make_infinity() { return AffinePoint{{}, {}, true}; }
  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// Jacobian point (X/Z^2, Y/Z^3); infinity encoded by Z == 0.
struct JacobianPoint {
  U256 x, y, z;

  static JacobianPoint make_infinity() { return JacobianPoint{}; }
  static JacobianPoint from_affine(const AffinePoint& p);
  bool is_infinity() const { return z.is_zero(); }
};

AffinePoint to_affine(const JacobianPoint& p);

/// Converts a batch of Jacobian points to affine with a single field
/// inversion (Montgomery's trick: prefix products, one finv, walk back).
/// Infinity entries are skipped — their z == 0 must never enter the product
/// chain — and map to affine infinity.
std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& in);

JacobianPoint dbl(const JacobianPoint& p);
/// Mixed addition: Jacobian + affine.
JacobianPoint add_mixed(const JacobianPoint& p, const AffinePoint& q);
JacobianPoint add(const JacobianPoint& p, const JacobianPoint& q);

/// k * P for affine P. k is used as-is (callers reduce mod n when required).
JacobianPoint scalar_mult(const U256& k, const AffinePoint& p);
/// Montgomery-ladder scalar multiplication: performs the same point-
/// operation sequence for every k of a given bit length (the constant-time
/// countermeasure to the timing/SPA leakage of double-and-add). `bits`
/// fixes the ladder length (use 256 for secret scalars).
JacobianPoint scalar_mult_ladder(const U256& k, const AffinePoint& p,
                                 unsigned bits = 256);
/// Field-operation counters (mul+sqr) for the leakage demonstration; reset
/// and read around a scalar multiplication. The count is per thread.
void reset_fieldop_count();
std::uint64_t fieldop_count();
/// Signed 4-bit comb recoding: k == sum_i d[i] * 16^i, with d[i] in [-8, 7]
/// for the 64 windows and d[64] in {0, 1} the carry out of the top window.
/// A comb of P holds j * 16^i * P for j in [1, 8] plus 2^256 * P, so a walk
/// over these digits is at most 65 mixed additions and no doubling.
constexpr int kCombWindows = 64;
using CombDigits = std::array<std::int8_t, kCombWindows + 1>;
CombDigits comb_digits(const U256& k);
/// k * G by one walk of G's comb (built once on first use).
JacobianPoint scalar_mult_base(const U256& k);
/// Per-thread key combs of double_scalar_mult: Q gets a comb on its
/// kKeyCombBuildAfter-th call within the last kKeyCombHorizon distinct
/// keys of a thread, and a thread holds at most kKeyCombSlots of them. A
/// full cache gives a new key the least recently used comb only once that
/// comb has been idle for more than kKeyCombHorizon calls. Fixed constants,
/// not settings; exposed so tests and benches can cross them.
constexpr int kKeyCombBuildAfter = 4;
constexpr std::size_t kKeyCombSlots = 16;
constexpr std::size_t kKeyCombHorizon = 64;
/// u1*G + u2*Q, the ECDSA verification kernel. Once Q has a comb in this
/// thread: two comb walks (G's and Q's), ~130 mixed additions. Before: wNAF
/// expansions of u1 (width 8, static odd-G table) and u2 (width 4, per-call
/// odd-Q table, batch-inverted to affine) over one shared doubling chain.
/// Both give the same point; only the Jacobian representation differs.
JacobianPoint double_scalar_mult(const U256& u1, const U256& u2,
                                 const AffinePoint& q);
/// True iff pt's affine x-coordinate reduced mod the curve order equals r
/// (the final ECDSA verification comparison, 0 < r < n). Tests the
/// congruence X == r * Z^2 (mod p) — and the r + n second candidate —
/// instead of paying a field inversion for the affine conversion.
bool x_equals_mod_n(const JacobianPoint& pt, const U256& r);
/// Reference 1-bit interleaved Shamir double-and-add (the previous
/// double_scalar_mult). Kept as the slow path for bit-for-bit equivalence
/// tests and the E17 slow-vs-fast sweep.
JacobianPoint double_scalar_mult_shamir(const U256& u1, const U256& u2,
                                        const AffinePoint& q);

/// Recovers the affine point with the given x-coordinate and y-parity
/// (SEC1 compressed form). Returns nullopt when x >= p or x is not the
/// x-coordinate of any curve point. Since p == 3 (mod 4) the square root is
/// a single exponentiation by (p+1)/4.
std::optional<AffinePoint> decompress(const U256& x, bool y_odd);

/// One term of a multi-scalar multiplication: scalar * point.
struct MultiScalarTerm {
  U256 scalar;
  AffinePoint point;
};

/// g_scalar*G + sum_i terms[i].scalar * terms[i].point over ONE shared
/// doubling chain (Straus/interleaved wNAF): the G term reuses the static
/// width-8 odd-G table; each dynamic term gets a width-5 odd-multiple table
/// whose entries — across ALL terms — are normalised to affine with a single
/// shared Montgomery batch inversion. This is the batch-ECDSA kernel: the
/// 256 doublings and the inversion are paid once per batch instead of once
/// per signature.
JacobianPoint multi_scalar_mult(const U256& g_scalar,
                                const std::vector<MultiScalarTerm>& terms);
/// Forces construction of the lazy fixed-base tables (e.g. so benches can
/// exclude the one-time build from measurements). Idempotent.
void init_fixed_base_tables();

/// True iff (x, y) satisfies the curve equation and both coords < p.
bool on_curve(const AffinePoint& p);

/// Base point as affine.
AffinePoint generator();

}  // namespace aseck::crypto::p256
