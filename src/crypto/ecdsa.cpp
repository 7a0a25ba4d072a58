#include "crypto/ecdsa.hpp"

#include <stdexcept>

#include "crypto/hmac.hpp"

namespace aseck::crypto {

namespace {

using detail::digest_to_scalar;

/// Retry budget for nonce derivation. Each candidate is zero mod n with
/// probability ~2^-256, so exhausting this means the HMAC itself is broken —
/// fail loudly rather than looping (or, as the former std::uint8_t counter
/// did, silently wrapping and re-offering the same 256 candidates forever).
constexpr std::uint32_t kMaxNonceRetries = 1024;

/// Deterministic nonce: k = nonce_candidate(d, digest, counter) retried
/// until valid. Simplified RFC 6979 construction.
U256 derive_nonce(const U256& d, const Digest& digest) {
  for (std::uint32_t counter = 0; counter < kMaxNonceRetries; ++counter) {
    const U256 k = detail::nonce_candidate(d, digest, counter);
    if (!k.is_zero()) return k;
  }
  throw std::runtime_error(
      "derive_nonce: retry budget exhausted (HMAC stream degenerate)");
}

}  // namespace

namespace detail {

U256 nonce_candidate(const U256& d, const Digest& digest,
                     std::uint32_t counter) {
  const util::Bytes key = d.to_bytes();
  util::Bytes msg(digest.begin(), digest.end());
  if (counter < 0x100) {
    // Single-byte encoding: keeps signatures byte-identical to the original
    // scheme for the (overwhelmingly common) low-retry region.
    msg.push_back(static_cast<std::uint8_t>(counter));
  } else {
    // Beyond the old std::uint8_t range, widen the encoding so candidate
    // streams never repeat (the former counter wrapped 256 -> 0 here).
    msg.push_back(0xff);
    util::append_be(msg, counter, 4);
  }
  const Digest h = hmac_sha256(key, msg);
  return p256::reduce_n(
      U256::from_bytes(util::BytesView(h.data(), h.size())));
}

U256 digest_to_scalar(const Digest& d) {
  // Leftmost-bits rule; for SHA-256 and P-256 both are 256 bits, so this is
  // just a reduction mod n.
  const U256 z = U256::from_bytes(util::BytesView(d.data(), d.size()));
  return p256::reduce_n(z);
}

}  // namespace detail

util::Bytes EcdsaSignature::to_bytes() const {
  util::Bytes out = r.to_bytes();
  const util::Bytes sb = s.to_bytes();
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

std::optional<EcdsaSignature> EcdsaSignature::from_bytes(util::BytesView b) {
  if (b.size() != 64) return std::nullopt;
  EcdsaSignature sig;
  sig.r = U256::from_bytes(b.subspan(0, 32));
  sig.s = U256::from_bytes(b.subspan(32, 32));
  return sig;
}

util::Bytes EcdsaPublicKey::to_bytes() const {
  util::Bytes out{0x04};
  const util::Bytes xb = point.x.to_bytes();
  const util::Bytes yb = point.y.to_bytes();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

std::optional<EcdsaPublicKey> EcdsaPublicKey::from_bytes(util::BytesView b) {
  if (b.size() != 65 || b[0] != 0x04) return std::nullopt;
  EcdsaPublicKey pub;
  pub.point.x = U256::from_bytes(b.subspan(1, 32));
  pub.point.y = U256::from_bytes(b.subspan(33, 32));
  pub.point.infinity = false;
  if (!p256::on_curve(pub.point)) return std::nullopt;
  return pub;
}

EcdsaPrivateKey::EcdsaPrivateKey(U256 d) : d_(d) {
  pub_.point = p256::to_affine(p256::scalar_mult_base(d_));
}

EcdsaPrivateKey EcdsaPrivateKey::generate(Drbg& rng) {
  for (;;) {
    const util::Bytes raw = rng.bytes(32);
    const U256 d = p256::reduce_n(U256::from_bytes(raw));
    if (!d.is_zero()) return EcdsaPrivateKey(d);
  }
}

EcdsaPrivateKey EcdsaPrivateKey::from_secret(util::BytesView secret32) {
  const U256 d = p256::reduce_n(U256::from_bytes(secret32));
  if (d.is_zero()) {
    throw std::invalid_argument("EcdsaPrivateKey: secret reduces to zero");
  }
  return EcdsaPrivateKey(d);
}

EcdsaSignature EcdsaPrivateKey::sign(util::BytesView msg) const {
  return sign_digest(sha256(msg));
}

EcdsaSignature EcdsaPrivateKey::sign_digest(const Digest& digest) const {
  const U256& n = p256::N();
  const U256 z = digest_to_scalar(digest);
  Digest attempt_digest = digest;
  for (;;) {
    const U256 k = derive_nonce(d_, attempt_digest);
    const p256::AffinePoint R = p256::to_affine(p256::scalar_mult_base(k));
    const U256 r = p256::reduce_n(R.x);
    if (r.is_zero()) {
      attempt_digest[0] ^= 0x5a;  // perturb and retry (never expected)
      continue;
    }
    const U256 kinv = inv_mod_prime(k, n);
    const U256 rd = mul_mod(r, d_, n);
    const U256 s = mul_mod(kinv, add_mod(z, rd, n), n);
    if (s.is_zero()) {
      attempt_digest[0] ^= 0xa5;
      continue;
    }
    EcdsaSignature sig{r, s};
    // Attach the 1609.2-style compressed-y hint, but only when R.x < n so r
    // names R.x unambiguously (for r in [0, p - n) the point could also have
    // had x = r + n; skipping the hint there keeps it trustworthy-or-absent).
    if (cmp(R.x, n) < 0) sig.r_parity = R.y.is_odd() ? 1 : 0;
    return sig;
  }
}

bool ecdsa_verify(const EcdsaPublicKey& pub, util::BytesView msg,
                  const EcdsaSignature& sig) {
  return ecdsa_verify_digest(pub, sha256(msg), sig);
}

namespace {

/// Shared verification skeleton; `shamir` selects the reference 1-bit
/// double-scalar path instead of the wNAF fast path.
bool verify_digest_impl(const EcdsaPublicKey& pub, const Digest& digest,
                        const EcdsaSignature& sig, bool shamir) {
  const U256& n = p256::N();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;
  if (!pub.valid()) return false;
  const U256 z = digest_to_scalar(digest);
  const U256 w = inv_mod_prime(sig.s, n);
  const U256 u1 = mul_mod(z, w, n);
  const U256 u2 = mul_mod(sig.r, w, n);
  if (shamir) {
    // Reference path: full affine conversion, x reduced mod n (the seed's
    // exact final step).
    const p256::JacobianPoint X =
        p256::double_scalar_mult_shamir(u1, u2, pub.point);
    if (X.is_infinity()) return false;
    const p256::AffinePoint Xa = p256::to_affine(X);
    return mod_generic(Xa.x, n) == sig.r;
  }
  // Fast path: compare in Jacobian coordinates, skipping the inversion.
  return p256::x_equals_mod_n(p256::double_scalar_mult(u1, u2, pub.point),
                              sig.r);
}

}  // namespace

bool ecdsa_verify_digest(const EcdsaPublicKey& pub, const Digest& digest,
                         const EcdsaSignature& sig) {
  return verify_digest_impl(pub, digest, sig, /*shamir=*/false);
}

bool ecdsa_verify_digest_slow(const EcdsaPublicKey& pub, const Digest& digest,
                              const EcdsaSignature& sig) {
  return verify_digest_impl(pub, digest, sig, /*shamir=*/true);
}

std::optional<util::Bytes> ecdh_shared(const EcdsaPrivateKey& mine,
                                       const EcdsaPublicKey& peer,
                                       util::BytesView info, std::size_t len) {
  if (!peer.valid()) return std::nullopt;
  const p256::JacobianPoint s = p256::scalar_mult(mine.scalar(), peer.point);
  if (s.is_infinity()) return std::nullopt;
  const p256::AffinePoint sa = p256::to_affine(s);
  const util::Bytes x = sa.x.to_bytes();
  return hkdf(util::Bytes{}, x, info, len);
}

}  // namespace aseck::crypto
