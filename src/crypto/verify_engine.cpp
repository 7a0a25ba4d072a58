#include "crypto/verify_engine.hpp"

#include <map>

namespace aseck::crypto {

namespace {
/// Fewest cache misses in one burst that go through the batch kernel.
constexpr std::size_t kBatchMin = 2;
}  // namespace

Digest VerifyEngine::cache_key(const EcdsaPublicKey& pub, const Digest& digest,
                               const EcdsaSignature& sig) {
  Sha256 h;
  h.update(util::BytesView(digest.data(), digest.size()));
  h.update(pub.to_bytes());
  h.update(sig.to_bytes());
  return h.finalize();
}

void VerifyEngine::remember(const Digest& key, bool ok) {
  const std::uint64_t evicted = cache_.evictions();
  cache_.put(key, ok);
  c_evictions_.inc(cache_.evictions() - evicted);
}

bool VerifyEngine::verify_digest(const EcdsaPublicKey& pub,
                                 const Digest& digest,
                                 const EcdsaSignature& sig) {
  ++calls_;
  c_calls_.inc();
  const Digest key = cache_key(pub, digest, sig);
  if (const bool* cached = cache_.find(key)) {
    c_hits_.inc();
    return *cached;
  }
  const bool ok = ecdsa_verify_digest(pub, digest, sig);
  ++primitive_;
  c_primitive_.inc();
  remember(key, ok);
  return ok;
}

bool VerifyEngine::verify(const EcdsaPublicKey& pub, util::BytesView msg,
                          const EcdsaSignature& sig) {
  return verify_digest(pub, sha256(msg), sig);
}

std::vector<bool> VerifyEngine::verify_batch(
    const std::vector<BatchItem>& items) {
  std::vector<bool> verdicts(items.size(), false);
  // Every item is a call — malformed (null-pointer) ones included, so call
  // and verdict counts always agree.
  calls_ += items.size();
  c_calls_.inc(items.size());

  // Cache probe pass. Duplicate triples inside one burst (the V2X flood
  // case: one beacon heard by many receivers) resolve against the first
  // occurrence instead of paying the kernel twice.
  struct Miss {
    std::size_t slot;  // verdict index of the first occurrence
    Digest key;
  };
  std::vector<Miss> misses;
  std::vector<std::pair<std::size_t, std::size_t>> aliases;  // slot -> slot
  std::map<Digest, std::size_t> pending;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& it = items[i];
    if (!it.pub || !it.sig) continue;  // verdict stays false
    const Digest key = cache_key(*it.pub, it.digest, *it.sig);
    if (const bool* cached = cache_.find(key)) {
      c_hits_.inc();
      verdicts[i] = *cached;
      continue;
    }
    const auto [at, inserted] = pending.emplace(key, i);
    if (!inserted) {
      ++alias_hits_;
      c_hits_.inc();
      aliases.emplace_back(i, at->second);
      continue;
    }
    misses.push_back({i, key});
  }

  // Resolve the misses: through the RLC batch kernel when enabled and the
  // burst is big enough to amortize, per-item otherwise. Verdicts are
  // bit-identical either way (the kernel is differentially tested).
  primitive_ += misses.size();
  c_primitive_.inc(misses.size());
  if (batch_kernel_ && misses.size() >= kBatchMin) {
    std::vector<BatchVerifyItem> work;
    work.reserve(misses.size());
    for (const Miss& m : misses) work.push_back(items[m.slot]);
    const std::vector<bool> ok = ecdsa_verify_batch(work);
    batched_ += misses.size();
    c_batched_.inc(misses.size());
    h_batch_items_.record(static_cast<double>(misses.size()));
    for (std::size_t k = 0; k < misses.size(); ++k) {
      verdicts[misses[k].slot] = ok[k];
    }
  } else {
    for (const Miss& m : misses) {
      const BatchItem& it = items[m.slot];
      verdicts[m.slot] = ecdsa_verify_digest(*it.pub, it.digest, *it.sig);
    }
  }
  for (const Miss& m : misses) remember(m.key, verdicts[m.slot]);
  for (const auto& [slot, first] : aliases) verdicts[slot] = verdicts[first];
  return verdicts;
}

void VerifyEngine::set_cache_capacity(std::size_t cap) {
  const std::uint64_t evicted = cache_.evictions();
  cache_.set_capacity(cap);
  c_evictions_.inc(cache_.evictions() - evicted);
}

}  // namespace aseck::crypto
