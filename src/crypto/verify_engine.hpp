#pragma once
// ECDSA verification engine: the shared front door for every
// signature-consuming substrate (V2X BSM receive path, certificate chain
// validation, OTA metadata verification).
//
// What it adds over bare ecdsa_verify:
//  * a bounded LRU verify-result cache keyed by SHA-256(digest || pubkey ||
//    signature) — V2X re-verifies identical (message, cert) pairs whenever a
//    sender's beacon reaches several receivers or a chain is re-walked, and
//    production 1609.2 stacks cache exactly this way;
//  * a batch-verify API that amortizes cache probes over a burst of SPDUs
//    and (opt-in) routes the misses through the true batch kernel
//    (ecdsa_verify_batch): one random-linear-combination check and one
//    shared Montgomery batch inversion per burst instead of a full
//    double-scalar-mult per item;
//  * MetricsRegistry export: crypto.verify.{calls,cache_hits,evictions,
//    primitive,batched} counters and a crypto.verify.batch_items histogram
//    of kernel batch sizes, on the registry the engine is built on (engines
//    sharing one registry sum) or on a private one.
//
// Every exported instrument is a deterministic function of the verify
// workload — no wall-clock content — so merged registries can feed digest
// JSON that must be byte-identical across runs and thread counts. Wall-clock
// timing lives in the benches, next to the other timing, not here.
//
// The engine is deliberately single-threaded and allocation-light: callers
// that want parallelism run one engine per VerifyPool lane.

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "sim/telemetry.hpp"
#include "util/lru.hpp"

namespace aseck::crypto {

class VerifyEngine {
 public:
  static constexpr std::size_t kDefaultCacheCapacity = 4096;

  /// Exports onto a private registry.
  explicit VerifyEngine(std::size_t cache_capacity = kDefaultCacheCapacity)
      : own_(std::make_unique<sim::MetricsRegistry>()),
        metrics_(*own_),
        cache_(cache_capacity) {}
  /// Exports onto `metrics`, which must outlive the engine.
  explicit VerifyEngine(sim::MetricsRegistry& metrics,
                        std::size_t cache_capacity = kDefaultCacheCapacity)
      : metrics_(metrics), cache_(cache_capacity) {}

  /// Verifies a precomputed digest; consults/fills the result cache.
  bool verify_digest(const EcdsaPublicKey& pub, const Digest& digest,
                     const EcdsaSignature& sig);
  /// Hashes `msg` with SHA-256 and verifies.
  bool verify(const EcdsaPublicKey& pub, util::BytesView msg,
              const EcdsaSignature& sig);

  using BatchItem = BatchVerifyItem;
  /// Verifies each item (cache-assisted), returning per-item verdicts in
  /// order — including null-pointer items, which verdict false and still
  /// count as calls. Duplicate triples within the burst are resolved once.
  /// With the batch kernel enabled, cache misses go through
  /// ecdsa_verify_batch; verdicts are identical either way.
  std::vector<bool> verify_batch(const std::vector<BatchItem>& items);

  /// Routes verify_batch misses through the RLC batch kernel when the burst
  /// has at least 2 of them. Off by default (per-item path).
  void set_batch_kernel(bool on) { batch_kernel_ = on; }

  std::uint64_t calls() const { return calls_; }
  /// LRU hits plus in-burst duplicate resolutions.
  std::uint64_t cache_hits() const { return cache_.hits() + alias_hits_; }
  std::uint64_t evictions() const { return cache_.evictions(); }
  /// Verifications that reached real point arithmetic (cache misses).
  std::uint64_t primitive_calls() const { return primitive_; }
  /// Of those, how many were resolved through the batch kernel.
  std::uint64_t batched_calls() const { return batched_; }
  std::size_t cache_size() const { return cache_.size(); }
  void set_cache_capacity(std::size_t cap);

 private:
  static Digest cache_key(const EcdsaPublicKey& pub, const Digest& digest,
                          const EcdsaSignature& sig);
  /// Caches a verdict, counting any eviction it causes.
  void remember(const Digest& key, bool ok);

  std::unique_ptr<sim::MetricsRegistry> own_;  // private registry, if any
  sim::MetricsRegistry& metrics_;
  util::LruCache<Digest, bool> cache_;
  std::uint64_t calls_ = 0;
  std::uint64_t alias_hits_ = 0;
  std::uint64_t primitive_ = 0;
  std::uint64_t batched_ = 0;
  bool batch_kernel_ = false;
  sim::Counter& c_calls_ = metrics_.counter("crypto.verify.calls");
  sim::Counter& c_hits_ = metrics_.counter("crypto.verify.cache_hits");
  sim::Counter& c_evictions_ = metrics_.counter("crypto.verify.evictions");
  sim::Counter& c_primitive_ = metrics_.counter("crypto.verify.primitive");
  sim::Counter& c_batched_ = metrics_.counter("crypto.verify.batched");
  sim::LatencyHistogram& h_batch_items_ =
      metrics_.histogram("crypto.verify.batch_items", 0.0, 256.0, 32);
};

}  // namespace aseck::crypto
