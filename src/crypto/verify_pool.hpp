#pragma once
// Multi-producer verify queue + deterministic worker pool (ROADMAP O2).
//
// VerifyQueue: one FIFO per producer. push(p, job) touches only producer
// p's buffer, so concurrent producers never contend (the lock-free
// multi-producer shape reduced to its deterministic core: exclusive
// per-producer lanes). drain() concatenates in (producer, FIFO) order — a
// canonical order independent of arrival interleaving.
//
// VerifyPool: drains the queue, partitions jobs into a FIXED number of
// lanes by message-digest content (not by thread!), and runs one
// VerifyEngine per lane under sim::ThreadPool::parallel_for. Because lane
// assignment, per-lane job order, and per-lane metrics are all functions of
// the job stream only, verdicts AND merged metrics are bit-identical for
// any thread count — the same epoch/merge-order contract the sharded world
// uses. Identical (digest, key, sig) triples land in the same lane, so the
// per-lane LRU caches still dedup the V2X flood pattern.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/verify_engine.hpp"
#include "sim/telemetry.hpp"
#include "sim/threadpool.hpp"

namespace aseck::crypto {

struct VerifyJob {
  const EcdsaPublicKey* pub = nullptr;
  Digest digest{};
  const EcdsaSignature* sig = nullptr;
  std::uint64_t tag = 0;  // caller correlation id, returned with the verdict
};

struct VerifyOutcome {
  std::uint64_t tag = 0;
  bool ok = false;
};

class VerifyQueue {
 public:
  explicit VerifyQueue(std::size_t producers = 1)
      : fifos_(producers == 0 ? 1 : producers) {}

  std::size_t producers() const { return fifos_.size(); }
  /// Registers one more producer FIFO (single-threaded setup phase only).
  std::size_t add_producer() {
    fifos_.emplace_back();
    return fifos_.size() - 1;
  }

  /// Safe to call concurrently for DISTINCT producers; each producer index
  /// must be owned by one thread at a time. Not concurrent with drain().
  void push(std::size_t producer, const VerifyJob& job) {
    fifos_[producer].push_back(job);
  }

  /// Jobs across all producers (quiescent callers only).
  std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& f : fifos_) n += f.size();
    return n;
  }

  /// Concatenates all FIFOs in (producer, FIFO) order and empties them.
  std::vector<VerifyJob> drain() {
    std::vector<VerifyJob> out;
    out.reserve(pending());
    for (auto& f : fifos_) {
      out.insert(out.end(), f.begin(), f.end());
      f.clear();
    }
    return out;
  }

 private:
  std::vector<std::vector<VerifyJob>> fifos_;
};

struct VerifyPoolConfig {
  unsigned threads = 1;
  std::size_t producers = 1;
  /// Determinism granularity: fixed per run, NOT tied to thread count.
  std::size_t lanes = 8;
  /// Target RLC batch per engine burst; chunks larger bursts.
  std::size_t batch_size = 64;
};

class VerifyPool {
 public:
  explicit VerifyPool(VerifyPoolConfig cfg = {});

  VerifyQueue& queue() { return queue_; }
  std::size_t lanes() const { return lanes_.size(); }
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t jobs_done() const { return jobs_; }

  /// Drains the queue, verifies everything (lanes in parallel), and returns
  /// outcomes in submission (drain) order. Bit-identical for any `threads`.
  std::vector<VerifyOutcome> flush();

  const VerifyEngine& lane_engine(std::size_t lane) const {
    return lanes_[lane]->engine;
  }

  /// Per-lane registries merged in ascending lane order, plus the pool's
  /// own crypto.pool.{flushes,jobs} counters.
  void merge_metrics_into(sim::MetricsRegistry& out) const;
  std::string metrics_json() const;

 private:
  static std::size_t lane_of(const VerifyJob& job, std::size_t lanes) {
    // Content-keyed: the same message digest always lands in the same lane
    // (cache locality for duplicates), whatever the producer or thread.
    return (static_cast<std::size_t>(job.digest[0]) |
            (static_cast<std::size_t>(job.digest[1]) << 8)) %
           lanes;
  }

  struct Lane {
    sim::MetricsRegistry metrics;
    VerifyEngine engine{metrics};
    std::vector<std::size_t> slots;           // verdict indices, drain order
    std::vector<VerifyEngine::BatchItem> items;
  };

  VerifyPoolConfig cfg_;
  VerifyQueue queue_;
  sim::ThreadPool pool_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t flushes_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace aseck::crypto
