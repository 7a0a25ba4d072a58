#include "crypto/verify_pool.hpp"

#include <algorithm>

namespace aseck::crypto {

VerifyPool::VerifyPool(VerifyPoolConfig cfg)
    : cfg_(cfg),
      queue_(cfg.producers),
      pool_(cfg.threads == 0 ? 1 : cfg.threads) {
  if (cfg_.lanes == 0) cfg_.lanes = 1;
  if (cfg_.batch_size == 0) cfg_.batch_size = 1;
  lanes_.reserve(cfg_.lanes);
  for (std::size_t l = 0; l < cfg_.lanes; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->engine.set_batch_kernel(true);
    lanes_.push_back(std::move(lane));
  }
}

std::vector<VerifyOutcome> VerifyPool::flush() {
  const std::vector<VerifyJob> jobs = queue_.drain();
  ++flushes_;
  jobs_ += jobs.size();

  std::vector<char> verdicts(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Lane& lane = *lanes_[lane_of(jobs[i], lanes_.size())];
    lane.slots.push_back(i);
    lane.items.push_back({jobs[i].pub, jobs[i].digest, jobs[i].sig});
  }

  // Each lane is touched by exactly one parallel_for index, and lanes only
  // write disjoint verdict slots — no cross-lane state, so the thread-to-
  // lane assignment can never affect results.
  pool_.parallel_for(lanes_.size(), [&](std::size_t l) {
    Lane& lane = *lanes_[l];
    for (std::size_t off = 0; off < lane.items.size();
         off += cfg_.batch_size) {
      const std::size_t end =
          std::min(off + cfg_.batch_size, lane.items.size());
      const std::vector<VerifyEngine::BatchItem> chunk(
          lane.items.begin() + static_cast<std::ptrdiff_t>(off),
          lane.items.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<bool> ok = lane.engine.verify_batch(chunk);
      for (std::size_t k = 0; k < ok.size(); ++k) {
        verdicts[lane.slots[off + k]] = ok[k] ? 1 : 0;
      }
    }
    lane.slots.clear();
    lane.items.clear();
  });

  std::vector<VerifyOutcome> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back({jobs[i].tag, verdicts[i] != 0});
  }
  return out;
}

void VerifyPool::merge_metrics_into(sim::MetricsRegistry& out) const {
  for (const auto& lane : lanes_) out.merge_from(lane->metrics);
  sim::Counter& f = out.counter("crypto.pool.flushes");
  if (flushes_ > f.value()) f.inc(flushes_ - f.value());
  sim::Counter& j = out.counter("crypto.pool.jobs");
  if (jobs_ > j.value()) j.inc(jobs_ - j.value());
}

std::string VerifyPool::metrics_json() const {
  sim::MetricsRegistry merged;
  merge_metrics_into(merged);
  return merged.to_json();
}

}  // namespace aseck::crypto
