#include "v2x/opportunistic.hpp"

#include "crypto/sha256.hpp"

namespace aseck::v2x {

namespace {
/// How often pending checks are flushed; this bounds the safety window.
constexpr SimTime kFlushPeriod = SimTime::from_ms(10);
}  // namespace

std::size_t DeferredSpduVerifier::add_producer() {
  pending_.emplace_back();
  return pending_.size() - 1;
}

void DeferredSpduVerifier::submit(std::size_t producer, const Spdu& msg,
                                  SimTime admitted_at, Verdict verdict) {
  ++submitted_;
  Pending p{msg, {}, admitted_at, std::move(verdict)};
  const util::Bytes signed_bytes = p.msg.signed_portion();
  p.digest = crypto::sha256(signed_bytes);
  pending_[producer].push_back(std::move(p));
}

void DeferredSpduVerifier::start() {
  flush_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, kFlushPeriod, [this] { flush(); }, kFlushPeriod);
}

void DeferredSpduVerifier::stop() {
  flush_task_.reset();
  flush();  // nothing stays provisionally trusted forever
}

std::size_t DeferredSpduVerifier::pending_count() const {
  std::size_t n = 0;
  for (const auto& fifo : pending_) n += fifo.size();
  return n;
}

void DeferredSpduVerifier::flush() {
  if (pending_count() == 0) return;
  // Flat view in canonical order. Deques are stable under no mutation, so
  // the jobs can point straight into the pending entries.
  std::vector<Pending*> flat;
  flat.reserve(pending_count());
  for (auto& fifo : pending_) {
    for (Pending& p : fifo) flat.push_back(&p);
  }
  for (std::size_t i = 0; i < flat.size(); ++i) {
    pool_.queue().push(0, crypto::VerifyJob{&flat[i]->msg.signer.verify_key,
                                            flat[i]->digest,
                                            &flat[i]->msg.signature, i});
  }
  const auto outcomes = pool_.flush();
  const SimTime now = sched_.now();
  for (const crypto::VerifyOutcome& o : outcomes) {
    Pending& p = *flat[o.tag];
    if (o.ok) {
      ++confirmed_;
    } else {
      ++revoked_;
    }
    if (p.verdict) p.verdict(o.ok, p.admitted_at, now);
  }
  for (auto& fifo : pending_) fifo.clear();
}

}  // namespace aseck::v2x
