#pragma once
// Opportunistic (deferred) SPDU verification — the Kang-et-al-style
// admission pattern for verify-saturated receivers: run the cheap
// synchronous checks (freshness, cert chain, relevance, plausibility) at
// receive time, admit the message PROVISIONALLY, and push the expensive
// ECDSA check onto the batch verify pipeline. A later flush either confirms
// the admission or revokes it.
//
// The price is a safety window: between admission and the flush verdict, a
// consumer (ADAS) may have acted on an unverified message. The verifier
// measures that window (sim-time, per message) so E22 can put a number on
// the exposure and tie it to E11's hazard/ASIL oracle; receivers get a
// revoke callback to unwind whatever the message triggered.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/verify_pool.hpp"
#include "sim/scheduler.hpp"
#include "v2x/message.hpp"

namespace aseck::v2x {

class DeferredSpduVerifier {
 public:
  explicit DeferredSpduVerifier(sim::Scheduler& sched) : sched_(sched) {}

  /// Registers one receiver; returns its producer id (setup phase only).
  std::size_t add_producer();

  /// `ok` is the deferred signature verdict; the window [admitted_at,
  /// resolved_at] is how long the receiver trusted the message unverified.
  using Verdict =
      std::function<void(bool ok, SimTime admitted_at, SimTime resolved_at)>;

  /// Queues the SPDU's signature check. The message is copied (signature,
  /// certificate and payload must outlive the receive callback).
  void submit(std::size_t producer, const Spdu& msg, SimTime admitted_at,
              Verdict verdict);

  /// Starts the periodic flush task.
  void start();
  void stop();
  /// Drains and verifies everything pending; dispatches verdicts in
  /// canonical (producer, FIFO) order.
  void flush();

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t confirmed() const { return confirmed_; }
  std::uint64_t revoked() const { return revoked_; }
  std::size_t pending_count() const;

 private:
  struct Pending {
    Spdu msg;
    crypto::Digest digest;  // SHA-256 of the signed portion
    SimTime admitted_at;
    Verdict verdict;
  };

  sim::Scheduler& sched_;
  crypto::VerifyPool pool_;  // one producer: flush() pushes in canonical order
  std::vector<std::deque<Pending>> pending_;  // one FIFO per producer
  std::unique_ptr<sim::PeriodicTask> flush_task_;
  std::uint64_t submitted_ = 0;
  std::uint64_t confirmed_ = 0;
  std::uint64_t revoked_ = 0;
};

}  // namespace aseck::v2x
