#pragma once
// Discrete-event simulation kernel.
//
// Every network, ECU, and attacker model in the library is driven by a
// `Scheduler` — historically one global instance, now also one per shard in
// the sharded world (sim/sharded.hpp).
//
// DETERMINISM CONTRACT: events are totally ordered by the key
// (time, seq), where `seq` is the value of a monotonically increasing
// counter assigned at schedule_at/schedule_in/schedule_after time (one
// counter per Scheduler; cancelled events still consume their seq). Events
// at equal timestamps therefore execute in exact scheduling order (stable
// FIFO tie-break), and the firing order is a pure function of the sequence
// of schedule/cancel calls — independent of wall clock, thread count, or
// address-space layout. cancel() never perturbs the order of surviving
// events: it only removes the id from the live set, so any interleaving of
// cancel + re-schedule produces the order given by the surviving (time,
// seq) keys (regression-tested in sim_test.cpp). Everything that claims
// bit-reproducibility — the chaos plane, the epoch merges of the sharded
// world, every CI determinism diff — leans on this contract; do not weaken
// it.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "util/time.hpp"

namespace aseck::sim {

using util::SimTime;

using EventFn = std::function<void()>;

/// Handle used to cancel a scheduled event.
struct EventId {
  std::uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, EventFn fn);
  /// Schedules `fn` to run `delay` after now().
  EventId schedule_in(SimTime delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  /// `now()`-safe variant for retry/backoff timers: evaluates now() at call
  /// time, saturates instead of wrapping on `now + delay` overflow (an
  /// exponential backoff can overflow the ns clock), and is safe to call
  /// from inside a running event with zero delay — the new event lands
  /// *after* already-queued events at the same timestamp (stable FIFO), so a
  /// zero-delay self-rescheduling chain interleaves instead of starving the
  /// queue.
  EventId schedule_after(SimTime delay, EventFn fn);
  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Runs events until the queue is empty or `limit` events executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);
  /// Runs events with timestamp <= `until` (clock advances to `until`).
  std::size_t run_until(SimTime until);
  /// Executes exactly one event if available. Returns false if queue empty.
  bool step();

  bool empty() const { return live_.empty(); }
  std::size_t pending() const { return live_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Item {
    SimTime at;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at.ns != b.at.ns) return a.at.ns > b.at.ns;
      return a.seq > b.seq;
    }
  };

  bool pop_next(Item& out);

  SimTime now_ = SimTime::zero();
  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  // Seqs scheduled but not yet fired or cancelled. Cancel erases; pop erases
  // on dequeue — so cancelling a fired/cancelled id is a true O(1) no-op and
  // pending()/empty() never drift.
  std::unordered_set<std::uint64_t> live_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

/// Periodic task helper: reschedules itself every `period` until cancelled
/// via the returned shared flag.
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& sched, SimTime period, EventFn fn, SimTime first_delay);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();

 private:
  void arm(SimTime delay);
  Scheduler& sched_;
  SimTime period_;
  EventFn fn_;
  std::shared_ptr<bool> alive_;
};

}  // namespace aseck::sim
