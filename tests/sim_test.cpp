// Unit tests for the discrete-event scheduler.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"

namespace aseck::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_us(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_us(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_us(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::from_us(30));
}

TEST(Scheduler, FifoTieBreakAtSameTime) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.schedule_at(SimTime::from_us(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime seen = SimTime::zero();
  s.schedule_in(SimTime::from_us(10), [&] {
    s.schedule_in(SimTime::from_us(5), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, SimTime::from_us(15));
}

TEST(Scheduler, RejectsPast) {
  Scheduler s;
  s.schedule_at(SimTime::from_us(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime::from_us(5), [] {}), std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_in(SimTime::from_us(1), [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler s;
  int count = 0;
  const EventId id = s.schedule_in(SimTime::from_us(1), [&] { ++count; });
  s.run();
  s.cancel(id);  // already fired; must not corrupt state
  s.schedule_in(SimTime::from_us(1), [&] { ++count; });
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, CancelAfterFireDoesNotAffectBookkeeping) {
  Scheduler s;
  int count = 0;
  const EventId id = s.schedule_in(SimTime::from_us(1), [&] { ++count; });
  s.schedule_in(SimTime::from_us(2), [&] { ++count; });
  EXPECT_EQ(s.pending(), 2u);
  s.run(1);  // fires `id`
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(id);  // fired already: must be a true no-op
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, DoubleCancelIsHarmless) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_in(SimTime::from_us(1), [&] { ran = true; });
  s.cancel(id);
  EXPECT_EQ(s.pending(), 0u);
  s.cancel(id);  // second cancel of the same id
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_FALSE(ran);
  // A cancelled seq must not poison later events.
  s.schedule_in(SimTime::from_us(1), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RunUntilKeepsBeyondHorizonEventLive) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(SimTime::from_us(100), [&] { ran = true; });
  s.run_until(SimTime::from_us(50));
  // The event was popped and re-pushed internally; it must still count as
  // pending and must still fire on the next run.
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(SimTime::from_us(static_cast<std::uint64_t>(i) * 10),
                  [&] { ++count; });
  }
  s.run_until(SimTime::from_us(45));
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.now(), SimTime::from_us(45));
  s.run_until(SimTime::from_us(200));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(s.now(), SimTime::from_us(200));
}

TEST(Scheduler, RunWithLimit) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule_in(SimTime::from_us(1), [&] { ++count; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(SimTime::from_us(1), recurse);
  };
  s.schedule_in(SimTime::from_us(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime::from_us(5));
}

TEST(PeriodicTask, FiresAtPeriodUntilStopped) {
  Scheduler s;
  int fires = 0;
  PeriodicTask task(s, SimTime::from_ms(10), [&] { ++fires; }, SimTime::zero());
  s.run_until(SimTime::from_ms(35));
  EXPECT_EQ(fires, 4);  // t=0,10,20,30
  task.stop();
  s.run_until(SimTime::from_ms(100));
  EXPECT_EQ(fires, 4);
}

TEST(PeriodicTask, FirstDelayOffset) {
  Scheduler s;
  std::vector<std::uint64_t> at;
  PeriodicTask task(s, SimTime::from_ms(10), [&] { at.push_back(s.now().ns); },
                    SimTime::from_ms(3));
  s.run_until(SimTime::from_ms(25));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], SimTime::from_ms(3).ns);
  EXPECT_EQ(at[1], SimTime::from_ms(13).ns);
  EXPECT_EQ(at[2], SimTime::from_ms(23).ns);
  EXPECT_THROW(PeriodicTask(s, SimTime::zero(), [] {}, SimTime::zero()),
               std::invalid_argument);
}

TEST(PeriodicTask, DestructorStops) {
  Scheduler s;
  int fires = 0;
  {
    PeriodicTask task(s, SimTime::from_ms(1), [&] { ++fires; }, SimTime::zero());
    s.run_until(SimTime::from_ms(2));
  }
  s.run_until(SimTime::from_ms(50));
  EXPECT_EQ(fires, 3);
}

TEST(ScheduleAfter, RelativeToNowAtCallTime) {
  Scheduler s;
  SimTime fired_at = SimTime::zero();
  s.schedule_at(SimTime::from_ms(10), [&] {
    // Relative to now() *inside* the running event, not to schedule time.
    s.schedule_after(SimTime::from_ms(5), [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, SimTime::from_ms(15));
}

TEST(ScheduleAfter, ZeroDelaySelfRescheduleInterleavesFifo) {
  // Regression: a zero-delay self-rescheduling chain must land *behind*
  // already-queued events at the same timestamp, so concurrent work
  // interleaves instead of starving.
  Scheduler s;
  std::vector<char> order;
  int a_runs = 0;
  std::function<void()> chain = [&] {
    order.push_back('A');
    if (++a_runs < 3) s.schedule_after(SimTime::zero(), chain);
  };
  s.schedule_at(SimTime::from_ms(1), chain);
  s.schedule_at(SimTime::from_ms(1), [&] { order.push_back('B'); });
  s.schedule_at(SimTime::from_ms(1), [&] { order.push_back('C'); });
  s.run();
  ASSERT_EQ(order.size(), 5u);
  // First A, then the events that were already queued at 1ms, then the
  // rescheduled As.
  EXPECT_EQ(order[0], 'A');
  EXPECT_EQ(order[1], 'B');
  EXPECT_EQ(order[2], 'C');
  EXPECT_EQ(order[3], 'A');
  EXPECT_EQ(order[4], 'A');
}

TEST(ScheduleAfter, PerpetualZeroDelayChainHonorsRunLimit) {
  Scheduler s;
  std::uint64_t runs = 0;
  std::function<void()> forever = [&] {
    ++runs;
    s.schedule_after(SimTime::zero(), forever);
  };
  s.schedule_at(SimTime::zero(), forever);
  EXPECT_EQ(s.run(100), 100u);
  EXPECT_EQ(runs, 100u);
  EXPECT_FALSE(s.empty());  // the chain is still pending, not lost
}

TEST(ScheduleAfter, SaturatesInsteadOfWrappingOnOverflow) {
  Scheduler s;
  s.schedule_at(SimTime::from_ms(1), [&] {
    // now + delay would wrap uint64; must clamp to the far future instead
    // of wrapping to the past (which schedule_at would reject).
    EXPECT_NO_THROW(s.schedule_after(SimTime::from_ns(UINT64_MAX), [] {}));
  });
  s.run(1);
  EXPECT_FALSE(s.empty());
  // The saturated event is parked at t=UINT64_MAX, not at now-1.
  s.run();
  EXPECT_EQ(s.now().ns, UINT64_MAX);
}

TEST(Scheduler, CancelThenRescheduleAfterKeepsSurvivorOrder) {
  // Determinism-contract regression (see scheduler.hpp): cancelling an
  // event must not perturb the relative order of the survivors, and an
  // event re-scheduled via schedule_after at the same timestamp gets a
  // fresh seq — it lands *behind* every event queued before the cancel,
  // including ones scheduled after the victim.
  Scheduler s;
  std::vector<char> order;
  s.schedule_at(SimTime::from_ms(1), [&] { order.push_back('a'); });
  const EventId victim =
      s.schedule_at(SimTime::from_ms(1), [&] { order.push_back('X'); });
  s.schedule_at(SimTime::from_ms(1), [&] { order.push_back('b'); });
  s.schedule_at(SimTime::from_ms(1), [&] { order.push_back('c'); });
  s.cancel(victim);
  // "Re-schedule" the cancelled work relative to now (t=0): same firing
  // time as the survivors, but a later seq.
  s.schedule_after(SimTime::from_ms(1), [&] { order.push_back('x'); });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'x'}));
}

TEST(Scheduler, CancelRescheduleInterleavingsAreSeqStable) {
  // Exhaustive small-scale check: for every victim position k, cancelling
  // event k and re-issuing it leaves the other events in their original
  // relative order, with the replacement strictly last. The cancelled seq
  // is consumed, never recycled.
  for (int k = 0; k < 4; ++k) {
    Scheduler s;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(
          s.schedule_at(SimTime::from_us(7), [&order, i] { order.push_back(i); }));
    }
    s.cancel(ids[static_cast<std::size_t>(k)]);
    const EventId re =
        s.schedule_at(SimTime::from_us(7), [&order, k] { order.push_back(10 + k); });
    EXPECT_GT(re.seq, ids.back().seq)
        << "seq of a cancelled event must not be reused";
    s.run();
    std::vector<int> expect;
    for (int i = 0; i < 4; ++i) {
      if (i != k) expect.push_back(i);
    }
    expect.push_back(10 + k);
    EXPECT_EQ(order, expect) << "victim position " << k;
  }
}

TEST(Scheduler, CancelInsideRunningEventAffectsSameTimestampBatch) {
  // An event may cancel a later event that shares its timestamp; the
  // cancel wins because (time, seq) order guarantees the canceller runs
  // first. A schedule_after issued from the same event fires after the
  // surviving batch.
  Scheduler s;
  std::vector<char> order;
  EventId doomed{};
  s.schedule_at(SimTime::from_ms(2), [&] {
    order.push_back('A');
    s.cancel(doomed);
    s.schedule_after(SimTime::zero(), [&] { order.push_back('Z'); });
  });
  doomed = s.schedule_at(SimTime::from_ms(2), [&] { order.push_back('X'); });
  s.schedule_at(SimTime::from_ms(2), [&] { order.push_back('B'); });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'Z'}));
}

}  // namespace
}  // namespace aseck::sim
