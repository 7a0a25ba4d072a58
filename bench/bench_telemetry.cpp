// Micro-benchmark — per-event cost of the telemetry core.
//
// The TraceBus fast path takes two interned 32-bit TraceIds plus the detail
// string, so the steady-state cost is one string move and a vector push. A
// disabled scope behind ASECK_TRACE must be near-free because the detail
// string is never built.

#include <benchmark/benchmark.h>

#include <string>

#include "sim/telemetry.hpp"

namespace {

using aseck::sim::MetricsRegistry;
using aseck::sim::TraceBus;
using aseck::sim::TraceScope;
using aseck::util::SimTime;

// Drain storage every 64Ki events so the unbounded bus doesn't grow without
// limit across benchmark iterations (amortised ~0 cost).
constexpr std::uint64_t kDrainMask = (1u << 16) - 1;

void BM_BusRecordInterned(benchmark::State& state) {
  TraceBus bus;
  const auto cid = bus.intern("can0");
  const auto kid = bus.intern("tx");
  std::uint64_t i = 0;
  for (auto _ : state) {
    bus.record(SimTime::from_us(i), cid, kid, "id=291 dlc=8");
    if ((++i & kDrainMask) == 0) bus.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BusRecordInterned);

void BM_BusRecordRingBuffer(benchmark::State& state) {
  TraceBus bus;
  bus.set_capacity(4096);  // steady-state overwrite, no growth, no clear
  const auto cid = bus.intern("can0");
  const auto kid = bus.intern("tx");
  std::uint64_t i = 0;
  for (auto _ : state) {
    bus.record(SimTime::from_us(i++), cid, kid, "id=291 dlc=8");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BusRecordRingBuffer);

void BM_BusRecordColdStrings(benchmark::State& state) {
  // Worst case for the new path: no pre-interned ids, the string_view
  // overload does two hash lookups per event.
  TraceBus bus;
  bus.set_capacity(4096);
  std::uint64_t i = 0;
  for (auto _ : state) {
    bus.record(SimTime::from_us(i++), "can0", "tx", "id=291 dlc=8");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BusRecordColdStrings);

void BM_ScopeDisabledMacro(benchmark::State& state) {
  // Hot sites compile to `if (scope.enabled())`; when tracing is off the
  // detail string on the right of the comma is never constructed.
  TraceScope scope("can0");
  scope.set_enabled(false);
  const auto kid = scope.kind("tx");
  std::uint64_t i = 0;
  for (auto _ : state) {
    ASECK_TRACE(scope, SimTime::from_us(i), kid,
                "id=" + std::to_string(i) + " dlc=8");
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopeDisabledMacro);

void BM_ScopeEnabledMacro(benchmark::State& state) {
  // Same site with tracing on: the guard passes and the event lands in the
  // scope's ring.
  TraceScope scope("can0");
  scope.bus()->set_capacity(4096);
  const auto kid = scope.kind("tx");
  std::uint64_t i = 0;
  for (auto _ : state) {
    ASECK_TRACE(scope, SimTime::from_us(i), kid, "id=291 dlc=8");
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopeEnabledMacro);

void BM_CounterInc(benchmark::State& state) {
  MetricsRegistry reg;
  auto& c = reg.counter("can.can0.frames_ok");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterInc);

}  // namespace

BENCHMARK_MAIN();
