// Experiment E8 — access security (paper §4.3).
//
// Part A: PKES relay-attack success vs the distance-bounding RTT budget,
// across relay link qualities (the Francillon et al. attack envelope).
// Part B: DST transponder exhaustive key search cost vs key length —
// measured on reduced key spaces and extrapolated to 2^40 (the Bono et al.
// result that 40-bit proprietary ciphers are crackable).

#include <cmath>
#include <cstdio>

#include "access/immobilizer.hpp"
#include "access/pkes.hpp"
#include "bench_util.hpp"

using namespace aseck;
using namespace aseck::access;

namespace {
crypto::Block key_of(std::uint8_t b) {
  crypto::Block k;
  k.fill(b);
  return k;
}
}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E8 part A: PKES relay success vs distance-bounding budget\n");
  std::printf("(fob at 40 m via relay; fob processing 300 us)\n\n");

  benchutil::Table pkes_table({"rtt_limit_us", "legit_unlock_%",
                               "relay_cable_20us", "relay_rf_5us",
                               "relay_ip_2000us"});
  const struct {
    const char* name;
    double link_us;
  } relays[] = {{"cable", 20.0}, {"rf", 5.0}, {"ip", 2000.0}};

  for (const double limit : {0.0, 305.0, 310.0, 320.0, 360.0, 1000.0, 10000.0}) {
    // Legitimate success rate over jittered attempts.
    PkesCar car(key_of(0x77), 7);
    car.set_rtt_limit(limit);
    KeyFob fob(key_of(0x77));
    int legit_ok = 0;
    for (int i = 0; i < 200; ++i) {
      if (car.try_unlock(fob, 1.0).unlocked) ++legit_ok;
    }
    std::vector<benchutil::Cell> row{
        limit == 0 ? "none" : benchutil::fmt("%.0f", limit),
        benchutil::fmt("%.1f", legit_ok / 2.0)};
    for (const auto& r : relays) {
      RelayAttacker relay;
      relay.active = true;
      relay.link_latency_us = r.link_us;
      int attacks_ok = 0;
      for (int i = 0; i < 200; ++i) {
        if (car.try_unlock(fob, 40.0, relay).unlocked) ++attacks_ok;
      }
      row.push_back(benchutil::fmt("%.1f%%", attacks_ok / 2.0));
    }
    pkes_table.add_row(row);
  }
  pkes_table.print();

  std::printf("\nE8 part B: DST key cracking (exhaustive search)\n\n");
  benchutil::Table crack_table({"key_bits", "keys_tried",
                                {"wallclock_s", benchutil::host},
                                {"extrapolated_2^40_h", benchutil::host}});
  const std::uint64_t true_key = 0x00a5f17c33ULL & crypto::Dst40::kKeyMask;
  Transponder victim(true_key);
  util::Rng rng(3);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs;
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t c = rng.next_u64() & crypto::Dst40::kChallengeMask;
    pairs.emplace_back(c, victim.respond(c));
  }
  double last_rate = 0;
  for (const unsigned bits : {16u, 20u, 24u}) {
    const double t0 = benchutil::wall_seconds();
    const CrackResult r = crack_transponder(pairs, true_key, bits);
    const double secs = benchutil::wall_seconds() - t0;
    last_rate = static_cast<double>(r.keys_tried) / std::max(secs, 1e-9);
    const double full_space_s = std::pow(2.0, 40) / last_rate;
    crack_table.add_row({std::to_string(bits),
                         benchutil::fmt_u(r.keys_tried),
                         benchutil::fmt("%.3f", secs),
                         benchutil::fmt("%.1f", full_space_s / 3600)});
    if (!r.found) std::printf("WARNING: crack failed at %u bits\n", bits);
  }
  crack_table.print();
  std::printf(
      "\nReading: with no RTT bound every relay succeeds; a ~310 us budget\n"
      "(fob latency + margin) kills all relay variants while keeping the\n"
      "legitimate unlock rate high — the distance-bounding countermeasure.\n"
      "A 40-bit keyspace falls to hours of single-core search (and minutes\n"
      "on the FPGA farm of the original attack): key length, not secrecy of\n"
      "the cipher, is the broken assumption.\n");
  return 0;
}
