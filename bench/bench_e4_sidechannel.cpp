// Experiment E4 — side-channel key extraction (paper §4.2 "Side-channel
// Leakage").
//
// CPA against the leaky AES device: traces needed for full 16-byte key
// recovery as noise grows, and the effect of the masking and shuffling
// countermeasures. Also the TVLA leakage-assessment t statistic, the
// pass/fail gate a security lab would apply.

#include <cstdio>

#include "bench_util.hpp"
#include "sidechannel/power_model.hpp"

using namespace aseck;
using namespace aseck::sidechannel;

namespace {
crypto::Block device_key() {
  crypto::Block k;
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(0x2b + 7 * i);
  }
  return k;
}

const char* cm_name(Countermeasure c) {
  switch (c) {
    case Countermeasure::kNone: return "none";
    case Countermeasure::kMasking: return "masking";
    case Countermeasure::kShuffling: return "shuffling";
  }
  return "?";
}
}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E4: CPA key recovery vs noise and countermeasures\n");
  std::printf("(AES-128 first-round HW leakage, 16 samples/trace)\n\n");

  const std::vector<std::size_t> schedule{50, 100, 200, 400, 800, 1600, 3200, 6400};

  benchutil::Table table({"countermeasure", "noise_sigma", "traces_to_break",
                          "bytes_recovered@max", "tvla_max_t"});

  struct Config {
    Countermeasure cm;
    double noise;
  };
  const std::vector<Config> configs{
      {Countermeasure::kNone, 0.5},  {Countermeasure::kNone, 1.0},
      {Countermeasure::kNone, 2.0},  {Countermeasure::kNone, 4.0},
      {Countermeasure::kShuffling, 1.0}, {Countermeasure::kMasking, 1.0},
  };

  for (const auto& cfg : configs) {
    LeakyAesDevice dev(device_key(), LeakageConfig{cfg.noise, cfg.cm},
                       static_cast<std::uint64_t>(cfg.noise * 100) + 17);
    util::Rng rng(99);
    const std::size_t needed = cpa_traces_needed(dev, rng, schedule);

    // Bytes recovered at the maximum schedule point (for failed attacks).
    LeakyAesDevice dev2(device_key(), LeakageConfig{cfg.noise, cfg.cm}, 18);
    util::Rng rng2(100);
    std::vector<Trace> traces;
    for (std::size_t i = 0; i < schedule.back(); ++i) {
      traces.push_back(dev2.capture(rng2));
    }
    const int bytes = cpa_attack(traces).correct_bytes(device_key());

    LeakyAesDevice dev3(device_key(), LeakageConfig{cfg.noise, cfg.cm}, 19);
    util::Rng rng3(101);
    const double t = tvla_max_t(dev3, rng3, 600);

    table.add_row({cm_name(cfg.cm), benchutil::fmt("%.1f", cfg.noise),
                   needed ? std::to_string(needed) : ">" + std::to_string(schedule.back()),
                   std::to_string(bytes) + "/16", benchutil::fmt("%.1f", t)});
  }
  table.print();
  std::printf(
      "\nReading: traces-to-break grows ~quadratically with noise (classic\n"
      "CPA scaling); shuffling multiplies the requirement; first-order\n"
      "masking defeats first-order CPA entirely and drives TVLA |t| below\n"
      "the 4.5 leakage threshold. This is the physical-access channel that\n"
      "seeds the fleet-wide OTA compromise of E5.\n");
  return 0;
}
