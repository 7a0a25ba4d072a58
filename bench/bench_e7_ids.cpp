// Experiment E7 — CAN IDS detection quality vs attack type and intensity
// (paper §7 "Secure Networks": next-generation IVN intrusion detection).
//
// The ensemble (frequency + payload + specification detectors) is trained on
// benign traffic from a 6-stream vehicle workload, then evaluated against
// injection, spoofing, fuzzing, and low-and-slow variants, reporting
// precision / recall / F1 / false-positive rate per attack intensity.

#include <cstdio>

#include "bench_util.hpp"
#include "ids/detectors.hpp"
#include "util/rng.hpp"

using namespace aseck;
using util::Bytes;

namespace {

struct Stream {
  std::uint32_t id;
  std::uint64_t period_ms;
  std::uint8_t mode_byte;  // constant per stream
};

const std::vector<Stream> kStreams{
    {0x0F0, 10, 0x10}, {0x110, 20, 0x20}, {0x1A0, 50, 0x01},
    {0x2C0, 100, 0x7F}, {0x300, 100, 0x02}, {0x4B0, 200, 0x00},
};

ivn::CanFrame benign_frame(const Stream& s, util::Rng& rng) {
  ivn::CanFrame f;
  f.id = s.id;
  f.data = Bytes(8, 0);
  f.data[0] = s.mode_byte;
  f.data[1] = static_cast<std::uint8_t>(40 + rng.uniform(20));  // signal
  f.data[7] = static_cast<std::uint8_t>(rng.next_u64());        // counter/noise
  return f;
}

/// Generates interleaved benign traffic for `seconds`, calling `sink`.
template <typename Fn>
void benign_traffic(double seconds, util::Rng& rng, double jitter_frac, Fn sink) {
  for (const Stream& s : kStreams) {
    std::uint64_t t_us = rng.uniform(1000);
    while (t_us < seconds * 1e6) {
      sink(benign_frame(s, rng), sim::SimTime::from_us(t_us));
      const double jitter = 1.0 + rng.gaussian(0.0, jitter_frac);
      t_us += static_cast<std::uint64_t>(
          static_cast<double>(s.period_ms) * 1000.0 * std::max(0.5, jitter));
    }
  }
}

struct EvalResult {
  ids::IdsScore score;
};

EvalResult evaluate(const std::string& attack, double intensity_hz,
                    std::uint64_t seed, bool extended = false) {
  util::Rng rng(seed);
  ids::IdsEnsemble ensemble =
      extended ? ids::make_extended_ensemble() : ids::make_default_ensemble();

  // Train on 60 s of benign traffic (collect + sort by time).
  std::vector<std::pair<sim::SimTime, ivn::CanFrame>> train;
  benign_traffic(60.0, rng, 0.02, [&](const ivn::CanFrame& f, sim::SimTime at) {
    train.emplace_back(at, f);
  });
  std::sort(train.begin(), train.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [at, f] : train) ensemble.train(f, at);
  ensemble.finish_training();

  // Live: 30 s benign + attack frames at `intensity_hz`.
  std::vector<std::tuple<sim::SimTime, ivn::CanFrame, bool>> live;
  benign_traffic(30.0, rng, 0.02, [&](const ivn::CanFrame& f, sim::SimTime at) {
    live.emplace_back(at, f, false);
  });
  const auto n_attack = static_cast<std::uint64_t>(30.0 * intensity_hz);
  for (std::uint64_t i = 0; i < n_attack; ++i) {
    const auto at = sim::SimTime::from_us(
        rng.uniform(static_cast<std::uint64_t>(30e6)));
    ivn::CanFrame f;
    if (attack == "injection") {
      // High-rate duplicate of the brake stream with malicious payload.
      f.id = 0x0F0;
      f.data = Bytes(8, 0);
      f.data[0] = 0x10;
      f.data[1] = 0xFF;  // implausible but matching DLC
    } else if (attack == "spoof_payload") {
      f.id = 0x110;
      f.data = Bytes(8, 0);
      f.data[0] = 0x99;  // wrong mode byte, correct cadence
      f.data[1] = 50;
    } else if (attack == "fuzz") {
      f.id = static_cast<std::uint32_t>(rng.uniform(0x800));
      f.data = rng.bytes(rng.uniform(9));
    } else {  // "unknown_id"
      f.id = 0x6E6;
      f.data = Bytes(8, 0x42);
    }
    live.emplace_back(at, f, true);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return std::get<0>(a) < std::get<0>(b); });
  for (const auto& [at, f, is_attack] : live) {
    ensemble.observe_labeled(f, at, is_attack);
  }
  return EvalResult{ensemble.score()};
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = benchutil::parse_args(argc, argv, {})) return rc;
  std::printf("E7: IDS precision/recall vs attack type and intensity\n");
  std::printf("(6 benign streams, 60 s training, 30 s evaluation)\n\n");

  benchutil::Table table({"attack", "rate_hz", "precision", "recall", "f1",
                          "fpr_%"});
  const std::vector<std::string> attacks{"injection", "spoof_payload", "fuzz",
                                         "unknown_id"};
  for (const auto& attack : attacks) {
    for (const double hz : {1.0, 10.0, 100.0}) {
      const auto r = evaluate(attack, hz, 5000 + static_cast<std::uint64_t>(hz));
      table.add_row({attack, benchutil::fmt("%.0f", hz),
                     benchutil::fmt("%.2f", r.score.precision()),
                     benchutil::fmt("%.2f", r.score.recall()),
                     benchutil::fmt("%.2f", r.score.f1()),
                     benchutil::fmt("%.2f", r.score.fpr() * 100)});
    }
  }
  table.print();

  // Ablation: adding the sequence (Markov-transition) detector.
  std::printf("\nAblation: default 3-detector ensemble vs + sequence detector\n");
  std::printf("(injection attack, the hardest case above)\n\n");
  benchutil::Table abl({"ensemble", "rate_hz", "recall", "fpr_%"});
  for (const double hz : {1.0, 10.0}) {
    const auto base = evaluate("injection", hz,
                               7000 + static_cast<std::uint64_t>(hz), false);
    const auto ext = evaluate("injection", hz,
                              7000 + static_cast<std::uint64_t>(hz), true);
    abl.add_row({"default(3)", benchutil::fmt("%.0f", hz),
                 benchutil::fmt("%.2f", base.score.recall()),
                 benchutil::fmt("%.2f", base.score.fpr() * 100)});
    abl.add_row({"+sequence(4)", benchutil::fmt("%.0f", hz),
                 benchutil::fmt("%.2f", ext.score.recall()),
                 benchutil::fmt("%.2f", ext.score.fpr() * 100)});
  }
  abl.print();

  std::printf(
      "\nReading: unknown-id and fuzzing attacks are near-perfectly caught by\n"
      "the specification detector (F1 ~ 1.0). Injection and payload spoofing\n"
      "on *legitimate* ids are caught via payload anomalies (recall 1.0) but\n"
      "with lower precision; note the alert-storm effect: heavy injection\n"
      "contaminates the timing model of the attacked id, so the benign-frame\n"
      "false-positive rate grows with attack intensity — the classic\n"
      "anomaly-IDS operational cost the literature reports.\n");
  return 0;
}
