#pragma once
// Timing side-channel model: a MAC/passcode comparison with an early-exit
// loop leaks the length of the matching prefix through response latency.
// The attack recovers the secret byte-by-byte — the reason util::ct_equal
// exists and SHE comparisons are constant-time.

#include <cstdint>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aseck::sidechannel {

/// Device that compares an attacker-supplied code against its secret.
class TimingLeakyVerifier {
 public:
  /// `per_byte_ns`: loop iteration cost; `jitter_ns`: measurement noise.
  TimingLeakyVerifier(util::Bytes secret, double per_byte_ns, double jitter_ns,
                      bool constant_time, std::uint64_t seed = 7);

  struct Response {
    bool accepted;
    double elapsed_ns;  // simulated response latency
  };
  Response try_code(util::BytesView code);

  std::uint64_t attempts() const { return attempts_; }

 private:
  util::Bytes secret_;
  double per_byte_ns_;
  double jitter_ns_;
  bool constant_time_;
  util::Rng rng_;
  std::uint64_t attempts_ = 0;
};

/// Byte-by-byte timing attack: for each position, tries all 256 values with
/// `samples` repetitions and keeps the value with the highest mean latency.
/// Returns the recovered code (may be wrong under high jitter or against a
/// constant-time verifier).
util::Bytes timing_attack(TimingLeakyVerifier& device, std::size_t secret_len,
                          std::size_t samples);

}  // namespace aseck::sidechannel
