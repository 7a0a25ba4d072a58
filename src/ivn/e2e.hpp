#pragma once
// AUTOSAR E2E protection, Profile 1 style: CRC-8 (SAE J1850) over
// data-id + payload, plus a 4-bit alive counter. E2E targets *random*
// corruption and stale/lost frames (functional safety, ISO 26262), NOT
// adversaries — a point the paper's safety/security interplay discussion
// needs: E2E alone is routinely mistaken for security. The tests and the
// attack harness show a forger trivially recomputing the CRC, while SecOC
// (keyed MAC) holds.

#include <cstdint>
#include <optional>

#include "util/bytes.hpp"
#include "util/crc.hpp"

namespace aseck::ivn {

struct E2eConfig {
  std::uint16_t data_id = 0;
  /// Max counter jump tolerated before declaring a communication loss.
  std::uint8_t max_delta_counter = 2;
};

enum class E2eStatus {
  kOk,
  kOkSomeLost,   // counter jumped but within max_delta
  kWrongCrc,
  kRepeated,     // same counter as last frame (stale/replayed)
  kWrongSequence,  // jump beyond max_delta
};

class E2eProtector {
 public:
  explicit E2eProtector(E2eConfig cfg) : cfg_(cfg) {}

  /// Wraps payload: [crc][counter][payload...]; counter auto-increments 0..14
  /// (15 reserved, per profile).
  util::Bytes protect(util::BytesView payload);

 private:
  E2eConfig cfg_;
  std::uint8_t counter_ = 0;
};

class E2eChecker {
 public:
  explicit E2eChecker(E2eConfig cfg) : cfg_(cfg) {}

  struct Result {
    E2eStatus status;
    util::Bytes payload;
  };
  Result check(util::BytesView protected_pdu);

  /// Per-status counters since construction. `repeated()` is the E2E-layer
  /// detector for the chaos plane's frame-*duplicate* fault: a duplicated
  /// delivery carries the same alive counter and is flagged kRepeated, so a
  /// supervision layer can distinguish replay/echo from loss.
  std::uint64_t ok() const { return count(E2eStatus::kOk); }
  std::uint64_t wrong_crc() const { return count(E2eStatus::kWrongCrc); }
  std::uint64_t repeated() const { return count(E2eStatus::kRepeated); }
  std::uint64_t wrong_sequence() const {
    return count(E2eStatus::kWrongSequence);
  }
  std::uint64_t count(E2eStatus s) const {
    return counts_[static_cast<std::size_t>(s)];
  }

 private:
  E2eConfig cfg_;
  std::optional<std::uint8_t> last_counter_;
  std::uint64_t counts_[5] = {0, 0, 0, 0, 0};
};

/// The E2E CRC over data-id low/high + counter + payload (exposed so the
/// attack harness can forge valid-looking frames, demonstrating that E2E is
/// not a security mechanism).
std::uint8_t e2e_crc(const E2eConfig& cfg, std::uint8_t counter,
                     util::BytesView payload);

}  // namespace aseck::ivn
