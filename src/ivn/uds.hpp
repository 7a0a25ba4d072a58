#pragma once
// UDS (ISO 14229) diagnostics with SecurityAccess — the classic remote
// entry point of the Miller/Valasek-style attacks the paper cites [15]:
// diagnostics sessions gate reflashing and actuator tests behind a
// seed/key handshake whose strength decides whether "diagnostics" is an
// attack surface or a maintenance feature.
//
// Modeled services: DiagnosticSessionControl (0x10), SecurityAccess (0x27),
// ReadDataByIdentifier (0x22), WriteDataByIdentifier (0x2E),
// RoutineControl (0x31), RequestDownload (0x34) as a flashing gate.
// Two key derivations are provided: a weak XOR-with-constant algorithm
// (as commonly reverse-engineered in the field) and a SHE-backed CMAC.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "crypto/cmac.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aseck::ivn {

enum class UdsService : std::uint8_t {
  kSessionControl = 0x10,
  kSecurityAccess = 0x27,
  kReadDataById = 0x22,
  kWriteDataById = 0x2E,
  kRoutineControl = 0x31,
  kRequestDownload = 0x34,
};

enum class UdsSession : std::uint8_t {
  kDefault = 0x01,
  kProgramming = 0x02,
  kExtended = 0x03,
};

/// Negative response codes (subset).
enum class UdsNrc : std::uint8_t {
  kNone = 0x00,
  kServiceNotSupported = 0x11,
  kSubFunctionNotSupported = 0x12,
  kIncorrectLength = 0x13,  // incorrectMessageLengthOrInvalidFormat
  kConditionsNotCorrect = 0x22,
  kRequestOutOfRange = 0x31,
  kSecurityAccessDenied = 0x33,
  kInvalidKey = 0x35,
  kExceededAttempts = 0x36,
  kRequiredTimeDelayNotExpired = 0x37,
};

/// Seed-to-key algorithm interface.
using SeedKeyFn = std::function<util::Bytes(util::BytesView seed)>;

/// The widely reverse-engineered weak scheme: key = seed XOR constant.
SeedKeyFn weak_xor_algorithm(std::uint32_t secret_constant);
/// SHE-class scheme: key = AES-CMAC(K, seed), 4-byte truncation.
SeedKeyFn cmac_algorithm(util::Bytes key16);

struct UdsResponse {
  bool positive = false;
  UdsNrc nrc = UdsNrc::kNone;
  util::Bytes data;
};

/// Diagnostic server running on an ECU.
class UdsServer {
 public:
  struct Config {
    SeedKeyFn seed_key;
    std::uint32_t max_attempts = 3;
    /// Lockout after exceeding attempts, in simulated seconds.
    double lockout_s = 600.0;
  };
  UdsServer(Config cfg, std::uint64_t seed,
            const sim::Telemetry& telemetry = {});

  /// Largest download accepted by RequestDownload (memorySize bound).
  static constexpr std::uint64_t kMaxDownloadBytes = 1u << 20;  // 1 MiB
  /// Largest value accepted by WriteDataByIdentifier.
  static constexpr std::size_t kMaxWriteBytes = 4095;

  /// Byte-level request decoding — what actually arrives in diagnostic
  /// frames on the wire: [SID, subfunction/params...]. Returns the raw
  /// response: positive = [SID+0x40, data...], negative = [0x7F, SID, NRC].
  /// Malformed requests (truncated subfunctions, wrong field lengths,
  /// oversized address/length descriptors) are rejected with NRC 0x13
  /// (incorrectMessageLengthOrInvalidFormat) instead of being silently
  /// clamped — the V9/V11 parser classes the E20 fuzzer exercises.
  util::Bytes handle_request(util::BytesView request, double now_s);

  // Services. `now_s` is simulated time in seconds (for lockout handling).
  UdsResponse session_control(UdsSession target, double now_s);
  UdsResponse request_seed(double now_s);
  UdsResponse send_key(util::BytesView key, double now_s);
  UdsResponse read_data(std::uint16_t did);
  UdsResponse write_data(std::uint16_t did, util::BytesView value, double now_s);
  UdsResponse request_download(double now_s);

  void define_did(std::uint16_t did, util::Bytes value, bool write_protected);

  bool unlocked() const { return unlocked_; }
  UdsSession session() const { return session_; }

 private:
  bool locked_out(double now_s) const;

  Config cfg_;
  util::Rng rng_;
  UdsSession session_ = UdsSession::kDefault;
  bool unlocked_ = false;
  std::optional<util::Bytes> pending_seed_;
  std::uint32_t failed_attempts_ = 0;
  double lockout_until_s_ = 0;
  struct DidEntry {
    util::Bytes value;
    bool write_protected;
  };
  std::map<std::uint16_t, DidEntry> dids_;
  sim::TraceScope trace_;
  sim::Counter& c_unlock_ok_ = trace_.counter("unlock_ok");
  sim::Counter& c_invalid_key_ = trace_.counter("invalid_key");
  sim::Counter& c_lockouts_ = trace_.counter("lockouts");
  const sim::TraceId k_unlock_ = trace_.kind("unlock");
  const sim::TraceId k_invalid_key_ = trace_.kind("invalid_key");
  const sim::TraceId k_lockout_ = trace_.kind("lockout");
};

/// Brute-force attack against the weak XOR scheme: given one observed
/// (seed, key) pair, recovers the constant immediately; without an observed
/// pair, tries constants against the live server until unlock or lockout.
struct UdsAttackResult {
  bool unlocked = false;
  std::uint64_t attempts = 0;
  bool locked_out = false;
};
UdsAttackResult brute_force_security_access(UdsServer& server,
                                            std::uint64_t max_tries,
                                            double start_time_s,
                                            util::Rng& rng);

}  // namespace aseck::ivn
