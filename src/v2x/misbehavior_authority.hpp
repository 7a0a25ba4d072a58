#pragma once
// Misbehavior authority: closes the V2X trust-revocation loop. Vehicles
// that flag implausible BSMs submit signed misbehavior reports (PSID
// kMisbehaviorReport, via an RSU backhaul); the authority aggregates
// reports per accused certificate and revokes once enough *distinct*
// reporters corroborate — single reporters cannot get a victim revoked
// (defamation resistance), which is the reporting system's own security
// requirement.

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "v2x/message.hpp"

namespace aseck::v2x {

/// A misbehavior report: the accused certificate id, the observed reason,
/// and the (pseudonymous) reporter — carried as an Spdu payload.
struct MisbehaviorReport {
  CertId accused{};
  std::string reason;        // e.g. "position_jump"
  std::uint32_t reporter_temp_id = 0;

  util::Bytes serialize() const;
  static std::optional<MisbehaviorReport> parse(util::BytesView b);
};

class MisbehaviorAuthority {
 public:
  MisbehaviorAuthority(Crl& crl, const TrustStore& trust)
      : crl_(crl), trust_(trust) {}

  enum class Outcome {
    kAccepted,
    kAcceptedAndRevoked,
    kDuplicateReporter,
    kInvalidEnvelope,   // report Spdu failed verification
    kAlreadyRevoked,
  };
  /// Processes a signed report envelope received at `now`.
  Outcome submit(const Spdu& envelope, SimTime now);

  std::size_t distinct_reporters(const CertId& accused) const;
  std::size_t revocations() const { return revocations_; }

 private:
  Crl& crl_;
  const TrustStore& trust_;
  struct Less {
    bool operator()(const CertId& a, const CertId& b) const { return a < b; }
  };
  std::map<CertId, std::set<std::uint32_t>, Less> reporters_;
  std::size_t revocations_ = 0;
};

}  // namespace aseck::v2x
