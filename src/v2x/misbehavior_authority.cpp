#include "v2x/misbehavior_authority.hpp"

namespace aseck::v2x {

namespace {
/// Distinct reporters required before revocation. Each reporter counts once
/// per accused (anti-spam): a repeat report is kDuplicateReporter.
constexpr std::size_t kRevocationThreshold = 3;
}  // namespace

util::Bytes MisbehaviorReport::serialize() const {
  util::Bytes out(accused.begin(), accused.end());
  util::append_be(out, reporter_temp_id, 4);
  out.insert(out.end(), reason.begin(), reason.end());
  return out;
}

std::optional<MisbehaviorReport> MisbehaviorReport::parse(util::BytesView b) {
  if (b.size() < 12) return std::nullopt;
  MisbehaviorReport r;
  std::copy(b.begin(), b.begin() + 8, r.accused.begin());
  r.reporter_temp_id = util::load_be32(b.data() + 8);
  r.reason.assign(b.begin() + 12, b.end());
  return r;
}

MisbehaviorAuthority::Outcome MisbehaviorAuthority::submit(const Spdu& envelope,
                                                           SimTime now) {
  // The report itself must be authentic. Vehicles report under their
  // pseudonym certificates, which typically carry only the kBsm permission,
  // so the authority accepts either permission on the signer cert — but the
  // SPDU must be signed as a kMisbehaviorReport and fresh-ish (reports may
  // be store-and-forward via RSUs).
  if (envelope.psid != Psid::kMisbehaviorReport) {
    return Outcome::kInvalidEnvelope;
  }
  const Psid accepted_permission = envelope.signer.permits(Psid::kMisbehaviorReport)
                                       ? Psid::kMisbehaviorReport
                                       : Psid::kBsm;
  if (trust_.validate(envelope.signer, now, accepted_permission) !=
      TrustStore::Result::kOk) {
    return Outcome::kInvalidEnvelope;
  }
  if (now > envelope.generation_time + SimTime::from_s(60) ||
      envelope.generation_time > now + SimTime::from_s(1)) {
    return Outcome::kInvalidEnvelope;
  }
  if (!crypto::ecdsa_verify(envelope.signer.verify_key,
                            envelope.signed_portion(), envelope.signature)) {
    return Outcome::kInvalidEnvelope;
  }
  const auto report = MisbehaviorReport::parse(envelope.payload);
  if (!report) return Outcome::kInvalidEnvelope;
  if (crl_.is_revoked(report->accused)) return Outcome::kAlreadyRevoked;

  auto& set = reporters_[report->accused];
  if (!set.insert(report->reporter_temp_id).second) {
    return Outcome::kDuplicateReporter;
  }
  if (set.size() >= kRevocationThreshold) {
    crl_.revoke(report->accused);
    ++revocations_;
    return Outcome::kAcceptedAndRevoked;
  }
  return Outcome::kAccepted;
}

std::size_t MisbehaviorAuthority::distinct_reporters(const CertId& accused) const {
  const auto it = reporters_.find(accused);
  return it == reporters_.end() ? 0 : it->second.size();
}

}  // namespace aseck::v2x
