#include "ota/manifest.hpp"

namespace aseck::ota {

util::Bytes EcuVersionReport::tbs() const {
  util::Bytes out;
  out.insert(out.end(), ecu_serial.begin(), ecu_serial.end());
  out.push_back(0);
  out.insert(out.end(), image_name.begin(), image_name.end());
  out.push_back(0);
  util::append_be(out, installed_version, 4);
  out.insert(out.end(), image_digest.begin(), image_digest.end());
  util::append_be(out, reported_at.ns, 8);
  return out;
}

EcuVersionReport EcuVersionReport::make(const std::string& serial,
                                        const std::string& image_name,
                                        std::uint32_t version,
                                        util::BytesView image_digest,
                                        util::SimTime at,
                                        const crypto::EcdsaPrivateKey& ecu_key) {
  EcuVersionReport r;
  r.ecu_serial = serial;
  r.image_name = image_name;
  r.installed_version = version;
  r.image_digest.assign(image_digest.begin(), image_digest.end());
  r.reported_at = at;
  r.signature = ecu_key.sign(r.tbs());
  return r;
}

util::Bytes VehicleManifest::tbs() const {
  util::Bytes out(vin.begin(), vin.end());
  out.push_back(0);
  for (const auto& r : reports) {
    const util::Bytes rb = r.tbs();
    out.insert(out.end(), rb.begin(), rb.end());
    const util::Bytes sig = r.signature.to_bytes();
    out.insert(out.end(), sig.begin(), sig.end());
  }
  return out;
}

VehicleManifest VehicleManifest::assemble(
    const std::string& vin, std::vector<EcuVersionReport> reports,
    const crypto::EcdsaPrivateKey& primary_key) {
  VehicleManifest m;
  m.vin = vin;
  m.reports = std::move(reports);
  m.primary_signature = primary_key.sign(m.tbs());
  return m;
}

void ManifestProcessor::register_ecu(const std::string& serial,
                                     crypto::EcdsaPublicKey key) {
  ecu_keys_.emplace(serial, std::move(key));
}

void ManifestProcessor::register_primary(const std::string& vin,
                                         crypto::EcdsaPublicKey key) {
  primary_keys_.emplace(vin, std::move(key));
}

void ManifestProcessor::expect(const std::string& vin,
                               const std::string& image_name,
                               std::uint32_t version, util::Bytes digest) {
  expected_[{vin, image_name}] = Expectation{version, std::move(digest)};
}

std::size_t ManifestProcessor::Result::alarms() const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.status == ReportStatus::kUnexpectedVersion ||
        f.status == ReportStatus::kBadSignature ||
        f.status == ReportStatus::kUnknownEcu) {
      ++n;
    }
  }
  return n;
}

ManifestProcessor::Result ManifestProcessor::process(
    const VehicleManifest& manifest) const {
  Result out;
  const auto pit = primary_keys_.find(manifest.vin);
  out.manifest_authentic =
      pit != primary_keys_.end() &&
      crypto::ecdsa_verify(pit->second, manifest.tbs(),
                           manifest.primary_signature);
  for (const auto& r : manifest.reports) {
    Finding f;
    f.ecu_serial = r.ecu_serial;
    const auto kit = ecu_keys_.find(r.ecu_serial);
    if (kit == ecu_keys_.end()) {
      f.status = ReportStatus::kUnknownEcu;
    } else if (!crypto::ecdsa_verify(kit->second, r.tbs(), r.signature)) {
      f.status = ReportStatus::kBadSignature;
    } else {
      const auto eit = expected_.find({manifest.vin, r.image_name});
      if (eit == expected_.end()) {
        f.status = ReportStatus::kUnexpectedVersion;
      } else if (r.installed_version == eit->second.version &&
                 r.image_digest == eit->second.digest) {
        f.status = ReportStatus::kCurrent;
      } else if (r.installed_version < eit->second.version) {
        f.status = ReportStatus::kOutdated;
      } else {
        f.status = ReportStatus::kUnexpectedVersion;
      }
    }
    out.findings.push_back(std::move(f));
  }
  return out;
}

}  // namespace aseck::ota
