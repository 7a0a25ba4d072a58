#pragma once
// Uptane vehicle version manifest: after every update cycle, each ECU signs
// a report of what it actually has installed; the primary aggregates them
// into a vehicle manifest for the director. This is how the backend detects
// partial installs, rollback attempts on individual ECUs, and ECUs that are
// lying about versions (a compromised ECU cannot forge another ECU's
// report without its key).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace aseck::ota {

/// One ECU's signed installation report.
struct EcuVersionReport {
  std::string ecu_serial;
  std::string image_name;
  std::uint32_t installed_version = 0;
  util::Bytes image_digest;  // SHA-256 of the installed image
  util::SimTime reported_at;
  crypto::EcdsaSignature signature;

  util::Bytes tbs() const;
  static EcuVersionReport make(const std::string& serial,
                               const std::string& image_name,
                               std::uint32_t version,
                               util::BytesView image_digest, util::SimTime at,
                               const crypto::EcdsaPrivateKey& ecu_key);
};

/// The aggregated vehicle manifest, signed by the primary ECU.
struct VehicleManifest {
  std::string vin;
  std::vector<EcuVersionReport> reports;
  crypto::EcdsaSignature primary_signature;

  util::Bytes tbs() const;
  static VehicleManifest assemble(const std::string& vin,
                                  std::vector<EcuVersionReport> reports,
                                  const crypto::EcdsaPrivateKey& primary_key);
};

/// Director-side manifest processing: verifies signatures against the
/// registered ECU keys and diffs installed state against the expected
/// targets.
class ManifestProcessor {
 public:
  void register_ecu(const std::string& serial, crypto::EcdsaPublicKey key);
  void register_primary(const std::string& vin, crypto::EcdsaPublicKey key);
  /// Expected installed version per (vin, image).
  void expect(const std::string& vin, const std::string& image_name,
              std::uint32_t version, util::Bytes digest);

  enum class ReportStatus {
    kCurrent,            // matches expectation
    kOutdated,           // older than expected (update not applied yet)
    kUnexpectedVersion,  // NEWER than directed or unknown digest: alarm
    kBadSignature,       // forged report
    kUnknownEcu,
  };
  struct Finding {
    std::string ecu_serial;
    ReportStatus status;
  };
  struct Result {
    bool manifest_authentic = false;
    std::vector<Finding> findings;
    std::size_t alarms() const;
  };
  Result process(const VehicleManifest& manifest) const;

 private:
  std::map<std::string, crypto::EcdsaPublicKey> ecu_keys_;
  std::map<std::string, crypto::EcdsaPublicKey> primary_keys_;
  struct Expectation {
    std::uint32_t version;
    util::Bytes digest;
  };
  std::map<std::pair<std::string, std::string>, Expectation> expected_;
};

}  // namespace aseck::ota
