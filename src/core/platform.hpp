#pragma once
// VehiclePlatform: top-level assembly of the 4+1 architecture. Builds the
// domain buses, the central gateway, provisioned ECUs, and the policy
// engine from a declarative description — the "disciplined architecture"
// entry point a vehicle program would start from.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/layers.hpp"
#include "core/policy.hpp"
#include "ecu/ecu.hpp"
#include "gateway/gateway.hpp"
#include "sim/telemetry.hpp"

namespace aseck::core {

/// Declarative description of a vehicle E/E architecture.
struct VehicleSpec {
  struct DomainSpec {
    std::string name;
    std::uint64_t bitrate_bps = 500000;
    bool external = true;  // faces the outside world (policed by policy)
  };
  struct EcuSpec {
    std::string name;
    std::string domain;
    std::uint32_t fw_version = 1;
    std::size_t fw_size = 1024;
  };
  struct RouteSpec {
    std::uint32_t can_id;
    std::string from, to;
  };

  std::string name = "vehicle";
  std::vector<DomainSpec> domains;
  std::vector<EcuSpec> ecus;
  std::vector<RouteSpec> routes;

  /// A sensible reference architecture: powertrain/chassis/body internal,
  /// telematics/infotainment external, 6 ECUs, diagnostics routes.
  static VehicleSpec reference();
};

class VehiclePlatform {
 public:
  /// Builds and provisions everything; ECUs are powered off until boot().
  VehiclePlatform(sim::Scheduler& sched, VehicleSpec spec,
                  const crypto::EcdsaPublicKey& policy_authority,
                  SecurityPolicy initial_policy, std::uint64_t seed = 1);

  /// Secure-boots every ECU; returns the number that reached operational.
  std::size_t boot_all();

  // Accessors.
  ivn::CanBus& bus(const std::string& domain);
  ecu::Ecu& ecu(const std::string& name);
  gateway::SecurityGateway& gateway() { return *gateway_; }
  PolicyStore& policy() { return *policy_store_; }
  const VehicleSpec& spec() const { return spec_; }

  /// The vehicle-wide telemetry plane: every bus and the gateway share this
  /// trace bus and metrics registry, so cross-layer incidents (spoof on a
  /// domain bus, drop at the gateway, IDS alert) land on one causally
  /// ordered timeline. Externally built components (OTA clients, V2X nodes,
  /// the IDS ensemble) join by taking telemetry() as a constructor argument.
  const sim::Telemetry& telemetry() const { return telemetry_; }
  sim::TraceBus& trace_bus() { return *telemetry_.bus; }

  /// SecOC channel under the active policy, bound to the vehicle SecOC key.
  ivn::SecOcChannel secoc_channel() const;

  /// Vehicle-wide security posture summary.
  struct Posture {
    std::size_t ecus_operational = 0;
    std::size_t ecus_degraded = 0;
    std::uint32_t policy_version = 0;
    std::uint64_t gateway_drops = 0;
    std::size_t quarantined_domains = 0;
  };
  Posture posture() const;

 private:
  sim::Scheduler& sched_;
  VehicleSpec spec_;
  sim::Telemetry telemetry_;
  std::map<std::string, std::unique_ptr<ivn::CanBus>> buses_;
  std::unique_ptr<gateway::SecurityGateway> gateway_;
  std::map<std::string, std::unique_ptr<ecu::Ecu>> ecus_;
  LayerManager layers_;
  std::unique_ptr<PolicyStore> policy_store_;
  crypto::Block secoc_key_{};
};

}  // namespace aseck::core
