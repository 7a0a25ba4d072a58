#include "core/platform.hpp"

#include <stdexcept>

namespace aseck::core {

VehicleSpec VehicleSpec::reference() {
  VehicleSpec spec;
  spec.name = "reference-vehicle";
  spec.domains = {
      {"powertrain", 500000, false}, {"chassis", 500000, false},
      {"body", 125000, false},       {"telematics", 500000, true},
      {"infotainment", 500000, true},
  };
  spec.ecus = {
      {"engine", "powertrain", 1, 4096}, {"transmission", "powertrain", 1, 2048},
      {"brake", "chassis", 1, 4096},     {"steering", "chassis", 1, 4096},
      {"bcm", "body", 1, 2048},          {"tcu", "telematics", 1, 8192},
  };
  spec.routes = {
      {0x7DF, "telematics", "powertrain"},  // diagnostics broadcast
      {0x7DF, "telematics", "chassis"},
      {0x7DF, "telematics", "body"},
      {0x300, "powertrain", "infotainment"},  // telltale data for display
  };
  return spec;
}

VehiclePlatform::VehiclePlatform(sim::Scheduler& sched, VehicleSpec spec,
                                 const crypto::EcdsaPublicKey& policy_authority,
                                 SecurityPolicy initial_policy,
                                 std::uint64_t seed)
    : sched_(sched), spec_(std::move(spec)) {
  gateway_ = std::make_unique<gateway::SecurityGateway>(
      sched_, spec_.name + "-cgw",
      gateway::SecurityGateway::kDefaultProcessingDelay, telemetry_);
  std::vector<std::string> external;
  for (const auto& d : spec_.domains) {
    auto bus = std::make_unique<ivn::CanBus>(sched_, d.name, d.bitrate_bps, 0,
                                             telemetry_);
    gateway_->add_domain(d.name, bus.get());
    if (d.external) external.push_back(d.name);
    buses_[d.name] = std::move(bus);
  }
  for (const auto& r : spec_.routes) {
    gateway_->add_route(r.can_id, r.from, r.to);
  }

  // Per-vehicle key material derived from the seed (factory provisioning).
  crypto::Drbg key_rng(seed ^ 0xFAC7021ULL);
  crypto::Block master, boot;
  key_rng.generate(master.data(), 16);
  key_rng.generate(boot.data(), 16);
  key_rng.generate(secoc_key_.data(), 16);

  std::uint64_t ecu_seed = seed;
  for (const auto& e : spec_.ecus) {
    const auto bit = buses_.find(e.domain);
    if (bit == buses_.end()) {
      throw std::invalid_argument("VehiclePlatform: ECU references unknown domain " +
                                  e.domain);
    }
    auto unit = std::make_unique<ecu::Ecu>(sched_, e.name, ++ecu_seed);
    unit->provision(
        ecu::FirmwareImage{e.name + "-fw", e.fw_version,
                           util::Bytes(e.fw_size, static_cast<std::uint8_t>(
                                                      ecu_seed & 0xff))},
        master, boot, secoc_key_);
    unit->attach_to(bit->second.get());
    ecus_[e.name] = std::move(unit);
  }

  layers_.bind_gateway(gateway_.get(), external);
  policy_store_ =
      std::make_unique<PolicyStore>(policy_authority, std::move(initial_policy));
  policy_store_->subscribe(
      [this](const SecurityPolicy& p) { layers_.apply(p); });
  layers_.apply(policy_store_->active());
}

std::size_t VehiclePlatform::boot_all() {
  std::size_t ok = 0;
  for (auto& [name, unit] : ecus_) {
    if (unit->boot() == ecu::EcuState::kOperational) ++ok;
  }
  return ok;
}

ivn::CanBus& VehiclePlatform::bus(const std::string& domain) {
  const auto it = buses_.find(domain);
  if (it == buses_.end()) {
    throw std::invalid_argument("VehiclePlatform: unknown domain " + domain);
  }
  return *it->second;
}

ecu::Ecu& VehiclePlatform::ecu(const std::string& name) {
  const auto it = ecus_.find(name);
  if (it == ecus_.end()) {
    throw std::invalid_argument("VehiclePlatform: unknown ECU " + name);
  }
  return *it->second;
}

ivn::SecOcChannel VehiclePlatform::secoc_channel() const {
  return layers_.make_secoc_channel(
      util::BytesView(secoc_key_.data(), secoc_key_.size()));
}

VehiclePlatform::Posture VehiclePlatform::posture() const {
  Posture p;
  for (const auto& [name, unit] : ecus_) {
    if (unit->state() == ecu::EcuState::kOperational) {
      ++p.ecus_operational;
    } else if (unit->state() == ecu::EcuState::kDegraded) {
      ++p.ecus_degraded;
    }
  }
  p.policy_version = policy_store_->active().version;
  p.gateway_drops = gateway_->stats().total_drops();
  for (const auto& d : spec_.domains) {
    if (gateway_->quarantined(d.name)) ++p.quarantined_domains;
  }
  return p;
}

}  // namespace aseck::core
