#pragma once
// The 4+1-layer security assurance architecture (paper Section 7), bound
// together by the policy engine: one LayerManager owns the mapping from the
// central SecurityPolicy to the concrete configuration of
//   L1 Secure Interfaces  (V2X verification policy, pseudonym rotation)
//   L2 Secure Gateway     (firewall rules, rate limits)
//   L3 Secure Networks    (SecOC parameters, MAC suite, IDS sensitivity)
//   L4 Secure Processing  (SHE usage flags are ECU-local; latency budget here)
//   +1 Vehicle Access     (PKES distance-bounding budget)
// and re-applies it whenever a signed policy update is accepted in-field.

#include <memory>
#include <optional>
#include <vector>

#include "access/pkes.hpp"
#include "core/policy.hpp"
#include "core/registry.hpp"
#include "gateway/gateway.hpp"
#include "ivn/secoc.hpp"
#include "v2x/net.hpp"

namespace aseck::core {

/// Policy compiled into typed per-layer configuration.
struct CompiledConfig {
  // L1
  v2x::VerifyPolicy v2x_policy;
  util::SimTime pseudonym_period = util::SimTime::from_s(60);
  // L2
  std::vector<gateway::FirewallRule> firewall_rules;
  double gateway_rate_limit_fps = 0;  // 0 = unlimited
  bool gateway_default_deny = false;
  // L3
  ivn::SecOcConfig secoc;
  std::string mac_suite = "cmac-aes128";
  double ids_sensitivity = 4.0;
  // +1
  double pkes_rtt_limit_us = 0;
};

/// Compiles a policy document into typed configuration. Unknown keys are
/// ignored here but preserved in the policy (forward compatibility).
CompiledConfig compile_policy(const SecurityPolicy& policy);

class LayerManager {
 public:
  explicit LayerManager(SuiteRegistry registry = SuiteRegistry::with_builtins());

  // --- component registration (any subset) ---------------------------------
  void bind_gateway(gateway::SecurityGateway* gw,
                    std::vector<std::string> external_domains);
  void bind_pkes(access::PkesCar* car);

  /// Applies a policy to every bound component; returns the compiled form.
  const CompiledConfig& apply(const SecurityPolicy& policy);

  const CompiledConfig& config() const { return config_; }
  std::uint32_t applications() const { return applications_; }

  /// L3: creates a SecOC channel honoring the active policy.
  ivn::SecOcChannel make_secoc_channel(util::BytesView key) const;
  /// L3: creates the active MAC suite for application-level authentication.
  std::unique_ptr<MacSuite> make_mac_suite(util::BytesView key) const;

 private:
  SuiteRegistry registry_;
  CompiledConfig config_;
  gateway::SecurityGateway* gateway_ = nullptr;
  std::vector<std::string> external_domains_;
  access::PkesCar* pkes_ = nullptr;
  std::uint32_t applications_ = 0;
};

}  // namespace aseck::core
