#include "core/layers.hpp"

namespace aseck::core {

CompiledConfig compile_policy(const SecurityPolicy& policy) {
  CompiledConfig cfg;
  cfg.v2x_policy.max_age = util::SimTime::from_ms(static_cast<std::uint64_t>(
      policy.get_int(keys::kV2xMaxAgeMs, 500)));
  cfg.v2x_policy.max_relevance_m = policy.get_double(keys::kV2xRelevanceM, 1000.0);
  cfg.pseudonym_period = util::SimTime::from_s(static_cast<std::uint64_t>(
      policy.get_int(keys::kPseudonymPeriodS, 60)));

  cfg.firewall_rules = policy.firewall_rules;
  cfg.gateway_default_deny = policy.get_bool(keys::kGatewayDefaultDeny, false);
  cfg.gateway_rate_limit_fps = policy.get_double(keys::kGatewayRateLimit, 0.0);

  cfg.secoc.mac_bytes = static_cast<std::size_t>(
      policy.get_int(keys::kSecocMacBytes, 4));
  cfg.secoc.freshness_bytes = static_cast<std::size_t>(
      policy.get_int(keys::kSecocFreshnessBytes, 1));
  cfg.mac_suite = policy.get_string(keys::kSecocSuite, "cmac-aes128");
  cfg.ids_sensitivity = policy.get_double(keys::kIdsSensitivity, 4.0);

  cfg.pkes_rtt_limit_us = policy.get_double(keys::kPkesRttLimitUs, 0.0);
  return cfg;
}

LayerManager::LayerManager(SuiteRegistry registry)
    : registry_(std::move(registry)) {}

void LayerManager::bind_gateway(gateway::SecurityGateway* gw,
                                std::vector<std::string> external_domains) {
  gateway_ = gw;
  external_domains_ = std::move(external_domains);
}

void LayerManager::bind_pkes(access::PkesCar* car) { pkes_ = car; }

const CompiledConfig& LayerManager::apply(const SecurityPolicy& policy) {
  config_ = compile_policy(policy);
  ++applications_;

  if (gateway_) {
    for (const auto& rule : config_.firewall_rules) gateway_->add_rule(rule);
    if (config_.gateway_default_deny) {
      gateway::FirewallRule deny_all;
      deny_all.allow = false;
      gateway_->add_rule(deny_all);
    }
    if (config_.gateway_rate_limit_fps > 0) {
      for (const auto& domain : external_domains_) {
        gateway_->set_domain_rate_limit(
            domain, gateway::RateLimit{config_.gateway_rate_limit_fps, 10.0});
      }
    }
  }
  if (pkes_) pkes_->set_rtt_limit(config_.pkes_rtt_limit_us);
  return config_;
}

ivn::SecOcChannel LayerManager::make_secoc_channel(util::BytesView key) const {
  return ivn::SecOcChannel(key, config_.secoc);
}

std::unique_ptr<MacSuite> LayerManager::make_mac_suite(util::BytesView key) const {
  auto suite = registry_.create(config_.mac_suite, key, config_.secoc.mac_bytes);
  if (!suite) {
    // Unknown suite in policy (e.g. not yet deployed on this ECU): fall
    // back to the baseline rather than failing open/closed ambiguously.
    suite = registry_.create("cmac-aes128", key, config_.secoc.mac_bytes);
  }
  return suite;
}

}  // namespace aseck::core
