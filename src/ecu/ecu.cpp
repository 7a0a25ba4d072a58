#include "ecu/ecu.hpp"

#include <cmath>

namespace aseck::ecu {

namespace {
util::Bytes make_uid(std::uint64_t seed) {
  crypto::Drbg d(seed ^ 0x5ec01dULL);
  return d.bytes(15);
}
}  // namespace

// A non-finite sample is a violation: NaN fails every comparison, so the
// envelope test alone would let a NaN glitch pass.
bool TamperMonitor::feed_voltage(double volts) {
  if (!std::isfinite(volts) || volts < v_min || volts > v_max) {
    tripped = true;
    return true;
  }
  return false;
}

bool TamperMonitor::feed_clock(double mhz) {
  if (!std::isfinite(mhz) ||
      std::abs(mhz - clk_nominal_mhz) > clk_tolerance * clk_nominal_mhz) {
    tripped = true;
    return true;
  }
  return false;
}

Ecu::Ecu(Scheduler& sched, std::string name, std::uint64_t uid_seed)
    : ivn::CanNode(std::move(name)),
      sched_(sched),
      she_(make_uid(uid_seed), uid_seed ^ 0x9e3779b97f4a7c15ULL),
      crypto_(
          std::make_unique<crypto::CryptoService>(CanNode::name() + "-crypto")) {}

BootChain& Ecu::install_boot_chain(BootChainConfig cfg) {
  chain_ = std::make_unique<BootChain>(she_, flash_, *crypto_, &kv_,
                                       std::move(cfg));
  return *chain_;
}

void Ecu::provision(FirmwareImage fw, const crypto::Block& master_key,
                    const crypto::Block& boot_mac_key,
                    const crypto::Block& secoc_key) {
  flash_.provision(std::move(fw));
  she_.provision_key(SheSlot::kMasterEcuKey, master_key,
                     SheKeyFlags{.write_protection = false,
                                 .boot_protection = false,
                                 .debugger_protection = true,
                                 .key_usage_mac = false,
                                 .wildcard_forbidden = true});
  she_.provision_key(SheSlot::kBootMacKey, boot_mac_key,
                     SheKeyFlags{.write_protection = false,
                                 .boot_protection = false,
                                 .debugger_protection = true,
                                 .key_usage_mac = true,
                                 .wildcard_forbidden = true});
  she_.provision_key(SheSlot::kKey1, secoc_key,
                     SheKeyFlags{.write_protection = false,
                                 .boot_protection = true,
                                 .debugger_protection = true,
                                 .key_usage_mac = true,
                                 .wildcard_forbidden = true});
  she_.autonomous_bootstrap(flash_.active()->code);
}

EcuState Ecu::boot() {
  if (chain_) {
    const BootChain::Report rep = chain_->run(sched_.now());
    const bool up = !rep.hung && rep.measured_ok &&
                    (rep.mode == BootMode::kNormal ||
                     rep.mode == BootMode::kFallback);
    state_ = up ? EcuState::kOperational : EcuState::kDegraded;
    return state_;
  }
  const FirmwareImage* fw = flash_.active();
  if (!fw || !she_.secure_boot(fw->code)) {
    state_ = EcuState::kDegraded;
  } else {
    state_ = EcuState::kOperational;
  }
  return state_;
}

void Ecu::power_off() { state_ = EcuState::kOff; }

void Ecu::report_voltage(double volts) {
  if (tamper_.feed_voltage(volts)) {
    state_ = EcuState::kDegraded;
    she_.attach_debugger();  // zeroize debugger-protected keys
  }
}

void Ecu::report_clock(double mhz) {
  if (tamper_.feed_clock(mhz)) {
    state_ = EcuState::kDegraded;
    she_.attach_debugger();
  }
}

std::size_t Ecu::add_partition(std::string name) {
  partitions_.push_back(Partition{std::move(name), false});
  return partitions_.size() - 1;
}

void Ecu::compromise_partition(std::size_t idx) {
  partitions_.at(idx).compromised = true;
  if (!isolation_) {
    for (auto& p : partitions_) p.compromised = true;
  }
}

void Ecu::attach_to(CanBus* bus) {
  bus_ = bus;
  bus->attach(this);
}

void Ecu::subscribe(std::uint32_t can_id, FrameHandler handler) {
  handlers_.emplace(can_id, std::move(handler));
}

bool Ecu::send_frame(std::uint32_t can_id, util::Bytes payload) {
  if (!bus_) return false;
  if (state_ == EcuState::kOff) return false;
  if (state_ == EcuState::kDegraded && can_id < 0x700) return false;
  CanFrame f;
  f.id = can_id;
  if (payload.size() > 8) {
    f.format = ivn::CanFormat::kFd;
    payload.resize(CanFrame::fd_round_up(payload.size()), 0);
  }
  f.data = std::move(payload);
  return bus_->send(this, std::move(f));
}

bool Ecu::send_secured(const ivn::SecOcChannel& ch, std::uint16_t data_id,
                       std::uint32_t can_id, util::BytesView payload) {
  // SecOC assumes a length-preserving transport, but CAN FD pads payloads up
  // to the next legal DLC size. A 1-byte length prefix (the AUTOSAR
  // dynamic-length PDU convention) lets the receiver strip that padding.
  const util::Bytes pdu = ch.protect(data_id, payload, freshness_);
  if (pdu.size() > 254) return false;
  util::Bytes framed;
  framed.reserve(1 + pdu.size());
  framed.push_back(static_cast<std::uint8_t>(pdu.size()));
  framed.insert(framed.end(), pdu.begin(), pdu.end());
  return send_frame(can_id, std::move(framed));
}

ivn::SecOcChannel::VerifyResult Ecu::verify_secured(const ivn::SecOcChannel& ch,
                                                    std::uint16_t data_id,
                                                    util::BytesView secured) {
  if (secured.empty() || secured.size() < 1u + secured[0]) {
    return {ivn::SecOcStatus::kTooShort, {}};
  }
  return ch.verify(data_id, secured.subspan(1, secured[0]), freshness_);
}

void Ecu::on_frame(const CanFrame& frame, SimTime at) {
  if (state_ != EcuState::kOperational && frame.id < 0x700) return;
  ++frames_received_;
  auto [lo, hi] = handlers_.equal_range(frame.id);
  for (auto it = lo; it != hi; ++it) it->second(frame, at);
}

}  // namespace aseck::ecu
