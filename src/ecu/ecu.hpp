#pragma once
// ECU model: a CAN-attached controller with SHE-backed secure boot, dual-bank
// flash, tamper monitoring, and hypervisor-style software partitions. This is
// the unit the gateway routes between, OTA updates, and attacks target.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/service.hpp"
#include "ecu/boot.hpp"
#include "ecu/flash.hpp"
#include "ecu/kvstore.hpp"
#include "ecu/she.hpp"
#include "ivn/can.hpp"
#include "ivn/secoc.hpp"

namespace aseck::ecu {

using ivn::CanBus;
using ivn::CanFrame;
using sim::Scheduler;
using sim::SimTime;

enum class EcuState {
  kOff,
  kOperational,
  kDegraded,   // secure boot failed or tamper detected: limp-home mode
};

/// Voltage/clock tamper monitor (the "tamper detection and resistance"
/// element of the Secure Processing layer).
struct TamperMonitor {
  double v_min = 4.5, v_max = 5.5;      // volts
  double clk_tolerance = 0.05;          // +-5% of nominal
  double clk_nominal_mhz = 100.0;
  bool tripped = false;

  /// Returns true if the sample violates the envelope (latches `tripped`).
  bool feed_voltage(double volts);
  bool feed_clock(double mhz);
};

/// Hypervisor-isolated software partition.
struct Partition {
  std::string name;
  bool compromised = false;
};

class Ecu : public ivn::CanNode {
 public:
  Ecu(Scheduler& sched, std::string name, std::uint64_t uid_seed);

  She& she() { return she_; }
  Flash& flash() { return flash_; }
  EcuState state() const { return state_; }
  TamperMonitor& tamper() { return tamper_; }
  /// Device-side PSA-style crypto service. Callers register partitions and
  /// import keys during provisioning, then seal(); the measured boot chain
  /// (install_boot_chain) delivers the unlock verdict on every boot.
  crypto::CryptoService& crypto_service() { return *crypto_; }
  /// Journaled provisioning store (trust anchors, image signatures,
  /// pseudonym/campaign config). Mounted by the boot chain.
  KvStore& kvstore() { return kv_; }

  /// Factory provisioning: installs firmware, boot-MAC, and a MAC key for
  /// SecOC traffic in KEY_1.
  void provision(FirmwareImage fw, const crypto::Block& master_key,
                 const crypto::Block& boot_mac_key,
                 const crypto::Block& secoc_key);

  /// Installs a measured boot chain over this ECU's SHE + flash + service +
  /// kvstore; subsequent boot() calls run the full chain (ROM -> boot MAC ->
  /// app signature) instead of the legacy bare SHE path.
  BootChain& install_boot_chain(BootChainConfig cfg);

  /// Powers on: secure boot of the active firmware. Operational on success,
  /// degraded on failure (limp-home: only diagnostics traffic). With an
  /// installed boot chain, a normal/fallback measured boot is operational;
  /// recovery mode or a hung chain is degraded.
  EcuState boot();
  void power_off();

  /// Reports a tamper sample; a violation forces degraded mode and erases
  /// debugger-protected keys (zeroization).
  void report_voltage(double volts);
  void report_clock(double mhz);

  // --- partitions -----------------------------------------------------------
  /// Adds a software partition; returns its index.
  std::size_t add_partition(std::string name);
  /// Marks a partition compromised (attack outcome).
  void compromise_partition(std::size_t idx);
  /// With hypervisor isolation on (default), a compromised partition cannot
  /// reach others; with it off, compromise spreads to all partitions.
  void set_isolation(bool on) { isolation_ = on; }
  const std::vector<Partition>& partitions() const { return partitions_; }

  // --- CAN messaging ---------------------------------------------------------
  /// Attaches to a bus (an ECU joins exactly one bus; gateways use multiple
  /// adapters instead).
  void attach_to(CanBus* bus);

  using FrameHandler = std::function<void(const CanFrame&, SimTime)>;
  /// Registers a handler for a CAN id.
  void subscribe(std::uint32_t can_id, FrameHandler handler);

  /// Sends a raw frame (drops silently when degraded unless diag id >= 0x700).
  bool send_frame(std::uint32_t can_id, util::Bytes payload);

  /// Sends a SecOC-protected frame using KEY_1 via the given channel/data-id.
  bool send_secured(const ivn::SecOcChannel& ch, std::uint16_t data_id,
                    std::uint32_t can_id, util::BytesView payload);
  /// Verifies a received secured payload.
  ivn::SecOcChannel::VerifyResult verify_secured(const ivn::SecOcChannel& ch,
                                                 std::uint16_t data_id,
                                                 util::BytesView secured);

  // CanNode interface.
  void on_frame(const CanFrame& frame, SimTime at) override;

  std::uint64_t frames_received() const { return frames_received_; }

 private:
  Scheduler& sched_;
  She she_;
  Flash flash_;
  KvStore kv_;
  std::unique_ptr<crypto::CryptoService> crypto_;  // stable address (mutex)
  std::unique_ptr<BootChain> chain_;
  EcuState state_ = EcuState::kOff;
  TamperMonitor tamper_;
  bool isolation_ = true;
  std::vector<Partition> partitions_;
  CanBus* bus_ = nullptr;
  std::multimap<std::uint32_t, FrameHandler> handlers_;
  ivn::FreshnessManager freshness_;
  std::uint64_t frames_received_ = 0;
};

}  // namespace aseck::ecu
