#include "ecu/boot.hpp"

#include <utility>

namespace aseck::ecu {

const char* boot_stage_name(BootStage s) {
  switch (s) {
    case BootStage::kRom: return "rom";
    case BootStage::kBootloader: return "bootloader";
    case BootStage::kApp: return "app";
  }
  return "?";
}

const char* boot_mode_name(BootMode m) {
  switch (m) {
    case BootMode::kNone: return "none";
    case BootMode::kNormal: return "normal";
    case BootMode::kFallback: return "fallback";
    case BootMode::kRecovery: return "recovery";
  }
  return "?";
}

void MeasurementRegister::reset() {
  pcr_ = crypto::Digest{};  // all-zero initial PCR, TPM style
  log_.clear();
}

void MeasurementRegister::extend(const Measurement& m) {
  util::Bytes buf(pcr_.begin(), pcr_.end());
  buf.push_back(static_cast<std::uint8_t>(m.stage));
  buf.push_back(m.passed ? 1 : 0);
  buf.insert(buf.end(), m.digest.begin(), m.digest.end());
  pcr_ = crypto::sha256(buf);
  log_.push_back(m);
}

bool MeasurementRegister::all_passed() const {
  if (log_.empty()) return false;
  for (const Measurement& m : log_) {
    if (!m.passed) return false;
  }
  return true;
}

crypto::Digest MeasurementRegister::replay(const std::vector<Measurement>& log) {
  MeasurementRegister r;
  for (const Measurement& m : log) r.extend(m);
  return r.pcr();
}

namespace {
constexpr std::uint8_t kEvidenceMagic[4] = {'A', 'T', 'E', 'V'};
/// Extra attempts per stage before degrading (1 retry = 2 attempts).
constexpr int kStageRetries = 1;
/// Modeled cost of one app-image ECDSA verification.
constexpr double kSigVerifyUs = 200.0;
}  // namespace

util::Bytes AttestationEvidence::tbs() const {
  util::Bytes out(kEvidenceMagic, kEvidenceMagic + 4);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(uid.size()));
  out.insert(out.end(), uid.begin(), uid.end());
  util::append_be(out, boot_count, 4);
  out.push_back(mode);
  out.push_back(measured_ok ? 1 : 0);
  util::append_be(out, nonce.size(), 2);
  out.insert(out.end(), nonce.begin(), nonce.end());
  out.push_back(static_cast<std::uint8_t>(measurements.size()));
  for (const Measurement& m : measurements) {
    out.push_back(static_cast<std::uint8_t>(m.stage));
    out.push_back(m.passed ? 1 : 0);
    out.insert(out.end(), m.digest.begin(), m.digest.end());
  }
  out.insert(out.end(), pcr.begin(), pcr.end());
  return out;
}

util::Bytes AttestationEvidence::serialize() const {
  util::Bytes out = tbs();
  const util::Bytes sig = signature.to_bytes();
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

std::optional<AttestationEvidence> AttestationEvidence::parse(
    util::BytesView blob) {
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) { return pos + n <= blob.size(); };
  const auto u8 = [&]() { return blob[pos++]; };

  if (!need(6)) return std::nullopt;
  for (std::size_t i = 0; i < 4; ++i) {
    if (u8() != kEvidenceMagic[i]) return std::nullopt;
  }
  if (u8() != kVersion) return std::nullopt;

  AttestationEvidence ev;
  const std::size_t uid_len = u8();
  if (!need(uid_len)) return std::nullopt;
  ev.uid.assign(blob.begin() + pos, blob.begin() + pos + uid_len);
  pos += uid_len;

  if (!need(4 + 1 + 1 + 2)) return std::nullopt;
  ev.boot_count = util::load_be32(blob.data() + pos);
  pos += 4;
  ev.mode = u8();
  if (ev.mode > static_cast<std::uint8_t>(BootMode::kRecovery)) {
    return std::nullopt;
  }
  const std::uint8_t ok = u8();
  if (ok > 1) return std::nullopt;
  ev.measured_ok = ok == 1;
  const std::size_t nonce_len =
      (static_cast<std::size_t>(blob[pos]) << 8) | blob[pos + 1];
  pos += 2;
  if (!need(nonce_len)) return std::nullopt;
  ev.nonce.assign(blob.begin() + pos, blob.begin() + pos + nonce_len);
  pos += nonce_len;

  if (!need(1)) return std::nullopt;
  const std::size_t n_meas = u8();
  for (std::size_t i = 0; i < n_meas; ++i) {
    if (!need(1 + 1 + 32)) return std::nullopt;
    Measurement m;
    const std::uint8_t stage = u8();
    if (stage > static_cast<std::uint8_t>(BootStage::kApp)) return std::nullopt;
    m.stage = static_cast<BootStage>(stage);
    const std::uint8_t passed = u8();
    if (passed > 1) return std::nullopt;
    m.passed = passed == 1;
    std::copy(blob.begin() + pos, blob.begin() + pos + 32, m.digest.begin());
    pos += 32;
    ev.measurements.push_back(m);
  }

  if (!need(32)) return std::nullopt;
  std::copy(blob.begin() + pos, blob.begin() + pos + 32, ev.pcr.begin());
  pos += 32;

  if (!need(64)) return std::nullopt;
  const auto sig = crypto::EcdsaSignature::from_bytes(blob.subspan(pos, 64));
  if (!sig) return std::nullopt;
  ev.signature = *sig;
  pos += 64;

  if (pos != blob.size()) return std::nullopt;  // strict: no trailing bytes
  return ev;
}

bool verify_evidence(const AttestationEvidence& ev,
                     const crypto::EcdsaPublicKey& pub,
                     util::BytesView expected_nonce,
                     crypto::VerifyEngine* engine) {
  // Freshness: the nonce must be the verifier's own challenge.
  if (ev.nonce.size() != expected_nonce.size() ||
      !std::equal(ev.nonce.begin(), ev.nonce.end(), expected_nonce.begin())) {
    return false;
  }
  // Consistency: the claimed PCR must be what the claimed log replays to,
  // and a "measured ok" verdict must match the log's verdicts.
  if (MeasurementRegister::replay(ev.measurements) != ev.pcr) return false;
  bool all = !ev.measurements.empty();
  for (const Measurement& m : ev.measurements) all = all && m.passed;
  if (ev.measured_ok != all) return false;
  const util::Bytes tbs = ev.tbs();
  if (engine) return engine->verify(pub, tbs, ev.signature);
  return crypto::ecdsa_verify(pub, tbs, ev.signature);
}

std::string boot_sig_key(const crypto::Digest& image_digest) {
  return std::string(kKvSigPrefix) +
         util::to_hex(util::BytesView(image_digest.data(), image_digest.size()));
}

BootChain::BootChain(She& she, Flash& flash, crypto::CryptoService& service,
                     KvStore* provisioning, BootChainConfig cfg,
                     const sim::Telemetry& telemetry)
    : she_(she),
      flash_(flash),
      service_(service),
      kv_(provisioning),
      cfg_(std::move(cfg)),
      trace_("boot", {}, telemetry),
      engine_(trace_.metrics()) {}

void BootChain::set_attestation_key(crypto::PartitionId partition,
                                    crypto::KeyHandle h) {
  attest_partition_ = partition;
  attest_key_ = h;
}

const util::Bytes* BootChain::kv_value(const std::string& key) const {
  return (kv_ && kv_->mounted()) ? kv_->get(key) : nullptr;
}

BootChain::Report BootChain::run(util::SimTime now) {
  Report rep;
  rep.boot_count = ++boot_count_;
  hung_ = false;
  mr_.reset();
  // Power-on: the service is sealed until this run's measurement verdict.
  service_.relock();

  // A hang leaves the chain wedged mid-stage: no measurement verdict is ever
  // delivered, the service stays sealed (everything locked), and hung() is
  // what safety::BootGuard's supervised heartbeat trips on.
  const auto hang = [&](BootStage st, int attempt) {
    if (!hook_ || !hook_(st, attempt)) return false;
    hung_ = true;
    rep.hung = true;
    rep.hung_stage = st;
    ASECK_TRACE(trace_, now, k_hang_,
                std::string(boot_stage_name(st)) + " attempt=" +
                    std::to_string(attempt));
    return true;
  };
  const auto trace_stage = [&](const StageRecord& sr) {
    ASECK_TRACE(trace_, now, k_stage_,
                std::string(boot_stage_name(sr.stage)) +
                    (sr.passed ? " pass" : " FAIL") +
                    " attempts=" + std::to_string(sr.attempts));
  };
  const auto finish = [&]() -> Report {
    rep.measured_ok = !rep.hung && mr_.all_passed();
    if (!rep.hung) {
      service_.on_measurement(rep.measured_ok);
      rep.keys_unlocked =
          service_.state() == crypto::CryptoService::State::kOperational;
      ASECK_TRACE(trace_, now, k_measured_,
                  std::string(rep.measured_ok ? "ok" : "FAIL") + " mode=" +
                      boot_mode_name(rep.mode) + " pcr=" +
                      util::to_hex(util::BytesView(mr_.pcr().data(), 8)));
    }
    last_ = rep;
    return rep;
  };
  const auto recovery = [&]() -> Report {
    // ROM-resident limp-home image: always bootable, never measured-ok.
    rep.recovery_used = true;
    rep.mode = BootMode::kRecovery;
    if (cfg_.recovery_image) {
      rep.boot_us += measure_latency_us(cfg_.recovery_image->code.size());
    }
    ASECK_TRACE(trace_, now, k_recovery_, "limp-home");
    return finish();
  };

  // --- stage 0: ROM measures the bootloader against the fused anchor ------
  StageRecord rom{BootStage::kRom, 0, false};
  const crypto::Digest bl_digest = crypto::sha256(cfg_.bootloader);
  for (int a = 0; a <= kStageRetries && !rom.passed; ++a) {
    ++rom.attempts;
    if (hang(BootStage::kRom, a)) {
      rep.stages.push_back(rom);
      last_ = rep;
      return rep;
    }
    rep.boot_us += measure_latency_us(cfg_.bootloader.size());
    rom.passed = !cfg_.bootloader.empty() && bl_digest == cfg_.rom_anchor;
  }
  rep.stages.push_back(rom);
  trace_stage(rom);
  mr_.extend({BootStage::kRom, rom.passed, bl_digest});
  if (!rom.passed) {
    // Untrusted bootloader: nothing further may execute; straight to the
    // ROM-resident recovery image (no SHE/app measurements are extended).
    return recovery();
  }

  // --- stage 1: SHE CMD_BOOT_MAC over the bootloader ----------------------
  // SHE semantics: a MAC mismatch does NOT halt boot — the chain continues
  // with boot-protected keys locked (she_.boot_ok() false => measurement
  // verdict false => service kFailedBoot).
  StageRecord mac{BootStage::kBootloader, 0, false};
  for (int a = 0; a <= kStageRetries && !mac.passed; ++a) {
    ++mac.attempts;
    if (hang(BootStage::kBootloader, a)) {
      rep.stages.push_back(mac);
      last_ = rep;
      return rep;
    }
    rep.boot_us += She::cmd_latency_us(cfg_.bootloader.size());
    mac.passed = she_.secure_boot(cfg_.bootloader);
  }
  rep.stages.push_back(mac);
  trace_stage(mac);
  mr_.extend({BootStage::kBootloader, mac.passed, bl_digest});

  // --- stage 2: app slot (flash recovery + signature verification) --------
  rep.flash = flash_.boot(now);
  rep.boot_us += rep.flash.scan_us;
  if (kv_) {
    rep.kv = kv_->mount();
    rep.boot_us += rep.kv.scan_us;
  }

  // The app trust anchor lives only in the KvStore under kKvAppAnchorKey.
  std::optional<crypto::EcdsaPublicKey> anchor;
  if (const util::Bytes* a = kv_value(kKvAppAnchorKey)) {
    anchor = crypto::EcdsaPublicKey::from_bytes(*a);
  }

  // Verifies the currently-active image against the anchor, retrying per
  // config; a hang inside returns no verdict (caller checks hung_).
  const auto verify_active = [&](StageRecord* sr) {
    const FirmwareImage* img = flash_.active();
    if (!img || !anchor) {
      ++sr->attempts;
      return false;
    }
    const crypto::Digest d = img->digest();
    const util::Bytes* sig_bytes = kv_value(boot_sig_key(d));
    for (int a = 0; a <= kStageRetries; ++a) {
      ++sr->attempts;
      if (hang(BootStage::kApp, a)) return false;
      rep.boot_us += kSigVerifyUs;
      if (!sig_bytes) continue;
      const auto sig = crypto::EcdsaSignature::from_bytes(*sig_bytes);
      if (sig && engine_.verify_digest(*anchor, d, *sig)) return true;
    }
    return false;
  };

  StageRecord app{BootStage::kApp, 0, false};
  app.passed = verify_active(&app);
  if (hung_) {
    rep.stages.push_back(app);
    last_ = rep;
    return rep;
  }
  if (!app.passed && flash_.revert()) {
    // Preferred slot failed verification: deterministic fallback to the
    // other A/B slot (rollback floor still enforced by Flash::revert).
    rep.fallback_used = true;
    rep.flash = flash_.boot(now);  // re-scan into the surviving slot
    rep.boot_us += rep.flash.scan_us;
    ASECK_TRACE(trace_, now, k_fallback_,
                "slot=" + std::to_string(rep.flash.active_slot));
    app.passed = verify_active(&app);
    if (hung_) {
      rep.stages.push_back(app);
      last_ = rep;
      return rep;
    }
  }
  rep.stages.push_back(app);
  trace_stage(app);
  if (!app.passed) {
    mr_.extend({BootStage::kApp, false, crypto::Digest{}});
    return recovery();
  }
  mr_.extend({BootStage::kApp, true, flash_.active()->digest()});
  rep.mode = rep.fallback_used ? BootMode::kFallback : BootMode::kNormal;
  return finish();
}

std::optional<AttestationEvidence> BootChain::attest(
    util::BytesView nonce) const {
  if (boot_count_ == 0 || last_.hung) return std::nullopt;
  AttestationEvidence ev;
  ev.uid = she_.uid();
  ev.boot_count = boot_count_;
  ev.mode = static_cast<std::uint8_t>(last_.mode);
  ev.measured_ok = last_.measured_ok;
  ev.nonce.assign(nonce.begin(), nonce.end());
  ev.measurements = mr_.log();
  ev.pcr = mr_.pcr();
  // The attestation key is deliberately NOT boot-protected: reporting a
  // failed measurement is the whole point of attestation.
  const auto st = service_.sign(attest_partition_, attest_key_, ev.tbs(),
                                &ev.signature);
  if (st != crypto::ServiceStatus::kOk) return std::nullopt;
  ASECK_TRACE(trace_, util::SimTime::zero(), k_attest_,
              std::string("mode=") +
                  boot_mode_name(static_cast<BootMode>(ev.mode)) +
                  (ev.measured_ok ? " ok" : " FAIL"));
  return ev;
}

}  // namespace aseck::ecu
