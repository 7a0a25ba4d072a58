#include "ecu/session_keys.hpp"

#include "crypto/cmac.hpp"

namespace aseck::ecu {

util::Bytes SessionKeyWrap::mac_input() const {
  util::Bytes in(ecu_name.begin(), ecu_name.end());
  in.push_back(0);
  util::append_be(in, epoch, 4);
  in.insert(in.end(), wrapped_key.begin(), wrapped_key.end());
  return in;
}

void SessionKeyMaster::register_ecu(const std::string& name,
                                    const crypto::Block& enc_key,
                                    const crypto::Block& mac_key) {
  ecus_[name] = EcuKeys{enc_key, mac_key};
}

std::vector<SessionKeyWrap> SessionKeyMaster::rotate() {
  ++epoch_;
  rng_.generate(session_key_.data(), session_key_.size());
  std::vector<SessionKeyWrap> out;
  out.reserve(ecus_.size());
  for (const auto& [name, keys] : ecus_) {
    SessionKeyWrap w;
    w.ecu_name = name;
    w.epoch = epoch_;
    const crypto::Block ct = crypto::Aes(util::BytesView(keys.enc.data(), 16))
                                 .encrypt(session_key_);
    w.wrapped_key.assign(ct.begin(), ct.end());
    const crypto::Block tag = crypto::aes_cmac(
        util::BytesView(keys.mac.data(), 16), w.mac_input());
    w.mac.assign(tag.begin(), tag.end());
    out.push_back(std::move(w));
  }
  return out;
}

SessionKeyClient::Result SessionKeyClient::install(const SessionKeyWrap& wrap) {
  if (wrap.ecu_name != name_) return Result::kWrongEcu;
  if (wrap.epoch <= epoch_) return Result::kReplayedEpoch;
  bool mac_ok = false;
  if (she_.verify_mac(mac_slot_, wrap.mac_input(), wrap.mac, &mac_ok) !=
          SheError::kNoError ||
      !mac_ok) {
    return mac_ok ? Result::kSheError : Result::kBadMac;
  }
  if (wrap.wrapped_key.size() != 16) return Result::kBadMac;
  crypto::Block ct;
  std::copy(wrap.wrapped_key.begin(), wrap.wrapped_key.end(), ct.begin());
  crypto::Block sk;
  if (she_.dec_ecb(enc_slot_, ct, &sk) != SheError::kNoError) {
    return Result::kSheError;
  }
  if (she_.load_plain_key(sk) != SheError::kNoError) return Result::kSheError;
  epoch_ = wrap.epoch;
  return Result::kInstalled;
}

}  // namespace aseck::ecu
