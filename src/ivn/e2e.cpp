#include "ivn/e2e.hpp"

namespace aseck::ivn {

std::uint8_t e2e_crc(const E2eConfig& cfg, std::uint8_t counter,
                     util::BytesView payload) {
  util::Bytes buf;
  buf.reserve(3 + payload.size());
  buf.push_back(static_cast<std::uint8_t>(cfg.data_id & 0xff));
  buf.push_back(static_cast<std::uint8_t>(cfg.data_id >> 8));
  buf.push_back(counter);
  buf.insert(buf.end(), payload.begin(), payload.end());
  return util::crc8_j1850(buf);
}

util::Bytes E2eProtector::protect(util::BytesView payload) {
  const std::uint8_t counter = counter_;
  counter_ = static_cast<std::uint8_t>((counter_ + 1) % 15);
  util::Bytes out;
  out.reserve(2 + payload.size());
  out.push_back(e2e_crc(cfg_, counter, payload));
  out.push_back(counter);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

E2eChecker::Result E2eChecker::check(util::BytesView pdu) {
  const auto flag = [this](E2eStatus s) {
    ++counts_[static_cast<std::size_t>(s)];
    return s;
  };
  if (pdu.size() < 2) return {flag(E2eStatus::kWrongCrc), {}};
  const std::uint8_t crc = pdu[0];
  const std::uint8_t counter = pdu[1];
  const util::BytesView payload = pdu.subspan(2);
  if (e2e_crc(cfg_, counter, payload) != crc) {
    return {flag(E2eStatus::kWrongCrc), {}};
  }
  E2eStatus status = E2eStatus::kOk;
  if (last_counter_) {
    const std::uint8_t delta =
        static_cast<std::uint8_t>((counter + 15 - *last_counter_) % 15);
    if (delta == 0) {
      return {flag(E2eStatus::kRepeated), {}};
    }
    if (delta > cfg_.max_delta_counter) {
      // Sequence break: report, then resynchronize on this counter.
      last_counter_ = counter;
      return {flag(E2eStatus::kWrongSequence), {}};
    }
    if (delta > 1) status = E2eStatus::kOkSomeLost;
  }
  last_counter_ = counter;
  return {flag(status), util::Bytes(payload.begin(), payload.end())};
}

}  // namespace aseck::ivn
