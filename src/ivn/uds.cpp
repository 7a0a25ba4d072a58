#include "ivn/uds.hpp"

#include "util/coverage.hpp"

namespace aseck::ivn {

namespace {
constexpr std::size_t kSeedBytes = 4;  // SecurityAccess seed length
}  // namespace

SeedKeyFn weak_xor_algorithm(std::uint32_t secret_constant) {
  return [secret_constant](util::BytesView seed) {
    util::Bytes key(seed.begin(), seed.end());
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] ^= static_cast<std::uint8_t>(secret_constant >> (8 * (i % 4)));
    }
    return key;
  };
}

SeedKeyFn cmac_algorithm(util::Bytes key16) {
  return [key16 = std::move(key16)](util::BytesView seed) {
    return crypto::Cmac(key16).tag_truncated(seed, 4);
  };
}

UdsServer::UdsServer(Config cfg, std::uint64_t seed,
                     const sim::Telemetry& telemetry)
    : cfg_(std::move(cfg)),
      rng_(seed),
      trace_("uds", "uds.", telemetry) {}

bool UdsServer::locked_out(double now_s) const {
  return now_s < lockout_until_s_;
}

UdsResponse UdsServer::session_control(UdsSession target, double now_s) {
  (void)now_s;
  // Programming session requires unlock; extended/default do not.
  if (target == UdsSession::kProgramming && !unlocked_) {
    return {false, UdsNrc::kSecurityAccessDenied, {}};
  }
  session_ = target;
  // Re-locking on session change back to default (standard behavior).
  if (target == UdsSession::kDefault) unlocked_ = false;
  return {true, UdsNrc::kNone, {static_cast<std::uint8_t>(target)}};
}

UdsResponse UdsServer::request_seed(double now_s) {
  if (session_ == UdsSession::kDefault) {
    return {false, UdsNrc::kConditionsNotCorrect, {}};
  }
  if (locked_out(now_s)) {
    return {false, UdsNrc::kRequiredTimeDelayNotExpired, {}};
  }
  if (unlocked_) {
    // Already unlocked: spec returns a zero seed.
    return {true, UdsNrc::kNone, util::Bytes(kSeedBytes, 0)};
  }
  pending_seed_ = rng_.bytes(kSeedBytes);
  return {true, UdsNrc::kNone, *pending_seed_};
}

UdsResponse UdsServer::send_key(util::BytesView key, double now_s) {
  if (locked_out(now_s)) {
    return {false, UdsNrc::kRequiredTimeDelayNotExpired, {}};
  }
  if (!pending_seed_) {
    return {false, UdsNrc::kConditionsNotCorrect, {}};
  }
  const util::Bytes expected = cfg_.seed_key(*pending_seed_);
  pending_seed_.reset();  // one attempt per seed
  if (util::ct_equal(expected, key)) {
    unlocked_ = true;
    failed_attempts_ = 0;
    c_unlock_ok_.inc();
    ASECK_TRACE(trace_, util::SimTime::from_seconds_f(now_s), k_unlock_, "");
    return {true, UdsNrc::kNone, {}};
  }
  ++failed_attempts_;
  c_invalid_key_.inc();
  ASECK_TRACE(trace_, util::SimTime::from_seconds_f(now_s), k_invalid_key_,
              "attempt=" + std::to_string(failed_attempts_));
  if (failed_attempts_ >= cfg_.max_attempts) {
    lockout_until_s_ = now_s + cfg_.lockout_s;
    failed_attempts_ = 0;
    c_lockouts_.inc();
    ASECK_TRACE(trace_, util::SimTime::from_seconds_f(now_s), k_lockout_,
                "until_s=" + std::to_string(lockout_until_s_));
    return {false, UdsNrc::kExceededAttempts, {}};
  }
  return {false, UdsNrc::kInvalidKey, {}};
}

UdsResponse UdsServer::read_data(std::uint16_t did) {
  const auto it = dids_.find(did);
  if (it == dids_.end()) return {false, UdsNrc::kRequestOutOfRange, {}};
  return {true, UdsNrc::kNone, it->second.value};
}

UdsResponse UdsServer::write_data(std::uint16_t did, util::BytesView value,
                                  double now_s) {
  (void)now_s;
  const auto it = dids_.find(did);
  if (it == dids_.end()) return {false, UdsNrc::kRequestOutOfRange, {}};
  if (it->second.write_protected && !unlocked_) {
    return {false, UdsNrc::kSecurityAccessDenied, {}};
  }
  it->second.value.assign(value.begin(), value.end());
  return {true, UdsNrc::kNone, {}};
}

UdsResponse UdsServer::request_download(double now_s) {
  (void)now_s;
  if (session_ != UdsSession::kProgramming) {
    return {false, UdsNrc::kConditionsNotCorrect, {}};
  }
  if (!unlocked_) return {false, UdsNrc::kSecurityAccessDenied, {}};
  return {true, UdsNrc::kNone, {0x20, 0x10}};  // maxNumberOfBlockLength
}

void UdsServer::define_did(std::uint16_t did, util::Bytes value,
                           bool write_protected) {
  dids_[did] = DidEntry{std::move(value), write_protected};
}

namespace {

util::Bytes positive(std::uint8_t sid, util::BytesView data = {}) {
  util::Bytes out;
  out.reserve(1 + data.size());
  out.push_back(static_cast<std::uint8_t>(sid + 0x40));
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

util::Bytes negative(std::uint8_t sid, UdsNrc nrc) {
  return {0x7F, sid, static_cast<std::uint8_t>(nrc)};
}

util::Bytes from_response(std::uint8_t sid, const UdsResponse& r) {
  return r.positive ? positive(sid, r.data) : negative(sid, r.nrc);
}

}  // namespace

util::Bytes UdsServer::handle_request(util::BytesView req, double now_s) {
  if (req.empty()) {
    ASECK_COV("uds.req.empty");
    return negative(0x00, UdsNrc::kIncorrectLength);
  }
  const std::uint8_t sid = req[0];
  const util::BytesView body = req.subspan(1);
  switch (sid) {
    case 0x10: {  // DiagnosticSessionControl
      if (body.size() != 1) {
        ASECK_COV("uds.session.bad_len");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      const std::uint8_t sub = body[0] & 0x7F;  // suppressPosRspMsg bit masked
      if (sub != 0x01 && sub != 0x02 && sub != 0x03) {
        ASECK_COV("uds.session.bad_sub");
        return negative(sid, UdsNrc::kSubFunctionNotSupported);
      }
      ASECK_COV("uds.session.ok");
      return from_response(sid,
                           session_control(static_cast<UdsSession>(sub), now_s));
    }
    case 0x27: {  // SecurityAccess
      if (body.empty()) {
        ASECK_COV("uds.sec.no_sub");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      const std::uint8_t level = body[0];
      if (level == 0x00 || level > 0x7E) {
        ASECK_COV("uds.sec.bad_level");
        return negative(sid, UdsNrc::kSubFunctionNotSupported);
      }
      if (level % 2 == 1) {  // odd = requestSeed
        if (body.size() != 1) {
          ASECK_COV("uds.sec.seed_bad_len");
          return negative(sid, UdsNrc::kIncorrectLength);
        }
        ASECK_COV("uds.sec.seed");
        UdsResponse r = request_seed(now_s);
        if (r.positive) r.data.insert(r.data.begin(), level);
        return from_response(sid, r);
      }
      // even = sendKey; the key must be present and exactly as long as the
      // seed it answers (reject-with-NRC, never clamp a short key).
      if (body.size() != 1 + kSeedBytes) {
        ASECK_COV("uds.sec.key_bad_len");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      ASECK_COV("uds.sec.key");
      UdsResponse r = send_key(body.subspan(1), now_s);
      if (r.positive) r.data.insert(r.data.begin(), level);
      return from_response(sid, r);
    }
    case 0x22: {  // ReadDataByIdentifier
      if (body.size() != 2) {
        ASECK_COV("uds.read.bad_len");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      const auto did = static_cast<std::uint16_t>((body[0] << 8) | body[1]);
      ASECK_COV("uds.read.ok");
      UdsResponse r = read_data(did);
      if (r.positive) {
        r.data.insert(r.data.begin(),
                      {body[0], body[1]});
      }
      return from_response(sid, r);
    }
    case 0x2E: {  // WriteDataByIdentifier
      if (body.size() < 3) {
        ASECK_COV("uds.write.too_short");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      if (body.size() - 2 > kMaxWriteBytes) {
        ASECK_COV("uds.write.too_long");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      const auto did = static_cast<std::uint16_t>((body[0] << 8) | body[1]);
      ASECK_COV("uds.write.ok");
      UdsResponse r = write_data(did, body.subspan(2), now_s);
      if (r.positive) r.data = {body[0], body[1]};
      return from_response(sid, r);
    }
    case 0x31: {  // RoutineControl
      if (body.size() < 3) {
        ASECK_COV("uds.routine.too_short");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      const std::uint8_t sub = body[0];
      if (sub < 0x01 || sub > 0x03) {
        ASECK_COV("uds.routine.bad_sub");
        return negative(sid, UdsNrc::kSubFunctionNotSupported);
      }
      const auto rid = static_cast<std::uint16_t>((body[1] << 8) | body[2]);
      if (rid != 0xFF00) {  // only eraseMemory is modeled
        ASECK_COV("uds.routine.unknown");
        return negative(sid, UdsNrc::kRequestOutOfRange);
      }
      if (session_ != UdsSession::kProgramming) {
        ASECK_COV("uds.routine.wrong_session");
        return negative(sid, UdsNrc::kConditionsNotCorrect);
      }
      if (!unlocked_) {
        ASECK_COV("uds.routine.locked");
        return negative(sid, UdsNrc::kSecurityAccessDenied);
      }
      ASECK_COV("uds.routine.ok");
      return positive(sid, util::Bytes{sub, body[1], body[2]});
    }
    case 0x34: {  // RequestDownload
      // [dataFormatIdentifier, addressAndLengthFormatIdentifier,
      //  memoryAddress (addr_len bytes), memorySize (size_len bytes)]
      if (body.size() < 2) {
        ASECK_COV("uds.download.too_short");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      const std::uint8_t alfid = body[1];
      const std::size_t addr_len = alfid & 0x0F;
      const std::size_t size_len = alfid >> 4;
      // Widths outside 1..4 either make no sense on a 32-bit ECU or are the
      // classic smuggling vector for 2^32-wrapping size arithmetic; reject
      // instead of clamping.
      if (addr_len < 1 || addr_len > 4 || size_len < 1 || size_len > 4) {
        ASECK_COV("uds.download.bad_alfid");
        return negative(sid, UdsNrc::kRequestOutOfRange);
      }
      if (body.size() != 2 + addr_len + size_len) {
        ASECK_COV("uds.download.bad_len");
        return negative(sid, UdsNrc::kIncorrectLength);
      }
      // 64-bit accumulation: no width of the wire fields can overflow.
      std::uint64_t addr = 0, size = 0;
      for (std::size_t i = 0; i < addr_len; ++i) addr = (addr << 8) | body[2 + i];
      for (std::size_t i = 0; i < size_len; ++i) {
        size = (size << 8) | body[2 + addr_len + i];
      }
      if (size == 0 || size > kMaxDownloadBytes ||
          addr + size > 0x1'0000'0000ULL) {
        ASECK_COV("uds.download.range");
        return negative(sid, UdsNrc::kRequestOutOfRange);
      }
      ASECK_COV("uds.download.ok");
      return from_response(sid, request_download(now_s));
    }
    default:
      ASECK_COV("uds.req.unknown_sid");
      return negative(sid, UdsNrc::kServiceNotSupported);
  }
}

UdsAttackResult brute_force_security_access(UdsServer& server,
                                            std::uint64_t max_tries,
                                            double start_time_s,
                                            util::Rng& rng) {
  UdsAttackResult out;
  double now = start_time_s;
  server.session_control(UdsSession::kExtended, now);
  for (std::uint64_t i = 0; i < max_tries; ++i) {
    const UdsResponse seed_resp = server.request_seed(now);
    if (!seed_resp.positive) {
      if (seed_resp.nrc == UdsNrc::kRequiredTimeDelayNotExpired) {
        out.locked_out = true;
        return out;
      }
      now += 0.01;
      continue;
    }
    // Guess: random constant applied to the observed seed (models an
    // attacker who knows the algorithm family but not the constant).
    const auto guess_const = static_cast<std::uint32_t>(rng.next_u64());
    const util::Bytes guess = weak_xor_algorithm(guess_const)(seed_resp.data);
    ++out.attempts;
    const UdsResponse key_resp = server.send_key(guess, now);
    if (key_resp.positive) {
      out.unlocked = true;
      return out;
    }
    if (key_resp.nrc == UdsNrc::kExceededAttempts) {
      out.locked_out = true;
      return out;
    }
    now += 0.05;  // tester cadence
  }
  return out;
}

}  // namespace aseck::ivn
