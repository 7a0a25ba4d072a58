// Calibration — host cost of the primitives that the experiment benches'
// cost models, DESIGN.md and EXPERIMENTS.md cite: the crypto kernels, the
// flash page CRC, SecOC, the CAN and Ethernet models, and the trace bus.
//
// Every figure is process CPU time, minimum of 5 passes
// (benchutil::time_min_of). Each row checks what it timed: the AES, CMAC and
// GCM outputs round-trip, the one-shot SHA-256 matches the streaming one, a
// page with its CRC-32 appended leaves the CRC-32 residue, the SHE KDF
// reproduces the spec example, the signature verifies, both ECDH sides
// agree, a receiver accepts the SecOC PDUs, every CAN and switch frame
// arrives, the ring holds its capacity, and a disabled trace site records
// nothing. The exit status counts failed checks, so a broken kernel cannot
// report a fast number.
//
// `--smoke` runs one pass on small inputs and omits the host columns (figure,
// unit), so two smoke runs emit byte-identical output
// (`ctest -R determinism.calibration` compares them).
//
// Flags: --smoke

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "crypto/aes.hpp"
#include "crypto/cmac.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/gcm.hpp"
#include "crypto/kdf.hpp"
#include "crypto/sha256.hpp"
#include "ivn/can.hpp"
#include "ivn/ethernet.hpp"
#include "ivn/secoc.hpp"
#include "sim/telemetry.hpp"
#include "util/crc.hpp"

using namespace aseck;
using util::Bytes;
using util::SimTime;

namespace {

struct CanSink : ivn::CanNode {
  using CanNode::CanNode;
  void on_frame(const ivn::CanFrame&, SimTime) override {}
};

struct EthSink : ivn::EthernetEndpoint {
  using EthernetEndpoint::EthernetEndpoint;
  void on_frame(const ivn::EthernetFrame&, SimTime) override {}
};

/// Compiler barrier: a loop around it must reload what it reads from memory
/// on every iteration, as a hot site inside a component does.
inline void clobber() { asm volatile("" ::: "memory"); }

}  // namespace

int main(int argc, char** argv) {
  bool& smoke = benchutil::smoke;
  if (const int rc = benchutil::parse_args(argc, argv, {{"--smoke", &smoke}})) {
    return rc;
  }
  const int passes = smoke ? 1 : 5;
  // Operations per pass: `full` normally, `small` under --smoke.
  const auto ops = [&](std::size_t full, std::size_t small) {
    return smoke ? small : full;
  };

  benchutil::Table table({"row", {"figure", benchutil::host}, {"unit", benchutil::host},
                          {"check", benchutil::verdict}});
  const auto row = [&](const char* name, double figure, const char* unit, bool ok) {
    table.add_row({name, benchutil::fmt(figure >= 1000 ? "%.0f" : "%.3g", figure),
                   unit, ok});
  };
  const auto us_per_op = [](double s, std::size_t n) {
    return s * 1e6 / static_cast<double>(n);
  };

  const Bytes key16(16, 0x42);
  const crypto::Aes aes(key16);

  {
    const std::size_t n = ops(20000, 16);
    crypto::Block in{}, out{}, back{};
    in.fill(0x3C);
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) aes.encrypt_block(in.data(), out.data());
    });
    aes.decrypt_block(out.data(), back.data());
    row("aes128_block", us_per_op(s, n), "us/op", back == in);
  }
  {
    const std::size_t n = ops(2000, 4);
    const Bytes msg(1024, 0xEF);
    crypto::Digest d{};
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) d = crypto::sha256(msg);
    });
    // The same buffer streamed in odd-sized pieces (1, 3, 5, ... bytes).
    crypto::Sha256 streamed;
    for (std::size_t at = 0, piece = 1; at < msg.size(); at += piece, piece += 2) {
      streamed.update(util::BytesView(msg).subspan(at, std::min(piece, msg.size() - at)));
    }
    row("sha256_1KiB", static_cast<double>(n) * 1024 / s / 1e6, "MB/s",
        d == streamed.finalize());
  }
  {
    // One flash page. CRC-32 residue: the page followed by its own CRC,
    // little-endian, has CRC 0x2144DF1C.
    const std::size_t n = ops(2000, 4);
    Bytes page(4096 + 4);
    for (std::size_t i = 0; i < 4096; ++i) page[i] = static_cast<std::uint8_t>(i * 7);
    const util::BytesView body = util::BytesView(page).first(4096);
    std::uint32_t crc = 0;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) crc = util::crc32_ieee(body);
    });
    util::store_le32(page.data() + 4096, crc);
    row("crc32_4KiB", static_cast<double>(n) * 4096 / s / 1e6, "MB/s",
        util::crc32_ieee(page) == 0x2144DF1Cu);
  }
  {
    const std::size_t n = ops(20000, 16);
    const crypto::Cmac cmac(key16);
    const Bytes msg(8, 0xCD);
    crypto::Block tag{};
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) tag = cmac.tag(msg);
    });
    row("cmac_8B", us_per_op(s, n), "us/op", cmac.verify(msg, tag));
  }
  {
    const std::size_t n = ops(4000, 4);
    const Bytes iv(12, 0x01), pt(64, 0x22);
    crypto::GcmResult sealed;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) sealed = crypto::aes_gcm_encrypt(aes, iv, {}, pt);
    });
    row("aes_gcm_64B", us_per_op(s, n), "us/op",
        crypto::aes_gcm_decrypt(aes, iv, {}, sealed.ciphertext, sealed.tag) == pt);
  }
  {
    // The SHE memory-update spec example: AuthKey 000102..0f gives
    // K1 = KDF(AuthKey, KEY_UPDATE_ENC_C) = 118a4644...e2d17e.
    const std::size_t n = ops(2000, 4);
    crypto::Block key{}, k1{};
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        k1 = crypto::she_kdf(key, crypto::she_key_update_enc_c());
      }
    });
    row("she_kdf", us_per_op(s, n), "us/op",
        util::to_hex(k1) == "118a46447a770d87828a69c222e2d17e");
  }

  crypto::p256::init_fixed_base_tables();  // exclude table build from timing
  crypto::Drbg rng(7u);
  const auto alice = crypto::EcdsaPrivateKey::generate(rng);
  const auto bob = crypto::EcdsaPrivateKey::generate(rng);
  const crypto::Digest digest = crypto::sha256(util::from_string("bench message"));
  {
    const std::size_t n = ops(100, 2);
    crypto::EcdsaSignature sig;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) sig = alice.sign_digest(digest);
    });
    row("ecdsa_sign", us_per_op(s, n), "us/op",
        crypto::ecdsa_verify_digest(alice.public_key(), digest, sig));
  }
  {
    // A new key every op, made before timing: every verify runs the wNAF
    // path, since no key recurs and earns a comb.
    const std::size_t n = ops(50, 2);
    std::vector<std::pair<crypto::EcdsaPublicKey, crypto::EcdsaSignature>> keyed;
    for (std::size_t i = 0; i < static_cast<std::size_t>(passes) * n; ++i) {
      const auto key = crypto::EcdsaPrivateKey::generate(rng);
      keyed.emplace_back(key.public_key(), key.sign_digest(digest));
    }
    std::size_t next = 0;
    bool ok = true;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i, ++next) {
        const auto& [pub, sig] = keyed[next];
        ok = crypto::ecdsa_verify_digest(pub, digest, sig) && ok;
      }
    });
    row("ecdsa_verify_fresh_key", us_per_op(s, n), "us/op", ok);
  }
  {
    // One key every op, past the comb threshold before timing: every timed
    // verify walks the G and key combs.
    const std::size_t n = ops(50, 2);
    const crypto::EcdsaSignature sig = alice.sign_digest(digest);
    bool ok = true;
    for (int i = 0; i < crypto::p256::kKeyCombBuildAfter; ++i) {
      ok = crypto::ecdsa_verify_digest(alice.public_key(), digest, sig) && ok;
    }
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        ok = crypto::ecdsa_verify_digest(alice.public_key(), digest, sig) && ok;
      }
    });
    row("ecdsa_verify_same_key", us_per_op(s, n), "us/op", ok);
  }
  {
    const std::size_t n = ops(50, 2);
    const Bytes info = util::from_string("kdf");
    std::optional<Bytes> shared;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        shared = crypto::ecdh_shared(alice, bob.public_key(), info, 32);
      }
    });
    row("ecdh", us_per_op(s, n), "us/op",
        shared && shared == crypto::ecdh_shared(bob, alice.public_key(), info, 32));
  }

  const ivn::SecOcChannel secoc(key16);
  const Bytes payload(4, 0x7F);
  {
    const std::size_t n = ops(20000, 16);
    ivn::FreshnessManager fm;
    Bytes pdu;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) pdu = secoc.protect(0x100, payload, fm);
    });
    // time_min_of calls the loop once per pass, so the last PDU carries
    // freshness value passes * n; a new receiver that last accepted the value
    // before it must accept it.
    ivn::FreshnessManager rx;
    rx.accept_rx(0x100, static_cast<std::uint64_t>(passes) * n - 1);
    row("secoc_protect", us_per_op(s, n), "us/op",
        secoc.verify(0x100, pdu, rx).status == ivn::SecOcStatus::kOk);
  }
  {
    // Consecutive freshness values, so a fresh receiver accepts every PDU.
    const std::size_t n = ops(20000, 16);
    ivn::FreshnessManager tx;
    std::vector<Bytes> pdus;
    for (std::size_t i = 0; i < n; ++i) pdus.push_back(secoc.protect(0x100, payload, tx));
    std::size_t accepted = 0;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      ivn::FreshnessManager rx;
      accepted = 0;
      for (const Bytes& pdu : pdus) {
        if (secoc.verify(0x100, pdu, rx).status == ivn::SecOcStatus::kOk) ++accepted;
      }
    });
    row("secoc_verify", us_per_op(s, n), "us/op", accepted == n);
  }

  {
    // Saturated two-node bus: 1000 queued 8-byte frames drained per rig.
    const std::size_t rigs = ops(10, 1);
    std::size_t short_rigs = 0;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      short_rigs = 0;
      for (std::size_t r = 0; r < rigs; ++r) {
        sim::Scheduler sched;
        ivn::CanBus bus(sched, "can0", 500000);
        CanSink tx("tx"), rx("rx");
        bus.attach(&tx);
        bus.attach(&rx);
        ivn::CanFrame f;
        f.id = 0x100;
        f.data = Bytes(8, 0x11);
        for (int i = 0; i < 1000; ++i) bus.send(&tx, f);
        sched.run();
        if (bus.trace().metrics().counter_value("can.can0.frames_ok") != 1000) {
          ++short_rigs;
        }
      }
    });
    row("can_bus_1000_frames", static_cast<double>(rigs) * 1000 / s, "frames/s",
        short_rigs == 0);
  }
  {
    // Two-port switch with both MACs learned: 500 unicast frames per rig.
    const std::size_t rigs = ops(10, 1);
    std::size_t short_rigs = 0;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      short_rigs = 0;
      for (std::size_t r = 0; r < rigs; ++r) {
        sim::Scheduler sched;
        ivn::EthernetSwitch sw(sched, "sw0");
        EthSink a("a", ivn::mac_from_u64(1)), b("b", ivn::mac_from_u64(2));
        const auto pa = sw.connect(&a);
        const auto pb = sw.connect(&b);
        ivn::EthernetFrame fa;
        fa.src = a.mac();
        fa.dst = b.mac();
        fa.payload = Bytes(100, 0x33);
        ivn::EthernetFrame fb = fa;
        std::swap(fb.src, fb.dst);
        sw.send(pa, fa);
        sw.send(pb, fb);
        sched.run();  // learn both MACs
        const std::uint64_t learned = sw.forwarded();
        for (int i = 0; i < 500; ++i) sw.send(pa, fa);
        sched.run();
        if (sw.forwarded() - learned != 500) ++short_rigs;
      }
    });
    row("eth_switch_500_frames", static_cast<double>(rigs) * 500 / s, "frames/s",
        short_rigs == 0);
  }

  {
    constexpr std::size_t kRing = 4096;
    const std::size_t n = ops(200000, 2 * kRing);
    sim::TraceBus bus;
    bus.set_capacity(kRing);
    const auto cid = bus.intern("can0");
    const auto kid = bus.intern("tx");
    std::uint64_t t = 0;
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        bus.record(SimTime::from_us(t++), cid, kid, "id=291 dlc=8");
      }
    });
    row("trace_ring_record", s * 1e9 / static_cast<double>(n), "ns/op",
        bus.size() == kRing);
  }
  {
    // The detail string on the right of the comma is never built while the
    // scope is disabled.
    const std::size_t n = ops(1000000, 1000);
    sim::TraceScope scope("can0");
    scope.set_enabled(false);
    const auto kid = scope.kind("tx");
    const auto [s] = benchutil::time_min_of(passes, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        ASECK_TRACE(scope, SimTime::from_us(i), kid,
                    "id=" + std::to_string(i) + " dlc=8");
        clobber();
      }
    });
    row("trace_disabled_site", s * 1e9 / static_cast<double>(n), "ns/op",
        scope.bus()->total_recorded() == 0);
  }

  std::printf("Calibration: host cost per operation%s\n\n",
              smoke ? " (smoke: one pass, timing suppressed)"
                    : " (process CPU, min of 5 passes)");
  table.print();
  std::printf("\nfailed checks: %zu\n", table.failed());
  return benchutil::exit_status(table.failed());
}
