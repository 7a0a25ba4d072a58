// Unit-cost probes: host ns per call of the layer primitives the workloads
// lean on, each timed in 5 batches on inputs derived from the seed and
// reported as the batch median. Traced runs multiply these by the
// workload's deterministic counts to estimate where host time goes
// (crypto.est_share), next to the directly timed busy shares.
//
// Inputs mirror the workloads: metro beacon keys and digests
// (`MetroWorld::beacon_key/beacon_digest`), an RSU-signed roadside SPDU, an
// 8-byte SecOC PDU, IDS frames from a periodic chassis schedule, a 64 KiB
// image staged into journaled flash, and Uptane metadata refreshes.

#include <stdexcept>

#include "bench.hpp"
#include "crypto/verify_engine.hpp"
#include "ecu/flash.hpp"
#include "ids/detectors.hpp"
#include "ivn/secoc.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "ota/server.hpp"
#include "v2x/citynet.hpp"
#include "v2x/message.hpp"

namespace bench {
namespace {

namespace crypto = aseck::crypto;
namespace ecu = aseck::ecu;
namespace ids = aseck::ids;
namespace ivn = aseck::ivn;
namespace ota = aseck::ota;
namespace util = aseck::util;
namespace v2x = aseck::v2x;
using util::SimTime;

constexpr int kBatches = 5;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("probe failed: ") + what);
}

/// Times `op(i)` for i in [0, batches * reps) in `kBatches` batches; returns
/// the median batch's ns per op divided by `per_op` items.
template <typename Op>
Metric probe(const char* name, int reps, Op op, double per_op = 1.0,
             const char* unit = "ns") {
  std::vector<double> ns;
  int i = 0;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = wall_now();
    for (int r = 0; r < reps; ++r) op(i++);
    ns.push_back((wall_now() - t0) * 1e9 / reps / per_op);
  }
  return {name, median(ns), unit,
          static_cast<std::uint64_t>(kBatches) * static_cast<std::uint64_t>(reps)};
}

void crypto_probes(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr int kKeys = 64;
  std::vector<crypto::EcdsaPrivateKey> keys;
  std::vector<crypto::Digest> digests;
  std::vector<crypto::EcdsaSignature> sigs;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t id = seed * 7919 + static_cast<std::uint64_t>(k);
    keys.push_back(v2x::MetroWorld::beacon_key(id, 1));
    digests.push_back(v2x::MetroWorld::beacon_digest(
        id, 1, v2x::MetroWorld::temp_id_for(id, 1)));
    sigs.push_back(keys.back().sign_digest(digests.back()));
    require(crypto::ecdsa_verify_digest_slow(keys.back().public_key(),
                                             digests.back(), sigs.back()),
            "beacon signature");
  }

  out.push_back(probe("crypto.sign_ns", 64, [&](int i) {
    const crypto::EcdsaSignature s = keys[i % kKeys].sign_digest(digests[i % kKeys]);
    require(s == sigs[i % kKeys], "deterministic sign");
  }));
  out.push_back(probe("crypto.pubkey_derive_ns", 64, [&](int i) {
    const std::uint64_t id = seed * 7919 + static_cast<std::uint64_t>(i % kKeys);
    require(v2x::MetroWorld::beacon_key(id, 1).public_key() ==
                keys[i % kKeys].public_key(),
            "key derivation");
  }));
  out.push_back(probe("crypto.verify_ns", 64, [&](int i) {
    require(crypto::ecdsa_verify_digest(keys[i % kKeys].public_key(),
                                        digests[i % kKeys], sigs[i % kKeys]),
            "verify");
  }));

  std::vector<crypto::VerifyEngine::BatchItem> items;
  for (int k = 0; k < kKeys; ++k) {
    items.push_back({&keys[k].public_key(), digests[k], &sigs[k]});
  }
  out.push_back(probe(
      "crypto.batch_verify_ns_per_sig", 2,
      [&](int) {
        crypto::VerifyEngine engine;  // cold cache: every item hits the kernel
        engine.set_batch_kernel(true);
        for (const bool ok : engine.verify_batch(items)) require(ok, "batch verify");
      },
      kKeys));

  const util::Bytes blob(64 * 1024, static_cast<std::uint8_t>(seed));
  const crypto::Digest blob_digest = crypto::sha256(blob);
  out.push_back(probe(
      "crypto.sha256_ns_per_kib", 8,
      [&](int) { require(crypto::sha256(blob) == blob_digest, "sha256"); },
      64.0, "ns/KiB"));
}

void v2x_probe(std::uint64_t seed, std::vector<Metric>& out) {
  crypto::Drbg rng(seed ^ 0x5bd1e995);
  const SimTime until = SimTime::from_s(1000000);
  const auto root = v2x::CertificateAuthority::make_root(rng, "root-ca", until);
  const auto pca = v2x::CertificateAuthority::make_sub(rng, "rsu-ca", root, until);
  const auto key = crypto::EcdsaPrivateKey::generate(rng);
  const v2x::Certificate cert = pca.issue("rsu-0", key.public_key(),
                                          {v2x::Psid::kRoadsideAlert},
                                          SimTime::zero(), until);
  crypto::VerifyEngine engine;
  v2x::TrustStore trust;
  trust.add_root(root.certificate());
  trust.add_intermediate(pca.certificate());
  trust.set_verify_engine(&engine);
  constexpr int kReps = 48;
  std::vector<v2x::Spdu> msgs;
  for (int i = 0; i <= kBatches * kReps; ++i) {
    util::Bytes payload;
    util::append_be(payload, static_cast<std::uint64_t>(i) ^ seed, 8);
    msgs.push_back(v2x::Spdu::sign(v2x::Psid::kRoadsideAlert,
                                   SimTime::from_ms(50 * (i + 1)), payload,
                                   cert, key));
  }
  // The chain verdict is cached after the first message, as in the workload.
  require(v2x::verify_spdu(msgs[0], trust, msgs[0].generation_time, {}, nullptr,
                           nullptr, &engine) == v2x::VerifyStatus::kOk,
          "spdu warm-up");
  out.push_back(probe("v2x.verify_spdu_ns", kReps, [&](int i) {
    const v2x::Spdu& m = msgs[static_cast<std::size_t>(i) + 1];
    require(v2x::verify_spdu(m, trust, m.generation_time, {}, nullptr, nullptr,
                             &engine) == v2x::VerifyStatus::kOk,
            "verify_spdu");
  }));
}

void ivn_probes(std::uint64_t seed, std::vector<Metric>& out) {
  crypto::Block key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(seed >> (i % 8 * 8)) ^ static_cast<std::uint8_t>(i);
  }
  const ivn::SecOcChannel ch(util::BytesView(key.data(), key.size()));
  constexpr int kReps = 2000;
  ivn::FreshnessManager tx, rx;
  std::vector<util::Bytes> pdus;
  util::Bytes payload(8, static_cast<std::uint8_t>(seed));
  out.push_back(probe("ivn.secoc_protect_ns", kReps, [&](int i) {
    payload[0] = static_cast<std::uint8_t>(i);
    pdus.push_back(ch.protect(0x0A5, payload, tx));
  }));
  out.push_back(probe("ivn.secoc_verify_ns", kReps, [&](int i) {
    require(ch.verify(0x0A5, pdus[static_cast<std::size_t>(i)], rx).status ==
                ivn::SecOcStatus::kOk,
            "secoc verify");
  }));

  // IDS: train on a periodic 20-id chassis schedule, then observe it.
  ids::IdsEnsemble ens = ids::make_extended_ensemble();
  constexpr int kIds = 20;
  auto frame_at = [seed](int k) {
    ivn::CanFrame f;
    f.id = 0x180 + static_cast<std::uint32_t>(k % kIds);
    f.data.resize(8);
    for (int b = 0; b < 8; ++b) {
      f.data[b] = static_cast<std::uint8_t>((seed + static_cast<std::uint64_t>(k) * 31 + b) & 0xFF);
    }
    return f;
  };
  auto time_of = [](int k) { return SimTime::from_us(500ULL * static_cast<std::uint64_t>(k)); };
  constexpr int kTrain = 10000;
  for (int k = 0; k < kTrain; ++k) ens.train(frame_at(k), time_of(k));
  ens.finish_training();
  std::vector<ivn::CanFrame> frames;
  for (int k = 0; k < kBatches * kReps; ++k) frames.push_back(frame_at(kTrain + k));
  out.push_back(probe("ids.observe_ns", kReps, [&](int i) {
    ens.observe(frames[static_cast<std::size_t>(i)], time_of(kTrain + i));
  }));
}

void ecu_probe(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::size_t kChunk = 16 * 1024;
  util::Bytes code(kBytes, static_cast<std::uint8_t>(seed));
  ecu::Flash flash;
  flash.provision(ecu::FirmwareImage{"probe-fw", 1, code});
  constexpr int kReps = 8;
  std::vector<util::Bytes> images;
  std::vector<ecu::Flash::StageRequest> reqs;
  for (int i = 0; i < kBatches * kReps; ++i) {
    code[static_cast<std::size_t>(i) % kBytes] ^= 0x5A;  // a distinct digest per staging
    images.push_back(code);
    const crypto::Digest d = crypto::sha256(code);
    reqs.push_back({"probe-fw", 2, kBytes, util::Bytes(d.begin(), d.end())});
  }
  out.push_back(probe(
      "ecu.stage_ns_per_page", kReps,
      [&](int i) {
        const util::Bytes& img = images[static_cast<std::size_t>(i)];
        require(flash.stage_begin(reqs[static_cast<std::size_t>(i)]), "stage_begin");
        for (std::size_t off = 0; off < kBytes; off += kChunk) {
          require(flash.stage_write(util::BytesView(img.data() + off, kChunk)) ==
                      ecu::FlashWrite::kOk,
                  "stage_write");
        }
        require(flash.stage_finish() == ecu::FlashWrite::kOk, "stage_finish");
      },
      static_cast<double>(kBytes / ecu::Flash::kPageSize)));
}

void ota_probes(std::uint64_t seed, std::vector<Metric>& out) {
  crypto::Drbg rng(seed ^ 0x0a7a);
  ota::Repository director(rng, "director", SimTime::from_s(100000000));
  ota::Repository images(rng, "image-repo", SimTime::from_s(100000000));
  const util::Bytes fw(4096, static_cast<std::uint8_t>(seed));
  director.add_target("probe-fw", fw, 2, "probe-hw");
  images.add_target("probe-fw", fw, 2, "probe-hw");
  director.publish(SimTime::from_ms(1));
  images.publish(SimTime::from_ms(1));
  ota::RepositoryServer server(director, images);
  constexpr int kReps = 2000;
  out.push_back(probe("ota.fetch_metadata_ns", kReps, [&](int i) {
    // 10 ms apart: far below the token rate, so every fetch is admitted.
    const auto r = server.fetch_metadata(ota::ServeClass::kCampaign,
                                         SimTime::from_ms(10 * (i + 1)));
    require(r.status == ota::ServeStatus::kOk, "fetch_metadata");
  }));

  // A client refresh after each publish: fresh timestamp/snapshot/targets
  // signatures to verify, the unchanged root a cache hit.
  ota::FullVerificationClient client("probe", director.trusted_root(),
                                     images.trusted_root());
  constexpr int kRefreshReps = 4;
  std::vector<std::pair<ota::MetadataBundle, ota::MetadataBundle>> bundles;
  for (int i = 0; i < kBatches * kRefreshReps; ++i) {
    const SimTime at = SimTime::from_s(static_cast<std::uint64_t>(i) + 1);
    director.publish(at);
    images.publish(at);
    bundles.emplace_back(director.metadata(), images.metadata());
  }
  out.push_back(probe("ota.client_refresh_ns", kRefreshReps, [&](int i) {
    const auto& [d, im] = bundles[static_cast<std::size_t>(i)];
    const SimTime at = SimTime::from_s(static_cast<std::uint64_t>(i) + 1);
    require(client.verify_chain(d, true, at) == ota::OtaError::kOk &&
                client.verify_chain(im, false, at) == ota::OtaError::kOk,
            "client refresh");
  }));
}

}  // namespace

std::vector<Metric> run_probes(std::uint64_t seed) {
  std::vector<Metric> out;
  crypto_probes(seed, out);
  v2x_probe(seed, out);
  ivn_probes(seed, out);
  ecu_probe(seed, out);
  ota_probes(seed, out);
  return out;
}

}  // namespace bench
