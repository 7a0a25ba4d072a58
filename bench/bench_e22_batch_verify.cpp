// Experiment E22 — batch ECDSA verification pipeline (ROADMAP O2) and the
// opportunistic-admission safety window (paper §4.2: per-message signature
// verification is the dominant V2X receive cost; production stacks batch,
// cache, or defer it — each with a measurable safety/throughput trade).
//
// Four measurements:
//   1. Differential correctness: a mixed corpus (valid, hint-stripped,
//      wrong parity hint, corrupted signature, corrupted digest, malformed
//      items) through `ecdsa_verify_batch` at several batch sizes, every
//      verdict cross-checked against `ecdsa_verify_digest_slow`. The RLC
//      check, the bisection fallback, and the per-item fallback must all
//      agree with the reference bit-for-bit.
//   2. Throughput: batch sizes 1/8/32/64/128 vs the per-signature fast path
//      (E17's comb+wNAF verifier — which is also the batch pipeline's
//      fallback). The O2 acceptance bar is >=2x at batch >= 64.
//   3. VerifyPool thread invariance: the same job stream through 1/2/4
//      worker threads; per-item verdicts AND merged crypto.verify.* metrics
//      must be byte-identical (lane layout is fixed, threads only supply
//      labor). `--digest` prints the invariant digest alone for CI diffing.
//   4. Opportunistic admission: vehicles admit BSMs after the cheap
//      synchronous checks and defer the signature to the batch pipeline; a
//      forged message is acted on and revoked one flush later. The measured
//      admit->verdict window (sim-time) is priced against E11's hazard
//      oracle — what ASIL is reachable through that window.
//
// Exit code = differential mismatches + thread-invariance diffs. `--smoke`
// shrinks the corpus and omits the host (timing) columns, so two smoke runs
// with the same seed emit byte-identical output (`ctest -R determinism` compares them).
//
// Flags: --seed N  --smoke  --threads T  --digest

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/verify_pool.hpp"
#include "safety/asil.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "v2x/cert.hpp"
#include "v2x/net.hpp"
#include "v2x/opportunistic.hpp"

using namespace aseck;
using util::SimTime;

namespace {

crypto::EcdsaPrivateKey random_key(util::Rng& rng) {
  std::array<std::uint8_t, 32> secret{};
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng.next_u32());
  secret[31] |= 1;  // never zero mod n
  return crypto::EcdsaPrivateKey::from_secret(
      util::BytesView(secret.data(), secret.size()));
}

struct Corpus {
  std::vector<crypto::EcdsaPrivateKey> keys;
  std::vector<crypto::Digest> digests;
  std::vector<crypto::EcdsaSignature> sigs;
  std::size_t size() const { return digests.size(); }
};

/// `n` signed digests over `key_count` keys; every `corrupt_every`-th
/// signature is corrupted (0 = none). Signer parity hints attached.
Corpus make_corpus(std::size_t n, std::size_t key_count, std::size_t corrupt_every,
                   util::Rng& rng) {
  Corpus c;
  for (std::size_t k = 0; k < key_count; ++k) c.keys.push_back(random_key(rng));
  for (std::size_t i = 0; i < n; ++i) {
    crypto::Digest d;
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.next_u32());
    const auto& key = c.keys[i % key_count];
    crypto::EcdsaSignature sig = key.sign_digest(d);
    if (corrupt_every && i % corrupt_every == corrupt_every - 1) {
      sig.s = crypto::U256::from_u64(rng.next_u64() | 1);
    }
    c.digests.push_back(d);
    c.sigs.push_back(sig);
  }
  return c;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Pool run digest: verdict stream + merged metrics JSON. Must not depend
/// on the worker thread count.
std::string pool_digest(const Corpus& c, unsigned threads) {
  crypto::VerifyPoolConfig cfg;
  cfg.threads = threads;
  cfg.producers = 2;
  cfg.lanes = 8;
  cfg.batch_size = 64;
  crypto::VerifyPool pool(cfg);
  for (std::size_t i = 0; i < c.size(); ++i) {
    pool.queue().push(i % 2, crypto::VerifyJob{&c.keys[i % c.keys.size()].public_key(),
                                               c.digests[i], &c.sigs[i], i});
  }
  const auto outcomes = pool.flush();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& o : outcomes) {
    h = fnv1a(h, &o.tag, sizeof o.tag);
    const std::uint8_t ok = o.ok ? 1 : 0;
    h = fnv1a(h, &ok, 1);
  }
  sim::MetricsRegistry merged;
  pool.merge_metrics_into(merged);
  const std::string json = merged.to_json();
  h = fnv1a(h, json.data(), json.size());
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"verdicts\":%zu,\"digest\":\"%016llx\"}",
                outcomes.size(), static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  bool& smoke = benchutil::smoke;
  bool digest_only = false;
  unsigned threads = 4;
  const std::initializer_list<benchutil::Flag> flags = {
      {"--seed", &seed}, {"--smoke", &smoke}, {"--threads", &threads},
      {"--digest", &digest_only}};
  if (const int rc = benchutil::parse_args(argc, argv, flags)) return rc;
  if (threads == 0) return benchutil::usage_error(argv[0], flags);
  util::Rng rng(seed);

  if (digest_only) {
    // One pool run at exactly --threads; stdout is the invariant digest and
    // nothing else, so CI can diff thread counts byte-for-byte.
    const Corpus c = make_corpus(192, 5, 7, rng);
    std::printf("%s\n", pool_digest(c, threads).c_str());
    return 0;
  }

  std::printf("E22: batch ECDSA verify pipeline + opportunistic admission\n");
  std::printf("(seed %llu%s)\n\n", static_cast<unsigned long long>(seed),
              smoke ? ", smoke" : "");
  crypto::p256::init_fixed_base_tables();  // exclude table build from timing
  std::size_t exit_count = 0;

  // -------------------------------------------------------------- part 1
  // Differential: mixed corpus vs the Shamir reference verifier.
  {
    const std::size_t n = smoke ? 96 : 384;
    Corpus c = make_corpus(n, 7, 6, rng);
    // Adversarial hint damage on valid signatures: stripped and flipped
    // hints must cost work, never verdicts.
    for (std::size_t i = 0; i < n; i += 9) c.sigs[i].r_parity = crypto::EcdsaSignature::kNoRParity;
    for (std::size_t i = 4; i < n; i += 11) {
      if (c.sigs[i].has_r_parity()) c.sigs[i].r_parity ^= 1;
    }
    std::vector<crypto::BatchVerifyItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back({&c.keys[i % c.keys.size()].public_key(), c.digests[i],
                       &c.sigs[i]});
    }
    // Malformed tail: null pointers and out-of-range scalars.
    crypto::EcdsaSignature zero_r = c.sigs[0];
    zero_r.r = crypto::U256();
    items.push_back({nullptr, c.digests[0], &c.sigs[0]});
    items.push_back({&c.keys[0].public_key(), c.digests[0], nullptr});
    items.push_back({&c.keys[0].public_key(), c.digests[0], &zero_r});

    std::size_t mismatches = 0;
    std::size_t batch_valid = 0;
    crypto::BatchVerifyStats stats;
    for (std::size_t bs : {8u, 64u, 1024u}) {  // 1024 = whole corpus at once
      std::size_t done = 0;
      std::vector<bool> verdicts;
      while (done < items.size()) {
        const std::size_t take = std::min(bs, items.size() - done);
        const std::vector<crypto::BatchVerifyItem> chunk(
            items.begin() + static_cast<std::ptrdiff_t>(done),
            items.begin() + static_cast<std::ptrdiff_t>(done + take));
        const std::vector<bool> out = crypto::ecdsa_verify_batch(chunk, {}, &stats);
        verdicts.insert(verdicts.end(), out.begin(), out.end());
        done += take;
      }
      batch_valid = 0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        const bool oracle =
            items[i].pub && items[i].sig &&
            crypto::ecdsa_verify_digest_slow(*items[i].pub, items[i].digest,
                                             *items[i].sig);
        if (verdicts[i] != oracle) ++mismatches;
        if (verdicts[i]) ++batch_valid;
      }
    }
    std::printf("[1] differential, %zu items (valid+corrupted+hint-damaged+malformed)\n",
                items.size());
    std::printf("    batch-vs-reference verdict mismatches: %zu (across batch "
                "sizes 8/64/all)\n", mismatches);
    std::printf("    valid: %zu; kernel work: %llu RLC checks, %llu bisections, "
                "%llu single fallbacks\n",
                batch_valid, static_cast<unsigned long long>(stats.rlc_checks),
                static_cast<unsigned long long>(stats.bisections),
                static_cast<unsigned long long>(stats.single_checks));
    exit_count += mismatches;
  }

  // -------------------------------------------------------------- part 2
  // Throughput: batch kernel vs the per-signature fast path.
  {
    const std::size_t n = smoke ? 128 : 512;
    const Corpus c = make_corpus(n, 11, 0, rng);
    std::vector<crypto::BatchVerifyItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back({&c.keys[i % c.keys.size()].public_key(), c.digests[i],
                       &c.sigs[i]});
    }
    // One pass verifies the corpus per signature, then at each batch size,
    // so every column sees the same host conditions (benchutil::time_min_of).
    std::size_t wrong = 0;
    const auto verify_in_batches = [&](std::size_t bs) {
      return [&, bs] {
        for (std::size_t done = 0; done < items.size(); done += bs) {
          const std::size_t take = std::min(bs, items.size() - done);
          const std::vector<crypto::BatchVerifyItem> chunk(
              items.begin() + static_cast<std::ptrdiff_t>(done),
              items.begin() + static_cast<std::ptrdiff_t>(done + take));
          for (bool ok : crypto::ecdsa_verify_batch(chunk)) {
            if (!ok) ++wrong;
          }
        }
      };
    };
    const std::array<std::size_t, 4> batch_sizes = {8, 32, 64, 128};
    const auto secs = benchutil::time_min_of(
        smoke ? 1 : 5,
        [&] {
          for (const auto& it : items) {
            if (!crypto::ecdsa_verify_digest(*it.pub, it.digest, *it.sig)) ++wrong;
          }
        },
        verify_in_batches(batch_sizes[0]), verify_in_batches(batch_sizes[1]),
        verify_in_batches(batch_sizes[2]), verify_in_batches(batch_sizes[3]));
    benchutil::Table table({"batch", {"us/item", benchutil::host},
                            {"vs per-sig", benchutil::host},
                            {"throughput/s", benchutil::host}});
    for (std::size_t k = 0; k < secs.size(); ++k) {
      table.add_row({k == 0 ? "1 (per-sig)" : std::to_string(batch_sizes[k - 1]),
                     benchutil::fmt("%.1f", secs[k] / static_cast<double>(n) * 1e6),
                     benchutil::fmt("%.2fx", secs[0] / secs[k]),
                     benchutil::fmt_u(static_cast<std::uint64_t>(
                         static_cast<double>(n) / secs[k]))});
    }
    std::printf("\n[2] throughput, %zu valid signatures (O2 bar: >=2x at batch >= 64)\n", n);
    table.print();
    std::printf("    unexpected-invalid verdicts: %zu\n", wrong);
    exit_count += wrong;
  }

  // -------------------------------------------------------------- part 3
  // VerifyPool thread invariance: same stream, 1/2/4 threads.
  {
    const Corpus c = make_corpus(smoke ? 160 : 480, 5, 7, rng);
    const std::string ref = pool_digest(c, 1);
    std::size_t diffs = 0;
    std::vector<unsigned> sweep{1, 2};
    for (unsigned t = 4; t <= threads; t *= 2) sweep.push_back(t);
    for (unsigned t : sweep) {
      if (pool_digest(c, t) != ref) ++diffs;
    }
    std::printf("\n[3] pool thread invariance, %zu jobs, threads {1,2,..,%u}\n",
                c.size(), sweep.back());
    std::printf("    verdict+metrics digest: %s, %zu mismatch(es)\n", ref.c_str(),
                diffs);
    exit_count += diffs;
  }

  // -------------------------------------------------------------- part 4
  // Opportunistic admission: the safety window, priced by E11's oracle.
  {
    sim::Scheduler sched;
    crypto::Drbg pki_rng(seed);
    auto root = v2x::CertificateAuthority::make_root(pki_rng, "root-ca",
                                                     SimTime::from_s(100000));
    auto pca = v2x::CertificateAuthority::make_sub(pki_rng, "pca", root,
                                                   SimTime::from_s(100000));
    v2x::TrustStore trust;
    trust.add_root(root.certificate());
    trust.add_intermediate(pca.certificate());

    v2x::V2xMedium medium(sched);
    auto b1 = pca.issue_pseudonyms(pki_rng, 1, SimTime::zero(), SimTime::from_s(1000));
    auto b2 = pca.issue_pseudonyms(pki_rng, 1, SimTime::zero(), SimTime::from_s(1000));
    v2x::VehicleNode honest(sched, medium, "honest", {0, 0}, 13.0, 0, trust,
                            std::move(b1));
    v2x::VehicleNode receiver(sched, medium, "receiver", {60, 0}, -13.0, 0,
                              trust, std::move(b2));
    v2x::DeferredSpduVerifier verifier(sched);
    receiver.enable_opportunistic(verifier);
    std::uint64_t acted_on_forgery = 0, revokes = 0;
    receiver.set_bsm_sink([&](const v2x::Bsm& b, const v2x::Spdu&, SimTime) {
      if (b.temp_id == 0xdeadbeef) ++acted_on_forgery;
    });
    receiver.set_revoke_sink(
        [&](std::uint32_t, SimTime, SimTime) { ++revokes; });

    struct Injector : v2x::V2xRadio {
      Injector() : V2xRadio("injector") {}
      v2x::Position position() const override { return {30, 0}; }
      void on_spdu(const v2x::Spdu&, SimTime) override {}
    } injector;
    medium.attach(&injector);
    const auto mallory = random_key(rng);
    const auto mallory_cert =
        pca.issue("mallory", mallory.public_key(), {v2x::Psid::kBsm},
                  SimTime::zero(), SimTime::from_s(1000));
    // A forged BSM every 330 ms: valid certificate, fresh timestamp,
    // plausible kinematics — only the signature is wrong, and that is the
    // one check the receiver deferred.
    sim::PeriodicTask forger(
        sched, SimTime::from_ms(330),
        [&] {
          v2x::Bsm fake;
          fake.temp_id = 0xdeadbeef;
          fake.pos = {30, 0};
          fake.speed_mps = 8.0;
          fake.generated = sched.now();
          v2x::Spdu msg = v2x::Spdu::sign(v2x::Psid::kBsm, sched.now(),
                                          fake.serialize(), mallory_cert,
                                          mallory);
          msg.signature.s = crypto::U256::from_u64(5);  // forge
          medium.broadcast(&injector, msg);
        },
        SimTime::from_ms(115));

    verifier.start();
    honest.start();
    receiver.start();
    sched.run_until(SimTime::from_s(2));
    honest.stop();
    receiver.stop();
    forger.stop();
    sched.run_until(SimTime::from_ms(2100));
    verifier.stop();
    sched.run();

    const auto& st = receiver.stats();
    std::printf("\n[4] opportunistic admission, 2 s of traffic + forger\n");
    std::printf("    admitted provisionally: %llu, confirmed: %llu, revoked: %llu\n",
                static_cast<unsigned long long>(st.admitted_provisional),
                static_cast<unsigned long long>(verifier.confirmed()),
                static_cast<unsigned long long>(verifier.revoked()));
    std::printf("    forged BSMs acted on before revocation: %llu (revoke "
                "callbacks: %llu)\n",
                static_cast<unsigned long long>(acted_on_forgery),
                static_cast<unsigned long long>(revokes));
    std::printf("    exposure window (sim-time): mean %.0f us, max %.0f us, "
                "%zu samples\n",
                st.exposure_window_us.mean(), st.exposure_window_us.max(),
                st.exposure_window_us.count());

    // E11's oracle: what does that window cost in safety terms? The forged
    // BSM feeds the ADAS object list, so the reachable hazard is unneeded
    // emergency braking triggered by a ghost vehicle.
    safety::HazardRegistry hazards;
    hazards.add({"phantom-braking from ghost BSM", "adas-object-fusion",
                 safety::Severity::kS2, safety::Exposure::kE4,
                 safety::Controllability::kC2});
    const std::vector<safety::SecuritySafetyLink> links = {
        {"forged BSM accepted during deferred-verify window",
         "phantom-braking from ghost BSM"}};
    for (const auto& [attack, asil] : safety::attack_criticality(hazards, links)) {
      std::printf("    E11 oracle: \"%s\" reaches %s for up to %.0f us per "
                  "message\n",
                  attack.c_str(), safety::asil_name(asil),
                  st.exposure_window_us.max());
    }
    if (st.exposure_window_us.count() == 0 || verifier.revoked() == 0) {
      std::printf("    ERROR: opportunistic path not exercised\n");
      ++exit_count;
    }
  }

  std::printf("\nE22 exit: %zu mismatch(es)\n", exit_count);
  return benchutil::exit_status(exit_count);
}
