#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "fuzz/mutator.hpp"
#include "util/rng.hpp"

namespace aseck::fuzz {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

void CoverageMap::on_site(std::uint64_t site) {
  // AFL-style edge id: the shifted previous site xor the current one keeps
  // A->B distinct from B->A while staying a pure fold.
  const std::uint64_t edge = (prev_site_ >> 1) ^ site;
  prev_site_ = site;
  ++exec_counts_[edge];
}

void CoverageMap::begin_exec() {
  prev_site_ = 0;
  exec_counts_.clear();
}

std::uint8_t CoverageMap::bucket_bit(std::uint64_t count) {
  // AFL buckets: 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+.
  if (count == 1) return 1u << 0;
  if (count == 2) return 1u << 1;
  if (count == 3) return 1u << 2;
  if (count < 8) return 1u << 3;
  if (count < 16) return 1u << 4;
  if (count < 32) return 1u << 5;
  if (count < 128) return 1u << 6;
  return 1u << 7;
}

bool CoverageMap::commit_exec() {
  bool fresh = false;
  for (const auto& [edge, count] : exec_counts_) {
    const std::uint8_t bit = bucket_bit(count);
    std::uint8_t& mask = global_[edge];
    if ((mask & bit) == 0) {
      mask = static_cast<std::uint8_t>(mask | bit);
      fresh = true;
    }
  }
  return fresh;
}

std::uint64_t CoverageMap::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& [edge, mask] : global_) {
    h = fnv_fold(h, edge, 8);
    h = fnv_fold(h, mask, 1);
  }
  return h;
}

std::string CampaignResult::to_json() const {
  std::string out = "{\"target\":\"" + target + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"iterations\":" + std::to_string(iterations);
  out += ",\"execs\":" + std::to_string(execs);
  out += ",\"accepted\":" + std::to_string(accepted);
  out += ",\"corpus_size\":" + std::to_string(corpus_size);
  out += ",\"edges\":" + std::to_string(edges);
  out += ",\"coverage_digest\":\"";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(coverage_digest));
  out += hex;
  out += "\",\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"iteration\":" + std::to_string(f.iteration);
    out += ",\"violation\":\"" + f.violation + "\"";
    out += ",\"input\":\"" + util::to_hex(f.input) + "\"";
    out += ",\"minimized\":\"" + util::to_hex(f.minimized) + "\"}";
  }
  out += "]}";
  return out;
}

util::Bytes Fuzzer::minimize(const FuzzTarget& target, CoverageMap& cov,
                             const util::Bytes& input,
                             const std::string& violation,
                             std::uint64_t& execs) const {
  // Deterministic ddmin-lite: the candidate still reproduces iff the target
  // reports the *same* violation key.
  const auto reproduces = [&](const util::Bytes& candidate) {
    cov.begin_exec();
    const ExecResult r = target.execute(candidate);
    cov.commit_exec();
    ++execs;
    return r.violation == violation;
  };
  util::Bytes best = input;
  // Phase 1: chunk removal with halving chunk sizes.
  for (std::size_t chunk = best.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed = true;
    while (removed) {
      removed = false;
      for (std::size_t pos = 0; pos + chunk <= best.size();) {
        util::Bytes candidate = best;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(pos),
                        candidate.begin() +
                            static_cast<std::ptrdiff_t>(pos + chunk));
        if (reproduces(candidate)) {
          best = std::move(candidate);
          removed = true;
        } else {
          pos += chunk;
        }
      }
    }
    if (chunk == 1) break;
  }
  // Phase 2: byte normalization (zero each non-zero byte that stays fatal).
  for (std::size_t i = 0; i < best.size(); ++i) {
    if (best[i] == 0) continue;
    util::Bytes candidate = best;
    candidate[i] = 0;
    if (reproduces(candidate)) best = std::move(candidate);
  }
  return best;
}

CampaignResult Fuzzer::run(const FuzzTarget& target) {
  CampaignResult result;
  result.target = target.name;
  result.seed = cfg_.seed;
  result.iterations = cfg_.iterations;

  CoverageMap cov;
  const util::cov::ScopedSink guard(&cov);

  Mutator mutator;
  mutator.set_dictionary(target.dictionary);

  std::vector<util::Bytes> corpus = target.seeds;
  if (corpus.empty()) corpus.push_back({});

  std::set<std::string> seen_violations;
  const auto record_finding = [&](std::uint64_t iteration,
                                  const std::string& violation,
                                  const util::Bytes& input) {
    if (!seen_violations.insert(violation).second) return;
    Finding f;
    f.iteration = iteration;
    f.violation = violation;
    f.input = input;
    f.minimized = minimize(target, cov, input, violation, result.execs);
    result.findings.push_back(std::move(f));
  };

  // Seed pass: establishes baseline coverage (and catches seeds that already
  // breach an oracle).
  for (const util::Bytes& s : corpus) {
    cov.begin_exec();
    const ExecResult r = target.execute(s);
    cov.commit_exec();
    ++result.execs;
    if (!r.violation.empty()) record_finding(0, r.violation, s);
  }

  const std::uint64_t stream_base =
      cfg_.seed ^ util::cov::site_id(target.name.c_str());
  for (std::uint64_t iter = 1; iter <= cfg_.iterations; ++iter) {
    util::Rng rng = util::Rng::for_stream(stream_base, iter);
    const util::Bytes& base = corpus[rng.index(corpus.size())];
    const util::Bytes input = mutator.mutate(base, rng);

    cov.begin_exec();
    const ExecResult r = target.execute(input);
    const bool fresh = cov.commit_exec();
    ++result.execs;
    if (r.accepted) ++result.accepted;
    if (!r.violation.empty()) record_finding(iter, r.violation, input);
    if (fresh) corpus.push_back(input);
  }

  result.corpus_size = corpus.size();
  result.edges = cov.edges();
  result.coverage_digest = cov.digest();
  return result;
}

}  // namespace aseck::fuzz
