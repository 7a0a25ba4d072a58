#pragma once
// Deterministic coverage-guided protocol fuzzer (experiment E20).
//
// Architecture (DESIGN.md §14): target parsers carry hand-placed
// `ASECK_COV("site")` hooks (util/coverage.hpp — compile-time FNV-hashed
// site ids, no compiler plugin). During a campaign the fuzzer installs a
// `CoverageMap` as the thread-local sink; each hook firing folds the
// (previous site, current site) pair into an edge id, AFL-style bucketed hit
// counts drive corpus retention, and the whole map reduces to a single FNV
// digest for the CI determinism diff.
//
// Reproducibility contract: iteration i of a campaign over target T with
// master seed S mutates with `util::Rng::for_stream(S ^ fnv(T), i)`. Every
// mutated input — and therefore the corpus, the coverage map, and the
// finding list — is a pure function of (S, T, i). Two runs with the same
// seed produce bit-identical `CampaignResult::to_json()` output; the
// fuzz-smoke CI job and bench_e20_fuzz_corpus assert exactly this.
//
// Oracles live in the targets (fuzz/targets.hpp): an execution either is
// rejected cleanly, or is accepted and must satisfy the target's invariants
// (round-trip fixpoint, UDS session/security state machine, SecOC freshness
// monotonicity...). An oracle breach is a Finding; findings are minimized
// with a deterministic ddmin-lite and frozen into the replayable attack
// corpus (attacks/corpus.hpp).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/coverage.hpp"

namespace aseck::fuzz {

/// Edge-coverage accumulator; installed as the util::cov sink for the
/// duration of a campaign.
class CoverageMap final : public util::cov::Sink {
 public:
  void on_site(std::uint64_t site) override;

  /// Resets per-execution state (edge chain + hit counts).
  void begin_exec();
  /// Folds the execution's bucketed hit counts into the global map.
  /// Returns true when any new (edge, bucket) bit appeared.
  bool commit_exec();

  std::size_t edges() const { return global_.size(); }
  /// FNV-1a over the sorted (edge id, bucket mask) pairs — equal digests
  /// imply identical coverage maps.
  std::uint64_t digest() const;

 private:
  static std::uint8_t bucket_bit(std::uint64_t count);

  std::uint64_t prev_site_ = 0;
  std::map<std::uint64_t, std::uint64_t> exec_counts_;  // edge -> hits
  std::map<std::uint64_t, std::uint8_t> global_;        // edge -> bucket mask
};

/// Outcome of feeding one input to a target.
struct ExecResult {
  /// True when the parser accepted the input (cleanly rejected otherwise).
  bool accepted = false;
  /// Non-empty = an invariant oracle was breached; the string is the stable
  /// violation key used for deduplication and minimization.
  std::string violation;
};

/// A fuzzable parser plus its oracle, seeds, and dictionary.
struct FuzzTarget {
  std::string name;  // "someip", "uds", "can", "secoc", "ota"
  std::function<ExecResult(util::BytesView)> execute;
  std::vector<util::Bytes> seeds;
  std::vector<util::Bytes> dictionary;
  std::size_t max_input = 512;
};

/// One deduplicated oracle breach.
struct Finding {
  std::uint64_t iteration = 0;  // 0 = seed input
  std::string violation;
  util::Bytes input;
  util::Bytes minimized;
};

struct CampaignResult {
  std::string target;
  std::uint64_t seed = 0;
  std::uint64_t iterations = 0;
  std::uint64_t execs = 0;     // includes seed runs and minimization probes
  std::uint64_t accepted = 0;  // main-loop executions the parser accepted
  std::size_t corpus_size = 0;
  std::size_t edges = 0;
  std::uint64_t coverage_digest = 0;
  std::vector<Finding> findings;

  /// Deterministic JSON (stable field order, hex inputs, no wall-clock).
  std::string to_json() const;
};

class Fuzzer {
 public:
  struct Config {
    std::uint64_t seed = 42;
    std::uint64_t iterations = 10'000;
  };

  explicit Fuzzer(Config cfg) : cfg_(cfg) {}

  /// Runs one campaign. Pure function of (cfg, target): re-running yields a
  /// bit-identical result.
  CampaignResult run(const FuzzTarget& target);

 private:
  util::Bytes minimize(const FuzzTarget& target, CoverageMap& cov,
                       const util::Bytes& input, const std::string& violation,
                       std::uint64_t& execs) const;

  Config cfg_;
};

}  // namespace aseck::fuzz
