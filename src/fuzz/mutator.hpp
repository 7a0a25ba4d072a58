#pragma once
// Deterministic mutation engine for the E20 protocol fuzzer.
//
// Every mutation draws exclusively from the caller-supplied `util::Rng`, so a
// mutated input is a pure function of (base input, RNG state): replaying the
// same per-iteration stream (see Fuzzer — `Rng::for_stream(seed ^ target,
// iteration)`) regenerates the identical byte string on any platform. The
// operator set is the classic protocol-fuzzing kit: bit/byte flips,
// interesting-value splices (8/16/32-bit, both endiannesses), arithmetic
// deltas, truncation/extension, chunk duplication, dictionary-token
// insertion, and length-field skew (writing values near/at the buffer length
// into a window — the mutation that finds V10/V11-class length-validation
// bugs).

#include <cstddef>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aseck::fuzz {

struct MutatorConfig {
  /// Mutated inputs never exceed this many bytes.
  std::size_t max_len = 512;
  /// Mutations stacked per call: 1 + uniform(max_stack) operators.
  std::size_t max_stack = 4;
};

class Mutator {
 public:
  explicit Mutator(MutatorConfig cfg = {}) : cfg_(cfg) {}

  /// Protocol keywords (SIDs, magic bytes, DLC codes...) spliced verbatim.
  void set_dictionary(std::vector<util::Bytes> tokens) {
    dict_ = std::move(tokens);
  }

  /// Produces a mutated copy of `base`. Deterministic given `rng`'s state.
  util::Bytes mutate(util::BytesView base, util::Rng& rng) const;

 private:
  void apply_one(util::Bytes& b, util::Rng& rng) const;

  MutatorConfig cfg_;
  std::vector<util::Bytes> dict_;
};

}  // namespace aseck::fuzz
