#include "util/rng.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

namespace aseck::util {

// min(), max() and operator() exist for this contract alone; no caller in
// the tree uses them yet, so tools/dead_api.allow lists them.
static_assert(std::uniform_random_bit_generator<Rng>);

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform: zero bound");
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next_u64()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : uniform(span));
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform_real(-1.0, 1.0);
    v = uniform_real(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) throw std::invalid_argument("Rng::exponential: lambda <= 0");
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double lambda) {
  if (lambda < 0.0) throw std::invalid_argument("Rng::poisson: negative lambda");
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= uniform01();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large lambda.
  const double g = gaussian(lambda, std::sqrt(lambda));
  return g < 0.0 ? 0 : static_cast<std::uint64_t>(g + 0.5);
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  std::size_t i = 0;
  while (i + 8 <= n) {
    store_le64(&out[i], next_u64());
    i += 8;
  }
  if (i < n) {
    std::uint64_t v = next_u64();
    for (; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }
  return out;
}

Rng Rng::fork() {
  return Rng(next_u64() ^ 0xa5a5a5a5a5a5a5a5ULL);
}

Rng Rng::for_stream(std::uint64_t master_seed, std::uint64_t stream_id) {
  // Decorrelate the master seed once, then place stream seeds at
  // golden-ratio increments: SplitMix64 (inside Rng's constructor) is a
  // bijection of the seed, so distinct ids yield distinct 256-bit states.
  SplitMix64 sm(master_seed);
  const std::uint64_t base = sm.next();
  return Rng(base + 0x9e3779b97f4a7c15ULL * (stream_id + 1));
}

}  // namespace aseck::util
