#pragma once
// Shared front door for the experiment benches (E1–E23, calibration): the
// flag parser, the two host clocks, the one timing harness, the exit status,
// and fixed-width table printing, so every bench parses, times and reports
// the same way.

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace benchutil {

/// One flag a bench accepts. Bound to a bool it is a switch (`--smoke`);
/// bound to a number it takes one value (`--seed 7`).
struct Flag {
  const char* name;
  std::variant<bool*, unsigned*, unsigned long*, unsigned long long*, double*>
      target;
};

/// Prints the usage line generated from `flags` to stderr and returns 255,
/// the exit status for a command line a bench refuses.
inline int usage_error(const char* argv0, std::initializer_list<Flag> flags) {
  std::string usage = std::string("usage: ") + argv0;
  for (const Flag& g : flags) {
    usage += std::string(" [") + g.name;
    if (std::holds_alternative<double*>(g.target)) usage += " X";
    else if (!std::holds_alternative<bool*>(g.target)) usage += " N";
    usage += "]";
  }
  std::fprintf(stderr, "%s\n", usage.c_str());
  return 255;
}

/// Parses argv against `flags`; a repeated flag keeps its last value. Values
/// go through std::from_chars and must be consumed whole; a double must also
/// be finite. An unknown flag, a missing value or a malformed value returns
/// usage_error(); success returns 0. Presets belong after the call, so they
/// win regardless of argument order.
inline int parse_args(int argc, char** argv, std::initializer_list<Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* f = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag& g) { return arg == g.name; });
    const bool ok = f != flags.end() && std::visit(
        [&](auto* out) {
          if constexpr (std::is_same_v<decltype(out), bool*>) {
            *out = true;
            return true;
          } else {
            if (i + 1 >= argc) return false;
            const std::string_view text = argv[++i];
            const char* end = text.data() + text.size();
            const auto [stop, ec] = std::from_chars(text.data(), end, *out);
            if constexpr (std::is_same_v<decltype(out), double*>) {
              if (!std::isfinite(*out)) return false;
            }
            return ec == std::errc() && stop == end;
          }
        },
        f->target);
    if (!ok) return usage_error(argv[0], flags);
  }
  return 0;
}

/// Process CPU seconds. Shared or oversubscribed hosts inflate wall time by
/// whatever the scheduler feels like that minute, while CPU time stays within
/// a few percent run to run.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall-clock seconds, for figures that must see parallel speedup
/// (E19's thread sweep) or that report elapsed time as such.
inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The one timing harness: process CPU seconds of each `fn`, minimum over
/// `passes` passes. Each pass calls every `fn` once, in argument order, so
/// a transient slowdown on a steal-heavy host cannot land on only one side
/// of a ratio. One-time setup (tables, corpora) belongs before the call.
template <typename... Fn>
std::array<double, sizeof...(Fn)> time_min_of(int passes, Fn&&... fn) {
  std::array<double, sizeof...(Fn)> best;
  best.fill(std::numeric_limits<double>::infinity());
  for (int p = 0; p < passes; ++p) {
    std::size_t k = 0;
    const auto time_one = [&](auto& f) {
      const double t0 = cpu_seconds();
      f();
      best[k] = std::min(best[k], cpu_seconds() - t0);
      ++k;
    };
    (time_one(fn), ...);
  }
  return best;
}

/// Process exit status for a violation count: 0 passes, and counts past 255
/// clamp instead of wrapping back to a passing status.
constexpr int exit_status(std::size_t violations) {
  return static_cast<int>(std::min<std::size_t>(violations, 255));
}
static_assert(exit_status(256) == 255);

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : std::string();
        std::printf("%-*s  ", static_cast<int>(width[c]), s.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (auto w : width) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}
inline std::string fmt_u(unsigned long long v) { return std::to_string(v); }

}  // namespace benchutil
