#pragma once
// Shared front door for the experiment benches (E1–E23, calibration): the
// flag parser, the two host clocks, the one timing harness, the exit status,
// and typed fixed-width tables, so every bench parses, times and reports the
// same way.

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <initializer_list>
#include <limits>
#include <stdexcept>
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

/// The mode `--smoke` binds to (`bool& smoke = benchutil::smoke;`): while it
/// is set, Table omits host columns, so smoke reports repeat byte for byte.
inline bool smoke = false;

/// What a column holds. The kind alone decides what --smoke omits and which
/// cells count as failed claims.
enum Kind {
  plain,    // text, or a figure two runs with the same flags reproduce
  host,     // a time_min_of / wall_seconds figure, unit in the header
  verdict,  // a claim check: bool cells, printed "ok" / "FAIL"
};

struct Column {
  Column(const char* header, Kind kind = plain) : header(header), kind(kind) {}
  std::string header;
  Kind kind;
};

/// Text, or a bool in a verdict column.
using Cell = std::variant<std::string, bool>;

class Table {
 public:
  explicit Table(std::vector<Column> columns) : columns_(std::move(columns)) {}

  /// Throws std::invalid_argument unless the row has one cell per column and
  /// its bools sit exactly in the verdict columns.
  void add_row(std::vector<Cell> cells) {
    bool fits = cells.size() == columns_.size();
    for (std::size_t c = 0; fits && c < cells.size(); ++c) {
      fits = std::holds_alternative<bool>(cells[c]) == (columns_[c].kind == verdict);
    }
    if (!fits) throw std::invalid_argument("benchutil::Table: row does not fit the columns");
    failed_ += std::count_if(cells.begin(), cells.end(), [](const Cell& cell) {
      const bool* ok = std::get_if<bool>(&cell);
      return ok && !*ok;
    });
    rows_.push_back(std::move(cells));
  }

  /// Failed verdict cells, for exit_status().
  std::size_t failed() const { return failed_; }

  /// What print() writes. A table that --smoke leaves with at most one column
  /// renders as "": labels alone report nothing.
  std::string render() const {
    std::vector<std::vector<std::string>> lines(rows_.size() + 1);  // header first
    std::vector<std::size_t> width;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (smoke && columns_[c].kind == host) continue;
      lines[0].push_back(columns_[c].header);
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        const bool* ok = std::get_if<bool>(&rows_[r][c]);
        lines[r + 1].push_back(ok ? (*ok ? "ok" : "FAIL") : std::get<std::string>(rows_[r][c]));
      }
      width.push_back(0);
      for (const auto& line : lines) width.back() = std::max(width.back(), line.back().size());
    }
    if (width.size() < columns_.size() && width.size() <= 1) return {};
    std::string out;
    for (std::size_t r = 0; r < lines.size(); ++r) {
      for (std::size_t k = 0; k < width.size(); ++k) {
        out += lines[r][k] + std::string(width[k] + 2 - lines[r][k].size(), ' ');
      }
      out += '\n';
      if (r == 0) {
        for (const std::size_t w : width) out.append(w + 2, '-');
        out += '\n';
      }
    }
    return out;
  }

  void print() const { std::fputs(render().c_str(), stdout); }

 private:
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
  std::size_t failed_ = 0;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}
inline std::string fmt_u(unsigned long long v) { return std::to_string(v); }

}  // namespace benchutil
