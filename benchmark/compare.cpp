// bench_compare: judges a change against its parent from benchmark result
// records (the JSON lines bench_driver prints, one per metric per run).
//
//   bench_compare [--bench BENCHMARK.json] <parent.jsonl> <change.jsonl>
//
// Each file holds the concatenated output of >= 10 runs per workload. For
// every (workload, metric) the tool prints both sides' median and quartiles
// (Python `statistics.quantiles(n=4)`, exclusive method) and a verdict:
//
//  * end-to-end host metrics (bounds from BENCHMARK.json): "improved" only
//    when the change wins >= 9/10 of the run pairs (in file order; ties count
//    for neither side) and the medians differ by more than the parent's IQR;
//    "REGRESSION" when the change's median is worse by more than the bound;
//    "unresolved" when either side's spread (IQR/median) exceeds the bound,
//    unless every change run beats every parent run; with < 10 runs a side,
//    "too few runs".
//  * sim-time metrics and digests must be byte-identical per seed; any
//    difference reads "NOT A PURE SPEED-UP". fail_ratio may not grow.
//  * per-layer metrics (traced runs) are listed with medians, no verdict.
//
// Exit code = number of regressions, impure differences and failure
// increases (capped at 255).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace {

// --- a minimal JSON reader (objects, arrays, strings, numbers, literals) ---

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string str(std::string_view key) const {
    const Value* v = get(key);
    return v && v->kind == Kind::kString ? v->string : std::string();
  }
  double num(std::string_view key, double def = NAN) const {
    const Value* v = get(key);
    return v && v->kind == Kind::kNumber ? v->number : def;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool parse(Value& out) {
    if (!value(out)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\' && i_ < s_.size()) {
        c = s_[i_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'u') {  // keep escapes opaque; names here are ASCII
          out += "\\u";
          continue;
        }
      }
      out += c;
    }
    return i_++ < s_.size();
  }
  bool value(Value& v) {
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Value::Kind::kObject;
      if (eat('}')) return true;
      do {
        std::string key;
        Value item;
        if (!string(key) || !eat(':') || !value(item)) return false;
        v.object.emplace_back(std::move(key), std::move(item));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++i_;
      v.kind = Value::Kind::kArray;
      if (eat(']')) return true;
      do {
        Value item;
        if (!value(item)) return false;
        v.array.push_back(std::move(item));
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      v.kind = Value::Kind::kString;
      return string(v.string);
    }
    if (literal("true") || literal("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = c == 't';
      return true;
    }
    if (literal("null")) return true;
    const std::string rest(s_.substr(i_, 64));
    char* end = nullptr;
    v.number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    v.kind = Value::Kind::kNumber;
    i_ += static_cast<std::size_t>(end - rest.c_str());
    return true;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.empty() ? NAN : v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// statistics.quantiles(v, n=4) with the default exclusive method.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return {NAN, NAN};
  std::sort(v.begin(), v.end());
  const auto q = [&](long i) {
    const long m = static_cast<long>(v.size()) + 1;
    long j = i * m / 4;
    const long delta = i * m - j * 4;
    j = std::clamp(j, 1L, static_cast<long>(v.size()) - 1);
    return v[j - 1] + (v[j] - v[j - 1]) * static_cast<double>(delta) / 4.0;
  };
  return {q(1), q(3)};
}

// --- records ------------------------------------------------------------------

struct Sample {
  double value;
  std::string seed;
  std::string digest;
};

struct Series {
  std::string unit;
  std::vector<Sample> parent, change;
};

using Key = std::tuple<std::string, std::string, bool>;  // workload, metric, traced

bool load(const char* path, bool is_change, std::map<Key, Series>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"workload\"") == std::string::npos) continue;
    Value r;
    if (!Parser(line).parse(r) || r.kind != Value::Kind::kObject) continue;
    const Value* trace = r.get("trace");
    Series& s = out[{r.str("workload"), r.str("metric"),
                     trace && trace->boolean}];
    s.unit = r.str("unit");
    const Value* seed = r.get("seed");
    Sample smp{r.num("value"),
               seed ? std::to_string(static_cast<unsigned long long>(seed->number)) : "",
               r.str("digest")};
    (is_change ? s.change : s.parent).push_back(std::move(smp));
  }
  return true;
}

struct Bound {
  double bound = 0;
  bool lower_is_better = true;
};

std::map<std::string, Bound> load_bounds(const char* path) {
  std::map<std::string, Bound> out;
  std::ifstream in(path);
  if (!in) return out;
  const std::string text((std::istreambuf_iterator<char>(in)), {});
  Value doc;
  if (!Parser(text).parse(doc)) return out;
  if (const Value* e2e = doc.get("end_to_end")) {
    for (const Value& m : e2e->array) {
      out[m.str("name")] = {m.num("bound", 0), m.str("better") != "higher"};
    }
  }
  return out;
}

std::vector<double> values(const std::vector<Sample>& s) {
  std::vector<double> v;
  for (const Sample& x : s) v.push_back(x.value);
  return v;
}

std::string describe(const std::vector<Sample>& s) {
  const std::vector<double> v = values(s);
  const auto [q1, q3] = quartiles(v);
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.6g [%.6g,%.6g] n=%zu", median(v), q1, q3,
                v.size());
  return buf;
}

/// Samples of one side keyed by seed (the last run of a seed wins).
std::map<std::string, const Sample*> by_seed(const std::vector<Sample>& s) {
  std::map<std::string, const Sample*> m;
  for (const Sample& x : s) m[x.seed] = &x;
  return m;
}

std::string host_verdict(const Series& s, const Bound& b) {
  const std::vector<double> p = values(s.parent), c = values(s.change);
  if (p.size() < 10 || c.size() < 10) return "too few runs (need >= 10 a side)";
  const double mp = median(p), mc = median(c);
  const auto [p1, p3] = quartiles(p);
  const auto [c1, c3] = quartiles(c);
  const auto better = [&](double x, double y) {
    return b.lower_is_better ? x < y : x > y;
  };
  if ((p3 - p1) / mp > b.bound || (c3 - c1) / mc > b.bound) {
    const double worst_change = b.lower_is_better ? *std::max_element(c.begin(), c.end())
                                                  : *std::min_element(c.begin(), c.end());
    const double best_parent = b.lower_is_better ? *std::min_element(p.begin(), p.end())
                                                 : *std::max_element(p.begin(), p.end());
    return better(worst_change, best_parent) ? "improved (every run better)"
                                             : "unresolved (spread > bound)";
  }
  const std::size_t pairs = std::min(p.size(), c.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) wins += better(c[i], p[i]) ? 1 : 0;
  if (better(mc, mp) && wins * 10 >= pairs * 9 && std::fabs(mc - mp) > p3 - p1) {
    return "improved (" + std::to_string(wins) + "/" + std::to_string(pairs) + " pairs)";
  }
  const double worse = (b.lower_is_better ? mc - mp : mp - mc) / mp;
  if (worse > b.bound) return "REGRESSION";
  return "no regression (within bound)";
}

}  // namespace

int main(int argc, char** argv) {
  const char* bench_json = "BENCHMARK.json";
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--bench" && i + 1 < argc) {
      bench_json = argv[++i];
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s [--bench BENCHMARK.json] <parent.jsonl> <change.jsonl>\n",
                 argv[0]);
    return 255;
  }
  std::map<Key, Series> series;
  if (!load(files[0], false, series) || !load(files[1], true, series)) return 255;
  const std::map<std::string, Bound> bounds = load_bounds(bench_json);
  if (bounds.empty()) {
    std::fprintf(stderr, "bench_compare: no end_to_end bounds in %s\n", bench_json);
    return 255;
  }

  int bad = 0;
  std::set<std::pair<std::string, std::string>> digest_checked;
  std::printf("%-13s %-30s %-12s %-40s %-40s %s\n", "workload", "metric", "unit",
              "parent median [q1,q3]", "change median [q1,q3]", "verdict");
  for (const auto& [key, s] : series) {
    const auto& [workload, metric, traced] = key;
    std::string verdict;
    const bool sim_time = s.unit.rfind("sim_", 0) == 0 || metric == "fail_ratio";
    if (const auto b = bounds.find(metric); b != bounds.end() && !traced) {
      verdict = host_verdict(s, b->second);
      if (verdict == "REGRESSION") ++bad;
    } else if (sim_time) {
      const auto p = by_seed(s.parent), c = by_seed(s.change);
      std::size_t shared = 0, differ = 0;
      for (const auto& [seed, x] : c) {
        const auto it = p.find(seed);
        if (it == p.end()) continue;
        ++shared;
        if (it->second->value != x->value) ++differ;
      }
      verdict = differ ? "NOT A PURE SPEED-UP (" + std::to_string(differ) + " seeds differ)"
                       : "identical on " + std::to_string(shared) + " shared seeds";
      if (differ) ++bad;
      if (metric == "fail_ratio" && median(values(s.change)) > median(values(s.parent))) {
        verdict += "; MORE FAILURES";
        ++bad;
      }
    } else {
      verdict = "per-layer (no bound)";
    }
    std::printf("%-13s %-30s %-12s %-40s %-40s %s\n", workload.c_str(),
                metric.c_str(), s.unit.c_str(), describe(s.parent).c_str(),
                describe(s.change).c_str(), verdict.c_str());

    // Digests: once per workload, compared per shared seed.
    if (!digest_checked.insert({workload, traced ? "t" : "u"}).second) continue;
    const auto p = by_seed(s.parent), c = by_seed(s.change);
    std::size_t differ = 0;
    for (const auto& [seed, x] : c) {
      const auto it = p.find(seed);
      if (it != p.end() && it->second->digest != x->digest) ++differ;
    }
    if (differ) {
      std::printf("%-13s %-30s digest differs on %zu shared seed(s): NOT A PURE SPEED-UP\n",
                  workload.c_str(), "(digest)", differ);
      ++bad;
    }
  }
  return bad > 255 ? 255 : bad;
}
