#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pb {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value after " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0) || !std::isfinite(a.seconds))
        throw std::invalid_argument("--seconds must be positive");
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) & 0x7fffffffffffull;  // stays exact as a double
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  failures_.push_back(why);
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

bool Result::check(bool ok, const std::string& why) {
  if (!ok) fail(why);
  return ok;
}

double Result::fail_share() const {
  return attempted_ ? static_cast<double>(failed()) /
                          static_cast<double>(attempted_)
                    : 1.0;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are not JSON; they only arise from a broken run,
    // which the correctness checks have already failed.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf;
    out += m.unit.empty() ? "}" : ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t r = std::max<std::size_t>(static_cast<std::size_t>(rank), 1);
  return xs[std::min(r, xs.size()) - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

bool same_timeline(const ts::Timeline& a, const ts::Timeline& b) {
  for (std::size_t s = 0; s < ts::kNumStages; ++s) {
    const auto st = static_cast<ts::Stage>(s);
    if (a.stage_seconds(st) != b.stage_seconds(st)) return false;
  }
  return a.dram_bytes() == b.dram_bytes() &&
         a.kernel_launches() == b.kernel_launches() && a.flops() == b.flops();
}

bool timeline_consistent(const ts::Timeline& t) {
  double sum = 0;
  for (std::size_t s = 0; s < ts::kNumStages; ++s) {
    const double v = t.stage_seconds(static_cast<ts::Stage>(s));
    if (!std::isfinite(v) || v < 0) return false;
    sum += v;
  }
  const double total = t.total_seconds();
  return total > 0 && std::abs(sum - total) <= 1e-12 * total &&
         std::isfinite(t.dram_bytes()) && t.dram_bytes() >= 0 &&
         std::isfinite(t.flops()) && t.flops() >= 0;
}

bool same_tensor(const ts::SparseTensor& a, const ts::SparseTensor& b) {
  return a.num_points() == b.num_points() && a.coords() == b.coords() &&
         a.feats() == b.feats();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace pb
