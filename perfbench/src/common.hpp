// Shared plumbing of the repository benchmark: arguments, seed
// derivation, metric and correctness accounting, small statistics, and the
// final one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sparse_tensor.hpp"
#include "gpusim/timeline.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span dump into ("" = no dump).
  std::string trace_dir;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-dir D]`.
/// Throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// Derives an independent generator seed from the run seed and a stream
/// tag (splitmix64), so one `--seed` drives every generator and adding a
/// stream never perturbs another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// The seed named for confirming a claimed gain: never used while tuning a
/// change, only to show the gain holds on inputs the change was not
/// written against.
inline constexpr std::uint64_t kHeldOutSeed = 7919;

/// Metric values in print order, plus the run's operation and correctness
/// accounting.
class Result {
 public:
  /// An empty `unit` prints none; run.py takes it from BENCHMARK.json.
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts `n` attempted operations.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records one failed operation or failed check with a reason.
  void fail(const std::string& why);
  /// fail(why) unless `ok`; returns ok.
  bool check(bool ok, const std::string& why);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failures_.size(); }
  bool correct() const { return failures_.empty(); }
  double fail_share() const;

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
};

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> xs, double q);
double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);
double geomean(const std::vector<double>& xs);

/// Bit-for-bit equality of every modeled field of two timelines.
bool same_timeline(const ts::Timeline& a, const ts::Timeline& b);

/// Stage seconds sum to the reported total (the Fig. 4 breakdown is
/// complete) and every field is finite and non-negative.
bool timeline_consistent(const ts::Timeline& t);

/// Coordinates and features are identical.
bool same_tensor(const ts::SparseTensor& a, const ts::SparseTensor& b);

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

}  // namespace pb
