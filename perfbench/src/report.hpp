// The per-layer report every traced run prints. BENCHMARK.json holds the
// catalogue: run.py gives each metric its unit, fills the ones a workload
// does not set with 0, and rejects names the catalogue lacks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "gpusim/timeline.hpp"
#include "ladder.hpp"

namespace pb {

/// The five paper engines in paper_engines() order, as metric suffixes.
inline const char* const kEngineSlugs[] = {"baseline", "minkowski",
                                           "spconv_fp32", "spconv_fp16",
                                           "torchsparse"};
inline constexpr int kMinkowski = 1;
inline constexpr int kSpconvFp16 = 3;
inline constexpr int kTorchSparse = 4;

/// The per-layer metrics a workload sets; a layer the workload bypasses
/// sets none and is named in the printed summary.
class LayerReport {
 public:
  void set(const std::string& name, double value);
  void bypass(const std::string& layer) { bypassed_.push_back(layer); }

  /// Ladder-derived metrics (downsample, kernel_map, l2, numerics,
  /// grouping) and trace.ladder_coverage from the tracer's spans.
  /// `run_model_seconds` is the summed host time of the traced inferences
  /// the ladders replayed.
  void add_ladder(const LadderTotals& totals, double run_model_seconds);

  /// modeled.* per scan: mean over `per_scan` timelines of one engine
  /// (TorchSparse metrics carry no suffix).
  void add_modeled(int engine, const std::vector<ts::Timeline>& per_scan);

  /// Prints self time per span name and the bypassed layers, then copies
  /// every metric set into `result`, without units.
  void emit(Result& result) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> bypassed_;
};

}  // namespace pb
