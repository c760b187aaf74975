// The layer ladder: after a traced inference, replays that scan's layers
// from outside the library through public layer functions only, each in
// its own span, so the traced run can attribute host time to layers:
//
//   downsample_coords      builds every stride level of the scan
//   build_kernel_map       every level's submanifold maps and every
//                          downsampling map, once per hashmap backend
//   charge_gather_scatter  every recorded conv layer, on fresh contexts
//                          of the TorchSparse and Baseline presets
//   gather_rows, Matrix::quantize, mm, scatter_add_rows
//                          every recorded layer at its channel widths
//                          (only when the workload computes numerics)
//   plan_groups            every recorded layer's map sizes
//
// The stride levels come from the records as well: the non-submanifold
// layers give the kernel size of the stride-2 convs, and each distinct map
// among them is one level (a transposed conv runs on the transpose of its
// level's downsampling map, which has the same per-offset sizes). Layers
// are matched to ladder maps by their per-offset map sizes, which
// ExecContext::recorder captured during the traced inference; a layer
// that matches no ladder map fails a check.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/exec.hpp"
#include "core/sparse_tensor.hpp"
#include "engines/runner.hpp"

namespace pb {

/// Counts accumulated over every ladder replay of one traced run. Times
/// come from the tracer's spans.
struct LadderTotals {
  std::size_t scans = 0;
  std::size_t ds_candidates = 0;
  std::size_t ds_kept = 0;
  std::size_t map_queries = 0;  // grid backend
  std::size_t map_queries_hashmap = 0;
  std::size_t map_entries = 0;  // grid backend
  std::size_t l2_touches = 0;   // TorchSparse preset
  std::size_t l2_hits = 0;
  double numerics_flops = 0;
  double planned_flops = 0;
  double theoretical_flops = 0;
  std::size_t groups = 0;
  std::size_t layers = 0;
  /// Ladder seconds that mirror what the traced inference itself did
  /// (grid maps, the TorchSparse replay, numerics when on, planning) —
  /// the numerator of trace.ladder_coverage.
  double mirrored_seconds = 0;
};

/// `run` holds the traced inference's options: replay vs analytic
/// data-movement costing, numerics on or off, tuned grouping parameters.
void run_ladder(const ts::SparseTensor& input,
                const std::vector<ts::LayerRecord>& records,
                const ts::RunOptions& run, std::int64_t request,
                LadderTotals& totals, Result& res);

/// The traced form of run_model: the same make_run_context +
/// run_in_context pair, with ExecContext::recorder capturing the layer
/// records the ladder replays, inside a "run_model" span.
ts::Timeline traced_run_model(const ts::ModelFn& model,
                              const ts::SparseTensor& input,
                              const ts::EngineConfig& engine,
                              const ts::RunOptions& opt,
                              std::vector<ts::LayerRecord>& records,
                              std::int64_t request, double* wall_seconds);

/// traced ÷ untraced host time of one inference: `pairs` alternating
/// runs of run_model and traced_run_model, ratio of the medians.
double trace_overhead(const ts::ModelFn& model, const ts::SparseTensor& input,
                      const ts::EngineConfig& engine,
                      const ts::RunOptions& opt, int pairs);

}  // namespace pb
