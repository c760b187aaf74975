// The benchmark's three workloads and the helpers they share.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "data/lidar.hpp"
#include "engines/runner.hpp"
#include "report.hpp"

namespace pb {

void run_engine_sweep(const Args& args, Result& result);
void run_segment_numerics(const Args& args, Result& result);
void run_drive_stream(const Args& args, Result& result);

/// The end-to-end metrics every workload prints (peak_rss_mb is read at
/// emission time).
struct EndToEnd {
  double setup_s = 0;
  double wall_req_per_s = 0;
  double wall_scan_ms_p50 = 0;
  std::size_t wall_scan_samples = 0;
  double modeled_scan_ms = 0;
  double speedup_vs_minkowski = 0;
  double speedup_vs_spconv = 0;
  double e2e_p50_ms_low = 0;
  double e2e_p95_ms_low = 0;
  double e2e_p50_ms_high = 0;
  double e2e_p95_ms_high = 0;
  std::size_t e2e_samples = 0;
  double max_rate_hz = 0;
};

/// Closed-loop serving figures from per-scan modeled latencies: with one
/// client that waits for each reply nothing queues, so a request's e2e is
/// its modeled service at every offered rate (low = high), and the
/// highest sustainable rate is one request per mean service time.
void closed_loop_serving(const std::vector<double>& modeled_ms,
                         EndToEnd& e2e);

void emit_end_to_end(const EndToEnd& e2e, Result& result);

/// Same rounding as the library's workload constructors: the azimuth
/// resolution shrinks with `scale`, never below 32 columns.
ts::LidarSpec scaled_lidar(ts::LidarSpec spec, double scale);

/// One scan regenerated by the data ladder.
struct DataScan {
  ts::LidarSpec lidar;
  ts::VoxelSpec voxels;
  std::uint64_t seed = 0;
  const ts::SparseTensor* expect = nullptr;  // the workload's own input
};

/// Regenerates each scan through generate_scan and voxelize in data.*
/// spans, checks the tensor equals the workload's input, and sets the
/// data.* metrics.
void data_ladder(const std::vector<DataScan>& scans, LayerReport& report,
                 Result& result);

/// Checks that a neighbouring seed changes the generated input.
void check_seed_moves_input(const ts::SparseTensor& ours,
                            const ts::SparseTensor& neighbour,
                            Result& result);

/// Modeled latencies of `engine` over `inputs` (cost-only).
std::vector<ts::Timeline> modeled_runs(
    const std::vector<const ts::ModelFn*>& models,
    const std::vector<const ts::SparseTensor*>& inputs,
    const ts::EngineConfig& engine, const ts::RunOptions& opt);

/// Modeled speedup of TorchSparse over another engine: within each group
/// of scans, the other engine's summed latency over TorchSparse's (so a
/// small outlier scene weighs what its time weighs), then the geomean
/// over groups. `group[i]` names the group of scan i.
double speedup(const std::vector<ts::Timeline>& other,
               const std::vector<ts::Timeline>& torchsparse,
               const std::vector<std::size_t>& group);

}  // namespace pb
