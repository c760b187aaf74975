#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "data/voxelize.hpp"
#include "gpusim/device.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

void closed_loop_serving(const std::vector<double>& modeled_ms,
                         EndToEnd& e2e) {
  e2e.e2e_p50_ms_low = e2e.e2e_p50_ms_high = median(modeled_ms);
  e2e.e2e_p95_ms_low = e2e.e2e_p95_ms_high = percentile(modeled_ms, 0.95);
  e2e.e2e_samples = modeled_ms.size();
  e2e.max_rate_hz = 1e3 / mean(modeled_ms);
}

void emit_end_to_end(const EndToEnd& e, Result& r) {
  std::printf(
      "\nend to end (wall = host clock, modeled = RTX 2080 Ti cost model):\n"
      "  wall_scan_ms_p50 over %zu samples; modeled e2e percentiles over "
      "%zu samples\n",
      e.wall_scan_samples, e.e2e_samples);
  r.set("setup_s", e.setup_s, "s");
  r.set("wall_req_per_s", e.wall_req_per_s, "1/s");
  r.set("wall_scan_ms_p50", e.wall_scan_ms_p50, "ms");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("modeled_scan_ms", e.modeled_scan_ms, "ms");
  r.set("modeled_speedup_vs_minkowski", e.speedup_vs_minkowski, "x");
  r.set("modeled_speedup_vs_spconv", e.speedup_vs_spconv, "x");
  r.set("modeled_e2e_p50_ms.low", e.e2e_p50_ms_low, "ms");
  r.set("modeled_e2e_p95_ms.low", e.e2e_p95_ms_low, "ms");
  r.set("modeled_e2e_p50_ms.high", e.e2e_p50_ms_high, "ms");
  r.set("modeled_e2e_p95_ms.high", e.e2e_p95_ms_high, "ms");
  r.set("modeled_max_rate_hz", e.max_rate_hz, "Hz");
}

ts::LidarSpec scaled_lidar(ts::LidarSpec spec, double scale) {
  spec.azimuth_steps = std::max(
      32, static_cast<int>(std::lround(spec.azimuth_steps * scale)));
  return spec;
}

void data_ladder(const std::vector<DataScan>& scans, LayerReport& report,
                 Result& result) {
  const Tracer& tr = Tracer::instance();
  double points = 0;
  for (const DataScan& s : scans) {
    Scope data("data", static_cast<std::int64_t>(s.seed));
    std::vector<ts::Point3> cloud;
    {
      Scope g("data.scan");
      cloud = ts::generate_scan(s.lidar, s.seed);
      g.count("points", static_cast<double>(cloud.size()));
    }
    ts::SparseTensor x;
    {
      Scope v("data.voxelize");
      x = ts::voxelize(cloud, s.voxels);
      v.count("voxels", static_cast<double>(x.num_points()));
    }
    points += static_cast<double>(cloud.size());
    if (s.expect)
      result.check(same_tensor(x, *s.expect),
                   "data ladder: regenerated scan differs from the "
                   "workload input (seed " + std::to_string(s.seed) + ")");
  }
  const double n = scans.empty() ? 1.0 : static_cast<double>(scans.size());
  report.set("data.scan_ms", tr.seconds("data.scan") * 1e3 / n);
  report.set("data.voxelize_ms", tr.seconds("data.voxelize") * 1e3 / n);
  report.set("data.points_per_scan", points / n);
}

void check_seed_moves_input(const ts::SparseTensor& ours,
                            const ts::SparseTensor& neighbour,
                            Result& result) {
  result.check(!same_tensor(ours, neighbour),
               "seed check: a different seed produced an identical input");
}

std::vector<ts::Timeline> modeled_runs(
    const std::vector<const ts::ModelFn*>& models,
    const std::vector<const ts::SparseTensor*>& inputs,
    const ts::EngineConfig& engine, const ts::RunOptions& opt) {
  std::vector<ts::Timeline> out;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    out.push_back(ts::run_model(*models[i], *inputs[i], ts::rtx2080ti(),
                                engine, opt));
  return out;
}

double speedup(const std::vector<ts::Timeline>& other,
               const std::vector<ts::Timeline>& torchsparse,
               const std::vector<std::size_t>& group) {
  std::map<std::size_t, std::pair<double, double>> sums;
  for (std::size_t i = 0; i < other.size() && i < torchsparse.size(); ++i) {
    sums[group[i]].first += other[i].total_seconds();
    sums[group[i]].second += torchsparse[i].total_seconds();
  }
  std::vector<double> ratios;
  for (const auto& [g, s] : sums) ratios.push_back(s.first / s.second);
  return geomean(ratios);
}

}  // namespace pb
