#include "report.hpp"

#include <cstdio>

#include "trace.hpp"

namespace pb {

void LayerReport::set(const std::string& name, double value) {
  values_[name] = value;
}

void LayerReport::add_ladder(const LadderTotals& t, double run_model_seconds) {
  const Tracer& tr = Tracer::instance();
  const double scans = t.scans ? static_cast<double>(t.scans) : 1.0;
  auto per_scan_ms = [&](const char* span) {
    return tr.seconds(span) * 1e3 / scans;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  set("downsample.ms", per_scan_ms("ladder.downsample"));
  set("downsample.kept_ratio", ratio(static_cast<double>(t.ds_kept),
                                     static_cast<double>(t.ds_candidates)));
  const double grid_s = tr.seconds("ladder.kernel_map.grid");
  const double hash_s = tr.seconds("ladder.kernel_map.hashmap");
  set("kernel_map.build_ms.grid", grid_s * 1e3 / scans);
  set("kernel_map.build_ms.hashmap", hash_s * 1e3 / scans);
  set("kernel_map.queries", static_cast<double>(t.map_queries) / scans);
  set("kernel_map.entries", static_cast<double>(t.map_entries) / scans);
  set("kernel_map.ns_per_query",
      ratio((grid_s + hash_s) * 1e9,
            static_cast<double>(t.map_queries + t.map_queries_hashmap)));
  const double replay_s = tr.seconds("ladder.l2_replay.torchsparse");
  set("l2_replay.ms", replay_s * 1e3 / scans);
  set("l2_replay.ms.baseline", per_scan_ms("ladder.l2_replay.baseline"));
  set("l2.line_touches", static_cast<double>(t.l2_touches) / scans);
  set("l2.hit_rate", ratio(static_cast<double>(t.l2_hits),
                           static_cast<double>(t.l2_touches)));
  set("l2.ns_per_touch",
      ratio(replay_s * 1e9, static_cast<double>(t.l2_touches)));
  set("numerics.gather_ms", per_scan_ms("numerics.gather"));
  set("numerics.quantize_ms", per_scan_ms("numerics.quantize"));
  set("numerics.mm_ms", per_scan_ms("numerics.mm"));
  set("numerics.scatter_ms", per_scan_ms("numerics.scatter"));
  set("numerics.mm_gflops",
      ratio(t.numerics_flops, tr.seconds("numerics.mm") * 1e9));
  set("numerics.flops", t.numerics_flops / scans);
  set("grouping.redundancy", ratio(t.planned_flops, t.theoretical_flops));
  set("grouping.groups", static_cast<double>(t.groups) / scans);
  set("trace.ladder_coverage", ratio(t.mirrored_seconds, run_model_seconds));
  std::printf("layer ladder: %zu scans, %zu recorded layers\n", t.scans,
              t.layers);
}

void LayerReport::add_modeled(int engine,
                              const std::vector<ts::Timeline>& per_scan) {
  if (per_scan.empty()) return;
  const double n = static_cast<double>(per_scan.size());
  auto mean_of = [&](auto get) {
    double s = 0;
    for (const ts::Timeline& t : per_scan) s += get(t);
    return s / n;
  };
  auto stage_ms = [&](ts::Stage st) {
    return mean_of([st](const ts::Timeline& t) {
      return t.stage_seconds(st) * 1e3;
    });
  };
  const std::string suffix =
      engine == kTorchSparse ? "" : std::string(".") + kEngineSlugs[engine];
  set("modeled.mapping_ms" + suffix, stage_ms(ts::Stage::kMapping));
  set("modeled.gather_ms" + suffix, stage_ms(ts::Stage::kGather));
  set("modeled.scatter_ms" + suffix, stage_ms(ts::Stage::kScatter));
  set("modeled.matmul_ms" + suffix, stage_ms(ts::Stage::kMatMul));
  set("modeled.dram_mb" + suffix, mean_of([](const ts::Timeline& t) {
        return t.dram_bytes() / 1e6;
      }));
  set("modeled.launches" + suffix, mean_of([](const ts::Timeline& t) {
        return static_cast<double>(t.kernel_launches());
      }));
  if (engine != kTorchSparse) return;
  set("modeled.dense2d_ms", stage_ms(ts::Stage::kDense2D));
  set("modeled.nms_ms", stage_ms(ts::Stage::kNMS));
  set("modeled.misc_ms", stage_ms(ts::Stage::kMisc));
}

void LayerReport::emit(Result& result) const {
  std::printf("\nself time by span (traced run; host clock):\n");
  std::printf("  %-30s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, t] : Tracer::instance().totals())
    std::printf("  %-30s %8zu %12.3f %12.3f\n", name.c_str(), t.spans,
                t.seconds * 1e3, t.self_seconds * 1e3);
  if (!bypassed_.empty()) {
    std::printf("bypassed by this workload (metrics read 0):");
    for (const std::string& l : bypassed_) std::printf(" %s", l.c_str());
    std::printf("\n");
  }
  for (const auto& [name, value] : values_) result.set(name, value, "");
}

}  // namespace pb
