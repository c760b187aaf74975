#include "ladder.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "core/downsample.hpp"
#include "core/gather_scatter.hpp"
#include "core/kernel_map.hpp"
#include "core/kernel_offsets.hpp"
#include "core/matmul_group.hpp"
#include "engines/presets.hpp"
#include "gpusim/device.hpp"
#include "tensor/matrix.hpp"
#include "trace.hpp"

namespace pb {

namespace {

/// One ladder-built map with the point counts on either side of it.
struct LadderMap {
  std::shared_ptr<const ts::KernelMap> km;
  std::size_t n_in = 0;
  std::size_t n_out = 0;
};

/// Deterministic values in [-1, 1) (xorshift), so the numerics replay
/// does the same arithmetic on every run.
ts::Matrix filled(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ts::Matrix m(rows, cols);
  std::uint64_t s = seed | 1;
  float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    d[i] = static_cast<float>(s >> 40) / static_cast<float>(1 << 23) - 1.0f;
  }
  return m;
}

int kernel_size_of(std::size_t volume) {
  return static_cast<int>(std::lround(std::cbrt(static_cast<double>(volume))));
}

std::vector<int> moving_offsets(const ts::LayerRecord& rec,
                                const ts::EngineConfig& cfg) {
  const int volume = static_cast<int>(rec.map_sizes.size());
  const int center = rec.submanifold
                         ? ts::center_offset_index(kernel_size_of(volume))
                         : -1;
  std::vector<int> out;
  for (int n = 0; n < volume; ++n)
    if (rec.map_sizes[static_cast<std::size_t>(n)] > 0 &&
        !(rec.submanifold && cfg.skip_center_movement && n == center))
      out.push_back(n);
  return out;
}

/// The model's stride-2 convs: their kernel size and how many levels they
/// span, from the non-submanifold records. A transposed conv's map has the
/// per-offset sizes of its level's downsampling map, so each distinct map
/// is one level.
struct StrideGeometry {
  int down_kernel = 0;
  int levels = 0;
};

StrideGeometry stride_geometry(const std::vector<ts::LayerRecord>& records,
                               Result& res) {
  StrideGeometry g;
  std::vector<const std::vector<std::size_t>*> maps;
  for (const ts::LayerRecord& rec : records) {
    if (rec.submanifold) continue;
    const int k = kernel_size_of(rec.map_sizes.size());
    res.check(g.down_kernel == 0 || g.down_kernel == k,
              "layer ladder: the model's stride-2 convs differ in kernel "
              "size");
    g.down_kernel = k;
    if (std::none_of(maps.begin(), maps.end(),
                     [&](const auto* m) { return *m == rec.map_sizes; }))
      maps.push_back(&rec.map_sizes);
  }
  g.levels = static_cast<int>(maps.size());
  return g;
}

}  // namespace

void run_ladder(const ts::SparseTensor& input,
                const std::vector<ts::LayerRecord>& records,
                const ts::RunOptions& run, std::int64_t request,
                LadderTotals& totals, Result& res) {
  Scope ladder("ladder", request);
  const StrideGeometry geo = stride_geometry(records, res);
  const ts::EngineConfig ts_cfg = ts::torchsparse_config();
  double mirrored = 0;
  auto timed = [&mirrored](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    mirrored += seconds_since(t0);
  };

  // --- core.downsample: every stride level of the scan. ---------------
  std::vector<std::vector<ts::Coord>> levels{input.coords()};
  timed([&] {
    Scope s("ladder.downsample");
    for (int l = 0; l < geo.levels; ++l) {
      ts::DownsampleCounters dc;
      levels.push_back(ts::downsample_coords(
          levels.back(), geo.down_kernel, 2, ts_cfg.fused_downsample,
          ts_cfg.simplified_control, &dc));
      totals.ds_candidates += dc.candidates;
      totals.ds_kept += dc.kept;
    }
    s.count("levels", geo.levels);
  });

  // --- hash + core.kernel_map: each level's maps, on both backends. ---
  std::vector<int> sub_kernels;
  for (const ts::LayerRecord& rec : records) {
    const int k = kernel_size_of(rec.map_sizes.size());
    if (rec.submanifold &&
        std::find(sub_kernels.begin(), sub_kernels.end(), k) ==
            sub_kernels.end())
      sub_kernels.push_back(k);
  }
  std::map<std::vector<std::size_t>, LadderMap> by_sizes;
  auto build_all = [&](ts::MapBackend backend, bool keep) {
    std::size_t queries = 0;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (int k : sub_kernels) {
        ts::MapSearchOptions opts;
        opts.backend = backend;
        opts.use_symmetry = ts_cfg.symmetric_map_search;
        ts::KernelMap km = ts::build_kernel_map(
            levels[l], levels[l], ts::ConvGeometry{k, 1, false, 1}, opts);
        queries += km.stats.queries;
        if (!keep) continue;
        totals.map_entries += km.total();
        auto sizes = km.sizes();
        by_sizes.emplace(std::move(sizes),
                         LadderMap{std::make_shared<const ts::KernelMap>(
                                       std::move(km)),
                                   levels[l].size(), levels[l].size()});
      }
      if (l + 1 == levels.size()) continue;
      ts::MapSearchOptions opts;
      opts.backend = backend;
      ts::KernelMap km = ts::build_kernel_map(
          levels[l], levels[l + 1],
          ts::ConvGeometry{geo.down_kernel, 2, false, 1}, opts);
      queries += km.stats.queries;
      if (!keep) continue;
      totals.map_entries += km.total();
      // The decoder's transposed conv runs on the transpose of this map.
      auto up = std::make_shared<const ts::KernelMap>(
          ts::transpose_kernel_map(km));
      by_sizes.emplace(up->sizes(),
                       LadderMap{up, levels[l + 1].size(), levels[l].size()});
      auto sizes = km.sizes();
      by_sizes.insert_or_assign(
          std::move(sizes),
          LadderMap{std::make_shared<const ts::KernelMap>(std::move(km)),
                    levels[l].size(), levels[l + 1].size()});
    }
    return queries;
  };
  timed([&] {
    Scope s("ladder.kernel_map.grid");
    const std::size_t q = build_all(ts::MapBackend::kGrid, true);
    totals.map_queries += q;
    s.count("queries", static_cast<double>(q));
  });
  {
    Scope s("ladder.kernel_map.hashmap");
    const std::size_t q = build_all(ts::MapBackend::kHashMap, false);
    totals.map_queries_hashmap += q;
    s.count("queries", static_cast<double>(q));
  }

  std::vector<std::pair<const ts::LayerRecord*, const LadderMap*>> layers;
  for (const ts::LayerRecord& rec : records) {
    auto it = by_sizes.find(rec.map_sizes);
    if (it != by_sizes.end()) layers.emplace_back(&rec, &it->second);
  }
  res.check(layers.size() == records.size(),
            "layer ladder: " + std::to_string(records.size() - layers.size()) +
                " of " + std::to_string(records.size()) +
                " recorded layers match no ladder map");
  totals.layers += records.size();

  // --- core.gather_scatter + gpusim.cache: data-movement costing. -----
  const ts::DeviceSpec dev = ts::rtx2080ti();
  auto replay = [&](const ts::EngineConfig& preset) {
    ts::ExecContext ctx = ts::make_run_context(dev, preset, run);
    for (const auto& [rec, lm] : layers)
      ts::charge_gather_scatter(*lm->km, moving_offsets(*rec, preset),
                                lm->n_in, lm->n_out, rec->c_in, rec->c_out,
                                ctx);
    return std::make_pair(
        ctx.l2.hits() + ctx.l2.read_misses() + ctx.l2.write_misses(),
        ctx.l2.hits());
  };
  timed([&] {
    Scope s("ladder.l2_replay.torchsparse");
    const auto [touches, hits] = replay(ts_cfg);
    totals.l2_touches += touches;
    totals.l2_hits += hits;
    s.count("line_touches", static_cast<double>(touches));
  });
  {
    Scope s("ladder.l2_replay.baseline");
    s.count("line_touches",
            static_cast<double>(replay(ts::baseline_config()).first));
  }

  // --- tensor numerics at the recorded widths and map sizes. ----------
  if (run.numerics) {
    timed([&] {
      Scope s("ladder.numerics");
      std::uint64_t seed = 1;
      for (const auto& [rec, lm] : layers) {
        const ts::Matrix x = filled(lm->n_in, rec->c_in, ++seed);
        const ts::Matrix w = filled(rec->c_in, rec->c_out, ++seed);
        ts::Matrix out(lm->n_out, rec->c_out);
        for (int n : moving_offsets(*rec, ts_cfg)) {
          const auto& map = lm->km->maps[static_cast<std::size_t>(n)];
          ts::Matrix f;
          {
            Scope g("numerics.gather");
            f = ts::gather_rows(x, map);
          }
          {
            Scope q("numerics.quantize");
            f.quantize(ts_cfg.precision);
          }
          ts::Matrix psum;
          {
            Scope m("numerics.mm");
            ts::mm(f, w, psum);
          }
          totals.numerics_flops += 2.0 * static_cast<double>(f.rows()) *
                                   static_cast<double>(rec->c_in) *
                                   static_cast<double>(rec->c_out);
          {
            Scope q("numerics.quantize");
            psum.quantize(ts_cfg.precision);
          }
          {
            Scope sc("numerics.scatter");
            ts::scatter_add_rows(psum, map, out);
          }
        }
        // The center offset of a submanifold layer multiplies the input
        // in place, without gather or scatter.
        if (rec->submanifold && ts_cfg.skip_center_movement) {
          Scope m("numerics.mm");
          ts::mm_accumulate(x, w, out);
          totals.numerics_flops += 2.0 * static_cast<double>(x.rows()) *
                                   static_cast<double>(rec->c_in) *
                                   static_cast<double>(rec->c_out);
        }
      }
    });
  }

  // --- core.matmul_group: planning over the recorded map sizes. -------
  timed([&] {
    Scope s("ladder.plan_groups");
    for (const ts::LayerRecord& rec : records) {
      auto it = run.tuned.find(rec.layer_id);
      const ts::GroupParams params =
          it != run.tuned.end() ? it->second : ts_cfg.group_params;
      const auto groups = ts::plan_groups(rec.map_sizes, rec.submanifold,
                                          ts_cfg.grouping, params);
      totals.groups += groups.size();
      totals.planned_flops +=
          ts::planned_flops(groups, rec.map_sizes, rec.c_in, rec.c_out);
      totals.theoretical_flops +=
          ts::theoretical_flops(rec.map_sizes, rec.c_in, rec.c_out);
    }
  });

  totals.mirrored_seconds += mirrored;
  totals.scans += 1;
}

ts::Timeline traced_run_model(const ts::ModelFn& model,
                              const ts::SparseTensor& input,
                              const ts::EngineConfig& engine,
                              const ts::RunOptions& opt,
                              std::vector<ts::LayerRecord>& records,
                              std::int64_t request, double* wall_seconds) {
  Scope s("run_model", request);
  const auto t0 = Clock::now();
  ts::ExecContext ctx = ts::make_run_context(ts::rtx2080ti(), engine, opt);
  records.clear();
  ctx.recorder = &records;
  ts::Timeline t = ts::run_in_context(model, input, ctx);
  if (wall_seconds) *wall_seconds = seconds_since(t0);
  s.count("layers", static_cast<double>(records.size()));
  return t;
}

double trace_overhead(const ts::ModelFn& model, const ts::SparseTensor& input,
                      const ts::EngineConfig& engine,
                      const ts::RunOptions& opt, int pairs) {
  std::vector<double> plain, traced;
  std::vector<ts::LayerRecord> records;
  for (int i = 0; i < pairs; ++i) {
    for (int side = 0; side < 2; ++side) {
      // Alternate which variant runs first so drift hits both alike.
      if ((side == 0) == (i % 2 == 0)) {
        const auto t0 = Clock::now();
        ts::run_model(model, input, ts::rtx2080ti(), engine, opt);
        plain.push_back(seconds_since(t0));
      } else {
        double wall = 0;
        traced_run_model(model, input, engine, opt, records, -1, &wall);
        traced.push_back(wall);
      }
    }
  }
  return median(traced) / median(plain);
}

}  // namespace pb
