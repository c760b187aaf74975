// engine-sweep: the paper's Fig. 11 comparison as a closed loop with one
// client. All five engines run on all seven paper workloads, cost-only
// (numerics off, L2 replay on, no kernel-map cache, default grouping
// parameters). Host time goes to cold map search on both hashmap
// backends and to the L2 replay; serving, the map cache and numerics are
// bypassed.
#include <cstdio>
#include <memory>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/minkunet.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kScale = 0.15;  // scan scale: azimuth columns x 0.15
constexpr int kSetupRepeats = 3;
constexpr int kTuneSamples = 2;  // extra scans per workload (never tuned)

/// How paper_workloads builds each workload's input, so the data ladder
/// can regenerate it stage by stage and check it matches.
struct InputRecipe {
  ts::LidarSpec lidar;
  ts::VoxelSpec voxels;
  bool detection = false;
  double width = 1.0;
  std::size_t classes = 16;
};

std::vector<InputRecipe> recipes() {
  auto seg = [](ts::LidarSpec l, int frames, double width,
                std::size_t classes) {
    ts::VoxelSpec v = ts::segmentation_voxels();
    if (frames > 1) v.feature_channels = 5;
    return InputRecipe{scaled_lidar(l, kScale), v, false, width, classes};
  };
  auto det = [](ts::LidarSpec l) {
    ts::VoxelSpec v = ts::detection_voxels();
    v.feature_channels = 5;
    return InputRecipe{scaled_lidar(l, kScale), v, true, 1.0, 0};
  };
  return {seg(ts::semantic_kitti_spec(), 1, 1.0, 19),
          seg(ts::semantic_kitti_spec(), 1, 0.5, 19),
          seg(ts::nuscenes_spec(3), 3, 1.0, 16),
          seg(ts::nuscenes_spec(1), 1, 1.0, 16),
          det(ts::nuscenes_spec(10)),
          det(ts::waymo_spec(3)),
          det(ts::waymo_spec(1))};
}

}  // namespace

void run_engine_sweep(const Args& args, Result& res) {
  const bool traced = args.trace;
  const std::uint64_t base = derive_seed(args.seed, 1);
  const ts::DeviceSpec dev = ts::rtx2080ti();
  const auto engines = ts::paper_engines();
  ts::RunOptions opt;
  opt.numerics = false;
  opt.simulate_cache = true;

  // --- Set-up, repeated; later builds must reproduce the first. -------
  std::vector<double> setup_s;
  std::vector<ts::Workload> ws, first;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Scope s("setup");
    const auto t0 = Clock::now();
    std::vector<ts::Workload> built = ts::paper_workloads(base, kScale, kTuneSamples);
    setup_s.push_back(seconds_since(t0));
    if (r == 0) {
      first = built;
    } else {
      bool same = built.size() == first.size();
      for (std::size_t i = 0; same && i < built.size(); ++i)
        same = same_tensor(built[i].input, first[i].input);
      res.check(same, "seed check: equal seeds built different inputs");
    }
    ws = std::move(built);
  }
  first.clear();
  const auto recipe = recipes();
  check_seed_moves_input(
      ws[0].input,
      ts::make_input(recipe[0].lidar, recipe[0].voxels,
                     derive_seed(args.seed + 1, 1) + 1),
      res);

  // Each workload contributes its evaluation scan and its tune samples:
  // the detection scans vary by up to 2x in size from seed to seed, so a
  // single scan per workload would let one scene set the sweep's time.
  struct Scan {
    std::size_t workload;
    const ts::SparseTensor* x;
    std::uint64_t seed;  // make_input seed, for the data ladder
  };
  std::vector<Scan> scans;
  for (std::size_t w = 0; w < ws.size(); ++w) {
    scans.push_back({w, &ws[w].input, base + w + 1});
    for (std::size_t i = 0; i < ws[w].tune_samples.size(); ++i)
      scans.push_back({w, &ws[w].tune_samples[i], base + w + 1 + 1000 + i});
  }

  // --- Timed phase: whole sweeps until the budget is spent. -----------
  const std::size_t cells = scans.size() * engines.size();
  std::vector<ts::Timeline> sweep0(cells);
  std::vector<double> walls;
  LadderTotals ladder;
  double laddered_run_s = 0;
  std::vector<ts::LayerRecord> records;
  auto run_cell = [&](std::size_t cell, double* wall) {
    const Scan& sc = scans[cell / engines.size()];
    const ts::Workload& w = ws[sc.workload];
    const ts::EngineConfig& engine = engines[cell % engines.size()];
    if (traced)
      return traced_run_model(w.model, *sc.x, engine, opt, records,
                              static_cast<std::int64_t>(cell), wall);
    const auto r0 = Clock::now();
    ts::Timeline t = ts::run_model(w.model, *sc.x, dev, engine, opt);
    *wall = seconds_since(r0);
    return t;
  };
  auto check_cell = [&](std::size_t cell, const ts::Timeline& t, bool repeat) {
    const Scan& sc = scans[cell / engines.size()];
    std::string bad;
    if (!timeline_consistent(t)) bad = "stage seconds do not sum to total";
    if (repeat && !same_timeline(t, sweep0[cell]))
      bad = "repeated run changed the modeled timeline";
    if (!bad.empty())
      res.fail(ws[sc.workload].name + " / " +
               engines[cell % engines.size()].name + ": " + bad);
  };
  int sweeps = 0;
  const auto t0 = Clock::now();
  double ladder_s = 0;  // traced mode only; excluded from throughput
  while (sweeps == 0 || seconds_since(t0) - ladder_s < args.seconds) {
    for (std::size_t cell = 0; cell < cells; ++cell) {
      res.attempt();
      double wall = 0;
      const ts::Timeline t = run_cell(cell, &wall);
      walls.push_back(wall);
      check_cell(cell, t, sweeps > 0);
      if (sweeps == 0) sweep0[cell] = t;
      const Scan& sc = scans[cell / engines.size()];
      if (traced && sweeps == 0 && sc.x == &ws[sc.workload].input &&
          static_cast<int>(cell % engines.size()) == kTorchSparse) {
        const auto l0 = Clock::now();
        run_ladder(*sc.x, records, opt, static_cast<std::int64_t>(cell),
                   ladder, res);
        laddered_run_s += wall;
        ladder_s += seconds_since(l0);
      }
    }
    ++sweeps;
  }
  const double elapsed = seconds_since(t0) - ladder_s;
  if (sweeps == 1) {
    // Repeatability outside the timed phase: each workload's evaluation
    // scan once more, on engines in rotation so all five are covered.
    std::size_t first_cell = 0;
    for (std::size_t w = 0; w < ws.size(); ++w) {
      const std::size_t cell = first_cell + w % engines.size();
      res.attempt();
      double wall = 0;
      check_cell(cell, run_cell(cell, &wall), true);
      first_cell += (1 + ws[w].tune_samples.size()) * engines.size();
    }
  }

  // --- Metrics. --------------------------------------------------------
  std::vector<double> ts_ms, ts_workload_ms;
  std::vector<ts::Timeline> per_engine[5];
  std::vector<std::size_t> group;
  std::printf("engine-sweep: %zu workloads x %zu scans x %zu engines, scale "
              "%.2f, %d sweeps, %zu runs in %.2f s (closed loop, one "
              "client)\n",
              ws.size(), scans.size() / ws.size(), engines.size(), kScale,
              sweeps, walls.size(), elapsed);
  std::printf("  %-22s %8s", "mean modeled ms", "voxels");
  for (const auto& e : engines) std::printf(" %16s", e.name.c_str());
  std::printf("\n");
  for (std::size_t w = 0; w < ws.size(); ++w) {
    double voxels = 0, n = 0;
    double ms[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (scans[i].workload != w) continue;
      voxels += static_cast<double>(scans[i].x->num_points());
      n += 1;
      group.push_back(w);
      for (std::size_t e = 0; e < engines.size(); ++e) {
        const ts::Timeline& t = sweep0[i * engines.size() + e];
        per_engine[e].push_back(t);
        ms[e] += t.total_seconds() * 1e3;
        if (static_cast<int>(e) == kTorchSparse)
          ts_ms.push_back(t.total_seconds() * 1e3);
      }
    }
    std::printf("  %-22s %8.0f", ws[w].name.c_str(), voxels / n);
    for (std::size_t e = 0; e < engines.size(); ++e)
      std::printf(" %16.4f", ms[e] / n);
    std::printf("\n");
    ts_workload_ms.push_back(ms[kTorchSparse] / n);
  }

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  e2e.wall_req_per_s = static_cast<double>(walls.size()) / elapsed;
  // The runs mix 35 (workload, engine) cells whose host times differ by
  // up to 20x; their median jumps from cell to cell as the seed resizes
  // the scenes, so the central run latency here is the geometric mean.
  e2e.wall_scan_ms_p50 = geomean(walls) * 1e3;
  e2e.wall_scan_samples = walls.size();
  e2e.modeled_scan_ms = geomean(ts_workload_ms);
  e2e.speedup_vs_minkowski =
      speedup(per_engine[kMinkowski], per_engine[kTorchSparse], group);
  e2e.speedup_vs_spconv =
      speedup(per_engine[kSpconvFp16], per_engine[kTorchSparse], group);
  closed_loop_serving(ts_ms, e2e);
  std::printf("  TorchSparse geomean speedup: %.3fx vs MinkowskiEngine "
              "(paper 1.6x), %.3fx vs SpConv FP16 (paper 1.5x)\n",
              e2e.speedup_vs_minkowski, e2e.speedup_vs_spconv);

  if (!traced) {
    emit_end_to_end(e2e, res);
    return;
  }

  LayerReport rep;
  std::vector<DataScan> data;
  for (const Scan& sc : scans)
    data.push_back({recipe[sc.workload].lidar, recipe[sc.workload].voxels,
                    sc.seed, sc.x});
  data_ladder(data, rep, res);
  {
    const auto b0 = Clock::now();
    for (std::size_t w = 0; w < recipe.size(); ++w) {
      Scope s("engines.model_build");
      if (recipe[w].detection)
        ts::spnn::CenterPoint(5, base + w + 1);
      else
        ts::spnn::MinkUNet(recipe[w].width,
                           static_cast<std::size_t>(
                               std::max(recipe[w].voxels.feature_channels, 4)),
                           recipe[w].classes, base + w + 1);
    }
    rep.set("engines.model_build_ms",
            seconds_since(b0) * 1e3 / static_cast<double>(recipe.size()));
  }
  rep.set("engines.run_model_ms", mean(walls) * 1e3);
  rep.set("trace.overhead",
          trace_overhead(ws[0].model, ws[0].input, engines[kTorchSparse], opt,
                         3));
  rep.add_ladder(ladder, laddered_run_s);
  for (int e = 0; e < 5; ++e) rep.add_modeled(e, per_engine[e]);
  rep.set("fail_share", res.fail_share());
  rep.bypass("tune");
  rep.bypass("tensor-numerics");
  rep.bypass("core.kernel_map_cache");
  rep.bypass("serve");
  rep.emit(res);
}

}  // namespace pb
