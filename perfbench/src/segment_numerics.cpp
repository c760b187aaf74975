// segment-numerics: TorchSparse SK-MinkUNet (0.5x width) with numerics on,
// a closed loop with one client cycling over a fixed set of distinct
// seeded scans. The only workload where tensor GEMM, FP16 quantize and
// gather/scatter numerics dominate host time; its cost-only part is a
// small share of a scan. Every FP16 output is checked against an FP32
// reference of the same scan, computed outside set-up and the timed
// phase.
#include <cmath>
#include <cstdio>
#include <memory>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "gpusim/device.hpp"
#include "nn/minkunet.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kScale = 0.25;  // scan scale: azimuth columns x 0.25
constexpr int kScans = 4;        // distinct scans the client cycles over
constexpr int kSetupRepeats = 3;
constexpr double kWidth = 0.5;
constexpr std::size_t kClasses = 19;

/// A network whose ModelFn also keeps the last output features, so the
/// benchmark can check numerics while still calling run_model.
struct CapturingModel {
  std::shared_ptr<ts::spnn::MinkUNet> net;
  std::shared_ptr<ts::Matrix> out = std::make_shared<ts::Matrix>();
  ts::ModelFn fn() const {
    return [net = net, out = out](const ts::SparseTensor& x,
                                  ts::ExecContext& ctx) {
      *out = net->forward(x, ctx).feats();
    };
  }
};

}  // namespace

void run_segment_numerics(const Args& args, Result& res) {
  const bool traced = args.trace;
  const ts::DeviceSpec dev = ts::rtx2080ti();
  const ts::LidarSpec lidar = scaled_lidar(ts::semantic_kitti_spec(), kScale);
  const ts::VoxelSpec vox = ts::segmentation_voxels();
  auto scan_seed = [&](std::uint64_t run_seed, int i) {
    return derive_seed(run_seed, 10 + static_cast<std::uint64_t>(i));
  };

  // --- Set-up, repeated; later builds must reproduce the first. -------
  std::vector<double> setup_s, build_ms;
  CapturingModel model;
  std::vector<ts::SparseTensor> inputs, first;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Scope s("setup");
    const auto t0 = Clock::now();
    CapturingModel m;
    m.net = std::make_shared<ts::spnn::MinkUNet>(
        kWidth, static_cast<std::size_t>(vox.feature_channels), kClasses,
        derive_seed(args.seed, 2));
    build_ms.push_back(seconds_since(t0) * 1e3);
    std::vector<ts::SparseTensor> built;
    for (int i = 0; i < kScans; ++i)
      built.push_back(ts::make_input(lidar, vox, scan_seed(args.seed, i)));
    setup_s.push_back(seconds_since(t0));
    if (r == 0) {
      first = built;
    } else {
      bool same = true;
      for (int i = 0; i < kScans; ++i)
        same = same && same_tensor(built[static_cast<std::size_t>(i)],
                                   first[static_cast<std::size_t>(i)]);
      res.check(same, "seed check: equal seeds built different inputs");
    }
    model = std::move(m);
    inputs = std::move(built);
  }
  first.clear();
  check_seed_moves_input(
      inputs[0], ts::make_input(lidar, vox, scan_seed(args.seed + 1, 0)), res);
  const ts::ModelFn fn = model.fn();

  // --- FP32 references (outside set-up and the timed phase). ----------
  ts::EngineConfig fp32 = ts::torchsparse_config();
  fp32.precision = ts::Precision::kFP32;
  ts::RunOptions opt;
  opt.numerics = true;
  std::vector<ts::Matrix> ref;
  std::vector<float> ref_scale;
  for (const ts::SparseTensor& x : inputs) {
    ts::run_model(fn, x, dev, fp32, opt);
    float s = 0;
    for (std::size_t i = 0; i < model.out->size(); ++i)
      s = std::max(s, std::fabs(model.out->data()[i]));
    ref.push_back(*model.out);
    ref_scale.push_back(s);
  }

  // --- Timed phase. ----------------------------------------------------
  const ts::EngineConfig tsc = ts::torchsparse_config();
  std::vector<ts::Matrix> out0(kScans);
  std::vector<ts::Timeline> t0s(kScans);
  std::vector<double> walls;
  LadderTotals ladder;
  double laddered_run_s = 0, ladder_s = 0;
  std::vector<ts::LayerRecord> records;
  const auto t0 = Clock::now();
  for (std::size_t k = 0;
       k <= kScans || seconds_since(t0) - ladder_s < args.seconds; ++k) {
    const std::size_t i = k % kScans;
    res.attempt();
    double wall = 0;
    ts::Timeline t;
    if (traced) {
      t = traced_run_model(fn, inputs[i], tsc, opt, records,
                           static_cast<std::int64_t>(k), &wall);
    } else {
      const auto r0 = Clock::now();
      t = ts::run_model(fn, inputs[i], dev, tsc, opt);
      wall = seconds_since(r0);
    }
    walls.push_back(wall);
    std::string bad;
    const ts::Matrix& y = *model.out;
    if (!timeline_consistent(t)) bad = "stage seconds do not sum to total";
    if (y.rows() != ref[i].rows() || y.cols() != ref[i].cols())
      bad = "output shape differs from the FP32 reference";
    else if (!(ts::max_abs_diff(y, ref[i]) < 0.05f * ref_scale[i] + 0.05f))
      bad = "FP16 output off the FP32 reference by " +
            std::to_string(ts::max_abs_diff(y, ref[i]));
    if (k < kScans) {
      out0[i] = y;
      t0s[i] = t;
    } else if (!(y == out0[i]) || !same_timeline(t, t0s[i])) {
      bad = "repeated scan changed its output or modeled timeline";
    }
    if (!bad.empty()) res.fail("scan " + std::to_string(i) + ": " + bad);
    if (traced && k < kScans) {
      const auto l0 = Clock::now();
      run_ladder(inputs[i], records, opt, static_cast<std::int64_t>(k), ladder,
                 res);
      laddered_run_s += wall;
      ladder_s += seconds_since(l0);
    }
  }
  const double elapsed = seconds_since(t0) - ladder_s;

  // --- Comparison engines (cost-only, outside the timed phase). -------
  const auto engines = ts::paper_engines();
  std::vector<const ts::ModelFn*> fns(kScans, &fn);
  std::vector<const ts::SparseTensor*> xs;
  for (const ts::SparseTensor& x : inputs) xs.push_back(&x);
  ts::RunOptions cost_only = opt;
  cost_only.numerics = false;
  std::vector<ts::Timeline> per_engine[5];
  for (int e = 0; e < 5; ++e) {
    if (e == kTorchSparse)
      per_engine[e] = t0s;
    else if (traced || e == kMinkowski || e == kSpconvFp16)
      per_engine[e] = modeled_runs(fns, xs, engines[e], cost_only);
  }

  std::vector<double> ts_ms;
  for (const ts::Timeline& t : t0s) ts_ms.push_back(t.total_seconds() * 1e3);
  std::printf("segment-numerics: SK-MinkUNet (%.1fx) numerics on, scale "
              "%.2f, %zu runs in %.2f s (closed loop, one client)\n",
              kWidth, kScale, walls.size(), elapsed);
  for (int i = 0; i < kScans; ++i)
    std::printf("  scan %d: %zu voxels, modeled %.4f ms\n", i,
                inputs[static_cast<std::size_t>(i)].num_points(),
                ts_ms[static_cast<std::size_t>(i)]);

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  e2e.wall_req_per_s = static_cast<double>(walls.size()) / elapsed;
  e2e.wall_scan_ms_p50 = median(walls) * 1e3;
  e2e.wall_scan_samples = walls.size();
  e2e.modeled_scan_ms = mean(ts_ms);
  const std::vector<std::size_t> one_group(kScans, 0);
  e2e.speedup_vs_minkowski =
      speedup(per_engine[kMinkowski], per_engine[kTorchSparse], one_group);
  e2e.speedup_vs_spconv =
      speedup(per_engine[kSpconvFp16], per_engine[kTorchSparse], one_group);
  closed_loop_serving(ts_ms, e2e);

  if (!traced) {
    emit_end_to_end(e2e, res);
    return;
  }

  LayerReport rep;
  std::vector<DataScan> scans;
  for (int i = 0; i < kScans; ++i)
    scans.push_back({lidar, vox, scan_seed(args.seed, i),
                     &inputs[static_cast<std::size_t>(i)]});
  data_ladder(scans, rep, res);
  rep.set("engines.model_build_ms", median(build_ms));
  rep.set("engines.run_model_ms", mean(walls) * 1e3);
  rep.set("trace.overhead", trace_overhead(fn, inputs[0], tsc, opt, 2));
  rep.add_ladder(ladder, laddered_run_s);
  for (int e = 0; e < 5; ++e) rep.add_modeled(e, per_engine[e]);
  rep.set("fail_share", res.fail_share());
  rep.bypass("tune");
  rep.bypass("core.kernel_map_cache");
  rep.bypass("serve");
  rep.emit(res);
}

}  // namespace pb
