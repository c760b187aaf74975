// drive-stream: an open loop on the modeled clock. One serve::Server hosts
// two registry models on a fleet of two modeled RTX 2080 Ti shards:
//   SK-MinkUNet (0.5x), fed by a coherent SequenceTrace whose frames are
//     each revisited twice back to back, so repeats hit the kernel-map
//     cache;
//   WM-CenterPoint (1f), fed by distinct scans, so it only misses and
//     inserts into the same cache.
// Poisson arrivals from build_traffic_mix drive each rate of a fixed
// ladder, every rate its own serving session. The only workload that
// exercises batching, routing, queueing and kernel-map cache hits; the L2
// replay is off (analytic data-movement costing) and numerics are off.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/minkunet.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace serve = ts::serve;

constexpr double kScale = 0.15;  // scan scale: azimuth columns x 0.15
constexpr int kSetupRepeats = 3;
/// Alg. 5 samples per model; with one sample the tuned grouping swings
/// the detector's modeled service by ~20% from seed to seed.
constexpr int kTuneSamples = 4;
constexpr int kDevices = 2;
constexpr int kWorkers = 4;  // lanes per device; the host pool is capped at
                              // hardware_concurrency
constexpr std::size_t kCacheBytes = std::size_t(32) << 20;
constexpr double kBatchOverheadSeconds = 0.0005;
constexpr int kSequences = 12;
constexpr int kFramesPerSequence = 10;
constexpr int kRevisits = 2;
constexpr std::size_t kPerModel =
    static_cast<std::size_t>(kSequences * kFramesPerSequence * kRevisits);
/// Offered rates in Hz (both models together). Fixed once from the
/// modeled capacity measured at the commit that defined this benchmark:
/// about 3000 requests/s for this fleet under overload. Never re-derived,
/// so a change that moves capacity moves the metrics, not the ladder.
constexpr double kRates[] = {1500, 2100, 2400, 2700, 3000, 3300};
constexpr std::size_t kRungs = std::size(kRates);
constexpr std::size_t kLow = 0;   // 1500 Hz, about 50% of capacity
constexpr std::size_t kHigh = 3;  // 2700 Hz, about 90% of capacity
/// Distinct scenes per model behind the speedups (at most kSequences).
constexpr std::size_t kCompareFrames = 8;
constexpr double kLatencyLimitSeconds = 0.100;  // one 10 Hz LiDAR period
constexpr double kMinServedShare = 0.95;

ts::VoxelSpec detector_voxels() {
  ts::VoxelSpec v = ts::detection_voxels();
  v.feature_channels = 5;  // CenterPoint's input width
  return v;
}

struct Setup {
  ts::Workload seg, det;
  std::unordered_map<int, ts::GroupParams> tuned[2];
  std::vector<ts::SparseTensor> frames[2];
  std::unique_ptr<serve::Server> server;
  double tune_ms = 0;
};

serve::ServerConfig server_config(const Setup& s, std::size_t queue_depth) {
  ts::RunOptions run;
  run.numerics = false;
  run.simulate_cache = false;
  run.borrow_input = true;  // the queue owns each submitted copy
  serve::ServerConfig cfg;
  cfg.with_device(ts::rtx2080ti())
      .with_engine(ts::torchsparse_config())
      .with_workers(kWorkers)
      .with_devices(kDevices)
      .with_route(serve::RoutePolicy::kCacheAffinity)
      .with_run(run)
      .with_map_cache_bytes(kCacheBytes)
      .with_batch_overhead(kBatchOverheadSeconds)
      .with_queue_depth(queue_depth)
      .with_model("seg", s.seg.model)
      .with_model("det", s.det.model)
      .with_model_tuned(0, s.tuned[0])
      .with_model_tuned(1, s.tuned[1]);
  return cfg;
}

Setup build(std::uint64_t run_seed) {
  Setup s;
  s.seg = ts::make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                     0.5, 1, derive_seed(run_seed, 3), kScale,
                                     kTuneSamples);
  s.det = ts::make_centerpoint_workload("WM-CenterPoint (1f)", "Waymo", 1,
                                        derive_seed(run_seed, 4), kScale,
                                        kTuneSamples);
  const auto t0 = Clock::now();
  {
    Scope t("tune_for");
    s.tuned[0] = ts::tune_for(s.seg.model, s.seg.tune_samples,
                              ts::rtx2080ti(), ts::torchsparse_config());
    s.tuned[1] = ts::tune_for(s.det.model, s.det.tune_samples,
                              ts::rtx2080ti(), ts::torchsparse_config());
  }
  s.tune_ms = seconds_since(t0) * 1e3 / 2;
  serve::SequenceTraceSpec trace;
  trace.lidar = scaled_lidar(ts::semantic_kitti_spec(), kScale);
  trace.voxels = ts::segmentation_voxels();
  trace.sequences = kSequences;
  trace.frames_per_sequence = kFramesPerSequence;
  trace.revisits = kRevisits;
  for (std::size_t k = 0; k < kPerModel; ++k)
    s.frames[0].push_back(
        serve::trace_frame(trace, k, derive_seed(run_seed, 5)).input);
  const ts::LidarSpec wl = scaled_lidar(ts::waymo_spec(1), kScale);
  const ts::VoxelSpec dv = detector_voxels();
  for (std::size_t k = 0; k < kPerModel; ++k)
    s.frames[1].push_back(ts::make_input(wl, dv, derive_seed(run_seed, 100 + k)));
  s.server = std::make_unique<serve::Server>(server_config(s, 2 * kPerModel + 1));
  return s;
}

struct Session {
  double rate = 0;
  serve::StreamReport report;
  double submit_s = 0;
  double drain_s = 0;
  double wall_s = 0;  // start() to the end of drain()
};

Session serve_session(serve::Server& server, std::size_t rung,
                      const std::vector<serve::TimedSubmission>& mix,
                      const Setup& s, Result& res) {
  Scope span("serve.session", static_cast<std::int64_t>(rung));
  Session ses;
  ses.rate = kRates[rung];
  std::vector<serve::StreamHandle> handles;
  std::size_t submitted[2] = {0, 0};
  const auto start = Clock::now();
  server.start();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const serve::TimedSubmission& sub = mix[i];
    res.attempt();
    ++submitted[sub.model];
    const auto t0 = Clock::now();
    std::optional<serve::StreamHandle> h;
    {
      Scope sp("serve.submit", static_cast<std::int64_t>(i));
      h = server.try_submit_to(
          sub.model,
          s.frames[static_cast<std::size_t>(sub.model)][sub.stream_pos],
          sub.arrival_seconds);
    }
    ses.submit_s += seconds_since(t0);
    if (h)
      handles.push_back(*h);
    else
      res.fail("request rejected at admission");
  }
  {
    Scope sp("serve.drain");
    const auto t0 = Clock::now();
    ses.report = server.drain();
    ses.drain_s = seconds_since(t0);
  }
  ses.wall_s = seconds_since(start);
  for (const serve::StreamHandle& h : handles) {
    if (!h.ready()) {
      res.fail("a handle did not resolve by drain");
      continue;
    }
    const serve::StreamResult& got = h.get();
    if (!got.ok() || got.id != h.id())
      res.fail("served request " + std::to_string(h.id()) + " failed: " +
               got.error_detail);
  }
  const serve::StreamStats& st = ses.report.stats;
  res.check(st.completed + st.failed + st.rejected ==
                submitted[0] + submitted[1],
            "submitted != completed + failed + rejected");
  for (std::size_t m = 0; m < 2; ++m) {
    const bool ok = st.per_model.size() == 2 &&
                    st.per_model[m].completed + st.per_model[m].failed +
                            st.per_model[m].rejected ==
                        submitted[m];
    res.check(ok, "per-model accounting off for model " + std::to_string(m));
  }
  return ses;
}

std::vector<double> e2e_of(const serve::StreamReport& rep, int model) {
  std::vector<double> xs;
  for (const serve::StreamResult& r : rep.requests)
    if (r.ok() && (model < 0 || r.model == model))
      xs.push_back(r.e2e_seconds * 1e3);
  return xs;
}

std::vector<double> waits(const Session& ses) {
  std::vector<double> w;
  for (const serve::StreamResult& r : ses.report.requests)
    if (r.ok()) w.push_back(r.queue_wait_seconds * 1e3);
  return w;
}

/// Offered and served rates of a session over the same inner span: the
/// 5% to 95% order statistics of the arrival stamps and of the finish
/// stamps. A steady queue shifts finishes by a roughly constant latency
/// and serves at the offered rate; a growing backlog stretches the
/// finishes. Inner order statistics keep the first and last few requests'
/// latency jitter out of a short session's figures, so the offered rate
/// is the one the inner span realized, a little off the nominal rate.
struct Flow {
  double offered_hz = 0;
  double served_hz = 0;
  double share() const { return offered_hz > 0 ? served_hz / offered_hz : 0; }
};

Flow flow_of(const serve::StreamReport& rep) {
  std::vector<double> a, f;
  for (const serve::StreamResult& r : rep.requests) {
    if (!r.ok()) continue;
    a.push_back(r.arrival_seconds);
    f.push_back(r.finish_seconds);
  }
  if (a.size() < 20) return {};
  std::sort(a.begin(), a.end());
  std::sort(f.begin(), f.end());
  const std::size_t k = a.size() / 20, hi = a.size() - 1 - k;
  const double n = static_cast<double>(hi - k);
  Flow fl;
  if (a[hi] > a[k]) fl.offered_hz = n / (a[hi] - a[k]);
  if (f[hi] > f[k]) fl.served_hz = n / (f[hi] - f[k]);
  return fl;
}

/// How far a session stays inside the capacity conditions, as a share:
/// the smaller of its e2e p95 margin to the latency limit and its served
/// share's margin to the floor. Negative once either is broken.
double capacity_slack(double p95_ms, double share) {
  return std::min(1.0 - p95_ms / (kLatencyLimitSeconds * 1e3),
                  share / kMinServedShare - 1.0);
}

/// The realized offered rate at which capacity_slack crosses 0,
/// interpolated linearly between the last rung that meets every condition
/// and the first that does not, so the metric moves with the data rather
/// than in ladder steps. A rung lost to a failed or rejected request, with
/// slack to spare, caps the rate at the rung below it.
double max_rate_hz(const std::vector<double>& offered,
                   const std::vector<double>& slack,
                   const std::vector<bool>& clean) {
  for (std::size_t i = 0; i < slack.size(); ++i) {
    if (slack[i] >= 0 && clean[i]) continue;
    if (i == 0) return 0.0;
    if (slack[i] >= 0) return offered[i - 1];
    return offered[i - 1] + (offered[i] - offered[i - 1]) * slack[i - 1] /
                                (slack[i - 1] - slack[i]);
  }
  return offered.back();
}

double mean_utilization(const serve::StreamStats& st) {
  double util = 0;
  for (const serve::DeviceShardStats& d : st.per_device) util += d.utilization;
  return st.per_device.empty()
             ? 0.0
             : util / static_cast<double>(st.per_device.size());
}

const serve::StreamResult* first_of(const serve::StreamReport& rep,
                                    int model) {
  for (const serve::StreamResult& r : rep.requests)
    if (r.model == model) return &r;
  return nullptr;
}

}  // namespace

void run_drive_stream(const Args& args, Result& res) {
  const bool traced = args.trace;

  // --- Set-up, repeated; later builds must reproduce the first. -------
  std::vector<double> setup_s;
  Setup s;
  std::vector<ts::SparseTensor> first[2];
  for (int r = 0; r < kSetupRepeats; ++r) {
    Scope span("setup");
    const auto t0 = Clock::now();
    Setup built = build(args.seed);
    setup_s.push_back(seconds_since(t0));
    if (r == 0) {
      first[0] = built.frames[0];
      first[1] = built.frames[1];
    } else {
      bool same = true;
      for (int m = 0; m < 2; ++m)
        for (std::size_t k = 0; k < kPerModel; ++k)
          same = same && same_tensor(built.frames[m][k], first[m][k]);
      res.check(same, "seed check: equal seeds built different inputs");
    }
    s = std::move(built);
  }
  first[0].clear();
  first[1].clear();
  check_seed_moves_input(
      s.frames[1][0],
      ts::make_input(scaled_lidar(ts::waymo_spec(1), kScale),
                     detector_voxels(), derive_seed(args.seed + 1, 100)),
      res);

  ts::MapCacheStats first_cache;
  std::vector<std::vector<serve::TimedSubmission>> mixes;
  for (double rate : kRates) {
    std::vector<serve::ModelTraffic> streams(2);
    for (int m = 0; m < 2; ++m) {
      streams[static_cast<std::size_t>(m)].model = m;
      streams[static_cast<std::size_t>(m)].arrivals.rate_hz = rate / 2;
      streams[static_cast<std::size_t>(m)].count = kPerModel;
    }
    // Poisson streams realize their nominal rate only to a few percent,
    // and near capacity a few percent moves queueing a lot from seed to
    // seed. Stretching the stamps so the mix spans exactly count / rate
    // keeps the arrival pattern and fixes the offered rate.
    auto mix = serve::build_traffic_mix(streams, derive_seed(args.seed, 6));
    const double stretch = static_cast<double>(mix.size()) / rate /
                           mix.back().arrival_seconds;
    for (serve::TimedSubmission& sub : mix) sub.arrival_seconds *= stretch;
    mixes.push_back(std::move(mix));
  }

  // --- Timed phase: sessions cycle over the ladder until every rate has
  // run once and the budget is spent. Each session gets a fresh server
  // (the first uses set-up's), so every session starts with a cold
  // wall-clock map cache and costs the host the same work. -------------
  std::vector<Session> ladder;
  // A repeated rate must reproduce its first session's schedule.
  auto check_repeat = [&ladder, &res](std::size_t rung, const Session& ses) {
    const auto& a = ladder[rung].report.requests;
    const auto& b = ses.report.requests;
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
      same = same_timeline(a[i].timeline, b[i].timeline) &&
             a[i].finish_seconds == b[i].finish_seconds &&
             a[i].e2e_seconds == b[i].e2e_seconds;
    res.check(same, "a repeated session changed the modeled schedule at " +
                        std::to_string(kRates[rung]) + " Hz");
  };
  const auto t0 = Clock::now();
  std::size_t served = 0;
  std::vector<double> ms_per_request;
  bool high_repeated = false;
  for (std::size_t k = 0; k < kRungs || seconds_since(t0) < args.seconds;
       ++k) {
    const std::size_t rung = k % kRungs;
    std::unique_ptr<serve::Server> fresh;
    if (k > 0)
      fresh = std::make_unique<serve::Server>(
          server_config(s, 2 * kPerModel + 1));
    Session ses = serve_session(k > 0 ? *fresh : *s.server, rung,
                                mixes[rung], s, res);
    served += ses.report.stats.completed;
    ms_per_request.push_back(
        ses.wall_s * 1e3 /
        static_cast<double>(std::max<std::size_t>(ses.report.stats.completed, 1)));
    if (k < kRungs) {
      if (k == 0) first_cache = s.server->map_cache()->stats();
      ladder.push_back(std::move(ses));
      continue;
    }
    check_repeat(rung, ses);
    high_repeated = high_repeated || rung == kHigh;
  }
  const double elapsed = seconds_since(t0);
  // Outside the timed phase: when the budget ran out before the high rate
  // came round again, serve it once more so the repeat check always runs.
  if (!high_repeated) {
    serve::Server fresh(server_config(s, 2 * kPerModel + 1));
    check_repeat(kHigh, serve_session(fresh, kHigh, mixes[kHigh], s, res));
  }

  // --- Serial references (outside the timed phase). -------------------
  // The first request of each model misses every cache, so its served
  // timeline must bit-equal a serial run_model of the same input.
  ts::RunOptions ref_opt;
  ref_opt.numerics = false;
  ref_opt.simulate_cache = false;
  const ts::ModelFn* fns[2] = {&s.seg.model, &s.det.model};
  const ts::EngineConfig tsc = ts::torchsparse_config();
  LadderTotals ladder_totals;
  double laddered_run_s = 0;
  for (int m = 0; m < 2; ++m) {
    ts::RunOptions opt = ref_opt;
    opt.tuned = s.tuned[m];
    std::vector<ts::LayerRecord> records;
    double wall = 0;
    const ts::SparseTensor& x = s.frames[m][0];
    ts::Timeline t;
    if (traced) {
      t = traced_run_model(*fns[m], x, tsc, opt, records, m, &wall);
      run_ladder(x, records, opt, m, ladder_totals, res);
      laddered_run_s += wall;
    } else {
      t = ts::run_model(*fns[m], x, ts::rtx2080ti(), tsc, opt);
    }
    for (const Session& ses : ladder) {
      const serve::StreamResult* got = first_of(ses.report, m);
      res.check(got && same_timeline(got->timeline, t),
                "served timeline differs from serial run_model (model " +
                    std::to_string(m) + ", " + std::to_string(ses.rate) +
                    " Hz)");
    }
  }
  // Engine comparison over distinct scenes of both models: the first
  // frame of each of the first drive sequences, and detector scans.
  std::vector<const ts::ModelFn*> cmp_fns;
  std::vector<const ts::SparseTensor*> cmp_inputs;
  for (std::size_t k = 0; k < kCompareFrames; ++k) {
    cmp_fns.push_back(fns[0]);
    cmp_inputs.push_back(&s.frames[0][k * kFramesPerSequence * kRevisits]);
    cmp_fns.push_back(fns[1]);
    cmp_inputs.push_back(&s.frames[1][k]);
  }
  std::vector<ts::Timeline> per_engine[5];
  for (std::size_t i = 0; i < cmp_inputs.size(); ++i) {
    ts::RunOptions opt = ref_opt;
    opt.tuned = s.tuned[i % 2];
    per_engine[kTorchSparse].push_back(ts::run_model(
        *cmp_fns[i], *cmp_inputs[i], ts::rtx2080ti(), tsc, opt));
  }
  const auto engines = ts::paper_engines();
  for (int e = 0; e < kTorchSparse; ++e)
    if (traced || e == kMinkowski || e == kSpconvFp16)
      per_engine[e] = modeled_runs(cmp_fns, cmp_inputs, engines[e], ref_opt);

  // --- Metrics. --------------------------------------------------------
  std::printf("drive-stream: 2 models x %zu requests per rate, %d devices x "
              "%d lanes, scale %.2f, %zu served in %.2f s\n"
              "  open loop on the modeled clock: arrival stamps are modeled, "
              "so generator lateness is 0 by construction\n",
              kPerModel, kDevices, kWorkers, kScale, served, elapsed);
  std::printf("  %8s %8s %6s %9s %9s %9s %9s %7s %6s %7s %5s\n", "rate Hz",
              "offered", "done", "e2e p50", "e2e p95", "wait p95", "served",
              "batch", "util", "slack", "meets");
  for (int m = 0; m < 2; ++m) {
    double svc = 0, voxels = 0;
    std::size_t n = 0;
    for (const serve::StreamResult& r : ladder[kLow].report.requests)
      if (r.ok() && r.model == m) {
        svc += r.service_seconds;
        ++n;
      }
    for (const ts::SparseTensor& x : s.frames[m])
      voxels += static_cast<double>(x.num_points());
    std::printf("  %s: mean modeled service %.4f ms, mean %.0f voxels\n",
                m == 0 ? s.seg.name.c_str() : s.det.name.c_str(),
                n ? svc * 1e3 / static_cast<double>(n) : 0.0,
                voxels / static_cast<double>(s.frames[m].size()));
  }
  double service_sum = 0;
  std::size_t service_n = 0, hits = 0, lookups = 0, evictions = 0;
  std::vector<double> offered, slack;
  std::vector<bool> clean;
  for (const Session& ses : ladder) {
    const serve::StreamStats& st = ses.report.stats;
    const auto e2e = e2e_of(ses.report, -1);
    const double p95 = percentile(e2e, 0.95);
    const Flow fl = flow_of(ses.report);
    const double util = mean_utilization(st);
    offered.push_back(fl.offered_hz);
    slack.push_back(capacity_slack(p95, fl.share()));
    clean.push_back(st.failed == 0 && st.rejected == 0);
    const bool meets = slack.back() >= 0 && clean.back();
    for (const serve::StreamResult& r : ses.report.requests)
      if (r.ok()) {
        service_sum += r.service_seconds;
        ++service_n;
      }
    hits += st.map_cache.hits;
    lookups += st.map_cache.lookups;
    evictions += st.map_cache.evictions;
    std::printf(
        "  %8.0f %8.1f %6zu %9.3f %9.3f %9.3f %9.3f %7.2f %6.3f %7.4f %5s\n",
        ses.rate, fl.offered_hz, st.completed, median(e2e), p95,
        percentile(waits(ses), 0.95), fl.share(), st.mean_batch_size, util,
        slack.back(), meets ? "yes" : "no");
  }

  const Session& low = ladder[kLow];
  const Session& high = ladder[kHigh];
  EndToEnd e;
  e.setup_s = median(setup_s);
  e.wall_req_per_s = static_cast<double>(served) / elapsed;
  // Host time a served request adds to its session (4 host threads),
  // median over sessions. A serial run_model of one scan lasts only ~20 ms
  // and swings with the host's speed far more than a whole session does.
  e.wall_scan_ms_p50 = median(ms_per_request);
  e.wall_scan_samples = ms_per_request.size();
  e.modeled_scan_ms =
      service_n ? service_sum * 1e3 / static_cast<double>(service_n) : 0.0;
  std::vector<std::size_t> by_model;
  for (std::size_t i = 0; i < cmp_inputs.size(); ++i) by_model.push_back(i % 2);
  e.speedup_vs_minkowski =
      speedup(per_engine[kMinkowski], per_engine[kTorchSparse], by_model);
  e.speedup_vs_spconv =
      speedup(per_engine[kSpconvFp16], per_engine[kTorchSparse], by_model);
  e.e2e_p50_ms_low = median(e2e_of(low.report, -1));
  e.e2e_p95_ms_low = percentile(e2e_of(low.report, -1), 0.95);
  e.e2e_p50_ms_high = median(e2e_of(high.report, -1));
  e.e2e_p95_ms_high = percentile(e2e_of(high.report, -1), 0.95);
  e.e2e_samples = high.report.requests.size();
  e.max_rate_hz = max_rate_hz(offered, slack, clean);
  if (!traced) {
    emit_end_to_end(e, res);
    return;
  }

  LayerReport rep;
  {
    const ts::LidarSpec wl = scaled_lidar(ts::waymo_spec(1), kScale);
    const ts::VoxelSpec dv = detector_voxels();
    std::vector<DataScan> scans;
    for (std::size_t k = 0; k < 8; ++k)
      scans.push_back({wl, dv, derive_seed(args.seed, 100 + k),
                       &s.frames[1][k]});
    data_ladder(scans, rep, res);
  }
  {
    const auto b0 = Clock::now();
    {
      Scope sp("engines.model_build");
      ts::spnn::MinkUNet(0.5, 4, 19, derive_seed(args.seed, 3));
    }
    {
      Scope sp("engines.model_build");
      ts::spnn::CenterPoint(5, derive_seed(args.seed, 4));
    }
    rep.set("engines.model_build_ms", seconds_since(b0) * 1e3 / 2);
  }
  rep.set("engines.run_model_ms", laddered_run_s * 1e3 / 2);
  {
    ts::RunOptions opt = ref_opt;
    opt.tuned = s.tuned[0];
    rep.set("trace.overhead",
            trace_overhead(s.seg.model, s.frames[0][0], tsc, opt, 3));
  }
  rep.set("tune.tune_for_ms", s.tune_ms);
  rep.add_ladder(ladder_totals, laddered_run_s);
  for (int k = 0; k < 5; ++k) rep.add_modeled(k, per_engine[k]);

  rep.set("map_cache.hit_rate",
          lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0);
  rep.set("map_cache.wall_hit_rate", first_cache.hit_rate());
  rep.set("map_cache.build_s_saved", first_cache.build_wall_seconds_saved);
  rep.set("map_cache.evictions", static_cast<double>(evictions));

  double submit_s = 0, drain_s = 0;
  std::size_t submits = 0, rejected = 0, failed = 0;
  for (const Session& ses : ladder) {
    submit_s += ses.submit_s;
    drain_s += ses.drain_s;
    submits += ses.report.requests.size() + ses.report.stats.rejected;
    rejected += ses.report.stats.rejected;
    failed += ses.report.stats.failed;
  }
  rep.set("serve.submit_us", submit_s * 1e6 / static_cast<double>(submits));
  rep.set("serve.drain_s", drain_s / static_cast<double>(ladder.size()));
  rep.set("serve.queue_wait_p50_ms.low", median(waits(low)));
  rep.set("serve.queue_wait_p50_ms.high", median(waits(high)));
  rep.set("serve.queue_wait_p95_ms.low", percentile(waits(low), 0.95));
  rep.set("serve.queue_wait_p95_ms.high", percentile(waits(high), 0.95));
  rep.set("serve.mean_batch_size.low", low.report.stats.mean_batch_size);
  rep.set("serve.mean_batch_size.high", high.report.stats.mean_batch_size);
  rep.set("serve.device_util.high", mean_utilization(high.report.stats));
  rep.set("serve.rejected", static_cast<double>(rejected));
  rep.set("serve.failed", static_cast<double>(failed));
  rep.set("serve.e2e_p95_ms.seg.high", percentile(e2e_of(high.report, 0), 0.95));
  rep.set("serve.e2e_p95_ms.det.high", percentile(e2e_of(high.report, 1), 0.95));
  rep.set("fail_share", res.fail_share());
  rep.bypass("tensor-numerics");
  rep.bypass("gpusim.cache (analytic data-movement costing)");
  rep.emit(res);
}

}  // namespace pb
