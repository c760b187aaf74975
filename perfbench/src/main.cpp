// The repository benchmark: one command, three workloads.
//
//   perfbench --workload engine-sweep|segment-numerics|drive-stream
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// operation or correctness check failed, 2 on a usage or runtime error.
// See perfbench/README.md.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  pb::Args args;
  try {
    args = pb::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  pb::Tracer::instance().enable(args.trace);
  pb::Result result;
  try {
    std::printf("perfbench %s, seed %llu (held-out seed for claims: %llu), "
                "%s run\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(pb::kHeldOutSeed),
                args.trace ? "traced" : "untraced");
    if (args.workload == "engine-sweep") {
      pb::run_engine_sweep(args, result);
    } else if (args.workload == "segment-numerics") {
      pb::run_segment_numerics(args, result);
    } else if (args.workload == "drive-stream") {
      pb::run_drive_stream(args, result);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (args.trace && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (pb::Tracer::instance().dump(path))
      std::printf("span dump (Perfetto / chrome://tracing): %s\n",
                  path.c_str());
    else
      result.fail("could not write the span dump " + path);
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
