// Checks the paper's §VII-B claim that "running NoSE for the RUBiS
// workload takes less than ten seconds", reporting the full phase
// breakdown for the real RUBiS workload at paper-like entity counts.
//
//   advisor_runtime [--threads N] [--json FILE] [--trace FILE]
//                   [--metrics FILE]
//
// --threads sets the advisor's worker-thread count; --json appends one JSON
// object with the per-mix phase breakdown to FILE (bench_results/
// convention). --trace captures a Chrome trace_event timeline of the run;
// --metrics dumps the pipeline counter snapshot.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "advisor/advisor.h"
#include "bench/bench_json.h"
#include "obs/file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rubis/model.h"
#include "rubis/workload.h"

namespace nose::bench {
namespace {

int Main(int argc, char** argv) {
  size_t threads = 1;
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: advisor_runtime [--threads N] [--json FILE] "
                   "[--trace FILE] [--metrics FILE]\n");
      return 2;
    }
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().Enable();
    obs::SetCurrentThreadName("main");
  }

  auto graph = rubis::MakeGraph();  // paper-like default counts
  if (!graph.ok()) return 1;
  auto workload = rubis::MakeWorkload(**graph);
  if (!workload.ok()) return 1;

  BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "advisor_runtime")) {
    return 1;
  }

  std::printf("Advisor runtime on the RUBiS workload (paper: < 10 s), "
              "threads=%zu\n\n",
              threads);
  for (const char* mix :
       {rubis::kBiddingMix, rubis::kBrowsingMix, rubis::kWrite100xMix}) {
    AdvisorOptions options;
    options.num_threads = threads;
    Advisor advisor(options);
    auto rec = advisor.Recommend(**workload, mix);
    if (!rec.ok()) {
      std::printf("%-10s FAILED: %s\n", mix, rec.status().ToString().c_str());
      continue;
    }
    const AdvisorTiming& t = rec->timing;
    std::printf(
        "%-10s total %7.3f ms  (enum %.3f, cost %.3f, build %.3f, solve "
        "%.3f = cost-solve %.3f + size-solve %.3f, other %.3f ms)  "
        "candidates=%zu schema=%zu bip=%dx%d nodes=%d\n",
        mix, 1e3 * t.total_seconds, 1e3 * t.enumeration_seconds,
        1e3 * t.cost_calculation_seconds, 1e3 * t.bip_construction_seconds,
        1e3 * t.bip_solve_seconds, 1e3 * t.cost_solve_seconds,
        1e3 * t.size_solve_seconds, 1e3 * t.other_seconds,
        rec->num_candidates, rec->schema.size(), rec->bip_variables,
        rec->bip_constraints, rec->bb_nodes);
    json.Instance(mix)
        .Metric("threads", static_cast<double>(threads))
        .Metric("candidates", static_cast<double>(rec->num_candidates))
        .Metric("schema_size", static_cast<double>(rec->schema.size()))
        .Metric("objective", rec->objective)
        .Metric("enum_seconds", rec->timing.enumeration_seconds)
        .Metric("cost_seconds", rec->timing.cost_calculation_seconds)
        .Metric("build_seconds", rec->timing.bip_construction_seconds)
        .Metric("solve_seconds", rec->timing.bip_solve_seconds)
        .Metric("cost_solve_seconds", rec->timing.cost_solve_seconds)
        .Metric("size_solve_seconds", rec->timing.size_solve_seconds)
        .Metric("other_seconds", rec->timing.other_seconds)
        .Metric("total_seconds", rec->timing.total_seconds);
  }
  json.Close();
  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().Disable();
    std::string error;
    if (!obs::TraceRecorder::Global().WriteChromeJson(trace_path, &error)) {
      std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    std::string error;
    if (!obs::WriteFile(metrics_path,
                        obs::MetricsRegistry::Global().ToJson() + "\n",
                        &error)) {
      std::fprintf(stderr, "error: cannot write metrics: %s\n", error.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace nose::bench

int main(int argc, char** argv) { return nose::bench::Main(argc, argv); }
