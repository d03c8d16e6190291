// Online-serving benchmark: the bundled Bidding -> Browsing drift scenario
// replayed through the concurrent ServeHarness at 1 and 8 driver threads.
//
// Doubles as a determinism gate: the two runs execute the same fixed
// logical streams, so their final post-cutover store content digests must
// be identical — the benchmark aborts on any divergence, a verification
// mismatch, or a missing migration.
//
//   serve_bench [--json FILE] [scenario-file]
//
// --json appends nose-bench-v1 records (one per thread count, plus a
// "determinism" record with the digest comparison) to FILE.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "evolve/scenario.h"
#include "serve/serve.h"
#include "util/stopwatch.h"

namespace nose {
namespace {

struct Run {
  std::unique_ptr<serve::ServeHarness> harness;
  double run_ms = 0.0;
};

Run RunAt(const evolve::DriftScenario& scenario, size_t threads) {
  serve::ServeOptions options;
  options.threads = threads;
  options.streams = 8;
  options.store_stripes = 16;
  options.migration_threads = 2;
  auto harness = serve::ServeHarness::Create(scenario, options);
  if (!harness.ok()) {
    std::fprintf(stderr, "FATAL: create (threads=%zu): %s\n", threads,
                 harness.status().message().c_str());
    std::exit(1);
  }
  Stopwatch watch;
  Status run = (*harness)->Run();
  if (!run.ok()) {
    std::fprintf(stderr, "FATAL: run (threads=%zu): %s\n", threads,
                 run.message().c_str());
    std::exit(1);
  }
  return {std::move(*harness), watch.ElapsedMillis()};
}

void Emit(bench::BenchJsonWriter& json, const char* instance, const Run& run) {
  const serve::ServeReport& report = run.harness->report();
  // Advising at the mix boundaries is part of run_ms; report it on its own
  // so the serving share of the run is visible.
  double advise_ms = 0.0;
  for (const serve::AdviseRecord& a : report.advises) {
    advise_ms += a.elapsed_seconds * 1e3;
  }
  std::printf("%s: %s%s: advise_ms %.3f of run_ms %.3f\n", instance,
              report.ToString().c_str(), instance, advise_ms, run.run_ms);
  json.Instance(instance)
      .Metric("run_ms", run.run_ms)
      .Metric("advise_ms", advise_ms)
      .Metric("transactions", static_cast<double>(report.transactions))
      .Metric("statements", static_cast<double>(report.statements))
      .Metric("migrations", static_cast<double>(report.migrations.size()))
      .Metric("p95_after_ms", report.after.p95_ms)
      .Metric("realized_store_ms", report.store.simulated_ms);
}

int Main(int argc, char** argv) {
  std::string json_path;
  std::string scenario_arg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (argv[i][0] != '-' && scenario_arg.empty()) {
      scenario_arg = argv[i];
    } else {
      std::fprintf(stderr, "usage: serve_bench [--json FILE] [scenario-file]\n");
      return 2;
    }
  }
  bench::BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "serve_bench")) {
    return 1;
  }

  const std::string scenario_path =
      !scenario_arg.empty() ? scenario_arg : "workloads/rubis_drift.scenario";
  auto scenario = evolve::LoadScenarioFile(scenario_path);
  if (!scenario.ok()) {
    std::fprintf(stderr, "FATAL: scenario: %s\n",
                 scenario.status().message().c_str());
    return 1;
  }

  Run control = RunAt(*scenario, 1);
  Run concurrent = RunAt(*scenario, 8);
  Emit(json, "serve_t1", control);
  Emit(json, "serve_t8", concurrent);

  const serve::ServeReport& a = control.harness->report();
  const serve::ServeReport& b = concurrent.harness->report();
  const bool digest_match = a.store_digest == b.store_digest;
  const bool migrated = !a.migrations.empty() && !b.migrations.empty();
  std::printf("determinism: digests %llu vs %llu (%s), %zu vs %zu "
              "migrations\n",
              static_cast<unsigned long long>(a.store_digest),
              static_cast<unsigned long long>(b.store_digest),
              digest_match ? "MATCH" : "DIVERGED", a.migrations.size(),
              b.migrations.size());
  json.Instance("determinism")
      .Metric("speedup",
              concurrent.run_ms > 0.0 ? control.run_ms / concurrent.run_ms
                                      : 0.0)
      .Label("digest_match", digest_match)
      .Label("migrated", migrated);
  json.Close();
  if (!digest_match) {
    std::fprintf(stderr,
                 "FATAL: concurrent store content diverged from the "
                 "single-threaded control\n");
    return 1;
  }
  if (!migrated) {
    std::fprintf(stderr, "FATAL: scenario produced no live migration\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nose

int main(int argc, char** argv) { return nose::Main(argc, argv); }
