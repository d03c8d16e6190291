// Online-serving benchmark: the bundled Bidding -> Browsing drift scenario
// replayed through the concurrent ServeHarness at 1 and 8 driver threads,
// then a throughput-versus-threads curve at 1, 2, 4 and 8 threads on the
// same settings with 8,000 `default` and 24,000 `browsing` transactions,
// long enough that serving, not advising, dominates each run.
//
// Doubles as a determinism gate: every run executes the same fixed
// logical streams, so its final post-cutover store content digest must
// equal its 1-thread control's — the benchmark aborts on any divergence, a
// verification mismatch, or a missing migration.
//
//   serve_bench [--json FILE] [scenario-file]
//
// scenario-file defaults to the source tree's
// workloads/rubis_drift.scenario, by absolute path, so the bench runs from
// any working directory.
//
// --json appends nose-bench-v1 records to FILE: serve_t1 and serve_t8, a
// "determinism" record with their digest comparison, and curve_t{N} per
// curve thread count (serve_ms = run_ms - advise_ms, and speedup = t1's
// serve_ms / tN's).

#include <cstdint>
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

// Advising at the mix boundaries is part of run_ms; report it on its own
// so the serving share of the run is visible.
double AdviseMs(const serve::ServeReport& report) {
  double advise_ms = 0.0;
  for (const serve::AdviseRecord& a : report.advises) {
    advise_ms += a.elapsed_seconds * 1e3;
  }
  return advise_ms;
}

void Emit(bench::BenchJsonWriter& json, const char* instance, const Run& run) {
  const serve::ServeReport& report = run.harness->report();
  const double advise_ms = AdviseMs(report);
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

// Serving throughput against driver threads. Returns false when a run's
// digest differs from the 1-thread run's.
bool RunCurve(bench::BenchJsonWriter& json,
              const evolve::DriftScenario& bundled) {
  evolve::DriftScenario scenario = bundled;
  scenario.phases = {{"default", 8000}, {"browsing", 24000}};
  double t1_serve_ms = 0.0;
  uint64_t t1_digest = 0;
  bool digests_match = true;
  for (size_t threads : {1, 2, 4, 8}) {
    const Run run = RunAt(scenario, threads);
    const serve::ServeReport& report = run.harness->report();
    const double serve_ms = run.run_ms - AdviseMs(report);
    if (threads == 1) {
      t1_serve_ms = serve_ms;
      t1_digest = report.store_digest;
    }
    const double speedup = serve_ms > 0.0 ? t1_serve_ms / serve_ms : 0.0;
    const bool match = report.store_digest == t1_digest;
    digests_match = digests_match && match;
    const std::string instance = "curve_t" + std::to_string(threads);
    std::printf("%s: serve_ms %.3f (run_ms %.3f), speedup %.2f, %zu "
                "transactions, digest %llu (%s)\n",
                instance.c_str(), serve_ms, run.run_ms, speedup,
                report.transactions,
                static_cast<unsigned long long>(report.store_digest),
                match ? "MATCH" : "DIVERGED");
    json.Instance(instance)
        .Metric("serve_ms", serve_ms)
        .Metric("speedup", speedup)
        .Metric("transactions", static_cast<double>(report.transactions))
        .Metric("statements", static_cast<double>(report.statements));
  }
  return digests_match;
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
      !scenario_arg.empty() ? scenario_arg
                            : NOSE_WORKLOADS_DIR "/rubis_drift.scenario";
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
  const bool curve_match = RunCurve(json, *scenario);
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
  if (!curve_match) {
    std::fprintf(stderr,
                 "FATAL: a curve run's store content diverged from its "
                 "1-thread run\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nose

int main(int argc, char** argv) { return nose::Main(argc, argv); }
