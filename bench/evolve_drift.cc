// Drift-and-migration benchmark for the online evolution loop.
//
// Part 1 measures re-advise latency, incremental vs. cold, on the RUBiS
// workload: after a first advise on the bidding mix, an AdvisingSession
// re-advising a drifted mix over the same statement set reuses the
// interned candidate pool, the cached plan spaces and the root-LP basis —
// against a cold Advisor::Recommend on the same mix. The reused and cold
// paths must produce byte-identical recommendations; the benchmark aborts
// otherwise.
//
// Part 2 replays the bundled Bidding -> Browsing drift scenario through
// `nose evolve`'s harness (one thread, one stream, drift trigger) and
// reports re-advise latency and migration cost (backfilled rows, catch-up
// updates, simulated milliseconds) per migration.
//
//   evolve_drift [--json FILE] [scenario-file]
//
// scenario-file defaults to the source tree's
// workloads/rubis_drift.scenario, by absolute path, so the bench runs from
// any working directory.
//
// --json appends nose-bench-v1 records — a "readvise" record with the
// warm/cold latencies and a "scenario" record with the harness run —
// to FILE.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "advisor/session.h"
#include "bench/bench_json.h"
#include "bench/rubis_driver.h"
#include "evolve/scenario.h"
#include "serve/serve.h"
#include "util/stopwatch.h"

namespace nose {
namespace {

int Main(int argc, char** argv) {
  std::string json_path;
  std::string scenario_arg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (argv[i][0] != '-' && scenario_arg.empty()) {
      scenario_arg = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: evolve_drift [--json FILE] [scenario-file]\n");
      return 2;
    }
  }
  bench::BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "evolve_drift")) {
    return 1;
  }

  // ---- Part 1: incremental vs. cold re-advise at equal recommendations.
  bench::RubisBench env;
  Workload& workload = const_cast<Workload&>(env.workload());
  // A drifted mix over the full bidding statement set: halfway between
  // bidding and browsing weights, so every statement keeps nonzero weight
  // (same signature => the fully incremental path) while the optimum moves.
  for (const WorkloadEntry& entry : workload.entries()) {
    const double w = 0.5 * entry.WeightIn(rubis::kBiddingMix) +
                     0.5 * entry.WeightIn(rubis::kBrowsingMix);
    if (w <= 0.0) continue;
    Status s = workload.SetWeight(entry.name, "drift50", w);
    if (!s.ok()) bench::RubisBench::Die("drift50", s);
  }

  AdvisingSession session;
  auto first = session.Advise(workload, rubis::kBiddingMix);
  if (!first.ok()) bench::RubisBench::Die("advise bidding", first.status());

  Stopwatch watch;
  auto warm = session.Advise(workload, "drift50");
  if (!warm.ok()) bench::RubisBench::Die("advise drift50 warm", warm.status());
  const double warm_ms = watch.ElapsedMillis();

  watch.Reset();
  Advisor cold_advisor;
  auto cold = cold_advisor.Recommend(workload, "drift50");
  if (!cold.ok()) bench::RubisBench::Die("advise drift50 cold", cold.status());
  const double cold_ms = watch.ElapsedMillis();

  if (warm->reuse != PoolReuse::kSameStatements) {
    std::fprintf(stderr, "FATAL: drift50 re-advise was not incremental\n");
    return 1;
  }
  if (warm->ToString() != cold->ToString()) {
    std::fprintf(stderr,
                 "FATAL: incremental and cold recommendations differ\n");
    return 1;
  }
  std::printf("re-advise drift50 (equal recommendations):\n");
  std::printf("  incremental: %8.1f ms (pool+spaces+basis reused)\n",
              warm_ms);
  std::printf("  cold:        %8.1f ms\n", cold_ms);
  std::printf("  speedup:     %8.2fx\n", warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  json.Instance("readvise")
      .Metric("warm_ms", warm_ms)
      .Metric("cold_ms", cold_ms)
      .Metric("speedup", warm_ms > 0.0 ? cold_ms / warm_ms : 0.0)
      .Metric("schema_size", static_cast<double>(warm->schema.size()))
      .Label("incremental", true);

  // ---- Part 2: the bundled drift scenario through the evolve harness.
  const std::string scenario_path =
      !scenario_arg.empty() ? scenario_arg
                            : NOSE_WORKLOADS_DIR "/rubis_drift.scenario";
  auto scenario = evolve::LoadScenarioFile(scenario_path);
  if (!scenario.ok()) bench::RubisBench::Die("scenario", scenario.status());
  auto harness = serve::ServeHarness::CreateEvolve(*scenario);
  if (!harness.ok()) bench::RubisBench::Die("harness", harness.status());
  watch.Reset();
  Status run = (*harness)->Run();
  if (!run.ok()) bench::RubisBench::Die("run", run);
  const double run_ms = watch.ElapsedMillis();

  const serve::ServeReport& report = (*harness)->report();
  std::printf("\ndrift scenario %s (%.1f ms wall):\n%s", scenario_path.c_str(),
              run_ms, report.ToString().c_str());
  if (report.invariant_violations > 0) {
    std::fprintf(stderr, "FATAL: invariant violations during migration\n");
    return 1;
  }
  for (const serve::MigrationRecord& m : report.migrations) {
    if (m.progress.verify_mismatches > 0 || m.aborted) {
      std::fprintf(stderr, "FATAL: migration failed verification\n");
      return 1;
    }
  }
  json.Instance("scenario")
      .Metric("run_ms", run_ms)
      .Metric("transactions", static_cast<double>(report.transactions))
      .Metric("statements", static_cast<double>(report.statements))
      .Metric("re_advises_incremental",
              static_cast<double>(report.incremental_readvises()))
      .Metric("re_advises_cold",
              static_cast<double>(report.readvises() -
                                  report.incremental_readvises()))
      .Metric("migrations", static_cast<double>(report.migrations.size()))
      .Metric("invariant_violations",
              static_cast<double>(report.invariant_violations));
  json.Close();
  return 0;
}

}  // namespace
}  // namespace nose

int main(int argc, char** argv) { return nose::Main(argc, argv); }
