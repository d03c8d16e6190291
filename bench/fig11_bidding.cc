// Reproduces Fig. 11: mean response time per RUBiS bidding-workload
// transaction type, executed against three schemas — the NoSE-recommended
// schema, the normalized baseline, and the hand-designed expert schema.
//
// Latencies are simulated milliseconds from the record-store latency model
// (see DESIGN.md): absolute values differ from the paper's Cassandra
// testbed, the *shape* (NoSE <= Expert << Normalized on reads; NoSE pays a
// bit more on rare writes) is the reproduced result.
//
//   fig11_bidding [--json FILE]
//
// --json appends nose-bench-v1 records (one per transaction type plus a
// weighted_avg record) to FILE.
//
// Environment: NOSE_RUBIS_SCALE (default 0.25) scales entity counts;
// NOSE_FIG11_EXECUTIONS (default 200) sets executions per transaction;
// NOSE_METRICS (a path) dumps the executor/store counter snapshot —
// requests, rows scanned, bytes moved, write amplification — as JSON.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "bench/rubis_driver.h"
#include "obs/file.h"
#include "obs/metrics.h"

namespace nose::bench {
namespace {

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: fig11_bidding [--json FILE]\n");
      return 2;
    }
  }
  BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "fig11_bidding")) {
    return 1;
  }

  const char* env = std::getenv("NOSE_FIG11_EXECUTIONS");
  const int executions = env != nullptr ? std::atoi(env) : 200;

  RubisBench bench;
  std::printf("Fig. 11 — RUBiS bidding workload, %d executions/transaction\n",
              executions);
  std::printf("store: %zu users, %zu items, %zu bids\n",
              bench.data().RowCount("User"), bench.data().RowCount("Item"),
              bench.data().RowCount("Bid"));

  auto nose = bench.MakeNose(rubis::kBiddingMix);
  auto normalized = bench.MakeNormalized(rubis::kBiddingMix);
  auto expert = bench.MakeExpert(rubis::kBiddingMix);
  std::printf("schemas: NoSE=%zu CFs, Normalized=%zu CFs, Expert=%zu CFs\n\n",
              nose->schema.size(), normalized->schema.size(),
              expert->schema.size());

  std::printf("%-22s %12s %12s %12s   (avg simulated ms)\n", "Transaction",
              "NoSE", "Normalized", "Expert");
  double wsum[3] = {0, 0, 0};
  double wtotal = 0;
  for (const rubis::Transaction& tx : rubis::Transactions()) {
    double totals[3] = {0, 0, 0};
    SchemaUnderTest* suts[3] = {nose.get(), normalized.get(), expert.get()};
    for (int s = 0; s < 3; ++s) {
      // Identical parameter streams per schema for a fair comparison.
      rubis::ParamGenerator gen(&bench.data(), 0xF16'11 + 97 * s);
      for (int i = 0; i < executions; ++i) {
        totals[s] += bench.RunTransaction(suts[s], tx, &gen);
      }
    }
    std::printf("%-22s %12.3f %12.3f %12.3f\n", tx.name.c_str(),
                totals[0] / executions, totals[1] / executions,
                totals[2] / executions);
    json.Instance(tx.name)
        .Metric("executions", static_cast<double>(executions))
        .Metric("nose_sim_cost", totals[0] / executions)
        .Metric("normalized_sim_cost", totals[1] / executions)
        .Metric("expert_sim_cost", totals[2] / executions)
        .Label("is_write", tx.is_write);
    const double weight = rubis::TransactionWeight(tx, rubis::kBiddingMix);
    for (int s = 0; s < 3; ++s) wsum[s] += weight * totals[s] / executions;
    wtotal += weight;
  }
  std::printf("%-22s %12.3f %12.3f %12.3f\n", "WEIGHTED-AVG",
              wsum[0] / wtotal, wsum[1] / wtotal, wsum[2] / wtotal);
  std::printf(
      "\npaper shape check: NoSE weighted-avg beats Expert by ~%.2fx "
      "(paper: 1.8x) and Normalized by ~%.2fx\n",
      wsum[2] / wsum[0], wsum[1] / wsum[0]);
  json.Instance("weighted_avg")
      .Metric("nose_sim_cost", wsum[0] / wtotal)
      .Metric("normalized_sim_cost", wsum[1] / wtotal)
      .Metric("expert_sim_cost", wsum[2] / wtotal)
      .Metric("expert_over_nose", wsum[2] / wsum[0])
      .Metric("normalized_over_nose", wsum[1] / wsum[0]);
  json.Close();
  if (const char* metrics_path = std::getenv("NOSE_METRICS")) {
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
