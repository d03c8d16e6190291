// Microbenchmarks of the in-memory record store (google-benchmark): put
// and get throughput over varying partition layouts. Wall-clock here, not
// simulated time — this bounds how fast the executor-driven experiments
// can run, independent of the latency model they report.
//
//   store_micro [--json FILE] [google-benchmark flags]
//
// --json appends one nose-bench-v1 record per benchmark run (instance
// "BM_StoreGetPartition/100" etc., metrics real_time_ns / cpu_time_ns /
// iterations and items_per_second when reported) to FILE.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "store/record_store.h"
#include "util/rng.h"

namespace nose {
namespace {

void BM_StorePut(benchmark::State& state) {
  RecordStore store;
  (void)store.CreateColumnFamily("cf", 1, 1, 2);
  Rng rng(1);
  int64_t i = 0;
  for (auto _ : state) {
    const int64_t partition = static_cast<int64_t>(rng.Uniform(1000));
    Status s = store.Put("cf", {partition}, {i++},
                         {Value(static_cast<int64_t>(42)), Value(3.5)});
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePut);

void BM_StoreGetPartition(benchmark::State& state) {
  const int64_t rows_per_partition = state.range(0);
  RecordStore store;
  (void)store.CreateColumnFamily("cf", 1, 1, 1);
  for (int64_t p = 0; p < 100; ++p) {
    for (int64_t r = 0; r < rows_per_partition; ++r) {
      (void)store.Put("cf", {p}, {r}, {Value(r * 2)});
    }
  }
  Rng rng(2);
  for (auto _ : state) {
    auto rows = store.Get("cf", {static_cast<int64_t>(rng.Uniform(100))});
    benchmark::DoNotOptimize(rows->size());
  }
  state.SetItemsProcessed(state.iterations() * rows_per_partition);
}
BENCHMARK(BM_StoreGetPartition)->Arg(10)->Arg(100)->Arg(1000);

void BM_StoreRangeScan(benchmark::State& state) {
  RecordStore store;
  (void)store.CreateColumnFamily("cf", 1, 1, 1);
  for (int64_t r = 0; r < 10000; ++r) {
    (void)store.Put("cf", {static_cast<int64_t>(0)}, {r}, {Value(r)});
  }
  Rng rng(3);
  for (auto _ : state) {
    const int64_t lo = static_cast<int64_t>(rng.Uniform(9000));
    auto rows = store.Get("cf", {static_cast<int64_t>(0)}, {},
                          RangeBound{PredicateOp::kGe, lo});
    benchmark::DoNotOptimize(rows->size());
  }
}
BENCHMARK(BM_StoreRangeScan);

void BM_StoreClusteringPrefix(benchmark::State& state) {
  RecordStore store;
  (void)store.CreateColumnFamily("cf", 1, 2, 1);
  for (int64_t a = 0; a < 100; ++a) {
    for (int64_t b = 0; b < 100; ++b) {
      (void)store.Put("cf", {static_cast<int64_t>(0)}, {a, b}, {Value(a + b)});
    }
  }
  Rng rng(4);
  for (auto _ : state) {
    auto rows = store.Get("cf", {static_cast<int64_t>(0)},
                          {static_cast<int64_t>(rng.Uniform(100))});
    benchmark::DoNotOptimize(rows->size());
  }
}
BENCHMARK(BM_StoreClusteringPrefix);

/// Plain console output (no colour codes, so the captured text can be
/// committed), plus one nose-bench-v1 record per run.
class BenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  explicit BenchJsonReporter(bench::BenchJsonWriter* json)
      : ConsoleReporter(OO_None), json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // Adjusted times are per-iteration in the run's time unit; every
      // benchmark here uses the default (nanoseconds).
      auto record = json_->Instance(run.benchmark_name());
      record.Metric("real_time_ns", run.GetAdjustedRealTime())
          .Metric("cpu_time_ns", run.GetAdjustedCPUTime())
          .Metric("iterations", static_cast<double>(run.iterations));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        record.Metric("items_per_second", items->second.value);
      }
    }
  }

 private:
  bench::BenchJsonWriter* json_;
};

}  // namespace
}  // namespace nose

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  nose::bench::BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "store_micro")) return 1;
  nose::BenchJsonReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
