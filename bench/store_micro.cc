// Microbenchmarks of the in-memory record store and the plan executor on
// top of it (google-benchmark): put and get throughput over varying
// partition layouts, and PlanExecutor::ExecuteQuery on a single-step
// partition scan and on a two-step join. Wall-clock here, not simulated
// time — this bounds how fast the executor-driven experiments can run,
// independent of the latency model they report.
//
//   store_micro [--json FILE] [google-benchmark flags]
//
// --json appends one nose-bench-v1 record per benchmark run (instance
// "BM_StoreGetPartition/100" etc., metrics real_time_ns / cpu_time_ns /
// iterations and items_per_second when reported) to FILE.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "executor/dataset.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
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

/// A small shop model for the executor cases: Category 1:N Item N:1
/// Seller, with `items_per_category` items in each of 100 categories and
/// the items spread round-robin over 10 sellers.
class ShopFixture {
 public:
  static constexpr int64_t kCategories = 100;
  static constexpr int64_t kSellers = 10;

  explicit ShopFixture(int64_t items_per_category) {
    Entity category("Category", 1);
    Entity item("Item", 1);
    Entity seller("Seller", 1);
    Check(item.AddField({"ItemName", FieldType::kString}));
    Check(item.AddField({"ItemPrice", FieldType::kFloat}));
    Check(seller.AddField({"SellerName", FieldType::kString}));
    Check(graph_.AddEntity(std::move(category)));
    Check(graph_.AddEntity(std::move(item)));
    Check(graph_.AddEntity(std::move(seller)));
    Check(graph_.AddRelationship(
        {"Category", "Item", Cardinality::kOneToMany, "Items", "Category"}));
    Check(graph_.AddRelationship(
        {"Seller", "Item", Cardinality::kOneToMany, "Items", "Seller"}));

    data_ = std::make_unique<Dataset>(&graph_);
    for (int64_t c = 0; c < kCategories; ++c) data_->AddRow("Category", {c});
    for (int64_t s = 0; s < kSellers; ++s) {
      data_->AddRow("Seller", {s, Value("seller" + std::to_string(s))});
    }
    int64_t id = 0;
    for (int64_t c = 0; c < kCategories; ++c) {
      for (int64_t i = 0; i < items_per_category; ++i, ++id) {
        const size_t row = data_->AddRow(
            "Item", {id, Value("item" + std::to_string(id)),
                     Value(static_cast<double>(id % 997) * 0.25)});
        data_->AddLink(0, static_cast<size_t>(c), row);
        data_->AddLink(1, static_cast<size_t>(id % kSellers), row);
      }
    }
    data_->SyncCountsTo(&graph_);

    // Items by category: one get per query.
    const std::string by_category = AddCf(
        Path("Category", {"Items"}), {{"Category", "CategoryID"}},
        {{"Item", "ItemID"}}, {{"Item", "ItemName"}, {"Item", "ItemPrice"}});
    // Sellers of a category's items, then each seller's name: the first
    // step yields one context per item, which collapse to one per seller.
    const std::string sellers_by_category =
        AddCf(Path("Category", {"Items", "Seller"}), {{"Category", "CategoryID"}},
              {{"Item", "ItemID"}, {"Seller", "SellerID"}}, {});
    const std::string seller_by_id =
        AddCf(Path("Seller", {}), {{"Seller", "SellerID"}}, {},
              {{"Seller", "SellerName"}});
    Check(LoadSchema(*data_, schema_, &store_));

    const Predicate category_eq{
        {"Category", "CategoryID"}, PredicateOp::kEq, std::nullopt, "c"};
    scan_query_ = Query(Path("Item", {"Category"}),
                        {{"Item", "ItemID"}, {"Item", "ItemName"},
                         {"Item", "ItemPrice"}},
                        {category_eq}, {});
    scan_plan_.query = &scan_query_;
    scan_plan_.steps.push_back(Step(by_category, 1, 0, category_eq));

    join_query_ = Query(Path("Seller", {"Items", "Category"}),
                        {{"Seller", "SellerName"}}, {category_eq}, {});
    join_plan_.query = &join_query_;
    join_plan_.steps.push_back(Step(sellers_by_category, 2, 0, category_eq));
    PlanStep by_id;
    by_id.cf = schema_.FindByName(seller_by_id);
    by_id.access.partition_uses_id = true;
    join_plan_.steps.push_back(by_id);
  }

  const QueryPlan& scan_plan() const { return scan_plan_; }
  const QueryPlan& join_plan() const { return join_plan_; }
  PlanExecutor executor() { return PlanExecutor(&store_, &schema_); }

 private:
  static void Check(const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "store_micro: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  KeyPath Path(const std::string& start,
               const std::vector<std::string>& steps) {
    StatusOr<KeyPath> path = graph_.ResolvePath(start, steps);
    Check(path.status());
    return std::move(path).value();
  }

  /// Adds a column family to the schema; returns its name.
  std::string AddCf(KeyPath path, std::vector<FieldRef> partition,
                            std::vector<FieldRef> clustering,
                            std::vector<FieldRef> values) {
    StatusOr<ColumnFamily> cf =
        ColumnFamily::Create(std::move(path), std::move(partition),
                             std::move(clustering), std::move(values));
    Check(cf.status());
    return schema_.Add(std::move(cf).value());
  }

  PlanStep Step(const std::string& cf, size_t from, size_t to,
                const Predicate& partition_pred) const {
    PlanStep step;
    step.cf = schema_.FindByName(cf);
    step.from_index = from;
    step.to_index = to;
    step.first = true;
    step.access.partition_preds = {partition_pred};
    return step;
  }

  EntityGraph graph_;
  std::unique_ptr<Dataset> data_;
  Schema schema_;
  RecordStore store_;
  Query scan_query_;
  Query join_query_;
  QueryPlan scan_plan_;
  QueryPlan join_plan_;
};

void RunQueries(benchmark::State& state, ShopFixture& shop,
                const QueryPlan& plan, uint64_t seed) {
  PlanExecutor executor = shop.executor();
  Rng rng(seed);
  int64_t rows = 0;
  for (auto _ : state) {
    const PlanExecutor::Params params = {
        {"c", Value(static_cast<int64_t>(
                  rng.Uniform(ShopFixture::kCategories)))}};
    auto result = executor.ExecuteQuery(plan, params);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows += static_cast<int64_t>(result->size());
  }
  state.SetItemsProcessed(rows);
}

/// One get of range(0) rows, bound into contexts, deduped and projected.
void BM_ExecuteQueryScan(benchmark::State& state) {
  ShopFixture shop(state.range(0));
  RunQueries(state, shop, shop.scan_plan(), 5);
}
BENCHMARK(BM_ExecuteQueryScan)->Arg(10)->Arg(100)->Arg(1000);

/// A 100-row first step whose contexts collapse to one per seller (10),
/// then one get per seller.
void BM_ExecuteQueryJoin(benchmark::State& state) {
  ShopFixture shop(100);
  RunQueries(state, shop, shop.join_plan(), 6);
}
BENCHMARK(BM_ExecuteQueryJoin);

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
