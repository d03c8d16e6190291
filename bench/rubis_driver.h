#ifndef NOSE_BENCH_RUBIS_DRIVER_H_
#define NOSE_BENCH_RUBIS_DRIVER_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "rubis/datagen.h"
#include "rubis/expert_schema.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "schemas/normalized.h"
#include "util/stopwatch.h"

namespace nose::bench {

/// One schema under test plus everything needed to execute the workload
/// against it: a loaded store and per-statement plans.
struct SchemaUnderTest {
  std::string label;
  Schema schema;
  std::unique_ptr<Recommendation> rec;  // keeps NoSE plans' pool alive
  std::map<std::string, QueryPlan> query_plans;
  std::map<std::string, UpdatePlan> update_plans;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<PlanExecutor> executor;
};

/// Shared environment of the Fig. 11 / Fig. 12 experiments.
class RubisBench {
 public:
  /// `scale_factor` multiplies the default entity counts. Reads
  /// NOSE_RUBIS_SCALE from the environment when `scale_factor` <= 0.
  explicit RubisBench(double scale_factor = 0.0) {
    if (scale_factor <= 0.0) {
      const char* env = std::getenv("NOSE_RUBIS_SCALE");
      scale_factor = env != nullptr ? std::atof(env) : 0.25;
      if (scale_factor <= 0.0) scale_factor = 0.25;
    }
    const rubis::ModelScale scale = rubis::ScaleFor(scale_factor);
    auto graph = rubis::MakeGraph(scale);
    if (!graph.ok()) Die("model", graph.status());
    graph_ = std::move(graph).value();
    data_ = std::make_unique<Dataset>(
        rubis::GenerateData(graph_.get(), scale, /*seed=*/20260708));
    auto workload = rubis::MakeWorkload(*graph_);
    if (!workload.ok()) Die("workload", workload.status());
    workload_ = std::move(workload).value();
  }

  const EntityGraph& graph() const { return *graph_; }
  const Workload& workload() const { return *workload_; }
  const Dataset& data() const { return *data_; }

  /// Advises all `mixes` in one shared-pool pass (Advisor::AdviseAllMixes):
  /// mixes weighting the same statement set reuse one candidate pool and
  /// one set of plan spaces instead of re-enumerating per mix. The
  /// recommendations are stashed for MakeNose to consume. Returns the wall
  /// seconds the pass took (the Fig. 12 shared-pool headline number).
  double PrepareNoseRecommendations(const std::vector<std::string>& mixes) {
    Stopwatch watch;
    Advisor advisor;
    auto recs = advisor.AdviseAllMixes(*workload_, mixes);
    if (!recs.ok()) Die("advisor/all-mixes", recs.status());
    for (auto& [mix, rec] : *recs) {
      nose_recs_[mix] = std::make_unique<Recommendation>(std::move(rec));
    }
    return watch.ElapsedSeconds();
  }

  /// The recommendation staged for `mix`, or nullptr if none is staged
  /// (never staged, or already consumed by MakeNose).
  const Recommendation* StagedNoseRecommendation(const std::string& mix) const {
    auto it = nose_recs_.find(mix);
    return it == nose_recs_.end() ? nullptr : it->second.get();
  }

  /// NoSE-recommended schema for `mix`, loaded and ready to execute. Uses
  /// the recommendation stashed by PrepareNoseRecommendations when one
  /// exists; otherwise advises this mix alone.
  std::unique_ptr<SchemaUnderTest> MakeNose(const std::string& mix) {
    auto out = std::make_unique<SchemaUnderTest>();
    out->label = "NoSE";
    if (auto it = nose_recs_.find(mix); it != nose_recs_.end()) {
      out->rec = std::move(it->second);
      nose_recs_.erase(it);
    } else {
      Advisor advisor;
      auto rec = advisor.Recommend(*workload_, mix);
      if (!rec.ok()) Die("advisor", rec.status());
      out->rec = std::make_unique<Recommendation>(std::move(rec).value());
    }
    out->schema = out->rec->schema;
    for (const auto& [name, plan] : out->rec->query_plans) {
      out->query_plans.emplace(name, plan);
    }
    for (const auto& [name, plan] : out->rec->update_plans) {
      out->update_plans.emplace(name, plan);
    }
    FinishSetup(out.get(), mix);
    return out;
  }

  /// A fixed schema (normalized/expert baselines): plans derived with the
  /// planner restricted to that schema.
  std::unique_ptr<SchemaUnderTest> MakeFixed(const std::string& label,
                                             Schema schema,
                                             const std::string& mix) {
    auto out = std::make_unique<SchemaUnderTest>();
    out->label = label;
    out->schema = std::move(schema);
    CostModel cost_model;
    CardinalityEstimator estimator(graph_.get(), &cost_model.params());
    QueryPlanner planner(&cost_model, &estimator);
    for (const auto& [entry, weight] : workload_->EntriesIn(mix)) {
      if (entry->IsQuery()) {
        auto plan = planner.PlanForSchema(entry->query(),
                                          out->schema.column_families());
        if (!plan.ok()) Die(label + "/" + entry->name, plan.status());
        out->query_plans.emplace(entry->name, std::move(plan).value());
      } else {
        auto plan = PlanUpdateForSchema(entry->update(), out->schema, planner,
                                        estimator, cost_model);
        if (!plan.ok()) Die(label + "/" + entry->name, plan.status());
        out->update_plans.emplace(entry->name, std::move(plan).value());
      }
    }
    FinishSetup(out.get(), mix);
    return out;
  }

  std::unique_ptr<SchemaUnderTest> MakeNormalized(const std::string& mix) {
    auto schema = NormalizedSchema(*graph_, *workload_, mix);
    if (!schema.ok()) Die("normalized", schema.status());
    return MakeFixed("Normalized", std::move(schema).value(), mix);
  }

  std::unique_ptr<SchemaUnderTest> MakeExpert(const std::string& mix) {
    auto schema = rubis::ExpertSchema(*graph_);
    if (!schema.ok()) Die("expert", schema.status());
    return MakeFixed("Expert", std::move(schema).value(), mix);
  }

  /// Executes `transaction` once; returns simulated milliseconds.
  double RunTransaction(SchemaUnderTest* sut, const rubis::Transaction& tx,
                        rubis::ParamGenerator* gen) {
    PlanExecutor::Params params;
    for (const std::string& stmt : tx.statements) {
      gen->AddStatementParams(*workload_->FindEntry(stmt), &params);
    }
    const double before = sut->store->stats().simulated_ms;
    for (const std::string& stmt : tx.statements) {
      const WorkloadEntry* entry = workload_->FindEntry(stmt);
      if (entry->IsQuery()) {
        auto it = sut->query_plans.find(stmt);
        auto result = sut->executor->ExecuteQuery(it->second, params);
        if (!result.ok()) Die(sut->label + "/" + stmt, result.status());
      } else {
        auto it = sut->update_plans.find(stmt);
        Status s = sut->executor->ExecuteUpdate(it->second, params);
        if (!s.ok()) Die(sut->label + "/" + stmt, s);
      }
    }
    return sut->store->stats().simulated_ms - before;
  }

  [[noreturn]] static void Die(const std::string& what, const Status& status) {
    std::fprintf(stderr, "FATAL [%s]: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }

 private:
  void FinishSetup(SchemaUnderTest* out, const std::string& mix) {
    (void)mix;
    out->store = std::make_unique<RecordStore>();
    Status s = LoadSchema(*data_, out->schema, out->store.get());
    if (!s.ok()) Die(out->label + "/load", s);
    out->executor =
        std::make_unique<PlanExecutor>(out->store.get(), &out->schema);
  }

  std::unique_ptr<EntityGraph> graph_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<Workload> workload_;
  /// Recommendations staged by PrepareNoseRecommendations, keyed by mix.
  std::map<std::string, std::unique_ptr<Recommendation>> nose_recs_;
};

}  // namespace nose::bench

#endif  // NOSE_BENCH_RUBIS_DRIVER_H_
