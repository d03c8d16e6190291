#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "rubis/datagen.h"
#include "rubis/expert_schema.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "schemas/normalized.h"

namespace nose {
namespace {

using rubis::ModelScale;

ModelScale TinyScale() {
  ModelScale scale;
  scale.regions = 4;
  scale.categories = 5;
  scale.users = 100;
  scale.items = 200;
  scale.old_items = 100;
  scale.bids = 1000;
  scale.buynows = 60;
  scale.comments = 200;
  return scale;
}

TEST(RubisModelTest, GraphShapeMatchesPaper) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ((*graph)->entity_order().size(), 8u);
  EXPECT_EQ((*graph)->relationships().size(), 11u);
  // Spot-check a few steps.
  EXPECT_TRUE((*graph)->ResolvePath("User", {"Bids", "Item"}).ok());
  EXPECT_TRUE((*graph)->ResolvePath("Item", {"ItemBids", "Bidder"}).ok());
  EXPECT_TRUE((*graph)->ResolvePath("Comment", {"ToUser"}).ok());
}

TEST(RubisWorkloadTest, AllStatementsParseAndTransactionsResolve) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok());
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(rubis::Transactions().size(), 14u);
  // Every transaction statement exists in the workload.
  for (const rubis::Transaction& tx : rubis::Transactions()) {
    for (const std::string& stmt : tx.statements) {
      EXPECT_NE((*workload)->FindEntry(stmt), nullptr)
          << tx.name << " references missing statement " << stmt;
    }
  }
  // Mixes behave: browsing has no updates.
  for (const auto& [entry, weight] :
       (*workload)->EntriesIn(rubis::kBrowsingMix)) {
    EXPECT_TRUE(entry->IsQuery()) << entry->name;
  }
  // 100x mix shifts weight toward writes.
  double w_bid = 0, w_100 = 0;
  for (const auto& [entry, weight] :
       (*workload)->EntriesIn(rubis::kBiddingMix)) {
    if (!entry->IsQuery()) w_bid += weight;
  }
  for (const auto& [entry, weight] :
       (*workload)->EntriesIn(rubis::kWrite100xMix)) {
    if (!entry->IsQuery()) w_100 += weight;
  }
  EXPECT_GT(w_100, 5.0 * w_bid);
}

// The sampler is the traffic side of a mix and MakeWorkload the advised
// side: for every mix and statement, the sampler's weight summed over the
// transactions running that statement must be the statement's weight, or
// a phase would sample traffic the advisor never optimized for.
TEST(RubisWorkloadTest, SamplerWeightsReproduceStatementWeights) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok());
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  const std::vector<std::string> mixes = (*workload)->MixNames();
  EXPECT_EQ(mixes.size(), 4u);
  for (const std::string& mix : mixes) {
    auto sampler = rubis::TransactionSampler::ForMix(mix);
    ASSERT_TRUE(sampler.ok()) << mix << ": " << sampler.status();
    for (const WorkloadEntry& entry : (*workload)->entries()) {
      double sampled = 0.0;
      for (const auto& e : sampler->entries()) {
        const std::vector<std::string>& stmts = e.tx->statements;
        if (std::find(stmts.begin(), stmts.end(), entry.name) != stmts.end()) {
          sampled += e.weight;
        }
      }
      EXPECT_DOUBLE_EQ(sampled, entry.WeightIn(mix))
          << "mix " << mix << ", statement " << entry.name;
    }
  }
  EXPECT_FALSE(rubis::TransactionSampler::ForMix("bogus").ok());
}

class RubisAdvisorTest : public ::testing::Test {
 protected:
  RubisAdvisorTest() {
    auto graph = rubis::MakeGraph(TinyScale());
    assert(graph.ok());
    graph_ = std::move(graph).value();
    data_ = std::make_unique<Dataset>(
        rubis::GenerateData(graph_.get(), TinyScale(), 7));
    auto workload = rubis::MakeWorkload(*graph_);
    assert(workload.ok());
    workload_ = std::move(workload).value();
  }

  std::unique_ptr<EntityGraph> graph_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(RubisAdvisorTest, AdvisorRecommendsExecutableSchema) {
  Advisor advisor;
  auto rec = advisor.Recommend(*workload_);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GT(rec->schema.size(), 5u);
  EXPECT_EQ(rec->query_plans.size(), 12u);  // 12 distinct query statements
  EXPECT_EQ(rec->update_plans.size(), 8u);

  // Load and execute every statement a few times.
  RecordStore store;
  ASSERT_TRUE(LoadSchema(*data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);
  rubis::ParamGenerator gen(data_.get(), 99);
  for (const auto& [name, plan] : rec->query_plans) {
    const WorkloadEntry* entry = workload_->FindEntry(name);
    for (int i = 0; i < 3; ++i) {
      auto result = executor.ExecuteQuery(plan, gen.ForStatement(*entry));
      EXPECT_TRUE(result.ok()) << name << ": " << result.status();
    }
  }
  for (const auto& [name, plan] : rec->update_plans) {
    const WorkloadEntry* entry = workload_->FindEntry(name);
    for (int i = 0; i < 3; ++i) {
      Status s = executor.ExecuteUpdate(plan, gen.ForStatement(*entry));
      EXPECT_TRUE(s.ok()) << name << ": " << s;
    }
  }
}

/// Plans the whole workload against a fixed schema; fails the test if any
/// statement cannot be implemented.
void ExpectSchemaCoversWorkload(const EntityGraph& graph,
                                const Workload& workload,
                                const Schema& schema, const char* label) {
  CostModel cost_model;
  CardinalityEstimator estimator(&graph, &cost_model.params());
  QueryPlanner planner(&cost_model, &estimator);
  for (const auto& [entry, weight] :
       workload.EntriesIn(Workload::kDefaultMix)) {
    if (entry->IsQuery()) {
      auto plan = planner.PlanForSchema(entry->query(), schema.column_families());
      EXPECT_TRUE(plan.ok()) << label << " cannot answer " << entry->name
                             << ": " << plan.status();
    } else {
      auto plan = PlanUpdateForSchema(entry->update(), schema, planner,
                                      estimator, cost_model);
      EXPECT_TRUE(plan.ok()) << label << " cannot maintain " << entry->name
                             << ": " << plan.status();
    }
  }
}

TEST_F(RubisAdvisorTest, ExpertSchemaCoversWorkload) {
  auto expert = rubis::ExpertSchema(*graph_);
  ASSERT_TRUE(expert.ok()) << expert.status();
  ExpectSchemaCoversWorkload(*graph_, *workload_, *expert, "expert");
}

TEST_F(RubisAdvisorTest, NormalizedSchemaCoversWorkload) {
  auto normalized =
      NormalizedSchema(*graph_, *workload_, Workload::kDefaultMix);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  ExpectSchemaCoversWorkload(*graph_, *workload_, *normalized, "normalized");
}

TEST_F(RubisAdvisorTest, NoseBeatsNormalizedOnEstimatedCost) {
  Advisor advisor;
  auto rec = advisor.Recommend(*workload_);
  ASSERT_TRUE(rec.ok()) << rec.status();

  auto normalized =
      NormalizedSchema(*graph_, *workload_, Workload::kDefaultMix);
  ASSERT_TRUE(normalized.ok());
  CostModel cost_model;
  CardinalityEstimator estimator(graph_.get(), &cost_model.params());
  QueryPlanner planner(&cost_model, &estimator);
  double normalized_cost = 0.0;
  for (const auto& [entry, weight] :
       workload_->EntriesIn(Workload::kDefaultMix)) {
    if (!entry->IsQuery()) continue;
    auto plan =
        planner.PlanForSchema(entry->query(), normalized->column_families());
    ASSERT_TRUE(plan.ok());
    normalized_cost += weight * plan->cost;
  }
  // The advisor's objective includes update costs; even so it should beat
  // the normalized baseline's queries alone... compare query costs only.
  double nose_cost = 0.0;
  for (const auto& [name, plan] : rec->query_plans) {
    const WorkloadEntry* entry = workload_->FindEntry(name);
    double total = 0;
    for (const auto& [e, w] : workload_->EntriesIn(Workload::kDefaultMix)) {
      (void)e;
      (void)w;
    }
    (void)entry;
    nose_cost += plan.cost;  // summed un-weighted; see weighted check below
    (void)total;
  }
  // Weighted comparison.
  double nose_weighted = 0.0;
  for (const auto& [name, plan] : rec->query_plans) {
    for (const auto& [entry, weight] :
         workload_->EntriesIn(Workload::kDefaultMix)) {
      if (entry->name == name) nose_weighted += weight * plan.cost;
    }
  }
  EXPECT_LT(nose_weighted, normalized_cost);
}

TEST_F(RubisAdvisorTest, BaselineSchemasExecuteTransactions) {
  auto expert = rubis::ExpertSchema(*graph_);
  ASSERT_TRUE(expert.ok());
  CostModel cost_model;
  CardinalityEstimator estimator(graph_.get(), &cost_model.params());
  QueryPlanner planner(&cost_model, &estimator);

  RecordStore store;
  ASSERT_TRUE(LoadSchema(*data_, *expert, &store).ok());
  PlanExecutor executor(&store, &*expert);
  rubis::ParamGenerator gen(data_.get(), 5);
  for (const auto& [entry, weight] :
       workload_->EntriesIn(Workload::kDefaultMix)) {
    if (entry->IsQuery()) {
      auto plan =
          planner.PlanForSchema(entry->query(), expert->column_families());
      ASSERT_TRUE(plan.ok()) << entry->name;
      auto result = executor.ExecuteQuery(*plan, gen.ForStatement(*entry));
      EXPECT_TRUE(result.ok()) << entry->name << ": " << result.status();
    } else {
      auto plan = PlanUpdateForSchema(entry->update(), *expert, planner,
                                      estimator, cost_model);
      ASSERT_TRUE(plan.ok()) << entry->name;
      Status s = executor.ExecuteUpdate(*plan, gen.ForStatement(*entry));
      EXPECT_TRUE(s.ok()) << entry->name << ": " << s;
    }
  }
}

}  // namespace
}  // namespace nose
