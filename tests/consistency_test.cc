// Cross-schema consistency: whatever schema the workload runs against —
// NoSE-recommended, normalized, or expert — query results must be
// identical, before and after updates. This is the strongest end-to-end
// property of the whole pipeline: enumeration, planning, optimization,
// loading and execution all have to agree on semantics. Queries with an
// ORDER BY must also come back in that order on every schema.

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "parser/statement_parser.h"
#include "rubis/datagen.h"
#include "rubis/expert_schema.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "schemas/normalized.h"
#include "tests/reference_evaluator.h"

namespace nose {
namespace {

/// Checks that `rows` are non-decreasing in `query`'s ORDER BY fields,
/// which must all be selected; returns the number of adjacent row pairs
/// compared.
size_t ExpectOrdered(const Query& query, const std::vector<ValueTuple>& rows,
                     const std::string& label) {
  std::vector<size_t> columns;
  for (const OrderField& o : query.order_by()) {
    auto it = std::find(query.select().begin(), query.select().end(), o.field);
    if (it == query.select().end()) {
      ADD_FAILURE() << label << ": ORDER BY field " << o.field
                    << " is not selected";
      return 0;
    }
    columns.push_back(static_cast<size_t>(it - query.select().begin()));
  }
  if (columns.empty()) return 0;
  auto key = [&](const ValueTuple& row) {
    ValueTuple k;
    for (size_t c : columns) k.push_back(row[c]);
    return k;
  };
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_FALSE(key(rows[i]) < key(rows[i - 1]))
        << label << ": row " << i << " " << ValueTupleToString(rows[i])
        << " sorts before row " << i - 1 << " "
        << ValueTupleToString(rows[i - 1]);
  }
  return rows.size() < 2 ? 0 : rows.size() - 1;
}

struct SchemaRun {
  std::string label;
  Schema schema;
  std::unique_ptr<Recommendation> rec;
  std::map<std::string, QueryPlan> query_plans;
  std::map<std::string, UpdatePlan> update_plans;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<PlanExecutor> executor;
};

class ConsistencyTest : public ::testing::Test {
 protected:
  ConsistencyTest() {
    rubis::ModelScale scale;
    scale.regions = 3;
    scale.categories = 4;
    scale.users = 60;
    scale.items = 120;
    scale.old_items = 50;
    scale.bids = 600;
    scale.buynows = 40;
    scale.comments = 120;
    auto graph = rubis::MakeGraph(scale);
    assert(graph.ok());
    graph_ = std::move(graph).value();
    data_ = std::make_unique<Dataset>(
        rubis::GenerateData(graph_.get(), scale, 11));
    auto workload = rubis::MakeWorkload(*graph_);
    assert(workload.ok());
    workload_ = std::move(workload).value();
  }

  std::unique_ptr<SchemaRun> MakeNose() {
    auto run = std::make_unique<SchemaRun>();
    run->label = "nose";
    Advisor advisor;
    auto rec = advisor.Recommend(*workload_);
    EXPECT_TRUE(rec.ok()) << rec.status();
    run->rec = std::make_unique<Recommendation>(std::move(rec).value());
    run->schema = run->rec->schema;
    for (const auto& [n, p] : run->rec->query_plans) run->query_plans.emplace(n, p);
    for (const auto& [n, p] : run->rec->update_plans) {
      run->update_plans.emplace(n, p);
    }
    Finish(run.get());
    return run;
  }

  std::unique_ptr<SchemaRun> MakeFixed(const std::string& label,
                                       Schema schema) {
    auto run = std::make_unique<SchemaRun>();
    run->label = label;
    run->schema = std::move(schema);
    CostModel cm;
    CardinalityEstimator est(graph_.get(), &cm.params());
    QueryPlanner planner(&cm, &est);
    for (const auto& [entry, weight] :
         workload_->EntriesIn(Workload::kDefaultMix)) {
      if (entry->IsQuery()) {
        auto plan = planner.PlanForSchema(entry->query(),
                                          run->schema.column_families());
        EXPECT_TRUE(plan.ok()) << label << "/" << entry->name;
        if (plan.ok()) run->query_plans.emplace(entry->name, std::move(plan).value());
      } else {
        auto plan =
            PlanUpdateForSchema(entry->update(), run->schema, planner, est, cm);
        EXPECT_TRUE(plan.ok()) << label << "/" << entry->name;
        if (plan.ok()) run->update_plans.emplace(entry->name, std::move(plan).value());
      }
    }
    Finish(run.get());
    return run;
  }

  void Finish(SchemaRun* run) {
    run->store = std::make_unique<RecordStore>();
    ASSERT_TRUE(LoadSchema(*data_, run->schema, run->store.get()).ok());
    run->executor =
        std::make_unique<PlanExecutor>(run->store.get(), &run->schema);
  }

  std::unique_ptr<EntityGraph> graph_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(ConsistencyTest, AllSchemasAgreeOnEveryQueryAndSurviveUpdates) {
  auto nose = MakeNose();
  auto normalized_schema =
      NormalizedSchema(*graph_, *workload_, Workload::kDefaultMix);
  ASSERT_TRUE(normalized_schema.ok());
  auto normalized = MakeFixed("normalized", std::move(normalized_schema).value());
  auto expert_schema = rubis::ExpertSchema(*graph_);
  ASSERT_TRUE(expert_schema.ok());
  auto expert = MakeFixed("expert", std::move(expert_schema).value());
  SchemaRun* runs[] = {nose.get(), normalized.get(), expert.get()};

  rubis::ParamGenerator gen(data_.get(), 4242);

  // Phase 1: every read statement agrees across schemas and with the
  // reference evaluation over the raw dataset.
  for (const auto& [entry, weight] :
       workload_->EntriesIn(Workload::kDefaultMix)) {
    if (!entry->IsQuery()) continue;
    for (int trial = 0; trial < 4; ++trial) {
      const PlanExecutor::Params params = gen.ForStatement(*entry);
      const auto want =
          CanonicalRows(ReferenceEvaluate(*data_, entry->query(), params));
      for (SchemaRun* run : runs) {
        auto got = run->executor->ExecuteQuery(run->query_plans.at(entry->name),
                                               params);
        ASSERT_TRUE(got.ok()) << run->label << "/" << entry->name << ": "
                              << got.status();
        EXPECT_EQ(CanonicalRows(*got), want)
            << run->label << "/" << entry->name << " trial " << trial;
        ExpectOrdered(entry->query(), *got, run->label + "/" + entry->name);
      }
    }
  }

  // Phase 2: apply the same update stream to every schema, then re-check a
  // read-heavy subset agreement *between schemas* (the dataset no longer
  // matches, so schemas are compared against each other).
  for (const auto& [entry, weight] :
       workload_->EntriesIn(Workload::kDefaultMix)) {
    if (entry->IsQuery()) continue;
    for (int trial = 0; trial < 2; ++trial) {
      const PlanExecutor::Params params = gen.ForStatement(*entry);
      for (SchemaRun* run : runs) {
        Status s = run->executor->ExecuteUpdate(run->update_plans.at(entry->name),
                                                params);
        ASSERT_TRUE(s.ok()) << run->label << "/" << entry->name << ": " << s;
      }
    }
  }
  for (const auto& [entry, weight] :
       workload_->EntriesIn(Workload::kDefaultMix)) {
    if (!entry->IsQuery()) continue;
    for (int trial = 0; trial < 3; ++trial) {
      const PlanExecutor::Params params = gen.ForStatement(*entry);
      std::vector<std::vector<ValueTuple>> results;
      for (SchemaRun* run : runs) {
        auto got = run->executor->ExecuteQuery(run->query_plans.at(entry->name),
                                               params);
        ASSERT_TRUE(got.ok()) << run->label << "/" << entry->name;
        results.push_back(CanonicalRows(*got));
      }
      EXPECT_EQ(results[0], results[1])
          << "nose vs normalized on " << entry->name;
      EXPECT_EQ(results[0], results[2]) << "nose vs expert on " << entry->name;
    }
  }
}

TEST_F(ConsistencyTest, OrderedQueriesComeBackSortedOnEverySchema) {
  // RUBiS itself has no ORDER BY statement. These are ordered variants of
  // three of its reads (parameters drawn as for the named statement),
  // planned against every schema; most orders are not clustered orders of
  // any column family, so the executor sorts client-side.
  struct Ordered {
    const char* base;
    const char* text;
  };
  const Ordered ordered[] = {
      {"bid_history",
       "SELECT Bid.BidDate, Bid.BidPrice, User.UserName FROM User.Bids.Item "
       "WHERE Item.ItemID = ?item ORDER BY Bid.BidDate"},
      {"search_items_category",
       "SELECT Item.ItemEndDate, Item.ItemName FROM Item.Category "
       "WHERE Category.CategoryID = ?category AND Item.ItemEndDate >= ?now "
       "ORDER BY Item.ItemEndDate, Item.ItemName"},
      {"user_comments",
       "SELECT Comment.CommentRating, Comment.CommentDate, "
       "Comment.CommentText FROM Comment.ToUser WHERE User.UserID = ?user "
       "ORDER BY Comment.CommentRating, Comment.CommentDate"},
  };
  auto nose = MakeNose();
  auto normalized_schema =
      NormalizedSchema(*graph_, *workload_, Workload::kDefaultMix);
  ASSERT_TRUE(normalized_schema.ok());
  auto normalized = MakeFixed("normalized", std::move(normalized_schema).value());
  auto expert_schema = rubis::ExpertSchema(*graph_);
  ASSERT_TRUE(expert_schema.ok());
  auto expert = MakeFixed("expert", std::move(expert_schema).value());
  SchemaRun* runs[] = {nose.get(), normalized.get(), expert.get()};

  CostModel cm;
  CardinalityEstimator est(graph_.get(), &cm.params());
  QueryPlanner planner(&cm, &est);
  rubis::ParamGenerator gen(data_.get(), 777);
  size_t pairs = 0;
  for (const Ordered& o : ordered) {
    auto query = ParseQuery(*graph_, o.text);
    ASSERT_TRUE(query.ok()) << o.text << ": " << query.status();
    const WorkloadEntry* base = workload_->FindEntry(o.base);
    ASSERT_NE(base, nullptr) << o.base;
    for (int trial = 0; trial < 6; ++trial) {
      const PlanExecutor::Params params = gen.ForStatement(*base);
      const auto want =
          CanonicalRows(ReferenceEvaluate(*data_, *query, params));
      for (SchemaRun* run : runs) {
        const std::string label = run->label + "/ordered " + o.base;
        auto plan = planner.PlanForSchema(*query, run->schema.column_families());
        ASSERT_TRUE(plan.ok()) << label << ": " << plan.status();
        auto got = run->executor->ExecuteQuery(*plan, params);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status();
        EXPECT_EQ(CanonicalRows(*got), want) << label << " trial " << trial;
        pairs += ExpectOrdered(*query, *got, label);
      }
    }
  }
  EXPECT_GT(pairs, 0u);  // some results had more than one row to order
}

}  // namespace
}  // namespace nose
