// Multi-period, migration-aware planning (advisor::PlanHorizon +
// optimizer/horizon.h): static-horizon collapse parity, migration-cost
// gating, shared transition pricing, and thread determinism.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "rubis/datagen.h"
#include "rubis/model.h"
#include "rubis/workload.h"

namespace nose {
namespace {

rubis::ModelScale TinyScale() {
  rubis::ModelScale scale;
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

struct RubisFixture {
  std::unique_ptr<EntityGraph> graph;
  std::unique_ptr<Workload> workload;
};

RubisFixture MakeRubis() {
  RubisFixture f;
  auto graph = rubis::MakeGraph(TinyScale());
  EXPECT_TRUE(graph.ok()) << graph.status();
  f.graph = std::move(graph).value();
  auto workload = rubis::MakeWorkload(*f.graph);
  EXPECT_TRUE(workload.ok()) << workload.status();
  f.workload = std::move(workload).value();
  return f;
}

WorkloadHorizon MakeHorizon(
    const std::vector<std::pair<std::string, double>>& mixes) {
  WorkloadHorizon horizon;
  for (const auto& [mix, duration] : mixes) {
    HorizonWindow window;
    window.label = mix;
    window.mix = mix;
    window.duration = duration;
    horizon.windows.push_back(std::move(window));
  }
  return horizon;
}

TEST(HorizonTest, StaticHorizonCollapsesToSingleWindowRecommend) {
  RubisFixture f = MakeRubis();
  Advisor advisor;

  auto single = advisor.Recommend(*f.workload, Workload::kDefaultMix);
  ASSERT_TRUE(single.ok()) << single.status();

  auto plan = advisor.PlanHorizon(
      *f.workload, MakeHorizon({{"default", 1.0},
                                {"default", 2.0},
                                {"default", 0.5}}));
  ASSERT_TRUE(plan.ok()) << plan.status();

  // W identical windows collapse to ONE single-window solve: zero
  // migrations, and every window byte-identical to Recommend.
  EXPECT_TRUE(plan->collapsed);
  EXPECT_TRUE(plan->transitions.empty());
  EXPECT_EQ(plan->migration_objective, 0.0);
  ASSERT_EQ(plan->windows.size(), 3u);
  for (const HorizonPlan::Window& w : plan->windows) {
    EXPECT_EQ(w.rec.ToString(), single->ToString());
    EXPECT_EQ(w.rec.objective, single->objective);
  }
  EXPECT_EQ(plan->execution_objective, 3.5 * single->objective);
  EXPECT_EQ(plan->total_objective, plan->execution_objective);
}

TEST(HorizonTest, MigrationCostWeightGatesTransitions) {
  RubisFixture f = MakeRubis();
  Advisor advisor;

  // Near-free migrations: every window gets its myopic optimum, and since
  // the bidding- and browsing-optimal schemas differ, the plan migrates.
  HorizonOptions cheap;
  cheap.migration_cost_weight = 1e-9;
  auto adaptive = advisor.PlanHorizon(
      *f.workload, MakeHorizon({{"default", 5.0}, {"browsing", 5.0}}), cheap);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  EXPECT_FALSE(adaptive->collapsed);

  auto bidding = advisor.Recommend(*f.workload, "default");
  auto browsing = advisor.Recommend(*f.workload, "browsing");
  ASSERT_TRUE(bidding.ok());
  ASSERT_TRUE(browsing.ok());
  ASSERT_EQ(adaptive->windows.size(), 2u);
  // With migrations priced at ~0 the joint optimum matches the per-mix
  // optima window by window.
  EXPECT_NEAR(adaptive->windows[0].rec.objective, bidding->objective,
              1e-9 * std::max(1.0, bidding->objective));
  EXPECT_NEAR(adaptive->windows[1].rec.objective, browsing->objective,
              1e-9 * std::max(1.0, browsing->objective));
  if (bidding->schema.ToString() != browsing->schema.ToString()) {
    EXPECT_GE(adaptive->transitions.size(), 1u);
  }

  // Prohibitive migrations: no BUILD is ever scheduled after window 0
  // (drops stay free, per the shared MigrationPlanner pricing, so the
  // later window may still shed column families it stops using). Every
  // window-1 column family must already exist in window 0.
  HorizonOptions pinned;
  pinned.migration_cost_weight = 1e12;
  auto constant = advisor.PlanHorizon(
      *f.workload, MakeHorizon({{"default", 5.0}, {"browsing", 5.0}}), pinned);
  ASSERT_TRUE(constant.ok()) << constant.status();
  for (const HorizonTransition& t : constant->transitions) {
    EXPECT_TRUE(t.builds.empty());
    EXPECT_EQ(t.build_cost_ms, 0.0);
  }
  EXPECT_EQ(constant->migration_objective, 0.0);
  ASSERT_EQ(constant->windows.size(), 2u);
  const Schema& first = constant->windows[0].rec.schema;
  const Schema& second = constant->windows[1].rec.schema;
  for (const ColumnFamily& cf : second.column_families()) {
    EXPECT_NE(first.FindByKey(cf.key()), nullptr) << cf.ToString();
  }
  // The build-pinned plan cannot beat the adapt-freely plan on execution.
  EXPECT_GE(constant->execution_objective,
            adaptive->execution_objective - 1e-9);
}

TEST(HorizonTest, TransitionPricingMatchesSharedBuildCost) {
  RubisFixture f = MakeRubis();
  Advisor advisor;

  HorizonOptions options;
  options.migration_cost_weight = 1e-9;  // force per-window adaptation
  auto plan = advisor.PlanHorizon(
      *f.workload, MakeHorizon({{"default", 5.0}, {"browsing", 5.0}}),
      options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Every transition's charges are exactly the shared BuildCostMs /
  // DropCostMs / DualWriteCostMs pricing over its builds and drops — the
  // same functions MigrationPlanner charges, so planned and executed
  // migrations agree.
  double total_ms = 0.0;
  for (const HorizonTransition& t : plan->transitions) {
    MigrationTraffic traffic;
    traffic.update_weight_share =
        UpdateWeightShare(*f.workload, plan->windows[t.at_window].mix);
    traffic.chunk_rows = options.backfill_chunk_rows;
    double expected_build = 0.0;
    double expected_dw = 0.0;
    for (CfId id : t.builds) {
      ASSERT_LT(id, plan->pool.size());
      expected_build += BuildCostMs(plan->pool[id], advisor.cost_model());
      expected_dw +=
          DualWriteCostMs(plan->pool[id], advisor.cost_model(), traffic);
    }
    EXPECT_EQ(t.build_cost_ms, expected_build);
    EXPECT_EQ(t.dual_write_cost_ms, expected_dw);
    EXPECT_EQ(t.drop_cost_ms, static_cast<double>(t.drops.size()) *
                                  DropCostMs(advisor.cost_model()));
    total_ms += expected_build + t.drop_cost_ms + expected_dw;
  }
  EXPECT_EQ(plan->migration_objective,
            options.migration_cost_weight * total_ms);
  EXPECT_EQ(plan->total_objective,
            plan->execution_objective + plan->migration_objective);
}

TEST(HorizonTest, PlanIsByteIdenticalAtAnyThreadCount) {
  RubisFixture f = MakeRubis();

  std::string reference;
  double reference_objective = 0.0;
  for (size_t threads : {1u, 2u, 8u}) {
    AdvisorOptions options;
    options.num_threads = threads;
    Advisor advisor(options);
    auto plan = advisor.PlanHorizon(
        *f.workload, MakeHorizon({{"default", 3.0}, {"browsing", 4.0}}));
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::string rendered = plan->ToString();
    for (const HorizonPlan::Window& w : plan->windows) {
      rendered += w.rec.ToString();
    }
    if (reference.empty()) {
      reference = rendered;
      reference_objective = plan->total_objective;
    } else {
      EXPECT_EQ(rendered, reference) << "threads=" << threads;
      EXPECT_EQ(plan->total_objective, reference_objective)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace nose
