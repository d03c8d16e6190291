// Multi-period, migration-aware planning (advisor::PlanHorizon +
// SchemaOptimizer over a horizon): static-horizon parity with Recommend,
// migration-cost gating, shared transition pricing, thread determinism,
// and what every horizon shares with the single-mix solve: the
// certificate, the deadline, and the schema-size stage.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "analysis/certify.h"
#include "optimizer/formulation.h"
#include "randwl/random_workload.h"
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

/// Renders a plan and every window's recommendation, for byte comparisons.
std::string Render(const HorizonPlan& plan) {
  std::string rendered = plan.ToString();
  for (const HorizonPlan::Window& w : plan.windows) {
    rendered += w.rec.ToString();
  }
  return rendered;
}

TEST(HorizonTest, TwoWindowHorizonCertifiesInExactArithmetic) {
  RubisFixture f = MakeRubis();
  SolveCertificate cert;
  AdvisorOptions options;
  options.optimizer.capture_certificate = &cert;
  Advisor advisor(options);
  HorizonOptions cheap;
  cheap.migration_cost_weight = 1e-9;
  auto plan = advisor.PlanHorizon(
      *f.workload, MakeHorizon({{"default", 5.0}, {"browsing", 5.0}}), cheap);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(plan->transitions.empty());

  // The certificate describes the joint BIP, and its point is the returned
  // schedule: exactly feasible, at the schedule's objective.
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(report.bound_available);
  EXPECT_GE(report.certified_gap, 0.0);
  EXPECT_NEAR(report.exact_objective, plan->total_objective,
              1e-9 * std::max(1.0, plan->total_objective));

  // The transition and drop variables are the last 2·C variables, one
  // (t, d) pair per candidate. Clearing one that the schedule sets breaks
  // its row, t ≥ δ_1 − δ_0 or d ≥ δ_0 − δ_1.
  const size_t num_cands = plan->pool.size();
  ASSERT_GE(cert.x.size(), 2 * num_cands);
  const auto first =
      cert.x.end() - static_cast<std::ptrdiff_t>(2 * num_cands);
  const auto set = std::find(first, cert.x.end(), 1.0);
  ASSERT_NE(set, cert.x.end()) << "the schedule migrates nothing";
  SolveCertificate flipped = cert;
  flipped.x[static_cast<size_t>(set - cert.x.begin())] = 0.0;
  const CertificateReport rejected = CheckCertificate(flipped);
  EXPECT_FALSE(rejected.verified);
  ASSERT_FALSE(rejected.diagnostics.empty());
  EXPECT_EQ(rejected.diagnostics[0].code, "NOSE-C002");
}

TEST(HorizonTest, SpentDeadlineStillReturnsAnAuditedSchedule) {
  RubisFixture f = MakeRubis();
  AdvisorOptions options;
  options.verify_invariants = true;  // every window's plans are audited
  options.optimizer.deadline_seconds = 1e-9;
  auto plan = Advisor(options).PlanHorizon(
      *f.workload, MakeHorizon({{"default", 5.0}, {"browsing", 5.0}}));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->windows.size(), 2u);
  for (const HorizonPlan::Window& w : plan->windows) {
    EXPECT_GE(w.rec.anytime_gap, 0.0);
    EXPECT_LE(w.rec.anytime_gap, 1.0);
    EXPECT_GT(w.rec.schema.size(), 0u);
    // The pre-solves spent the one budget, so the joint solve stopped at
    // its root node at the latest (unbudgeted, it explores 3).
    EXPECT_LE(w.rec.bb_nodes, 1);
  }
  EXPECT_EQ(plan->total_objective,
            plan->execution_objective + plan->migration_objective);
}

TEST(HorizonTest, GenerousDeadlineIsByteIdenticalToNoDeadline) {
  RubisFixture f = MakeRubis();
  const WorkloadHorizon horizon =
      MakeHorizon({{"default", 3.0}, {"browsing", 4.0}});
  auto unbudgeted = Advisor().PlanHorizon(*f.workload, horizon);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status();
  AdvisorOptions options;
  options.optimizer.deadline_seconds = 3600.0;
  auto budgeted = Advisor(options).PlanHorizon(*f.workload, horizon);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_EQ(Render(*budgeted), Render(*unbudgeted));
  EXPECT_EQ(budgeted->total_objective, unbudgeted->total_objective);
  for (const HorizonPlan::Window& w : budgeted->windows) {
    EXPECT_EQ(w.rec.anytime_gap, 0.0);
  }
}

/// The objective the joint size stage walks, evaluated independently:
/// Σ_w duration_w · WindowObjective + the migration charges of the
/// selection diffs. Adjacent windows of `horizon` must differ in mix, so
/// each window is its own group.
double ScheduleObjective(const Workload& workload,
                         const WorkloadHorizon& horizon,
                         const std::vector<WindowFormulation>& forms,
                         const CandidatePool& pool, const CostModel& cost,
                         const HorizonOptions& options,
                         const std::vector<std::vector<bool>>& sel) {
  double obj = 0.0;
  for (size_t w = 0; w < sel.size(); ++w) {
    obj += horizon.windows[w].duration * WindowObjective(forms[w], sel[w]);
  }
  for (size_t w = 1; w < sel.size(); ++w) {
    MigrationTraffic traffic;
    traffic.update_weight_share =
        UpdateWeightShare(workload, horizon.windows[w].mix);
    traffic.chunk_rows = options.backfill_chunk_rows;
    for (size_t c = 0; c < pool.size(); ++c) {
      if (sel[w][c] && !sel[w - 1][c]) {
        obj += options.migration_cost_weight *
               (BuildCostMs(pool[c], cost) +
                DualWriteCostMs(pool[c], cost, traffic));
      } else if (!sel[w][c] && sel[w - 1][c]) {
        obj += options.migration_cost_weight * DropCostMs(cost);
      }
    }
  }
  return obj;
}

/// The joint size stage against the cost stage alone: the schedule costs
/// the same to within the 1e-6 budget, has no more column families, and is
/// a fixpoint — dropping any family that remains in any window lifts the
/// schedule's objective past the budget. Returns the families dropped.
size_t ExpectJointDropPassProperties(const Workload& workload,
                                     const WorkloadHorizon& horizon,
                                     const HorizonOptions& options) {
  AdvisorOptions cost_only;
  cost_only.optimizer.minimize_schema_size = false;
  auto cost_stage = Advisor(cost_only).PlanHorizon(workload, horizon, options);
  EXPECT_TRUE(cost_stage.ok()) << cost_stage.status();
  Advisor advisor;
  auto sized = advisor.PlanHorizon(workload, horizon, options);
  EXPECT_TRUE(sized.ok()) << sized.status();
  if (!cost_stage.ok() || !sized.ok()) return 0;

  const double slack =
      1e-6 * std::max(1.0, std::abs(cost_stage->total_objective));
  const double budget = cost_stage->total_objective + slack;
  EXPECT_NEAR(sized->total_objective, cost_stage->total_objective, slack);
  size_t cost_families = 0;
  size_t sized_families = 0;
  for (size_t w = 0; w < horizon.size(); ++w) {
    cost_families += cost_stage->windows[w].rec.schema.size();
    sized_families += sized->windows[w].rec.schema.size();
  }
  EXPECT_LE(sized_families, cost_families);

  CardinalityEstimator est(workload.graph(),
                           &advisor.cost_model().params());
  std::vector<WindowFormulation> forms;
  std::vector<std::vector<bool>> sel;
  for (size_t w = 0; w < horizon.size(); ++w) {
    auto form = BuildWindowFormulation(workload, horizon.windows[w].mix,
                                       sized->pool, &advisor.cost_model(),
                                       &est, nullptr, nullptr);
    EXPECT_TRUE(form.ok()) << form.status();
    if (!form.ok()) return 0;
    forms.push_back(std::move(form).value());
    sel.emplace_back(sized->pool.size(), false);
    const Schema& schema = sized->windows[w].rec.schema;
    for (size_t i = 0; i < schema.size(); ++i) {
      sel[w][schema.PoolIdAt(i)] = true;
    }
  }
  auto objective = [&] {
    return ScheduleObjective(workload, horizon, forms, sized->pool,
                             advisor.cost_model(), options, sel);
  };
  EXPECT_LE(objective(), budget);
  for (size_t w = 0; w < sel.size(); ++w) {
    for (size_t c = 0; c < sel[w].size(); ++c) {
      if (!sel[w][c]) continue;
      sel[w][c] = false;
      EXPECT_GT(objective(), budget)
          << "window " << w << " could still drop candidate " << c;
      sel[w][c] = true;
    }
  }
  return cost_families - sized_families;
}

TEST(HorizonTest, JointSizeStageIsAFixpointWithinBudget) {
  // RUBiS: the cost stage leaves nothing to drop.
  RubisFixture f = MakeRubis();
  for (double weight : {1e-9, 1.0}) {
    SCOPED_TRACE("rubis, migration weight " + std::to_string(weight));
    HorizonOptions options;
    options.migration_cost_weight = weight;
    EXPECT_EQ(ExpectJointDropPassProperties(
                  *f.workload,
                  MakeHorizon({{"default", 5.0}, {"browsing", 5.0}}), options),
              0u);
  }

  // Seed 1030 with a reweighted second mix and near-free migrations: the
  // joint cost optimum keeps a family the schedule can do without, and the
  // stage drops it.
  randwl::GeneratorOptions gen;
  gen.num_entities = 4;
  gen.num_statements = 6;
  gen.seed = 1030;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();
  size_t i = 0;
  for (const WorkloadEntry& entry : rw->workload->entries()) {
    const double weight = entry.WeightIn(Workload::kDefaultMix);
    ASSERT_TRUE(rw->workload
                    ->SetWeight(entry.name, "alt",
                                weight * (i++ % 3 == 0 ? 5.0 : 0.3))
                    .ok());
  }
  SCOPED_TRACE("randwl seed 1030");
  HorizonOptions cheap;
  cheap.migration_cost_weight = 1e-9;
  EXPECT_GE(ExpectJointDropPassProperties(
                *rw->workload, MakeHorizon({{"default", 5.0}, {"alt", 5.0}}),
                cheap),
            1u);
}

}  // namespace
}  // namespace nose
