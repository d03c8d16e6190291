#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "optimizer/formulation.h"
#include "randwl/random_workload.h"
#include "tests/hotel_fixture.h"

namespace nose {
namespace {

Query MakeGuestPoiQuery(const EntityGraph& graph) {
  auto path =
      graph.ResolvePath("POI", {"Hotels", "Rooms", "Reservations", "Guest"});
  std::vector<FieldRef> select = {{"POI", "POIName"}};
  std::vector<Predicate> preds = {
      {{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "guest"}};
  return Query(std::move(path).value(), std::move(select), std::move(preds),
               {});
}

/// Builds a mixed hotel workload with `update_weight` on a POI update.
std::unique_ptr<Workload> MakeMixedWorkload(const EntityGraph& graph,
                                            double update_weight) {
  auto workload = std::make_unique<Workload>(&graph);
  (void)workload->AddQuery("guests_by_city", MakeFig3Query(graph), 2.0);
  (void)workload->AddQuery("guest_pois", MakeGuestPoiQuery(graph), 1.0);
  auto poi = graph.SingleEntityPath("POI");
  auto upd = Update::MakeUpdate(
      *poi, {{"POIDescription", std::nullopt, "d"}},
      {{{"POI", "POIID"}, PredicateOp::kEq, std::nullopt, "p"}});
  (void)workload->AddUpdate("upd_poi", std::move(upd).value(), update_weight);
  return workload;
}

/// Both strategies prove the cost optimum at the default (zero) gap, so
/// they must agree on the objective to floating-point accuracy.
TEST(OptimizerStrategyTest, CombinatorialMatchesBipOnHotelWorkloads) {
  auto graph = MakeHotelGraph();
  for (double w : {0.001, 0.5, 10.0}) {
    auto workload = MakeMixedWorkload(*graph, w);

    AdvisorOptions bip_opts;
    bip_opts.optimizer.strategy = SolveStrategy::kBip;
    Advisor bip_advisor(bip_opts);
    auto bip = bip_advisor.Recommend(*workload);
    ASSERT_TRUE(bip.ok()) << bip.status();

    AdvisorOptions comb_opts;
    comb_opts.optimizer.strategy = SolveStrategy::kCombinatorial;
    Advisor comb_advisor(comb_opts);
    auto comb = comb_advisor.Recommend(*workload);
    ASSERT_TRUE(comb.ok()) << comb.status();

    const double tol =
        1e-9 * std::max(1e-9, std::max(bip->objective, comb->objective));
    EXPECT_NEAR(bip->objective, comb->objective, tol) << "weight " << w;
  }
}

// Sanitizer instrumentation slows the solvers several-fold; give the BIP a
// proportionally larger wall-clock budget so the equivalence check below
// compares strategies rather than build configurations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kSolverBudgetScale = 8.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kSolverBudgetScale = 8.0;
#else
constexpr double kSolverBudgetScale = 1.0;
#endif
#else
constexpr double kSolverBudgetScale = 1.0;
#endif

class StrategyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyEquivalenceTest, RandomWorkloadsAgree) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 4;
  gen.num_statements = 6;
  gen.seed = 1000 + static_cast<uint64_t>(GetParam());
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();

  AdvisorOptions bip_opts;
  bip_opts.optimizer.strategy = SolveStrategy::kBip;
  bip_opts.optimizer.bip.time_limit_seconds = 30 * kSolverBudgetScale;
  Advisor bip_advisor(bip_opts);
  auto bip = bip_advisor.Recommend(*rw->workload);

  AdvisorOptions comb_opts;
  comb_opts.optimizer.strategy = SolveStrategy::kCombinatorial;
  Advisor comb_advisor(comb_opts);
  auto comb = comb_advisor.Recommend(*rw->workload);

  ASSERT_EQ(bip.ok(), comb.ok());
  if (!bip.ok()) return;
  if (!bip->solve_proven || !comb->solve_proven) {
    GTEST_SKIP() << "a solver hit its budget; objectives not comparable";
  }
  // The cross-solver differential oracle: two exact solvers, one optimum.
  const double tol =
      1e-9 * std::max(1e-9, std::max(bip->objective, comb->objective));
  EXPECT_NEAR(bip->objective, comb->objective, tol)
      << "seed " << gen.seed;
  // Both schemas must cover the workload with comparable costs; plan counts
  // match statement counts.
  EXPECT_EQ(bip->query_plans.size(), comb->query_plans.size());
  EXPECT_EQ(bip->update_plans.size(), comb->update_plans.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceTest,
                         ::testing::Range(0, 24));

TEST(OptimizerStrategyTest, ExactCombinatorialSearchKeepsItsFirstPass) {
  // A zero-gap combinatorial search runs a 1%-gap pass first. A node
  // budget that stops the tight pass right after it still returns that
  // pass's schema (or a cheaper one), with a bound proving it within 1%.
  randwl::GeneratorOptions gen;
  gen.num_entities = 4;
  gen.num_statements = 6;
  gen.seed = 1015;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();

  AdvisorOptions coarse;
  coarse.optimizer.strategy = SolveStrategy::kCombinatorial;
  coarse.optimizer.minimize_schema_size = false;
  coarse.optimizer.bip.relative_gap = 0.01;
  auto first = Advisor(coarse).Recommend(*rw->workload);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->solve_proven);

  AdvisorOptions capped = coarse;
  capped.optimizer.bip.relative_gap = 0.0;
  capped.optimizer.bip.max_nodes = first->bb_nodes + 1;
  auto rec = Advisor(capped).Recommend(*rw->workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_FALSE(rec->solve_proven);
  EXPECT_LE(rec->objective, first->objective);
  EXPECT_GE(rec->best_bound, 0.99 * first->objective - 1e-9);
  EXPECT_LE(rec->anytime_gap, 0.01 + 1e-9);

  AdvisorOptions exact = capped;
  exact.optimizer.bip.max_nodes = OptimizerOptions().bip.max_nodes;
  auto proven = Advisor(exact).Recommend(*rw->workload);
  ASSERT_TRUE(proven.ok()) << proven.status();
  EXPECT_TRUE(proven->solve_proven);
  EXPECT_LE(proven->objective, rec->objective);
}

TEST(OptimizerStrategyTest, AutoSelectsBipForSmallPools) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  AdvisorOptions opts;  // kAuto by default
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*workload);
  ASSERT_TRUE(rec.ok());
  // Small pool => BIP path => variable counts reported.
  EXPECT_GT(rec->bip_variables, 0);
}

TEST(OptimizerStrategyTest, SpaceLimitForcesBip) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  AdvisorOptions opts;
  opts.optimizer.strategy = SolveStrategy::kCombinatorial;
  opts.optimizer.space_limit_bytes = 1e12;  // roomy, but forces BIP
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GT(rec->bip_variables, 0);  // BIP path was taken
}

TEST(OptimizerCacheTest, StructuralChangeDiscardsWarmStart) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);

  CostModel cost;
  CardinalityEstimator est(graph.get(), &cost.params());
  CandidatePool pool =
      Enumerator().EnumerateWorkload(*workload, Workload::kDefaultMix);

  OptimizerOptions opts;
  opts.strategy = SolveStrategy::kBip;
  SchemaOptimizer optimizer(&cost, &est, opts);

  PlanSpaceCache cache;
  auto full = optimizer.Optimize(*workload, Workload::kDefaultMix, pool,
                                 nullptr, &cache);
  ASSERT_TRUE(full.ok()) << full.status();
  // The solve deposits its root basis plus the BIP's structural
  // fingerprint.
  ASSERT_FALSE(cache.last_root_basis.empty());
  ASSERT_GT(cache.last_bip_variables, 0);
  const int full_vars = cache.last_bip_variables;
  const int full_rows = cache.last_bip_rows;

  // Mutate the workload between mixes: a new mix spanning only one query
  // assembles a structurally different BIP. The fingerprint guard must
  // discard the stale warm start and root basis instead of applying them
  // to a mismatched variable space — and the cached-path result must match
  // a cache-free solve exactly.
  ASSERT_TRUE(workload->SetWeight("guests_by_city", "small", 1.0).ok());
  auto cached = optimizer.Optimize(*workload, "small", pool, nullptr, &cache);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cache.last_bip_variables != full_vars ||
              cache.last_bip_rows != full_rows)
      << "the smaller mix should assemble a different BIP";

  auto fresh = optimizer.Optimize(*workload, "small", pool, nullptr, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_DOUBLE_EQ(cached->objective, fresh->objective);
  EXPECT_EQ(cached->schema.ToString(), fresh->schema.ToString());
}

TEST(OptimizerCacheTest, CorruptStaleSolutionIsIgnoredSafely) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  CostModel cost;
  CardinalityEstimator est(graph.get(), &cost.params());
  CandidatePool pool =
      Enumerator().EnumerateWorkload(*workload, Workload::kDefaultMix);
  OptimizerOptions opts;
  opts.strategy = SolveStrategy::kBip;
  SchemaOptimizer optimizer(&cost, &est, opts);

  // A cache carrying garbage with a non-matching fingerprint: the solve
  // must ignore it entirely (a matching one is never fabricated here).
  PlanSpaceCache cache;
  cache.last_bip_variables = 3;
  cache.last_bip_rows = 1;
  cache.last_bip_nonzeros = 3;
  cache.last_root_basis.status = {2, 0, 1, 2};
  auto guarded = optimizer.Optimize(*workload, Workload::kDefaultMix, pool,
                                    nullptr, &cache);
  ASSERT_TRUE(guarded.ok()) << guarded.status();
  auto plain = optimizer.Optimize(*workload, Workload::kDefaultMix, pool,
                                  nullptr, nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(guarded->objective, plain->objective);
  EXPECT_EQ(guarded->schema.ToString(), plain->schema.ToString());
}

/// The schema-size stage on one workload and strategy: against the cost
/// stage alone (minimize_schema_size = false), the returned schema is a
/// drop-pass fixpoint under the 1e-6 budget, costs the same to within that
/// budget, and has no more column families.
void ExpectDropPassProperties(const EntityGraph& graph,
                              const Workload& workload,
                              SolveStrategy strategy,
                              const std::string& label) {
  SCOPED_TRACE(label);
  const std::string mix = Workload::kDefaultMix;
  CostModel cost;
  CardinalityEstimator est(&graph, &cost.params());
  CandidatePool pool = Enumerator().EnumerateWorkload(workload, mix);

  OptimizerOptions opts;
  opts.strategy = strategy;
  opts.minimize_schema_size = false;
  auto cost_stage =
      SchemaOptimizer(&cost, &est, opts).Optimize(workload, mix, pool);
  ASSERT_TRUE(cost_stage.ok()) << cost_stage.status();
  opts.minimize_schema_size = true;
  auto sized = SchemaOptimizer(&cost, &est, opts).Optimize(workload, mix, pool);
  ASSERT_TRUE(sized.ok()) << sized.status();

  const double budget =
      cost_stage->objective +
      1e-6 * std::max(1.0, std::abs(cost_stage->objective));
  EXPECT_NEAR(sized->objective, cost_stage->objective,
              1e-6 * std::max(1.0, std::abs(cost_stage->objective)));
  EXPECT_LE(sized->schema.size(), cost_stage->schema.size());

  auto form = BuildWindowFormulation(workload, mix, pool, &cost, &est,
                                     nullptr, nullptr);
  ASSERT_TRUE(form.ok()) << form.status();
  std::vector<bool> selected(pool.size(), false);
  for (size_t i = 0; i < sized->schema.size(); ++i) {
    selected[sized->schema.PoolIdAt(i)] = true;
  }
  EXPECT_LE(WindowObjective(*form, selected), budget);
  for (size_t c = 0; c < selected.size(); ++c) {
    if (!selected[c]) continue;
    selected[c] = false;
    EXPECT_GT(WindowObjective(*form, selected), budget)
        << "candidate " << c << " could still be dropped";
    selected[c] = true;
  }
}

TEST(SchemaSizeStageTest, DropPassIsAFixpointWithinBudget) {
  auto graph = MakeHotelGraph();
  for (double w : {0.001, 0.5, 10.0}) {
    auto workload = MakeMixedWorkload(*graph, w);
    for (SolveStrategy strategy :
         {SolveStrategy::kBip, SolveStrategy::kCombinatorial}) {
      ExpectDropPassProperties(
          *graph, *workload, strategy,
          "hotel weight " + std::to_string(w) +
              (strategy == SolveStrategy::kBip ? " bip" : " combinatorial"));
    }
  }
  // Seed 1044's cost optimum has a family the workload can do without.
  for (uint64_t seed : {1000, 1005, 1044}) {
    randwl::GeneratorOptions gen;
    gen.num_entities = 4;
    gen.num_statements = 6;
    gen.seed = seed;
    auto rw = randwl::Generate(gen);
    ASSERT_TRUE(rw.ok()) << rw.status();
    for (SolveStrategy strategy :
         {SolveStrategy::kBip, SolveStrategy::kCombinatorial}) {
      ExpectDropPassProperties(
          *rw->graph, *rw->workload, strategy,
          "randwl seed " + std::to_string(seed) +
              (strategy == SolveStrategy::kBip ? " bip" : " combinatorial"));
    }
  }
}

TEST(SchemaSizeStageTest, DescendsFromEveryUsableCandidate) {
  // Starting from every usable candidate (a poor incumbent), the pass
  // drops families, ends no costlier than it started, and leaves a
  // fixpoint that a second call cannot shrink.
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  CostModel cost;
  CardinalityEstimator est(graph.get(), &cost.params());
  CandidatePool pool =
      Enumerator().EnumerateWorkload(*workload, Workload::kDefaultMix);
  auto form = BuildWindowFormulation(*workload, Workload::kDefaultMix, pool,
                                     &cost, &est, nullptr, nullptr);
  ASSERT_TRUE(form.ok()) << form.status();
  std::vector<bool> selected = form->allowed;
  const size_t before = std::count(selected.begin(), selected.end(), true);
  const double objective = WindowObjective(*form, selected);
  const int dropped = DropRedundantCandidates(*form, objective, &selected);
  const size_t after = std::count(selected.begin(), selected.end(), true);
  EXPECT_EQ(before - after, static_cast<size_t>(dropped));
  EXPECT_GT(dropped, 0);
  EXPECT_LE(WindowObjective(*form, selected),
            objective + 1e-6 * std::max(1.0, objective));
  EXPECT_EQ(DropRedundantCandidates(*form, objective, &selected), 0);
}

TEST(OptimizerStrategyTest, CombinatorialHandlesLargerRandomInstances) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 18;
  gen.num_statements = 36;
  gen.seed = 77;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok());
  AdvisorOptions opts;
  opts.optimizer.strategy = SolveStrategy::kCombinatorial;
  opts.optimizer.bip.time_limit_seconds = 20;
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*rw->workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GT(rec->schema.size(), 0u);
  EXPECT_GT(rec->objective, 0.0);
  EXPECT_LT(rec->timing.total_seconds, 60.0);
}

}  // namespace
}  // namespace nose
