#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "optimizer/formulation.h"
#include "randwl/random_workload.h"
#include "tests/combinatorial_oracle.h"
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

// Sanitizer instrumentation slows the solvers several-fold; give them a
// proportionally larger wall-clock budget so the oracle checks below
// compare answers rather than build configurations.
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

/// A single-mix solve: the only window of a one-window horizon.
StatusOr<OptimizationResult> OptimizeMix(const SchemaOptimizer& optimizer,
                                         const Workload& workload,
                                         const std::string& mix,
                                         const CandidatePool& pool,
                                         PlanSpaceCache* cache = nullptr) {
  auto solved = optimizer.Optimize(workload, WorkloadHorizon::Single(mix),
                                   pool, nullptr, cache);
  if (!solved.ok()) return solved.status();
  return std::move(solved->windows[0]);
}

/// The differential oracle: SchemaOptimizer's BIP and the combinatorial
/// branch and bound (tests/combinatorial_oracle.h) solve the same window
/// formulation over the same candidate pool. Both prove the cost optimum,
/// so they agree on it to floating-point accuracy. Returns false when a
/// budget stopped either search and the objectives are not comparable.
bool ExpectBipMatchesOracle(const EntityGraph& graph, const Workload& workload,
                            const std::string& label) {
  SCOPED_TRACE(label);
  const std::string mix = Workload::kDefaultMix;
  CostModel cost;
  CardinalityEstimator est(&graph, &cost.params());
  CandidatePool pool = Enumerator().EnumerateWorkload(workload, mix);

  OptimizerOptions opts;
  opts.bip.time_limit_seconds = 30 * kSolverBudgetScale;
  auto bip =
      OptimizeMix(SchemaOptimizer(&cost, &est, opts), workload, mix, pool);

  auto form = BuildWindowFormulation(workload, mix, pool, &cost, &est,
                                     nullptr, nullptr);
  EXPECT_EQ(bip.ok(), form.ok());
  if (!bip.ok() || !form.ok()) return true;
  const CombinatorialResult oracle =
      SolveCombinatorial(*form, 30 * kSolverBudgetScale);
  EXPECT_TRUE(oracle.feasible);
  if (!bip->solve_proven || !oracle.proven) return false;
  const double tol =
      1e-9 * std::max(1e-9, std::max(bip->objective, oracle.objective));
  EXPECT_NEAR(bip->objective, oracle.objective, tol);
  return true;
}

TEST(OptimizerStrategyTest, CombinatorialMatchesBipOnHotelWorkloads) {
  auto graph = MakeHotelGraph();
  for (double w : {0.001, 0.5, 10.0}) {
    auto workload = MakeMixedWorkload(*graph, w);
    EXPECT_TRUE(ExpectBipMatchesOracle(*graph, *workload,
                                       "weight " + std::to_string(w)));
  }
}

class StrategyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyEquivalenceTest, RandomWorkloadsAgree) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 4;
  gen.num_statements = 6;
  gen.seed = 1000 + static_cast<uint64_t>(GetParam());
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();
  if (!ExpectBipMatchesOracle(*rw->graph, *rw->workload,
                              "seed " + std::to_string(gen.seed))) {
    GTEST_SKIP() << "a solver hit its budget; objectives not comparable";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceTest,
                         ::testing::Range(0, 24));

TEST(OptimizerCacheTest, StructuralChangeDiscardsWarmStart) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);

  CostModel cost;
  CardinalityEstimator est(graph.get(), &cost.params());
  CandidatePool pool =
      Enumerator().EnumerateWorkload(*workload, Workload::kDefaultMix);

  SchemaOptimizer optimizer(&cost, &est);

  PlanSpaceCache cache;
  auto full = OptimizeMix(optimizer, *workload, Workload::kDefaultMix, pool,
                          &cache);
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
  auto cached = OptimizeMix(optimizer, *workload, "small", pool, &cache);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cache.last_bip_variables != full_vars ||
              cache.last_bip_rows != full_rows)
      << "the smaller mix should assemble a different BIP";

  auto fresh = OptimizeMix(optimizer, *workload, "small", pool);
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
  SchemaOptimizer optimizer(&cost, &est);

  // A cache carrying garbage with a non-matching fingerprint: the solve
  // must ignore it entirely (a matching one is never fabricated here).
  PlanSpaceCache cache;
  cache.last_bip_variables = 3;
  cache.last_bip_rows = 1;
  cache.last_bip_nonzeros = 3;
  cache.last_root_basis.status = {2, 0, 1, 2};
  auto guarded = OptimizeMix(optimizer, *workload, Workload::kDefaultMix,
                             pool, &cache);
  ASSERT_TRUE(guarded.ok()) << guarded.status();
  auto plain = OptimizeMix(optimizer, *workload, Workload::kDefaultMix, pool);
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(guarded->objective, plain->objective);
  EXPECT_EQ(guarded->schema.ToString(), plain->schema.ToString());
}

/// The schema-size stage on one workload: against the cost
/// stage alone (minimize_schema_size = false), the returned schema is a
/// drop-pass fixpoint under the 1e-6 budget, costs the same to within that
/// budget, and has no more column families.
void ExpectDropPassProperties(const EntityGraph& graph,
                              const Workload& workload,
                              const std::string& label) {
  SCOPED_TRACE(label);
  const std::string mix = Workload::kDefaultMix;
  CostModel cost;
  CardinalityEstimator est(&graph, &cost.params());
  CandidatePool pool = Enumerator().EnumerateWorkload(workload, mix);

  OptimizerOptions opts;
  opts.minimize_schema_size = false;
  auto cost_stage =
      OptimizeMix(SchemaOptimizer(&cost, &est, opts), workload, mix, pool);
  ASSERT_TRUE(cost_stage.ok()) << cost_stage.status();
  opts.minimize_schema_size = true;
  auto sized =
      OptimizeMix(SchemaOptimizer(&cost, &est, opts), workload, mix, pool);
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
    ExpectDropPassProperties(*graph, *workload,
                             "hotel weight " + std::to_string(w));
  }
  // Seed 1044's cost optimum has a family the workload can do without.
  for (uint64_t seed : {1000, 1005, 1044}) {
    randwl::GeneratorOptions gen;
    gen.num_entities = 4;
    gen.num_statements = 6;
    gen.seed = seed;
    auto rw = randwl::Generate(gen);
    ASSERT_TRUE(rw.ok()) << rw.status();
    ExpectDropPassProperties(*rw->graph, *rw->workload,
                             "randwl seed " + std::to_string(seed));
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
  std::vector<std::vector<bool>> schedule = {form->allowed};
  std::vector<bool>& selected = schedule[0];
  const size_t before = std::count(selected.begin(), selected.end(), true);
  const double objective = WindowObjective(*form, selected);
  auto evaluate = [&] { return WindowObjective(*form, selected); };
  const int dropped = DropRedundantCandidates(objective, &schedule, evaluate);
  const size_t after = std::count(selected.begin(), selected.end(), true);
  EXPECT_EQ(before - after, static_cast<size_t>(dropped));
  EXPECT_GT(dropped, 0);
  EXPECT_LE(WindowObjective(*form, selected),
            objective + 1e-6 * std::max(1.0, objective));
  EXPECT_EQ(DropRedundantCandidates(objective, &schedule, evaluate), 0);
}

// Hand-built plan-space DAGs for the linking-row guard. Candidates are
// δ variables 0..3; edge variables follow in state/edge order.
PlanSpaceEdge Edge(CfId cf, int target) {
  PlanSpaceEdge e;
  e.cf_index = cf;
  e.target_state = target;
  return e;
}

std::vector<PlanSpaceState> States(
    std::vector<std::vector<PlanSpaceEdge>> edges) {
  std::vector<PlanSpaceState> states(edges.size());
  for (size_t s = 0; s < edges.size(); ++s) states[s].edges = edges[s];
  return states;
}

/// The linking rows BuildLinkingRows gives `states`, each as its sorted
/// variable indices; every row must read `x - δ <= 0`.
std::vector<std::vector<int>> LinkingRows(
    const std::vector<PlanSpaceState>& states) {
  LpProblem lp;
  std::vector<int> delta_vars;
  for (int j = 0; j < 4; ++j) delta_vars.push_back(lp.AddVariable(0, 1, 0));
  std::vector<std::vector<int>> edge_vars(states.size());
  for (size_t s = 0; s < states.size(); ++s) {
    for (size_t e = 0; e < states[s].edges.size(); ++e) {
      edge_vars[s].push_back(lp.AddVariable(0, 1, 1));
    }
  }
  LpRowBuffer buf;
  BuildLinkingRows(states, edge_vars, delta_vars, &buf);
  lp.AppendRows(std::move(buf));
  std::vector<std::vector<int>> rows;
  for (int r = 0; r < lp.num_rows(); ++r) {
    const LpRow& row = lp.row(r);
    EXPECT_EQ(row.type, RowType::kLe);
    EXPECT_EQ(row.rhs, 0.0);
    EXPECT_EQ(row.values.front(), -1.0);  // the δ, lowest index
    for (size_t k = 1; k < row.values.size(); ++k) {
      EXPECT_EQ(row.values[k], 1.0);
    }
    rows.push_back(row.indices);
  }
  return rows;
}

constexpr int kDone = PlanSpaceEdge::kDone;

TEST(LinkingRowsTest, ChainReadingACandidateTwiceKeepsPerEdgeRows) {
  // Path 0 -cf0-> 1 -cf0-> done reads cf0 twice. cf2 has two edges, but
  // on different paths (cf0,cf2 and cf1,cf2).
  const auto states = States({{Edge(0, 1), Edge(1, 2)},
                              {Edge(0, kDone), Edge(2, kDone)},
                              {Edge(2, kDone)}});
  EXPECT_EQ(RepeatedReadCandidates(states), std::vector<CfId>{0});
  // Edge variables: 4 (s0e0), 5 (s0e1), 6 (s1e0), 7 (s1e1), 8 (s2e0).
  const std::vector<std::vector<int>> want = {
      {0, 4}, {1, 5}, {0, 6}, {2, 7, 8}};
  EXPECT_EQ(LinkingRows(states), want);
}

TEST(LinkingRowsTest, DiamondReadingACandidateOncePerBranchSumsItsEdges) {
  // 0 -cf0-> 1 -cf2-> 3 and 0 -cf1-> 2 -cf2-> 3, then 3 -cf3-> done.
  const auto states = States({{Edge(0, 1), Edge(1, 2)},
                              {Edge(2, 3)},
                              {Edge(2, 3)},
                              {Edge(3, kDone)}});
  EXPECT_TRUE(RepeatedReadCandidates(states).empty());
  // Edge variables: 4, 5 (s0), 6 (s1), 7 (s2), 8 (s3).
  const std::vector<std::vector<int>> want = {{0, 4}, {1, 5}, {2, 6, 7},
                                              {3, 8}};
  EXPECT_EQ(LinkingRows(states), want);
}

TEST(LinkingRowsTest, RepeatedReadsOnDeadEndsAndUnreachableStatesAreIgnored) {
  // 0 -cf0-> 1 -cf0-> 2 dead-ends, so the only plan is cf0 then cf1.
  // State 3 reads cf1 twice but no root path reaches it.
  const auto states = States({{Edge(0, 1)},
                              {Edge(0, 2), Edge(1, kDone)},
                              {},
                              {Edge(1, 4)},
                              {Edge(1, kDone)}});
  EXPECT_TRUE(RepeatedReadCandidates(states).empty());
  // Edge variables: 4 (s0), 5, 6 (s1), 7 (s3), 8 (s4).
  const std::vector<std::vector<int>> want = {{0, 4, 5}, {1, 6, 7, 8}};
  EXPECT_EQ(LinkingRows(states), want);
}

TEST(OptimizerStrategyTest, BipProvesLargerRandomInstances) {
  // 18 entities and 36 statements: a pool well above RUBiS size. With no
  // time limit the BIP must prove its optimum, not return a budget-bound
  // incumbent.
  randwl::GeneratorOptions gen;
  gen.num_entities = 18;
  gen.num_statements = 36;
  gen.seed = 77;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok());
  AdvisorOptions opts;
  opts.optimizer.bip.time_limit_seconds = 0.0;
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*rw->workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE(rec->solve_proven);
  EXPECT_EQ(rec->anytime_gap, 0.0);
  EXPECT_GT(rec->schema.size(), 0u);
  EXPECT_GT(rec->objective, 0.0);
}

}  // namespace
}  // namespace nose
