// Structural invariants of plan spaces, checked over many generated
// queries: every edge must describe a physically executable get (all
// partition fields bound, ranges only on ranges, costs positive), the DAG
// must be acyclic with Done reachable, best-cost must behave like a
// minimum, and no plan may read one column family twice (the BIP's summed
// linking rows fall back to per-edge rows for any candidate that does).

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "analysis/invariants.h"
#include "enumerator/enumerator.h"
#include "optimizer/formulation.h"
#include "planner/plan_space.h"
#include "randwl/random_workload.h"
#include "tests/hotel_fixture.h"

namespace nose {
namespace {

/// Over the spaces checked so far: candidates read by two or more edges of
/// one space (the groups RepeatedReadCandidates examines), and how many of
/// those some root-to-done path reads twice.
struct RepeatedReadCounts {
  size_t multi_edge_groups = 0;
  size_t repeated = 0;
};

void CountRepeatedReads(const PlanSpace& space, RepeatedReadCounts* counts) {
  std::map<CfId, int> edges_per_cf;
  for (const PlanSpaceState& state : space.states()) {
    for (const PlanSpaceEdge& e : state.edges) ++edges_per_cf[e.cf_index];
  }
  for (const auto& [cf, n] : edges_per_cf) {
    if (n >= 2) ++counts->multi_edge_groups;
  }
  counts->repeated += RepeatedReadCandidates(space.states()).size();
}

void CheckSpaceInvariants(const Query& query, const PlanSpace& space,
                          const std::vector<ColumnFamily>& pool) {
  ASSERT_FALSE(space.states().empty());
  // Initial state holds no IDs.
  EXPECT_FALSE(space.states()[0].holds_ids);

  for (size_t s = 0; s < space.states().size(); ++s) {
    const PlanSpaceState& state = space.states()[s];
    for (const PlanSpaceEdge& edge : state.edges) {
      ASSERT_LT(edge.cf_index, pool.size());
      const ColumnFamily& cf = pool[edge.cf_index];
      const AccessDetail& a = edge.access;

      // Step geometry: walks downward (or in place) along the path.
      EXPECT_EQ(edge.from_index, state.entity_index);
      EXPECT_LE(edge.to_index, edge.from_index);
      // First edges only leave the initial state.
      EXPECT_EQ(edge.first, s == 0);

      // Every partition-key field is bound: by the held ID or by an
      // equality predicate of this step.
      size_t bound = a.partition_preds.size() + (a.partition_uses_id ? 1 : 0);
      EXPECT_EQ(bound, cf.partition_key().size())
          << cf.ToString() << " in " << query.ToString();
      for (const Predicate& p : a.partition_preds) {
        EXPECT_TRUE(p.IsEquality());
      }
      for (const Predicate& p : a.clustering_eq) {
        EXPECT_TRUE(p.IsEquality());
      }
      if (a.pushed_range.has_value()) {
        EXPECT_TRUE(a.pushed_range->IsRange());
        // The pushed range's field must be a clustering component.
        const auto& ck = cf.clustering_key();
        EXPECT_NE(std::find(ck.begin(), ck.end(), a.pushed_range->field),
                  ck.end());
      }
      // Filtered predicates need their field stored in the family.
      for (const Predicate& p : a.filters) {
        EXPECT_TRUE(cf.ContainsField(p.field)) << p.ToString();
      }
      // Cardinalities and costs are sane.
      EXPECT_GE(a.requests, 1.0 - 1e-9);
      EXPECT_GE(a.rows_per_request, 0.0);
      EXPECT_GE(a.rows_out, 0.0);
      EXPECT_GT(edge.cost, 0.0);
      // Targets are valid state ids or Done.
      EXPECT_TRUE(edge.target_state == PlanSpaceEdge::kDone ||
                  (edge.target_state >= 0 &&
                   static_cast<size_t>(edge.target_state) <
                       space.states().size()));
    }
  }

  // Acyclicity: DFS from the root never revisits a state on the current
  // path (the builder guarantees strictly-progressing states).
  std::vector<int> mark(space.states().size(), 0);
  std::function<bool(size_t)> dfs = [&](size_t s) -> bool {
    if (mark[s] == 1) return false;  // back edge: cycle
    if (mark[s] == 2) return true;
    mark[s] = 1;
    for (const PlanSpaceEdge& e : space.states()[s].edges) {
      if (e.target_state >= 0 && !dfs(static_cast<size_t>(e.target_state))) {
        return false;
      }
    }
    mark[s] = 2;
    return true;
  };
  EXPECT_TRUE(dfs(0)) << "plan space has a cycle for " << query.ToString();

  // BestCost monotonicity: restricting candidates never improves the cost.
  const double all = space.BestCost();
  std::vector<bool> half(pool.size());
  for (size_t c = 0; c < pool.size(); ++c) half[c] = (c % 2 == 0);
  const double restricted = space.BestCost(half);
  EXPECT_GE(restricted, all - 1e-9);

  // A full-pool best plan exists and its steps' costs sum to its cost.
  if (std::isfinite(all)) {
    auto plan = space.BestPlan(pool);
    ASSERT_TRUE(plan.ok());
    double sum = plan->needs_sort ? plan->sort_cost : 0.0;
    for (const PlanStep& step : plan->steps) sum += step.access.step_cost;
    EXPECT_NEAR(sum, plan->cost, 1e-9);

    // The extracted plan also satisfies the analysis-layer invariants:
    // contiguous step chain, every predicate applied exactly once, all
    // partition keys bound, all column families known.
    Schema schema;
    for (const ColumnFamily& cf : pool) schema.Add(cf);
    const std::vector<Diagnostic> diags =
        CheckQueryPlan(*plan, schema, query.ToString());
    EXPECT_TRUE(diags.empty()) << FormatDiagnostics(diags);
  }
}

TEST(PlanSpaceInvariantsTest, HotelQueries) {
  auto graph = MakeHotelGraph();
  std::vector<Query> queries;
  queries.push_back(MakeFig3Query(*graph));
  {
    auto p = graph->ResolvePath("Room", {"Hotel"});
    queries.emplace_back(
        *p, std::vector<FieldRef>{{"Room", "RoomID"}},
        std::vector<Predicate>{
            {{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "c"},
            {{"Room", "RoomRate"}, PredicateOp::kGt, std::nullopt, "r"}},
        std::vector<OrderField>{{{"Room", "RoomRate"}}});
  }
  {
    auto p = graph->ResolvePath("POI", {"Hotels", "Rooms"});
    queries.emplace_back(
        *p, std::vector<FieldRef>{{"POI", "POIName"}},
        std::vector<Predicate>{
            {{"Room", "RoomID"}, PredicateOp::kEq, std::nullopt, "room"}},
        std::vector<OrderField>{});
  }

  Enumerator enumerator;
  CandidatePool pool;
  for (const Query& q : queries) enumerator.EnumerateQuery(q, &pool);
  enumerator.Combine(&pool);

  CostModel cm;
  CardinalityEstimator est(graph.get(), &cm.params());
  QueryPlanner planner(&cm, &est);
  RepeatedReadCounts counts;
  for (const Query& q : queries) {
    PlanSpace space = planner.Build(q, pool.candidates());
    CheckSpaceInvariants(q, space, pool.candidates());
    CountRepeatedReads(space, &counts);
    EXPECT_TRUE(space.HasPlan()) << q.ToString();
  }
  EXPECT_GT(counts.multi_edge_groups, 0u);
  EXPECT_EQ(counts.repeated, 0u);
}

class RandomPlanSpaceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanSpaceTest, InvariantsHoldOnRandomWorkloads) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 7;
  gen.num_statements = 10;
  gen.seed = 31400 + static_cast<uint64_t>(GetParam());
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok());

  Enumerator enumerator;
  CandidatePool pool = enumerator.EnumerateWorkload(*rw->workload, "default");
  CostModel cm;
  CardinalityEstimator est(rw->graph.get(), &cm.params());
  QueryPlanner planner(&cm, &est);
  RepeatedReadCounts counts;
  for (const WorkloadEntry& entry : rw->workload->entries()) {
    if (!entry.IsQuery()) continue;
    PlanSpace space = planner.Build(entry.query(), pool.candidates());
    CheckSpaceInvariants(entry.query(), space, pool.candidates());
    CountRepeatedReads(space, &counts);
    EXPECT_TRUE(space.HasPlan()) << entry.query().ToString();
  }
  EXPECT_EQ(counts.repeated, 0u)
      << "of " << counts.multi_edge_groups << " multi-edge groups";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanSpaceTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace nose
