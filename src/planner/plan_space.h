#ifndef NOSE_PLANNER_PLAN_SPACE_H_
#define NOSE_PLANNER_PLAN_SPACE_H_

#include <string>
#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "planner/plan.h"
#include "schema/column_family.h"
#include "util/statusor.h"
#include "workload/query.h"

namespace nose {

/// An edge of the plan space: use the candidate column family with id
/// `cf_index` to advance from the owning state to `target_state` (kDone
/// when the query is complete after this step). The id is the candidate's
/// dense CfId in the pool the space was built against, so per-candidate
/// arrays (allowed/selected/δ variables) index by it directly.
struct PlanSpaceEdge {
  static constexpr int kDone = -1;

  int target_state = kDone;
  CfId cf_index = 0;
  size_t from_index = 0;  ///< path entity index the step starts at (j)
  size_t to_index = 0;    ///< path entity index the step lands on (i)
  bool first = false;
  AccessDetail access;
  /// Edge cost: step cost plus, on query-completing edges, any client sort.
  double cost = 0.0;
  bool adds_sort = false;
  double sort_cost = 0.0;
};

/// A state of the recursive query decomposition (paper Fig. 5/6): the plan
/// has resolved the path suffix above entity `entity_index`; `pending_*`
/// are predicates/select attributes of that entity not yet applied/fetched
/// (deferred by a relaxed column family); `holds_ids` distinguishes the
/// initial state (only statement parameters in hand) from later states
/// (a concrete ID set in hand).
struct PlanSpaceState {
  size_t entity_index = 0;
  std::vector<Predicate> pending_preds;
  std::vector<FieldRef> pending_attrs;
  bool holds_ids = false;
  /// Outgoing alternatives. Empty means the state is a dead end.
  std::vector<PlanSpaceEdge> edges;
};

/// The full space of implementation plans for one query over a candidate
/// pool. States form a DAG rooted at states[0]; every root-to-kDone path is
/// a valid plan. The schema optimizer turns this DAG into BIP constraints;
/// plan recommendation extracts the min-cost path.
class PlanSpace {
 public:
  const Query* query() const { return query_; }
  const std::vector<PlanSpaceState>& states() const { return states_; }
  bool HasPlan() const;

  /// Minimum plan cost restricted to candidates where `allowed[cf_index]`
  /// is true (all candidates when `allowed` is empty). Returns infinity if
  /// no complete plan survives.
  double BestCost(const std::vector<bool>& allowed = {}) const;

  /// Extracts the min-cost plan under the same restriction: the steps of
  /// BestPath, pointing into `pool` and carrying their CfId (the pool
  /// index).
  StatusOr<QueryPlan> BestPlan(const std::vector<ColumnFamily>& pool,
                               const std::vector<bool>& allowed = {}) const;
  StatusOr<QueryPlan> BestPlan(const CandidatePool& pool,
                               const std::vector<bool>& allowed = {}) const {
    return BestPlan(pool.candidates(), allowed);
  }

  /// The (state index, edge index) pairs of the min-cost plan — the raw
  /// path through the DAG (used e.g. to seed BIP warm starts). At each
  /// state it takes the first edge within 1e-9 of the state's minimum.
  /// When `cost` is non-null it receives the minimum, BestCost(allowed).
  StatusOr<std::vector<std::pair<size_t, size_t>>> BestPath(
      const std::vector<bool>& allowed = {}, double* cost = nullptr) const;

  std::string ToString(const std::vector<ColumnFamily>& pool) const;

 private:
  friend class QueryPlanner;

  /// Fills `memo` with the min cost to completion under `allowed` of each
  /// state reachable from the root, and returns the root's (infinity for
  /// an empty space or when no complete plan survives).
  double MinCostToDone(const std::vector<bool>& allowed,
                       std::vector<double>* memo) const;

  const Query* query_ = nullptr;
  std::vector<PlanSpaceState> states_;
};

/// Builds plan spaces: enumerates every way of answering a query with gets
/// against the candidate pool plus client-side filter/sort/join steps.
class QueryPlanner {
 public:
  QueryPlanner(const CostModel* cost_model, const CardinalityEstimator* est)
      : cost_(cost_model), est_(est) {}

  /// Explores all decomposition states of `query` against `pool`.
  /// The result references `query` (not owned). Build is a pure function
  /// of (query, pool) — safe to run concurrently for different queries
  /// over the same pool.
  PlanSpace Build(const Query& query,
                  const std::vector<ColumnFamily>& pool) const;
  PlanSpace Build(const Query& query, const CandidatePool& pool) const {
    return Build(query, pool.candidates());
  }

  /// Convenience: the best plan for `query` using only `pool` (e.g. a fixed
  /// schema such as the normalized/expert baselines). Fails if the pool
  /// cannot answer the query. Positions in `pool` are not CandidatePool
  /// ids, so the plan's steps carry kInvalidCfId and resolve by key.
  StatusOr<QueryPlan> PlanForSchema(const Query& query,
                                    const std::vector<ColumnFamily>& pool) const;

 private:
  const CostModel* cost_;
  const CardinalityEstimator* est_;
};

}  // namespace nose

#endif  // NOSE_PLANNER_PLAN_SPACE_H_
