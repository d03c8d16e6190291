#ifndef NOSE_OPTIMIZER_COMBINATORIAL_H_
#define NOSE_OPTIMIZER_COMBINATORIAL_H_

#include <vector>

#include "planner/plan_space.h"
#include "util/thread_pool.h"

namespace nose {

/// The schema-selection problem in combinatorial form: pick a candidate
/// subset minimizing
///   Σ_q w_q · bestplan_q(S)  +  Σ_{j∈S} maintenance_j
///   + Σ_{s needed by S} w_s · bestplan_s(S)
/// where bestplan is the min-cost path through a plan-space DAG restricted
/// to S. Equivalent to the BIP of Fig. 7/10, but solved by branch and
/// bound over candidate in/out decisions with dynamic-programming bounds —
/// per-node cost is O(total edges) instead of a dense LP, which keeps
/// large instances (Fig. 13 scales) tractable without Gurobi.
struct CombinatorialInput {
  size_t num_candidates = 0;
  /// Weighted update-maintenance cost per candidate (Σ_m w_m C'_mj).
  std::vector<double> maintenance;
  /// Candidates that may be selected at all (pinning pre-applied).
  std::vector<bool> allowed;

  struct SpaceRef {
    const PlanSpace* space = nullptr;
    double weight = 0.0;
  };
  std::vector<SpaceRef> query_spaces;
  /// Deduplicated support-query spaces; executed iff some selected
  /// candidate needs them.
  std::vector<SpaceRef> support_spaces;
  /// supports_of_cf[j] = indices into support_spaces needed when j is
  /// selected.
  std::vector<std::vector<int>> supports_of_cf;
};

struct CombinatorialOptions {
  /// As BipOptions::relative_gap: 0 proves the optimum. A gap below 1% is
  /// searched in two passes, a 1%-gap pass and then the tight pass from
  /// its incumbent, so a budget that stops the tight pass still returns a
  /// schema within 1% of the optimum whenever the first pass finished.
  double relative_gap = 0.0;
  int max_nodes = 200000;
  double time_limit_seconds = 30.0;
  /// Optional pool for node evaluation. The search pops a fixed-size batch
  /// of open nodes, evaluates them concurrently (evaluation is pure), and
  /// processes the results sequentially in pop order — the batch size does
  /// not depend on the thread count, so the search trajectory (and thus
  /// the recommendation) is identical whether this is null or an N-thread
  /// pool.
  util::ThreadPool* threads = nullptr;
};

struct CombinatorialResult {
  bool feasible = false;
  /// True when the search space was exhausted (optimal within gap);
  /// false when a node/time budget stopped it with the best incumbent.
  bool proven = false;
  double objective = 0.0;
  /// Valid global lower bound on the optimum at termination: `objective`
  /// when proven, otherwise min(open-node parent bounds, final prune
  /// threshold) — -inf when the budget expired before the root was
  /// evaluated. Computed at exit; does not perturb the trajectory.
  double best_bound = 0.0;
  std::vector<bool> selected;
  int nodes_explored = 0;
};

CombinatorialResult SolveCombinatorial(const CombinatorialInput& input,
                                       const CombinatorialOptions& options);

}  // namespace nose

#endif  // NOSE_OPTIMIZER_COMBINATORIAL_H_
