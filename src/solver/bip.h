#ifndef NOSE_SOLVER_BIP_H_
#define NOSE_SOLVER_BIP_H_

#include <vector>

#include "solver/lp.h"

namespace nose {

namespace util {
class ThreadPool;
}  // namespace util

struct SolveCertificate;

/// Termination status of a branch-and-bound solve.
enum class BipStatus {
  kOptimal,
  kInfeasible,
  kNodeLimit,   ///< best incumbent returned, optimality not proven
  kNoSolution,  ///< node limit hit before any incumbent was found
};

const char* BipStatusName(BipStatus status);

struct BipOptions {
  /// Prune nodes whose LP bound is within this of the incumbent: the
  /// floating-point tolerance of an exact solve, so the search proves the
  /// optimum. A time or node budget still returns the incumbent with an
  /// honest anytime gap.
  double absolute_gap = 1e-9;
  int max_nodes = 1000000;
  /// Wall-clock budget in seconds; 0 disables. On expiry the best
  /// incumbent is returned with kNodeLimit status.
  double time_limit_seconds = 0.0;
  /// Optional feasible starting point (e.g. the solution of a previous
  /// phase); used as the initial incumbent so pruning bites immediately.
  /// Feasibility is the caller's responsibility.
  const std::vector<double>* warm_start = nullptr;
  /// Optional worker pool for tree-parallel node evaluation. Nodes are
  /// selected in fixed-size batches (a deterministic rule that does not
  /// depend on the pool), their relaxations solved concurrently, and the
  /// results processed in batch order — so the explored trajectory, the
  /// recommendation, and every statistic in BipResult are identical at any
  /// thread count (and with no pool at all), with or without the solve
  /// log; only the wall clock differs.
  util::ThreadPool* threads = nullptr;
  /// Optional starting basis for the ROOT relaxation, captured from a
  /// previous solve of an instance with the same rows — the incremental
  /// advisor's hot start. An unusable basis falls back to a cold start.
  /// (Child nodes additionally hot-start from their parent's optimal
  /// basis; the LP solver repairs the bound-change infeasibility with dual
  /// simplex pivots.)
  const LpBasis* root_basis = nullptr;
  /// If set, receives the root relaxation's optimal basis (cleared when the
  /// root solve is not cleanly optimal).
  LpBasis* capture_root_basis = nullptr;
  /// If set, receives a machine-checkable record of this solve (see
  /// solver/certificate.h): a copy of the instance, the final solution and
  /// objective, and dual multipliers harvested from one extra cold solve of
  /// the root relaxation, so the certified bound does not depend on the
  /// caller's root_basis. Costs one LP solve.
  SolveCertificate* capture_certificate = nullptr;
};

struct BipResult {
  BipStatus status = BipStatus::kNoSolution;
  double objective = 0.0;
  std::vector<double> x;  ///< integral solution (if any)
  /// Valid global lower bound on the optimum at termination. Equals
  /// `objective` when optimality was proven; on an early stop (node/time
  /// limit) it is min(open-node parent bounds, final prune threshold) —
  /// every pruned subtree had an LP bound at or above the final threshold,
  /// and the threshold only decreases as incumbents improve. -inf when the
  /// root was never solved. Computed at exit; tracking it does not perturb
  /// the search trajectory.
  double best_bound = 0.0;
  int nodes_explored = 0;
  int lp_iterations = 0;
};

/// Exact 0/1 integer programming by LP-based branch and bound: depth-first
/// search in fixed-size node batches (evaluated in parallel when
/// BipOptions::threads is set, with identical results either way),
/// most-fractional branching, bound pruning against the incumbent.
/// `binary_vars` lists the variables required to be integral; they must
/// have bounds within [0, 1] in `problem`. Remaining variables stay
/// continuous. This is the solver NoSE's schema optimizer uses in place of
/// Gurobi (paper §V).
BipResult SolveBip(const LpProblem& problem, const std::vector<int>& binary_vars,
                   const BipOptions& options = BipOptions());

}  // namespace nose

#endif  // NOSE_SOLVER_BIP_H_
