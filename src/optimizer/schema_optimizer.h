#ifndef NOSE_OPTIMIZER_SCHEMA_OPTIMIZER_H_
#define NOSE_OPTIMIZER_SCHEMA_OPTIMIZER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "enumerator/enumerator.h"
#include "optimizer/horizon.h"
#include "planner/plan_space.h"
#include "planner/update_planner.h"
#include "schema/schema.h"
#include "solver/bip.h"
#include "util/statusor.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace nose {

/// Snapshot of the assembled BIP, filled when
/// OptimizerOptions::capture_bip is set. Benchmarks (solver_micro --json)
/// use it to extract real advisor instances and replay them against the
/// production simplex and the reference tableau.
struct BipCapture {
  LpProblem lp;
  std::vector<int> binary_vars;
  /// The warm-start point the solve was given (BipOptions::warm_start),
  /// or empty when it had none.
  std::vector<double> warm_start;
  bool captured = false;
};

struct OptimizerOptions {
  /// Optional storage budget in bytes (paper: "an optional space
  /// constraint").
  std::optional<double> space_limit_bytes;
  /// Run the schema-size stage after the cost solve: among schemas within
  /// 1e-6 of its objective, drop column families greedily until none can
  /// go (paper §V's fewest-column-families tiebreak;
  /// DropRedundantCandidates in optimizer/formulation.h).
  bool minimize_schema_size = true;
  BipOptions bip;
  /// Total wall-clock budget for Optimize() in seconds, pre-solves
  /// included; 0 disables. The budget is distributed implicitly: plan-space
  /// construction and BIP assembly run to completion (they are what makes
  /// ANY incumbent possible), and the solve stage receives whatever they
  /// left, floored at a few milliseconds so the warm-started search always
  /// returns an incumbent. If they left nothing, the solve stops after its
  /// root node. Tightens bip.time_limit_seconds when both are set; a
  /// deadline generous enough that no limit fires leaves the result
  /// byte-identical to an unbudgeted run.
  double deadline_seconds = 0.0;
  /// When non-null, receives a copy of the assembled problem before
  /// solving: over a horizon of several groups, the joint BIP, not the
  /// per-group pre-solves that seed its warm start.
  BipCapture* capture_bip = nullptr;
  /// When non-null, receives a machine-checkable certificate of the cost
  /// solve (the joint BIP over a horizon) — see solver/certificate.h. Its
  /// point is the schedule that is returned (after the size stage and the
  /// unused-candidate prune), re-derived as an exactly-integral point
  /// (deltas from the final selections, support indicators implied, flows
  /// routed along best paths over them, transition and drop variables from
  /// the selection diffs), so the exact-arithmetic checker verifies it
  /// with zero tolerance on integer-coefficient rows.
  SolveCertificate* capture_certificate = nullptr;
};

/// Mix-independent artifacts reused across Optimize() calls on the SAME
/// (workload, candidate pool, cost model): a plan space depends only on the
/// statement, the candidates, and the cost model — mix weights enter later,
/// as BIP variable costs. AdvisingSession keeps one cache per group of
/// mixes sharing a statement set, so Fig. 12-style re-advising pays for
/// planning once per group instead of once per mix.
struct PlanSpaceCache {
  /// Workload-query plan spaces keyed by statement name.
  std::map<std::string, PlanSpace> query_spaces;

  struct SupportSpace {
    std::shared_ptr<const Query> query;  ///< owns the synthesized query
    PlanSpace space;  ///< empty states() marks an unanswerable support query
  };
  /// Keyed by update statement name + '\n' + support-query text.
  std::map<std::string, SupportSpace> support_spaces;

  struct UpdateSupport {
    size_t cf_index;
    double write_cost;
    std::vector<std::string> support_texts;
  };
  /// Per update statement name: the candidates it modifies, priced, with
  /// the texts of their support queries.
  std::map<std::string, std::vector<UpdateSupport>> update_supports;

  /// Structural fingerprint of the BIP that produced last_root_basis. A
  /// solve whose assembled BIP does not match discards the basis instead
  /// of applying it to a mismatched variable space (the workload or pool
  /// changed under the cache).
  int last_bip_variables = -1;
  int last_bip_rows = -1;
  size_t last_bip_nonzeros = 0;
  /// The previous mix's optimal root-LP basis: with identical rows the old
  /// optimum stays primal feasible under new costs, so the next root solve
  /// skips phase 1 entirely (the ROADMAP "hot-start the root LP" item).
  LpBasis last_root_basis;
};

/// Phase timing for the Fig. 13 runtime breakdown.
struct OptimizerTiming {
  double cost_calculation_seconds = 0.0;  ///< plan-space construction
  double bip_construction_seconds = 0.0;
  /// The cost solve (the BIP) and the schema-size stage at
  /// that cost (the greedy drop pass, paper §V; ~0 when disabled).
  double cost_solve_seconds = 0.0;
  double size_solve_seconds = 0.0;
  /// Exactly cost_solve_seconds + size_solve_seconds.
  double bip_solve_seconds = 0.0;
  double other_seconds = 0.0;
};

/// One window's recommendation.
struct OptimizationResult {
  Schema schema;
  /// One entry per weighted query, aligned with the queries of
  /// Workload::EntriesIn(mix): (statement name, recommended plan).
  std::vector<std::pair<std::string, QueryPlan>> query_plans;
  std::vector<std::pair<std::string, UpdatePlan>> update_plans;
  /// Weighted workload cost of the returned plans (ReplayedPlanCost). It
  /// can differ from the cost solve's incumbent: the size stage may spend
  /// up to 1e-6 of it, and with a positive relative gap or an early stop
  /// extraction's best-plan routing can undercut it.
  double objective = 0.0;
  /// True when the solver proved optimality (within its gap); false when a
  /// node/time budget stopped it with the best incumbent found.
  bool solve_proven = false;
  /// Lower bound on the optimum at solver termination (equals `objective`
  /// when solve_proven). A horizon of several groups has one bound, on the
  /// whole schedule; each window reports objective × (1 − anytime_gap).
  double best_bound = 0.0;
  /// Relative optimality gap of the returned schedule, in [0, 1]:
  /// (objective - best_bound) / max(|objective|, eps), clamped; 0 when
  /// proven, 1 when the deadline left no useful bound. The anytime-advising
  /// quality signal surfaced as Recommendation::anytime_gap.
  double anytime_gap = 0.0;

  /// The whole Optimize() call's phases, shared by every window.
  OptimizerTiming timing;
  int bip_variables = 0;
  int bip_constraints = 0;
  int bb_nodes = 0;
};

/// The optimum over a horizon: one schema + plans per window, the
/// migration schedule between them, and the split objective.
struct HorizonResult {
  /// One entry per horizon window (merged identical windows are expanded
  /// back).
  std::vector<OptimizationResult> windows;
  /// Non-empty migrations only, in window order.
  std::vector<HorizonTransition> transitions;
  /// Σ_w duration_w × windows[w].objective.
  double execution_objective = 0.0;
  /// migration_cost_weight × Σ transition (build + drop + dual-write)
  /// costs.
  double migration_objective = 0.0;
  double total_objective = 0.0;
  bool solve_proven = false;
  int bip_variables = 0;
  int bip_constraints = 0;
  int bb_nodes = 0;
};

/// Selects, for each window of a horizon, the cost-minimal subset of
/// candidate column families that covers the window's mix, and schedules
/// the migrations between them, by solving one binary integer program.
///
/// Adjacent windows of the same mix merge into one group. Merging is
/// exact: build costs are subadditive along a schema path (builds(A→N) ⊆
/// builds(A→B) ∪ builds(B→N)), so an optimal plan never migrates between
/// two windows with identical weighted workloads. Each group instantiates
/// the paper's per-window BIP (optimizer/formulation.h): per-edge decision
/// variables constrained to form one plan per query (path constraints),
/// activation binaries δ_{g,c} per candidate, update maintenance costs
/// conditioned on selection, and an optional storage constraint. With
/// several groups, each group's costs are scaled by its duration, and
/// continuous transition variables t_{g,c} ≥ δ_{g,c} − δ_{g−1,c}, priced at
/// migration_cost_weight × (BuildCostMs(c) + DualWriteCostMs(c)), and drop
/// variables d_{g,c} ≥ δ_{g−1,c} − δ_{g,c}, priced at migration_cost_weight
/// × DropCostMs, couple consecutive groups. A single mix is the one-group
/// case: no scaling and no transition or drop blocks — the paper's BIP.
class SchemaOptimizer {
 public:
  SchemaOptimizer(const CostModel* cost_model,
                  const CardinalityEstimator* estimator,
                  OptimizerOptions options = OptimizerOptions(),
                  HorizonOptions horizon_options = HorizonOptions())
      : cost_(cost_model),
        est_(estimator),
        options_(options),
        horizon_options_(horizon_options) {}

  /// `pool` must cover every window's statements and outlive the result
  /// (recommended plans point into it).
  /// When `threads` is non-null the independent per-statement stages —
  /// plan-space construction, support costing, BIP row assembly, and
  /// branch-and-bound node evaluation — run on it; results are merged in
  /// deterministic statement/candidate order, so the result is identical
  /// at every thread count.
  /// When `cache` is non-null, plan spaces and priced supports are read
  /// from / written into it; the caller must pass the same workload, pool,
  /// and cost model for every call sharing a cache. Over several groups,
  /// each group's one-window pre-solve (which seeds the joint warm start)
  /// shares it, so W windows of the same statements cost one planning
  /// pass.
  StatusOr<HorizonResult> Optimize(const Workload& workload,
                                   const WorkloadHorizon& horizon,
                                   const CandidatePool& pool,
                                   util::ThreadPool* threads = nullptr,
                                   PlanSpaceCache* cache = nullptr) const;

 private:
  const CostModel* cost_;
  const CardinalityEstimator* est_;
  OptimizerOptions options_;
  HorizonOptions horizon_options_;
};

}  // namespace nose

#endif  // NOSE_OPTIMIZER_SCHEMA_OPTIMIZER_H_
