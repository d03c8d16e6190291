#ifndef NOSE_ADVISOR_ADVISOR_H_
#define NOSE_ADVISOR_ADVISOR_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/antipatterns.h"
#include "analysis/diagnostic.h"
#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "enumerator/enumerator.h"
#include "optimizer/schema_optimizer.h"
#include "util/statusor.h"
#include "util/stopwatch.h"
#include "workload/workload.h"

namespace nose {

struct AdvisorOptions {
  CostParams cost_params;
  EnumeratorOptions enumerator;
  OptimizerOptions optimizer;
  /// Worker threads for enumeration, plan-space construction, cost
  /// calculation, and branch-and-bound node evaluation. 0 = one per hardware
  /// core (or $NOSE_TEST_THREADS); 1 = fully serial, no pool created. The
  /// recommendation is byte-identical at every setting — parallel stages
  /// merge their results in deterministic statement/candidate order.
  size_t num_threads = 0;
  /// Audit every recommendation against the workload invariants (analysis/
  /// invariants.h) before returning it; violations fail the Recommend call.
  /// Defaults on in debug builds — the audit replays every plan, which is
  /// cheap next to the solve but not free.
#ifdef NDEBUG
  bool verify_invariants = false;
#else
  bool verify_invariants = true;
#endif
  /// Run the NOSE-S schema anti-pattern analyses (analysis/antipatterns.h)
  /// on every recommendation and append the findings to
  /// Recommendation::diagnostics. Warnings only — they never fail the call.
  bool analyze_antipatterns = false;
  /// Thresholds for the anti-pattern analyses.
  AntipatternOptions antipatterns;
};

/// Full advisor timing breakdown (Fig. 13's categories).
struct AdvisorTiming {
  double enumeration_seconds = 0.0;
  double cost_calculation_seconds = 0.0;
  double bip_construction_seconds = 0.0;
  /// The two BIP stages (paper §V): minimum workload cost, then minimum
  /// schema size at that cost (OptimizerTiming has the details).
  double cost_solve_seconds = 0.0;
  double size_solve_seconds = 0.0;
  /// Exactly cost_solve_seconds + size_solve_seconds.
  double bip_solve_seconds = 0.0;
  /// What the other phases leave of the total (worker-pool start-up,
  /// copying a reused pool): enumeration + cost + build + solve + other =
  /// total.
  double other_seconds = 0.0;
  /// Wall time of the call up to plan extraction, from its first line.
  double total_seconds = 0.0;
};

/// How a recommendation came by its candidate pool and plan spaces. The
/// recommendation itself is the same on every path.
enum class PoolReuse {
  kCold,            ///< enumerated and planned from scratch
  kSameStatements,  ///< a group with the same statement set, reused verbatim
};

/// The advisor's output: a schema, one implementation plan per statement,
/// and diagnostics. Recommended plans point into `pool`, which this struct
/// owns — keep the Recommendation alive while using them.
struct Recommendation {
  Schema schema;
  std::vector<std::pair<std::string, QueryPlan>> query_plans;
  std::vector<std::pair<std::string, UpdatePlan>> update_plans;
  double objective = 0.0;
  /// False when the solver returned a budget-bound incumbent rather than a
  /// proven (within-gap) optimum.
  bool solve_proven = false;
  /// Global lower bound on the optimal objective at solver termination
  /// (equals `objective` when solve_proven).
  double best_bound = 0.0;
  /// Relative optimality gap of the returned schema, in [0, 1]: 0 when
  /// proven, 1 when the deadline left no useful bound. The anytime-advising
  /// quality signal — "this schema is within anytime_gap of optimal".
  double anytime_gap = 0.0;
  /// The budget passed to Recommend or AdvisingSession::Advise; 0 when the
  /// call was unbudgeted.
  double deadline_seconds = 0.0;
  /// True when the call returned within deadline_seconds (trivially true
  /// for unbudgeted calls). A miss means the uninterruptible stages alone
  /// (enumeration, planning, extraction) exceeded the budget — the solve
  /// stage is cut off at the deadline to within one LP solve.
  bool deadline_hit = true;

  CandidatePool pool;
  size_t num_candidates = 0;
  int bip_variables = 0;
  int bip_constraints = 0;
  int bb_nodes = 0;
  AdvisorTiming timing;
  /// Always kCold from Advisor::Recommend; AdvisingSession reports the
  /// group it reused. kSameStatements is an incremental re-advise.
  PoolReuse reuse = PoolReuse::kCold;

  /// Findings attached while advising: the NOSE-W006 timing-residual check,
  /// plus the NOSE-S anti-pattern analyses when
  /// AdvisorOptions::analyze_antipatterns is on. Never error severity (an
  /// invariant violation fails the call instead of landing here).
  std::vector<Diagnostic> diagnostics;

  /// Human-readable report: schema + plans.
  std::string ToString() const;
};

/// PlanHorizon's output: one Recommendation per window plus the migration
/// schedule. The UNION candidate pool lives here; per-window plans point
/// into it and every windows[w].rec.pool is EMPTY — keep the HorizonPlan
/// alive while using any window's plans (copying a Recommendation out
/// does not carry the pool with it).
struct HorizonPlan {
  struct Window {
    std::string label;
    std::string mix;
    double duration = 1.0;
    Recommendation rec;
  };

  CandidatePool pool;
  std::vector<Window> windows;
  /// Non-empty migrations only, in window order; CfIds index `pool`.
  std::vector<HorizonTransition> transitions;
  /// Σ_w duration_w × windows[w].rec.objective.
  double execution_objective = 0.0;
  /// migration_cost_weight × Σ transition (build + drop + dual-write)
  /// costs.
  double migration_objective = 0.0;
  double total_objective = 0.0;

  std::string ToString() const;
};

/// NoSE end-to-end (paper Fig. 4): candidate enumeration → query planning →
/// schema optimization → plan recommendation.
class Advisor {
 public:
  explicit Advisor(AdvisorOptions options = AdvisorOptions());

  /// Recommends a schema and plans for `workload` under `mix`, cold: no
  /// state survives the call (AdvisingSession is the stateful path).
  ///
  /// deadline_seconds > 0 makes this anytime advising, bounded by a
  /// wall-clock budget. It always returns the best incumbent found by the
  /// deadline — never an error merely because time ran out. Enumeration,
  /// planning, and BIP assembly run to completion (nothing can be
  /// recommended without them), and the branch-and-bound solve receives
  /// whatever they left, stopping at the deadline to within one LP solve.
  /// The result's anytime_gap reports how far from proven-optimal the
  /// returned schema can be; deadline_hit records whether the call made
  /// the budget. A deadline generous enough that the solver finishes on its
  /// own yields a result byte-identical to the unbudgeted call.
  StatusOr<Recommendation> Recommend(
      const Workload& workload,
      const std::string& mix = Workload::kDefaultMix,
      double deadline_seconds = 0.0) const;

  /// Recommends a schema for every mix (all of the workload's mixes when
  /// `mixes` is empty) through one AdvisingSession, so mixes sharing a
  /// statement set pay for enumeration and planning once. Every
  /// recommendation is byte-identical to what Recommend(workload, mix)
  /// returns — including at every thread count. Results are in `mixes`
  /// order.
  StatusOr<std::vector<std::pair<std::string, Recommendation>>> AdviseAllMixes(
      const Workload& workload, std::vector<std::string> mixes = {}) const;

  /// Multi-period, migration-aware planning: enumerates ONE union pool
  /// over the horizon's distinct mixes, then solves the joint BIP
  /// (SchemaOptimizer) that picks a schema per window and schedules a
  /// migration only where it pays for itself over the remaining windows.
  /// Plan spaces are shared across windows through one PlanSpaceCache and
  /// successive pre-solves hot-start from each other's root basis. A
  /// horizon of one mix is the one-group solve Recommend runs — each
  /// window's recommendation is then byte-identical to Recommend(workload,
  /// mix), with zero migrations. The solve takes AdvisorOptions::optimizer,
  /// its deadline and capture hooks included.
  StatusOr<HorizonPlan> PlanHorizon(
      const Workload& workload, const WorkloadHorizon& horizon,
      const HorizonOptions& horizon_options = HorizonOptions()) const;

  const CostModel& cost_model() const { return cost_model_; }

 private:
  friend class AdvisingSession;

  /// The worker pool of one advising call: null at num_threads == 1 (all
  /// work stays on the calling thread); the output is the same either way.
  std::unique_ptr<util::ThreadPool> MakeWorkerPool() const;

  /// Optimization + diagnostics + invariant audit for one mix against an
  /// already-enumerated pool (moved into the Recommendation first, so plans
  /// can point into it). `watch` started with the call, before
  /// enumeration: deadline_seconds > 0 hands the optimizer what is left of
  /// the budget and stamps deadline_hit; 0 means unbudgeted. `cache`
  /// belongs to `pool` (see SchemaOptimizer::Optimize).
  StatusOr<Recommendation> RecommendImpl(
      const Workload& workload, const std::string& mix, CandidatePool pool,
      double enumeration_seconds, util::ThreadPool* threads,
      PlanSpaceCache& cache, const Stopwatch& watch,
      double deadline_seconds) const;

  /// Moves `opt`'s schema, plans, solve statistics and stage timings into
  /// `rec`, then audits it against the workload invariants when
  /// AdvisorOptions::verify_invariants is on.
  Status AdoptResult(const Workload& workload, const std::string& mix,
                     OptimizationResult opt, Recommendation* rec) const;

  AdvisorOptions options_;
  CostModel cost_model_;
};

}  // namespace nose

#endif  // NOSE_ADVISOR_ADVISOR_H_
