#include "optimizer/schema_optimizer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/formulation.h"
#include "planner/update_planner.h"
#include "solver/certificate.h"
#include "solver/lp.h"
#include "util/stopwatch.h"

namespace nose {

namespace {

/// Relative optimality gap in [0, 1]: 0 when proven (including
/// within-gap-proven, matching solve_proven's convention), 1 when the
/// bound is useless (unbounded-below or non-positive against a positive
/// cost objective).
double AnytimeGap(double objective, double best_bound, bool proven) {
  if (proven) return 0.0;
  if (!std::isfinite(best_bound)) return 1.0;
  const double denom = std::max(std::abs(objective), 1e-12);
  return std::clamp((objective - best_bound) / denom, 0.0, 1.0);
}

/// Floor on the solve stage's time budget when a deadline left (almost)
/// nothing: enough for the root relaxation + warm-start incumbent, so an
/// anytime call always comes back with a schema.
constexpr double kMinSolveSeconds = 0.01;

/// Remaining solve budget under OptimizerOptions::deadline_seconds, merged
/// with the explicit bip.time_limit_seconds (0 = unlimited for both).
double SolveBudgetSeconds(const OptimizerOptions& options,
                          const Stopwatch& total_watch) {
  double limit = options.bip.time_limit_seconds;
  if (options.deadline_seconds > 0.0) {
    const double left = std::max(
        kMinSolveSeconds, options.deadline_seconds - total_watch.ElapsedSeconds());
    limit = limit > 0.0 ? std::min(limit, left) : left;
  }
  return limit;
}

/// True when a deadline is set and the stages before the solve already
/// spent it. The solve then stops after its root node: the root
/// relaxation bounds the optimum and the warm start is the incumbent. A
/// node cap, unlike the kMinSolveSeconds floor alone, does not race the
/// machine's speed.
bool DeadlineSpent(const OptimizerOptions& options,
                   const Stopwatch& total_watch) {
  return options.deadline_seconds > 0.0 &&
         total_watch.ElapsedSeconds() >= options.deadline_seconds;
}

}  // namespace

StatusOr<OptimizationResult> SchemaOptimizer::Optimize(
    const Workload& workload, const std::string& mix,
    const CandidatePool& pool, util::ThreadPool* threads,
    PlanSpaceCache* cache) const {
  OptimizationResult result;
  obs::Span optimize_span("optimizer.optimize", "optimizer");
  Stopwatch total_watch;
  const std::vector<ColumnFamily>& candidates = pool.candidates();

  // ==== Phase: cost calculation (plan-space construction). ====
  // The per-window formulation (optimizer/formulation.h) builds every
  // mix-weighted artifact the solvers need; the multi-period horizon layer
  // reuses the same code once per window.
  // Each phase is one PhaseSpan: the span lands in the trace, and the same
  // clock pair feeds AdvisorTiming so Fig. 13 output is independent of
  // whether tracing is on.
  std::optional<obs::PhaseSpan> phase;
  phase.emplace("optimizer.cost_calculation", "optimizer");
  NOSE_ASSIGN_OR_RETURN(
      WindowFormulation form,
      BuildWindowFormulation(workload, mix, pool, cost_, est_, threads,
                             cache));
  result.timing.cost_calculation_seconds = phase->StopSeconds();

  // ==== BIP construction (paper Figs. 7 and 10). ====
  phase.emplace("optimizer.bip_construction", "optimizer");
  LpProblem lp;
  int num_constraints = 0;

  // The LP variable of each candidate's δ: the first variables of the
  // problem, in candidate order.
  std::vector<int> delta_vars(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    delta_vars[c] =
        lp.AddVariable(0.0, form.allowed[c] ? 1.0 : 0.0, form.delta_cost[c]);
  }
  const bool tracing = obs::TracingEnabled();
  Stopwatch assembly_watch;
  AssignWindowVariables(&form, &lp);
  num_constraints += BuildWindowRows(form, delta_vars, &lp, threads, tracing);
  // Optional storage constraint: Σ s_j δ_j ≤ S.
  if (options_.space_limit_bytes.has_value()) {
    std::vector<std::pair<int, double>> coeffs;
    for (size_t c = 0; c < candidates.size(); ++c) {
      coeffs.emplace_back(delta_vars[c], candidates[c].SizeBytes());
    }
    lp.AddRow(RowType::kLe, *options_.space_limit_bytes, std::move(coeffs));
    ++num_constraints;
  }

  // Branch only on the delta variables: with deltas integral, every
  // space subproblem is a min-cost flow whose LP optimum is integral
  // (totally unimodular constraints), so edge variables never need
  // branching.
  const std::vector<int>& binaries = delta_vars;

  // Warm start: select every usable candidate and route each flow along
  // its best plan — feasible unless a storage budget is active. Gives
  // branch and bound an incumbent immediately (anytime behavior).
  std::vector<double> warm;
  BipOptions bip_options = options_.bip;
  bip_options.threads = threads;
  if (!options_.space_limit_bytes.has_value()) {
    warm.assign(static_cast<size_t>(lp.num_variables()), 0.0);
    if (RouteWindowPoint(form, delta_vars, form.allowed,
                         /*all_supports=*/true, &warm)) {
      bip_options.warm_start = &warm;
    }
  }
  // Shared-pool advising: the previous mix's root basis is reusable here
  // only when the assembled BIP has the exact same structure (same
  // variables AND rows — weights alone may differ). The fingerprint
  // check discards stale state when the workload or pool changed under
  // the cache instead of applying it to a mismatched variable space.
  LpBasis captured_root_basis;
  const bool cache_matches =
      cache != nullptr && cache->last_bip_variables == lp.num_variables() &&
      cache->last_bip_rows == lp.num_rows() &&
      cache->last_bip_nonzeros == lp.num_nonzeros();
  if (cache_matches) {
    // Hot-start the root LP from the previous optimal basis: identical
    // rows keep that basis primal feasible under the new costs, so the
    // root solve skips phase 1. The previous mix's incumbent is NOT
    // seeded, even though it is feasible here: among equal-cost optima
    // the returned one depends on the incumbent chain, so a foreign
    // incumbent could prune the tie the cold per-mix solve returns —
    // breaking the byte-equality contract between AdviseAllMixes and
    // Recommend.
    if (!cache->last_root_basis.empty()) {
      bip_options.root_basis = &cache->last_root_basis;
    }
  }
  if (cache != nullptr) {
    bip_options.capture_root_basis = &captured_root_basis;
  }

  if (options_.capture_bip != nullptr) {
    options_.capture_bip->lp = lp;
    options_.capture_bip->binary_vars = binaries;
    options_.capture_bip->captured = true;
  }
  bip_options.capture_certificate = options_.capture_certificate;

  result.bip_variables = lp.num_variables();
  result.bip_constraints = num_constraints;
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Gauge& vars_gauge = reg.GetGauge("optimizer.bip_variables");
    static obs::Gauge& rows_gauge = reg.GetGauge("optimizer.bip_constraints");
    static obs::Gauge& nnz_gauge = reg.GetGauge("optimizer.bip_nonzeros");
    // A gauge, not a counter: wall time varies run to run, and the
    // counter determinism tests compare complete counter maps.
    static obs::Gauge& assembly_gauge =
        reg.GetGauge("optimizer.bip_assembly_ms");
    vars_gauge.Set(lp.num_variables());
    rows_gauge.Set(num_constraints);
    nnz_gauge.Set(static_cast<double>(lp.num_nonzeros()));
    assembly_gauge.Set(assembly_watch.ElapsedSeconds() * 1000.0);
  }
  result.timing.bip_construction_seconds = phase->StopSeconds();

  // ==== BIP solving (cost stage, paper §V). ====
  phase.emplace("optimizer.bip_solve", "optimizer");
  bip_options.time_limit_seconds = SolveBudgetSeconds(options_, total_watch);
  // Without a warm start (a space limit is set) the root alone may leave
  // no incumbent; such a solve keeps the time floor only.
  if (bip_options.warm_start != nullptr &&
      DeadlineSpent(options_, total_watch)) {
    bip_options.max_nodes = 1;
  }
  BipResult solved = SolveBip(lp, binaries, bip_options);
  if (solved.status == BipStatus::kInfeasible) {
    return Status::Infeasible(
        "schema BIP has no feasible solution (space limit too tight?)");
  }
  if (solved.status == BipStatus::kNoSolution) {
    return Status::ResourceExhausted(
        "BIP solve hit its node/time budget before finding any feasible "
        "schema; raise OptimizerOptions::bip limits");
  }
  result.bb_nodes = solved.nodes_explored;
  result.objective = solved.objective;
  result.solve_proven = solved.status == BipStatus::kOptimal;
  result.best_bound = solved.best_bound;
  std::vector<bool> selected(candidates.size(), false);
  for (size_t c = 0; c < candidates.size(); ++c) {
    selected[c] = solved.x[static_cast<size_t>(delta_vars[c])] > 0.5;
  }
  if (cache != nullptr) {
    cache->last_bip_variables = lp.num_variables();
    cache->last_bip_rows = lp.num_rows();
    cache->last_bip_nonzeros = lp.num_nonzeros();
    cache->last_root_basis = std::move(captured_root_basis);
  }

  // ==== Schema-size stage (paper §V). ====
  // Fewest column families among the minimum-cost schemas: a greedy drop
  // pass within 1e-6 of the cost stage's objective. The cost stage's lower
  // bound stays valid.
  result.timing.cost_solve_seconds = phase->ElapsedSeconds();
  if (options_.minimize_schema_size) {
    DropRedundantCandidates(form, result.objective, &selected);
  }
  result.timing.size_solve_seconds =
      phase->StopSeconds() - result.timing.cost_solve_seconds;
  result.timing.bip_solve_seconds =
      result.timing.cost_solve_seconds + result.timing.size_solve_seconds;

  // ==== Phase: extraction ("other"). ====
  obs::Span extraction_span("optimizer.extraction", "optimizer");
  NOSE_RETURN_IF_ERROR(ExtractWindowPlans(form, workload, mix, pool, *est_,
                                          /*prune=*/true, &selected, &result));
  // Certify the schema that is returned, after the size stage and the
  // prune: the certificate's solution becomes an exactly-integral point —
  // deltas from the final selection, each support indicator the OR of its
  // dependent deltas, and every flow routed along its best path over the
  // selection (extraction just proved one exists). Integer-coefficient
  // rows then verify with zero violation in exact arithmetic; the
  // incumbent's raw LP vector would not.
  if (options_.capture_certificate != nullptr) {
    SolveCertificate& cert = *options_.capture_certificate;
    std::vector<double> xhat(static_cast<size_t>(lp.num_variables()), 0.0);
    if (RouteWindowPoint(form, delta_vars, selected,
                         /*all_supports=*/false, &xhat)) {
      cert.x = std::move(xhat);
      double obj = 0.0;
      for (int v = 0; v < lp.num_variables(); ++v) {
        obj += lp.cost(v) * cert.x[static_cast<size_t>(v)];
      }
      cert.objective = obj;
    }
  }
  // Report what the returned plans cost: the size stage may have spent up
  // to 1e-6 of the cost solve's objective, and an inexact or early-stopped
  // solve's incumbent can route worse than extraction's best plans.
  result.objective = ReplayedPlanCost(workload, mix, result.query_plans,
                                      result.update_plans);
  result.best_bound = std::min(result.best_bound, result.objective);
  result.anytime_gap = AnytimeGap(result.objective, result.best_bound,
                                  result.solve_proven);
  // Clamped at the source: when a shared cache satisfies whole phases the
  // recorded phase stopwatches can exceed the (tiny) total, and the
  // residual would otherwise go negative here rather than in the advisor.
  result.timing.other_seconds = std::max(
      0.0,
      total_watch.ElapsedSeconds() - result.timing.cost_calculation_seconds -
          result.timing.bip_construction_seconds -
          result.timing.bip_solve_seconds);
  return result;
}

}  // namespace nose
