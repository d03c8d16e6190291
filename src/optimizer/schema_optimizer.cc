#include "optimizer/schema_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

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

/// A maximal run of adjacent windows with the same mix, solved as one
/// period (exact; see SchemaOptimizer).
struct WindowGroup {
  std::string mix;
  double duration = 0.0;
  std::vector<size_t> window_indices;  // into WorkloadHorizon::windows
};

/// Marks the candidates on `space`'s best path over `chosen` in `used`.
/// True when it marked one that was unmarked.
bool MarkBestPath(const PlanSpace& space, const std::vector<bool>& chosen,
                  std::vector<bool>* used) {
  auto path = space.BestPath(chosen);
  if (!path.ok()) return false;
  bool marked = false;
  for (const auto& [state, edge] : *path) {
    const CfId cf = space.states()[state].edges[edge].cf_index;
    marked = marked || !(*used)[cf];
    (*used)[cf] = true;
  }
  return marked;
}

/// The unused-candidate prune, global over the groups: a selected
/// candidate stays only when some group's plans use it — a query's best
/// plan, or transitively a support plan of a used candidate — since it
/// adds maintenance and storage for nothing. A per-group prune could drop
/// a candidate from an early group only to rebuild it later, moving a
/// build the solve already paid for; shrinking every group alike can only
/// cancel builds. With one group it keeps exactly what that group's plans
/// use.
void PruneUnusedCandidates(const std::vector<WindowFormulation>& forms,
                           std::vector<std::vector<bool>>* selections) {
  std::vector<std::vector<bool>>& sel = *selections;
  std::vector<bool> used(sel.front().size(), false);
  for (size_t g = 0; g < forms.size(); ++g) {
    for (const SpaceVars& sv : forms[g].query_spaces) {
      MarkBestPath(sv.space, sel[g], &used);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t g = 0; g < forms.size(); ++g) {
      for (const SupportInfo& info : forms[g].supports) {
        if (!sel[g][info.cf_index] || !used[info.cf_index]) continue;
        for (size_t idx : info.shared_ids) {
          const PlanSpace& space = forms[g].shared_supports[idx]->sv.space;
          if (space.states().empty()) continue;
          if (MarkBestPath(space, sel[g], &used)) changed = true;
        }
      }
    }
  }
  for (std::vector<bool>& group_sel : sel) {
    for (size_t c = 0; c < group_sel.size(); ++c) {
      group_sel[c] = group_sel[c] && used[c];
    }
  }
}

}  // namespace

StatusOr<HorizonResult> SchemaOptimizer::Optimize(
    const Workload& workload, const WorkloadHorizon& horizon,
    const CandidatePool& pool, util::ThreadPool* threads,
    PlanSpaceCache* cache) const {
  obs::Span optimize_span("optimizer.optimize", "optimizer");
  Stopwatch total_watch;
  if (horizon.empty()) {
    return Status::InvalidArgument("horizon has no windows");
  }
  std::vector<WindowGroup> groups;
  for (size_t w = 0; w < horizon.size(); ++w) {
    const HorizonWindow& win = horizon.windows[w];
    if (!(win.duration > 0.0)) {
      return Status::InvalidArgument("window " + std::to_string(w) +
                                     " has non-positive duration");
    }
    if (groups.empty() || groups.back().mix != win.mix) {
      groups.push_back(WindowGroup{win.mix, 0.0, {}});
    }
    groups.back().duration += win.duration;
    groups.back().window_indices.push_back(w);
  }
  const size_t num_groups = groups.size();
  // Several groups are solved jointly: each group's costs scale by its
  // duration, and transitions couple consecutive groups. One group is the
  // paper's single-mix BIP, unscaled.
  const bool joint = num_groups > 1;
  auto scale = [&](size_t g) { return joint ? groups[g].duration : 1.0; };
  const std::vector<ColumnFamily>& candidates = pool.candidates();
  const size_t num_cands = candidates.size();

  // ==== Per-group pre-solves (several groups only). ====
  // Each group's one-window optimum seeds the stitched warm start. Solving
  // them through the SHARED cache builds plan spaces once for the whole
  // horizon, and each hot-starts from the previous root basis whenever the
  // BIP structures match. They draw on this call's deadline.
  std::vector<std::vector<bool>> myopic(num_groups);
  if (joint) {
    OptimizerOptions pre_options = options_;
    pre_options.capture_bip = nullptr;
    pre_options.capture_certificate = nullptr;
    for (size_t g = 0; g < num_groups; ++g) {
      if (options_.deadline_seconds > 0.0) {
        pre_options.deadline_seconds =
            std::max(std::numeric_limits<double>::min(),
                     options_.deadline_seconds - total_watch.ElapsedSeconds());
      }
      NOSE_ASSIGN_OR_RETURN(
          HorizonResult pre,
          SchemaOptimizer(cost_, est_, pre_options)
              .Optimize(workload, WorkloadHorizon::Single(groups[g].mix),
                        pool, threads, cache));
      myopic[g].assign(num_cands, false);
      const Schema& schema = pre.windows[0].schema;
      for (size_t i = 0; i < schema.size(); ++i) {
        myopic[g][schema.PoolIdAt(i)] = true;
      }
    }
  }

  // ==== Phase: cost calculation (plan-space construction). ====
  // One window formulation (optimizer/formulation.h) per group over the
  // one pool. Each phase is one PhaseSpan: the span lands in the trace,
  // and the same clock pair feeds AdvisorTiming so Fig. 13 output is
  // independent of whether tracing is on.
  OptimizerTiming timing;
  std::optional<obs::PhaseSpan> phase;
  phase.emplace("optimizer.cost_calculation", "optimizer");
  std::vector<WindowFormulation> forms;
  forms.reserve(num_groups);
  for (const WindowGroup& group : groups) {
    NOSE_ASSIGN_OR_RETURN(
        WindowFormulation form,
        BuildWindowFormulation(workload, group.mix, pool, cost_, est_,
                               threads, cache));
    forms.push_back(std::move(form));
  }
  timing.cost_calculation_seconds = phase->StopSeconds();

  // ==== BIP construction (paper Figs. 7 and 10). ====
  phase.emplace("optimizer.bip_construction", "optimizer");
  Stopwatch assembly_watch;
  LpProblem lp;
  // Group-major variable blocks: δ_{g,·} in candidate order, then group
  // g's edge/indicator variables. Transition blocks follow all groups.
  std::vector<std::vector<int>> delta_vars(num_groups,
                                           std::vector<int>(num_cands));
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t c = 0; c < num_cands; ++c) {
      delta_vars[g][c] =
          lp.AddVariable(0.0, forms[g].allowed[c] ? 1.0 : 0.0,
                         scale(g) * forms[g].delta_cost[c]);
    }
    AssignWindowVariables(&forms[g], &lp, scale(g));
  }
  // Transition variables t_{g,c} ≥ δ_{g,c} − δ_{g−1,c}: pay a build (plus
  // its dual-write overhead under the entered mix) whenever a candidate
  // appears that the previous group did not materialize. Drop variables
  // d_{g,c} ≥ δ_{g−1,c} − δ_{g,c} symmetrically charge retiring one.
  // Positive cost pins every t and d to the max at any optimum, and with
  // integral deltas the max is integral — so both blocks stay continuous
  // and only the deltas branch. Group 0's builds are the initial
  // deployment: sunk cost, not migration.
  const double weight = horizon_options_.migration_cost_weight;
  const double drop_cost = DropCostMs(*cost_);
  std::vector<double> build_cost(joint ? num_cands : 0);
  for (size_t c = 0; c < build_cost.size(); ++c) {
    build_cost[c] = BuildCostMs(candidates[c], *cost_);
  }
  // dw_cost[g][c]: the extra foreground puts expected while backfilling c
  // at the start of group g, under the mix being entered.
  std::vector<std::vector<double>> dw_cost(num_groups);
  std::vector<std::vector<int>> trans_vars(num_groups);
  std::vector<std::vector<int>> drop_vars(num_groups);
  for (size_t g = 1; g < num_groups; ++g) {
    MigrationTraffic traffic;
    traffic.update_weight_share = UpdateWeightShare(workload, groups[g].mix);
    traffic.chunk_rows = horizon_options_.backfill_chunk_rows;
    dw_cost[g].resize(num_cands);
    trans_vars[g].resize(num_cands);
    drop_vars[g].resize(num_cands);
    for (size_t c = 0; c < num_cands; ++c) {
      dw_cost[g][c] = DualWriteCostMs(candidates[c], *cost_, traffic);
      trans_vars[g][c] =
          lp.AddVariable(0.0, 1.0, weight * (build_cost[c] + dw_cost[g][c]));
      drop_vars[g][c] = lp.AddVariable(0.0, 1.0, weight * drop_cost);
    }
  }

  int num_rows = 0;
  const bool tracing = obs::TracingEnabled();
  for (size_t g = 0; g < num_groups; ++g) {
    num_rows += BuildWindowRows(forms[g], delta_vars[g], &lp, threads, tracing);
  }
  for (size_t g = 1; g < num_groups; ++g) {
    for (size_t c = 0; c < num_cands; ++c) {
      lp.AddRow(RowType::kLe, 0.0,
                {{delta_vars[g][c], 1.0},
                 {delta_vars[g - 1][c], -1.0},
                 {trans_vars[g][c], -1.0}});
      lp.AddRow(RowType::kLe, 0.0,
                {{delta_vars[g - 1][c], 1.0},
                 {delta_vars[g][c], -1.0},
                 {drop_vars[g][c], -1.0}});
      num_rows += 2;
    }
  }
  // Optional storage constraint per group: Σ s_j δ_{g,j} ≤ S.
  if (options_.space_limit_bytes.has_value()) {
    for (size_t g = 0; g < num_groups; ++g) {
      std::vector<std::pair<int, double>> coeffs;
      for (size_t c = 0; c < num_cands; ++c) {
        coeffs.emplace_back(delta_vars[g][c], candidates[c].SizeBytes());
      }
      lp.AddRow(RowType::kLe, *options_.space_limit_bytes, std::move(coeffs));
      ++num_rows;
    }
  }

  // Branch only on the delta variables: with deltas integral, every
  // space subproblem is a min-cost flow whose LP optimum is integral
  // (totally unimodular constraints), so edge variables never need
  // branching.
  std::vector<int> binaries;
  binaries.reserve(num_groups * num_cands);
  for (const std::vector<int>& deltas : delta_vars) {
    binaries.insert(binaries.end(), deltas.begin(), deltas.end());
  }

  // The exact point of a schedule: each group's flows routed along best
  // paths over its selection, and the transition and drop variables set
  // from the selection diffs. False when some routing has no path.
  auto route_schedule = [&](const std::vector<std::vector<bool>>& sel,
                            std::vector<double>* x) {
    for (size_t g = 0; g < num_groups; ++g) {
      if (!RouteWindowPoint(forms[g], delta_vars[g], sel[g],
                            /*all_supports=*/false, x)) {
        return false;
      }
    }
    for (size_t g = 1; g < num_groups; ++g) {
      for (size_t c = 0; c < num_cands; ++c) {
        if (sel[g][c] && !sel[g - 1][c]) {
          (*x)[static_cast<size_t>(trans_vars[g][c])] = 1.0;
        } else if (!sel[g][c] && sel[g - 1][c]) {
          (*x)[static_cast<size_t>(drop_vars[g][c])] = 1.0;
        }
      }
    }
    return true;
  };

  // Warm start, which gives branch and bound an incumbent immediately
  // (anytime behavior). One group: select every usable candidate and route
  // each flow along its best plan — feasible unless a storage budget is
  // active. Several groups: the schedule of the pre-solve optima —
  // feasible by construction, and an upper bound the joint solve can only
  // improve on.
  std::vector<double> warm(static_cast<size_t>(lp.num_variables()), 0.0);
  const bool warm_ok =
      joint ? route_schedule(myopic, &warm)
            : !options_.space_limit_bytes.has_value() &&
                  RouteWindowPoint(forms[0], delta_vars[0], forms[0].allowed,
                                   /*all_supports=*/true, &warm);
  BipOptions bip_options = options_.bip;
  bip_options.threads = threads;
  if (warm_ok) bip_options.warm_start = &warm;
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
    // breaking the byte-equality contract between AdvisingSession and
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
    options_.capture_bip->warm_start = warm_ok ? warm : std::vector<double>();
    options_.capture_bip->captured = true;
  }
  bip_options.capture_certificate = options_.capture_certificate;

  HorizonResult result;
  result.bip_variables = lp.num_variables();
  result.bip_constraints = num_rows;
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
    rows_gauge.Set(num_rows);
    nnz_gauge.Set(static_cast<double>(lp.num_nonzeros()));
    assembly_gauge.Set(assembly_watch.ElapsedSeconds() * 1000.0);
  }
  timing.bip_construction_seconds = phase->StopSeconds();

  // ==== BIP solving (cost stage, paper §V). ====
  phase.emplace("optimizer.bip_solve", "optimizer");
  bip_options.time_limit_seconds = SolveBudgetSeconds(options_, total_watch);
  // Without a warm start (a space limit is set) the root alone may leave
  // no incumbent; such a solve keeps the time floor only.
  if (warm_ok && DeadlineSpent(options_, total_watch)) {
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
  result.solve_proven = solved.status == BipStatus::kOptimal;
  std::vector<std::vector<bool>> sel(num_groups,
                                     std::vector<bool>(num_cands, false));
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t c = 0; c < num_cands; ++c) {
      sel[g][c] = solved.x[static_cast<size_t>(delta_vars[g][c])] > 0.5;
    }
  }
  if (cache != nullptr) {
    cache->last_bip_variables = lp.num_variables();
    cache->last_bip_rows = lp.num_rows();
    cache->last_bip_nonzeros = lp.num_nonzeros();
    cache->last_root_basis = std::move(captured_root_basis);
  }

  // ==== Schema-size stage (paper §V). ====
  // Fewest column families among the minimum-cost schedules: a greedy drop
  // pass within 1e-6 of the cost stage's objective, on the BIP objective
  // at the selections — Σ_g scale_g · WindowObjective plus the migration
  // charges of the selection diffs. The cost stage's lower bound stays
  // valid.
  timing.cost_solve_seconds = phase->ElapsedSeconds();
  if (options_.minimize_schema_size) {
    DropRedundantCandidates(solved.objective, &sel, [&] {
      double obj = 0.0;
      for (size_t g = 0; g < num_groups; ++g) {
        obj += scale(g) * WindowObjective(forms[g], sel[g]);
      }
      for (size_t g = 1; g < num_groups; ++g) {
        for (size_t c = 0; c < num_cands; ++c) {
          if (sel[g][c] && !sel[g - 1][c]) {
            obj += weight * (build_cost[c] + dw_cost[g][c]);
          } else if (!sel[g][c] && sel[g - 1][c]) {
            obj += weight * drop_cost;
          }
        }
      }
      return obj;
    });
  }
  timing.size_solve_seconds =
      phase->StopSeconds() - timing.cost_solve_seconds;
  timing.bip_solve_seconds =
      timing.cost_solve_seconds + timing.size_solve_seconds;

  // ==== Phase: extraction ("other"). ====
  obs::Span extraction_span("optimizer.extraction", "optimizer");
  PruneUnusedCandidates(forms, &sel);
  // Certify the schedule that is returned, after the size stage and the
  // prune: the certificate's solution becomes an exactly-integral point —
  // deltas from the final selections, each support indicator the OR of its
  // dependent deltas, every flow routed along its best path over its
  // group's selection, and transitions from the diffs. Integer-coefficient
  // rows then verify with zero violation in exact arithmetic; the
  // incumbent's raw LP vector would not.
  if (options_.capture_certificate != nullptr) {
    SolveCertificate& cert = *options_.capture_certificate;
    std::vector<double> xhat(static_cast<size_t>(lp.num_variables()), 0.0);
    if (route_schedule(sel, &xhat)) {
      cert.x = std::move(xhat);
      double obj = 0.0;
      for (int v = 0; v < lp.num_variables(); ++v) {
        obj += lp.cost(v) * cert.x[static_cast<size_t>(v)];
      }
      cert.objective = obj;
    }
  }

  // Plans per group, and the migration schedule from the selection diffs.
  // Each group reports what its returned plans cost (ReplayedPlanCost):
  // the size stage may have spent up to 1e-6 of the cost solve's
  // objective, and an inexact or early-stopped solve's incumbent can route
  // worse than extraction's best plans.
  std::vector<OptimizationResult> group_results(num_groups);
  double schedule_objective = 0.0;  // in the BIP's (scaled) units
  for (size_t g = 0; g < num_groups; ++g) {
    OptimizationResult& opt = group_results[g];
    NOSE_RETURN_IF_ERROR(ExtractWindowPlans(forms[g], workload, groups[g].mix,
                                            pool, *est_, sel[g], &opt));
    opt.objective = ReplayedPlanCost(workload, groups[g].mix, opt.query_plans,
                                     opt.update_plans);
    result.execution_objective += groups[g].duration * opt.objective;
    schedule_objective += scale(g) * opt.objective;
  }
  for (size_t g = 1; g < num_groups; ++g) {
    HorizonTransition t;
    t.at_window = groups[g].window_indices.front();
    for (size_t c = 0; c < num_cands; ++c) {
      if (sel[g][c] && !sel[g - 1][c]) {
        t.builds.push_back(static_cast<CfId>(c));
        t.build_cost_ms += build_cost[c];
        t.dual_write_cost_ms += dw_cost[g][c];
      } else if (!sel[g][c] && sel[g - 1][c]) {
        t.drops.push_back(static_cast<CfId>(c));
        t.drop_cost_ms += drop_cost;
      }
    }
    if (!t.builds.empty() || !t.drops.empty()) {
      result.migration_objective +=
          weight * (t.build_cost_ms + t.drop_cost_ms + t.dual_write_cost_ms);
      result.transitions.push_back(std::move(t));
    }
  }
  result.total_objective =
      result.execution_objective + result.migration_objective;
  schedule_objective += result.migration_objective;
  const double best_bound = std::min(solved.best_bound, schedule_objective);
  const double gap =
      AnytimeGap(schedule_objective, best_bound, result.solve_proven);
  // Clamped at the source: when a shared cache satisfies whole phases the
  // recorded phase stopwatches can exceed the (tiny) total, and the
  // residual would otherwise go negative here rather than in the advisor.
  timing.other_seconds = std::max(
      0.0, total_watch.ElapsedSeconds() - timing.cost_calculation_seconds -
               timing.bip_construction_seconds - timing.bip_solve_seconds);

  // Each group's result goes to its windows; the last one takes it by move.
  result.windows.resize(horizon.size());
  for (size_t g = 0; g < num_groups; ++g) {
    OptimizationResult& opt = group_results[g];
    opt.solve_proven = result.solve_proven;
    opt.best_bound = joint ? opt.objective * (1.0 - gap) : best_bound;
    opt.anytime_gap = gap;
    opt.timing = timing;
    opt.bip_variables = result.bip_variables;
    opt.bip_constraints = result.bip_constraints;
    opt.bb_nodes = result.bb_nodes;
    const std::vector<size_t>& windows = groups[g].window_indices;
    for (size_t i = 0; i + 1 < windows.size(); ++i) {
      result.windows[windows[i]] = opt;
    }
    result.windows[windows.back()] = std::move(opt);
  }
  return result;
}

}  // namespace nose
