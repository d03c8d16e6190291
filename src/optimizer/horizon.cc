#include "optimizer/horizon.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/formulation.h"
#include "solver/bip.h"

namespace nose {

double BuildCostMs(const ColumnFamily& cf, const CostModel& cost) {
  const double rows = cf.EntryCount();
  const double bytes = cf.SizeBytes();
  const double bytes_per_row = rows > 0.0 ? bytes / rows : 0.0;
  return cost.PutCost(rows, rows, bytes_per_row);
}

double DropCostMs(const CostModel& cost) {
  return cost.params().write_request;
}

double DualWriteCostMs(const ColumnFamily& cf, const CostModel& cost,
                       const MigrationTraffic& traffic) {
  if (traffic.update_weight_share <= 0.0) return 0.0;
  const double rows = cf.EntryCount();
  if (rows <= 0.0) return 0.0;
  const double chunk = std::max(1.0, traffic.chunk_rows);
  const double chunks = std::ceil(rows / chunk);
  const double bytes_per_row = cf.SizeBytes() / rows;
  return traffic.update_weight_share * chunks *
         cost.PutCost(1.0, 1.0, bytes_per_row);
}

double UpdateWeightShare(const Workload& workload, const std::string& mix) {
  double total = 0.0;
  double updates = 0.0;
  for (const auto& [entry, weight] : workload.EntriesIn(mix)) {
    total += weight;
    if (!entry->IsQuery()) updates += weight;
  }
  return total > 0.0 ? updates / total : 0.0;
}

namespace {

/// A maximal run of adjacent windows with the same mix, solved as one
/// period. Exact: builds are subadditive along a schema path, so an
/// optimal plan never migrates between identically-weighted windows.
struct WindowGroup {
  std::string mix;
  double duration = 0.0;
  std::vector<size_t> window_indices;  // into WorkloadHorizon::windows
};

/// Marks the candidates on `space`'s best path over `chosen` in `used`.
void MarkBestPath(const PlanSpace& space, const std::vector<bool>& chosen,
                  std::vector<bool>* used) {
  auto path = space.BestPath(chosen);
  if (!path.ok()) return;
  for (const auto& [state, edge] : *path) {
    (*used)[space.states()[state].edges[edge].cf_index] = true;
  }
}

}  // namespace

StatusOr<HorizonResult> HorizonOptimizer::Optimize(
    const Workload& workload, const WorkloadHorizon& horizon,
    const CandidatePool& pool, util::ThreadPool* threads,
    PlanSpaceCache* cache) const {
  obs::Span horizon_span("optimizer.horizon", "optimizer");
  if (horizon.empty()) {
    return Status::InvalidArgument("horizon has no windows");
  }
  if (pool.empty()) {
    return Status::InvalidArgument("candidate pool is empty");
  }
  const std::vector<ColumnFamily>& candidates = pool.candidates();
  const size_t num_cands = candidates.size();

  std::vector<WindowGroup> groups;
  for (size_t w = 0; w < horizon.size(); ++w) {
    const HorizonWindow& win = horizon.windows[w];
    if (!(win.duration > 0.0)) {
      return Status::InvalidArgument("window " + std::to_string(w) +
                                     " has non-positive duration");
    }
    if (!groups.empty() && groups.back().mix == win.mix) {
      groups.back().duration += win.duration;
      groups.back().window_indices.push_back(w);
    } else {
      WindowGroup group;
      group.mix = win.mix;
      group.duration = win.duration;
      group.window_indices.push_back(w);
      groups.push_back(std::move(group));
    }
  }

  // The per-window solves must not fill the caller's capture hooks — those
  // describe the joint instance (or, on the collapsed path, the one real
  // single-window solve below).
  OptimizerOptions window_options = optimizer_;
  window_options.capture_bip = nullptr;
  window_options.capture_certificate = nullptr;
  SchemaOptimizer window_optimizer(cost_, est_, window_options);

  HorizonResult result;

  // ==== Collapsed horizon: one mix throughout, no prior schema. ====
  // The joint problem degenerates to W copies of the single-window BIP
  // coupled by transition variables that any optimum leaves at zero, so
  // run the single-window pipeline ONCE and replicate — byte-identical to
  // SchemaOptimizer::Optimize by construction, with zero migrations.
  if (groups.size() == 1 && options_.initial_schema == nullptr) {
    OptimizerOptions collapse_options = optimizer_;
    collapse_options.capture_certificate = nullptr;
    collapse_options.capture_bip = options_.capture_bip;
    SchemaOptimizer collapse_optimizer(cost_, est_, collapse_options);
    NOSE_ASSIGN_OR_RETURN(
        OptimizationResult opt,
        collapse_optimizer.Optimize(workload, groups[0].mix, pool, threads,
                                    cache));
    result.collapsed = true;
    result.solve_proven = opt.solve_proven;
    result.bip_variables = opt.bip_variables;
    result.bip_constraints = opt.bip_constraints;
    result.bb_nodes = opt.bb_nodes;
    for (const HorizonWindow& win : horizon.windows) {
      result.execution_objective += win.duration * opt.objective;
    }
    result.total_objective = result.execution_objective;
    result.windows.assign(horizon.size(), opt);
    return result;
  }

  // ==== Per-group myopic pre-solves. ====
  // Each group's single-window optimum seeds the stitched warm start, and
  // solving them through the SHARED cache means plan spaces are built once
  // for the whole horizon and each solve hot-starts from the previous
  // root basis whenever the BIP structures match.
  std::vector<std::vector<bool>> myopic(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    NOSE_ASSIGN_OR_RETURN(
        OptimizationResult opt,
        window_optimizer.Optimize(workload, groups[g].mix, pool, threads,
                                  cache));
    myopic[g].assign(num_cands, false);
    for (size_t i = 0; i < opt.schema.size(); ++i) {
      const CfId id = opt.schema.PoolIdAt(i);
      if (id != kInvalidCfId) myopic[g][id] = true;
    }
  }

  // ==== Joint multi-period BIP. ====
  // Per-group formulations over the one shared pool; the cache is hot now,
  // so this is assembly, not planning.
  std::vector<WindowFormulation> forms;
  forms.reserve(groups.size());
  for (const WindowGroup& group : groups) {
    NOSE_ASSIGN_OR_RETURN(
        WindowFormulation form,
        BuildWindowFormulation(workload, group.mix, pool, cost_, est_, threads,
                               cache));
    forms.push_back(std::move(form));
  }

  std::vector<double> build_cost(num_cands);
  for (size_t c = 0; c < num_cands; ++c) {
    build_cost[c] = BuildCostMs(candidates[c], *cost_);
  }
  const double drop_cost = DropCostMs(*cost_);
  // Dual-write overhead depends on the mix active WHILE the migration
  // runs — the window being entered — so it is priced per (group,
  // candidate): dw_cost[g][c] is the extra foreground puts expected while
  // backfilling c at the start of group g.
  std::vector<std::vector<double>> dw_cost(groups.size(),
                                           std::vector<double>(num_cands));
  for (size_t g = 0; g < groups.size(); ++g) {
    MigrationTraffic traffic;
    traffic.update_weight_share = UpdateWeightShare(workload, groups[g].mix);
    traffic.chunk_rows = options_.backfill_chunk_rows;
    for (size_t c = 0; c < num_cands; ++c) {
      dw_cost[g][c] = DualWriteCostMs(candidates[c], *cost_, traffic);
    }
  }
  std::vector<char> initially_present(num_cands, 0);
  if (options_.initial_schema != nullptr) {
    for (size_t c = 0; c < num_cands; ++c) {
      initially_present[c] =
          options_.initial_schema->FindByKey(candidates[c].key()) != nullptr;
    }
  }

  LpProblem lp;
  // Group-major variable blocks: δ_{g,·}, then group g's edge/indicator
  // variables (window costs scaled by the group's duration). Transition
  // blocks follow all groups.
  std::vector<std::vector<int>> delta_vars(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    WindowFormulation& form = forms[g];
    const double scale = groups[g].duration;
    delta_vars[g].resize(num_cands);
    for (size_t c = 0; c < num_cands; ++c) {
      double dcost = scale * form.delta_cost[c];
      // Builds out of — and drops of — the prior schema are folded into
      // window 0's δ costs instead of a transition block: there is no
      // δ_{-1} variable. The drop charge enters as a keep DISCOUNT
      // (−δ·w·drop ≡ (1−δ)·w·drop minus a constant, and constants never
      // move the argmin).
      if (g == 0 && options_.initial_schema != nullptr) {
        if (!initially_present[c]) {
          dcost +=
              options_.migration_cost_weight * (build_cost[c] + dw_cost[0][c]);
        } else {
          dcost -= options_.migration_cost_weight * drop_cost;
        }
      }
      delta_vars[g][c] =
          lp.AddVariable(0.0, form.allowed[c] ? 1.0 : 0.0, dcost);
    }
    AssignWindowVariables(&form, &lp, scale);
  }
  // Transition variables t_{g,c} ≥ δ_{g,c} − δ_{g−1,c}: pay a build (plus
  // its dual-write overhead under the entered mix) whenever a candidate
  // appears that the previous window did not materialize. Drop variables
  // d_{g,c} ≥ δ_{g−1,c} − δ_{g,c} symmetrically charge retiring one.
  // Positive cost pins every t and d to the max at any optimum, and with
  // integral deltas the max is integral — so both blocks stay continuous
  // and only the W·C deltas branch.
  std::vector<std::vector<int>> trans_vars(groups.size());
  std::vector<std::vector<int>> drop_vars(groups.size());
  for (size_t g = 1; g < groups.size(); ++g) {
    trans_vars[g].resize(num_cands);
    drop_vars[g].resize(num_cands);
    for (size_t c = 0; c < num_cands; ++c) {
      trans_vars[g][c] = lp.AddVariable(
          0.0, 1.0,
          options_.migration_cost_weight * (build_cost[c] + dw_cost[g][c]));
      drop_vars[g][c] =
          lp.AddVariable(0.0, 1.0, options_.migration_cost_weight * drop_cost);
    }
  }

  int num_rows = 0;
  const bool tracing = obs::TracingEnabled();
  for (size_t g = 0; g < groups.size(); ++g) {
    num_rows += BuildWindowRows(forms[g], delta_vars[g], &lp, threads, tracing);
  }
  for (size_t g = 1; g < groups.size(); ++g) {
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
  if (optimizer_.space_limit_bytes.has_value()) {
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<std::pair<int, double>> coeffs;
      for (size_t c = 0; c < num_cands; ++c) {
        coeffs.emplace_back(delta_vars[g][c], candidates[c].SizeBytes());
      }
      lp.AddRow(RowType::kLe, *optimizer_.space_limit_bytes,
                std::move(coeffs));
      ++num_rows;
    }
  }

  std::vector<int> binaries;
  binaries.reserve(groups.size() * num_cands);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t c = 0; c < num_cands; ++c) {
      binaries.push_back(delta_vars[g][c]);
    }
  }

  // Stitched warm start: each group routed at its myopic optimum, with
  // the transition block set to the positive selection diffs. Feasible by
  // construction, and an upper bound the joint solve can only improve on.
  std::vector<double> warm(static_cast<size_t>(lp.num_variables()), 0.0);
  bool warm_ok = true;
  for (size_t g = 0; g < groups.size() && warm_ok; ++g) {
    warm_ok = RouteWindowPoint(forms[g], delta_vars[g], myopic[g],
                               /*all_supports=*/false, &warm);
  }
  if (warm_ok) {
    for (size_t g = 1; g < groups.size(); ++g) {
      for (size_t c = 0; c < num_cands; ++c) {
        if (myopic[g][c] && !myopic[g - 1][c]) {
          warm[static_cast<size_t>(trans_vars[g][c])] = 1.0;
        } else if (!myopic[g][c] && myopic[g - 1][c]) {
          warm[static_cast<size_t>(drop_vars[g][c])] = 1.0;
        }
      }
    }
  }
  BipOptions bip_options = optimizer_.bip;
  bip_options.threads = threads;
  if (warm_ok) bip_options.warm_start = &warm;

  if (options_.capture_bip != nullptr) {
    options_.capture_bip->lp = lp;
    options_.capture_bip->binary_vars = binaries;
    options_.capture_bip->warm_start =
        bip_options.warm_start != nullptr ? warm : std::vector<double>();
    options_.capture_bip->captured = true;
  }

  result.bip_variables = lp.num_variables();
  result.bip_constraints = num_rows;
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Gauge& windows_gauge =
        reg.GetGauge("optimizer.horizon_windows");
    static obs::Gauge& groups_gauge = reg.GetGauge("optimizer.horizon_groups");
    windows_gauge.Set(static_cast<double>(horizon.size()));
    groups_gauge.Set(static_cast<double>(groups.size()));
  }

  BipResult solved = SolveBip(lp, binaries, bip_options);
  if (solved.status == BipStatus::kInfeasible) {
    return Status::Infeasible(
        "multi-period BIP has no feasible solution (space limit too tight?)");
  }
  if (solved.status == BipStatus::kNoSolution) {
    return Status::ResourceExhausted(
        "multi-period BIP hit its node/time budget before finding any "
        "feasible schedule; raise OptimizerOptions::bip limits");
  }
  result.solve_proven = solved.status == BipStatus::kOptimal;
  result.bb_nodes = solved.nodes_explored;

  std::vector<std::vector<bool>> sel(groups.size(),
                                     std::vector<bool>(num_cands, false));
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t c = 0; c < num_cands; ++c) {
      sel[g][c] = solved.x[static_cast<size_t>(delta_vars[g][c])] > 0.5 &&
                  forms[g].allowed[c];
    }
  }

  // GLOBAL unused-candidate prune: drop a candidate only when NO window's
  // plans (queries, or support plans of any still-selected candidate)
  // touch it. A per-window prune could remove a candidate from an early
  // window only to rebuild it later — moving a build the solve already
  // paid for and double-counting migration cost; shrinking every window
  // identically can only cancel builds.
  std::vector<bool> used_any(num_cands, false);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const SpaceVars& sv : forms[g].query_spaces) {
      MarkBestPath(sv.space, sel[g], &used_any);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t g = 0; g < groups.size(); ++g) {
      for (const SupportInfo& info : forms[g].supports) {
        if (!sel[g][info.cf_index] || !used_any[info.cf_index]) continue;
        for (size_t idx : info.shared_ids) {
          const PlanSpace& space = forms[g].shared_supports[idx]->sv.space;
          if (space.states().empty()) continue;
          std::vector<bool> before = used_any;
          MarkBestPath(space, sel[g], &used_any);
          if (used_any != before) changed = true;
        }
      }
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t c = 0; c < num_cands; ++c) {
      sel[g][c] = sel[g][c] && used_any[c];
    }
  }

  // ==== Extraction: plans per group, replicated to its windows, plus the
  // migration schedule from the selection diffs. Objectives are recomputed
  // from the final selections (WindowObjective is the exact per-window BIP
  // objective), so the reported split never drifts from the plans. ====
  result.windows.resize(horizon.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    OptimizationResult opt;
    std::vector<bool> sel_copy = sel[g];
    NOSE_RETURN_IF_ERROR(ExtractWindowPlans(forms[g], workload, groups[g].mix,
                                            pool, *est_, /*prune=*/false,
                                            &sel_copy, &opt));
    opt.objective = WindowObjective(forms[g], sel[g]);
    opt.solve_proven = result.solve_proven;
    result.execution_objective += groups[g].duration * opt.objective;
    for (size_t wi : groups[g].window_indices) {
      result.windows[wi] = opt;
    }
  }

  std::vector<bool> prev(num_cands, false);
  if (options_.initial_schema != nullptr) {
    for (size_t c = 0; c < num_cands; ++c) {
      prev[c] = initially_present[c] != 0;
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    // Without a prior schema, window 0's builds are the initial deployment
    // — sunk cost, not a scheduled migration.
    if (g > 0 || options_.initial_schema != nullptr) {
      HorizonTransition t;
      t.at_window = groups[g].window_indices.front();
      for (size_t c = 0; c < num_cands; ++c) {
        if (sel[g][c] && !prev[c]) {
          t.builds.push_back(static_cast<CfId>(c));
          t.build_cost_ms += build_cost[c];
          t.dual_write_cost_ms += dw_cost[g][c];
        } else if (!sel[g][c] && prev[c]) {
          t.drops.push_back(static_cast<CfId>(c));
          t.drop_cost_ms += drop_cost;
        }
      }
      if (!t.builds.empty() || !t.drops.empty()) {
        result.migration_objective +=
            options_.migration_cost_weight *
            (t.build_cost_ms + t.drop_cost_ms + t.dual_write_cost_ms);
        result.transitions.push_back(std::move(t));
      }
    }
    prev = sel[g];
  }
  result.total_objective =
      result.execution_objective + result.migration_objective;
  return result;
}

}  // namespace nose
