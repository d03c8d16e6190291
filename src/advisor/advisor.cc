#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "advisor/session.h"
#include "analysis/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nose {

Advisor::Advisor(AdvisorOptions options)
    : options_(options), cost_model_(options.cost_params) {}

std::unique_ptr<util::ThreadPool> Advisor::MakeWorkerPool() const {
  const size_t num_threads = options_.num_threads != 0
                                 ? options_.num_threads
                                 : util::ThreadPool::DefaultNumThreads();
  if (num_threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(num_threads);
}

StatusOr<Recommendation> Advisor::Recommend(const Workload& workload,
                                            const std::string& mix,
                                            double deadline_seconds) const {
  Stopwatch watch;
  std::unique_ptr<util::ThreadPool> threads = MakeWorkerPool();

  // 1. Candidate enumeration (paper §IV-A, Algorithm 1), deriving the
  // support table the formulation then completes.
  obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
  PlanSpaceCache cache;
  CandidatePool pool = Enumerator(options_.enumerator)
                           .EnumerateWorkload(workload, mix, threads.get(),
                                              &cache.supports);
  const double enumeration_seconds = enumeration_phase.StopSeconds();

  return RecommendImpl(workload, mix, std::move(pool), enumeration_seconds,
                       threads.get(), cache, watch, deadline_seconds);
}

StatusOr<std::vector<std::pair<std::string, Recommendation>>>
Advisor::AdviseAllMixes(const Workload& workload,
                        std::vector<std::string> mixes) const {
  obs::Span all_span("advisor.advise_all_mixes", "advisor");
  if (mixes.empty()) mixes = workload.MixNames();
  if (mixes.empty()) {
    return Status::InvalidArgument("workload declares no mixes");
  }
  AdvisingSession session(options_);
  std::vector<std::pair<std::string, Recommendation>> out;
  out.reserve(mixes.size());
  for (const std::string& mix : mixes) {
    NOSE_ASSIGN_OR_RETURN(Recommendation rec, session.Advise(workload, mix));
    out.emplace_back(mix, std::move(rec));
  }
  return out;
}

StatusOr<HorizonPlan> Advisor::PlanHorizon(
    const Workload& workload, const WorkloadHorizon& horizon,
    const HorizonOptions& horizon_options) const {
  obs::Span plan_span("advisor.plan_horizon", "advisor");
  if (horizon.empty()) {
    return Status::InvalidArgument("horizon has no windows");
  }
  std::unique_ptr<util::ThreadPool> pool_threads = MakeWorkerPool();

  // ONE union pool across the horizon: enumerate each distinct mix once,
  // in first-appearance window order, and merge — interning keeps shared
  // candidates at one CfId, which is what lets the per-window activation
  // binaries and the transition variables talk about the same candidate.
  HorizonPlan plan;
  {
    obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
    Enumerator enumerator(options_.enumerator);
    std::set<std::string> seen_mixes;
    for (const HorizonWindow& win : horizon.windows) {
      if (!seen_mixes.insert(win.mix).second) continue;
      if (workload.EntriesIn(win.mix).empty()) {
        return Status::InvalidArgument("workload has no statements in mix " +
                                       win.mix);
      }
      plan.pool.MergeFrom(
          enumerator.EnumerateWorkload(workload, win.mix, pool_threads.get()));
    }
  }

  CardinalityEstimator estimator(workload.graph(), &cost_model_.params());
  SchemaOptimizer optimizer(&cost_model_, &estimator, options_.optimizer,
                            horizon_options);
  PlanSpaceCache cache;
  NOSE_ASSIGN_OR_RETURN(HorizonResult solved,
                        optimizer.Optimize(workload, horizon, plan.pool,
                                           cache, pool_threads.get()));

  plan.transitions = std::move(solved.transitions);
  plan.execution_objective = solved.execution_objective;
  plan.migration_objective = solved.migration_objective;
  plan.total_objective = solved.total_objective;
  plan.windows.reserve(horizon.size());
  for (size_t w = 0; w < horizon.size(); ++w) {
    HorizonPlan::Window window;
    window.label = horizon.windows[w].label;
    window.mix = horizon.windows[w].mix;
    window.duration = horizon.windows[w].duration;
    // The union pool stays on the HorizonPlan — see the struct comment.
    window.rec.num_candidates = plan.pool.size();
    NOSE_RETURN_IF_ERROR(AdoptResult(workload, window.mix,
                                     std::move(solved.windows[w]),
                                     &window.rec));
    plan.windows.push_back(std::move(window));
  }
  return plan;
}

std::string HorizonPlan::ToString() const {
  std::string out = "=== Horizon plan (" + std::to_string(windows.size()) +
                    " windows, " + std::to_string(transitions.size()) +
                    " migrations) ===\n";
  for (size_t w = 0; w < windows.size(); ++w) {
    const Window& win = windows[w];
    out += "-- window " + std::to_string(w) +
           (win.label.empty() ? "" : " (" + win.label + ")") + ": mix " +
           win.mix + ", duration " + std::to_string(win.duration) + ", " +
           std::to_string(win.rec.schema.size()) +
           " column families, objective " + std::to_string(win.rec.objective) +
           " ms/stmt\n";
  }
  for (const HorizonTransition& t : transitions) {
    out += "-- migrate at start of window " + std::to_string(t.at_window) +
           " (est " + std::to_string(t.build_cost_ms) + " ms):\n";
    const Schema& to_schema = windows[t.at_window].rec.schema;
    for (CfId id : t.builds) {
      const std::string* name = to_schema.NameOfId(id);
      out += "   build " + (name != nullptr ? *name : "cf#" + std::to_string(id)) +
             ": " + pool[id].ToString() + "\n";
    }
    for (CfId id : t.drops) {
      out += "   drop " + pool[id].ToString() + "\n";
    }
  }
  out += "objective: execution " + std::to_string(execution_objective) +
         " + migration " + std::to_string(migration_objective) + " = " +
         std::to_string(total_objective) + "\n";
  return out;
}

Status Advisor::AdoptResult(const Workload& workload, const std::string& mix,
                            OptimizationResult opt,
                            Recommendation* rec) const {
  rec->schema = std::move(opt.schema);
  rec->query_plans = std::move(opt.query_plans);
  rec->update_plans = std::move(opt.update_plans);
  rec->objective = opt.objective;
  rec->solve_proven = opt.solve_proven;
  rec->best_bound = opt.best_bound;
  rec->anytime_gap = opt.anytime_gap;
  rec->bip_variables = opt.bip_variables;
  rec->bip_constraints = opt.bip_constraints;
  rec->bb_nodes = opt.bb_nodes;
  rec->timing.cost_calculation_seconds = opt.timing.cost_calculation_seconds;
  rec->timing.bip_construction_seconds = opt.timing.bip_construction_seconds;
  rec->timing.cost_solve_seconds = opt.timing.cost_solve_seconds;
  rec->timing.size_solve_seconds = opt.timing.size_solve_seconds;
  rec->timing.bip_solve_seconds = opt.timing.bip_solve_seconds;
  rec->timing.other_seconds = opt.timing.other_seconds;
  if (!options_.verify_invariants) return Status::Ok();
  obs::Span verify_span("advisor.verify_invariants", "advisor");
  RecommendationView view{&rec->schema, &rec->query_plans, &rec->update_plans,
                          rec->objective, rec->solve_proven};
  return VerifyRecommendation(workload, mix, view);
}

StatusOr<Recommendation> Advisor::RecommendImpl(
    const Workload& workload, const std::string& mix, CandidatePool pool,
    double enumeration_seconds, util::ThreadPool* threads,
    PlanSpaceCache& cache, const Stopwatch& watch,
    double deadline_seconds) const {
  obs::Span recommend_span("advisor.recommend", "advisor");
  Recommendation rec;
  rec.pool = std::move(pool);
  rec.num_candidates = rec.pool.size();
  rec.timing.enumeration_seconds = enumeration_seconds;

  // 2-4. Query planning, schema optimization, plan recommendation.
  CardinalityEstimator estimator(workload.graph(), &cost_model_.params());
  OptimizerOptions opt_options = options_.optimizer;
  if (deadline_seconds > 0.0) {
    // Hand the optimizer what enumeration left of the budget. The optimizer
    // in turn charges planning and assembly against it and bounds only the
    // solve — see OptimizerOptions::deadline_seconds. A non-positive
    // remainder still runs the pipeline, as the smallest positive budget (0
    // would disable it): the optimizer finds it spent and solves only the
    // root node, which still yields an incumbent. The overrun is reported
    // through deadline_hit.
    opt_options.deadline_seconds =
        std::max(std::numeric_limits<double>::min(),
                 deadline_seconds - watch.ElapsedSeconds());
  }
  SchemaOptimizer optimizer(&cost_model_, &estimator, opt_options);
  NOSE_ASSIGN_OR_RETURN(
      HorizonResult solved,
      optimizer.Optimize(workload, WorkloadHorizon::Single(mix), rec.pool,
                         cache, threads));
  // The call's wall time so far: `watch` started before the worker pool
  // and enumeration, so pool start-up (in no phase) lands in "other". The
  // invariant audit below is not part of the Fig. 13 decomposition.
  rec.timing.total_seconds = watch.ElapsedSeconds();
  NOSE_RETURN_IF_ERROR(
      AdoptResult(workload, mix, std::move(solved.windows[0]), &rec));

  // "Other" is the remainder of the Fig. 13 decomposition. The measured
  // phases use their own stopwatches, so rounding can push the remainder a
  // hair below zero — clamp it, and insist the decomposition still accounts
  // for the total.
  const double measured = rec.timing.enumeration_seconds +
                          rec.timing.cost_calculation_seconds +
                          rec.timing.bip_construction_seconds +
                          rec.timing.bip_solve_seconds;
  rec.timing.other_seconds = std::max(0.0, rec.timing.total_seconds - measured);
  // The decomposition should still account for the total; a large residual
  // means a phase stopwatch is missing or double-counting time. Report it
  // as a gauge plus a diagnostic instead of aborting — a loaded machine can
  // legitimately skew the independent clock reads.
  const double residual = std::abs(measured + rec.timing.other_seconds -
                                   rec.timing.total_seconds);
  static obs::Gauge& residual_gauge = obs::MetricsRegistry::Global().GetGauge(
      "advisor.timing_residual_seconds");
  residual_gauge.Set(residual);
  if (residual >= 1e-3 + 1e-3 * rec.timing.total_seconds) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "phase breakdown misses the measured total by %.6fs "
                  "(total %.6fs)",
                  residual, rec.timing.total_seconds);
    Diagnostic d;
    d.code = "NOSE-W006";
    d.severity = Severity::kWarning;
    d.message = msg;
    d.note = "a phase stopwatch is missing or double-counting time";
    rec.diagnostics.push_back(std::move(d));
  }

  if (options_.analyze_antipatterns) {
    obs::Span analyze_span("advisor.analyze_antipatterns", "advisor");
    RecommendationView view{&rec.schema, &rec.query_plans, &rec.update_plans,
                            rec.objective, rec.solve_proven};
    std::vector<Diagnostic> findings = AnalyzeRecommendation(
        workload, mix, view, rec.num_candidates, options_.antipatterns);
    rec.diagnostics.insert(rec.diagnostics.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  if (deadline_seconds > 0.0) {
    rec.deadline_seconds = deadline_seconds;
    rec.deadline_hit = watch.ElapsedSeconds() <= deadline_seconds;
  }
  return rec;
}

std::string Recommendation::ToString() const {
  std::string out = "=== Recommended schema (" +
                    std::to_string(schema.size()) + " column families) ===\n";
  out += schema.ToString();
  out += "\n=== Query plans ===\n";
  for (const auto& [name, plan] : query_plans) {
    out += "-- " + name + "\n" + plan.ToString();
  }
  if (!update_plans.empty()) {
    out += "\n=== Update plans ===\n";
    for (const auto& [name, plan] : update_plans) {
      out += "-- " + name + "\n" + plan.ToString();
    }
  }
  out += "\nweighted workload cost: " + std::to_string(objective) + "\n";
  return out;
}

}  // namespace nose
