#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "advisor/session.h"
#include "analysis/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose {

Advisor::Advisor(AdvisorOptions options)
    : options_(options), cost_model_(options.cost_params) {}

StatusOr<Recommendation> Advisor::Recommend(const Workload& workload,
                                            const std::string& mix,
                                            double deadline_seconds) const {
  PlanSpaceCache cache;
  NOSE_ASSIGN_OR_RETURN(
      HorizonPlan plan,
      RunPipeline(workload, WorkloadHorizon::Single(mix), HorizonOptions(),
                  nullptr, cache, deadline_seconds));
  return OnlyWindow(std::move(plan));
}

Recommendation Advisor::OnlyWindow(HorizonPlan plan) {
  Recommendation rec = std::move(plan.windows[0].rec);
  // Moving the pool keeps its candidates where the plans point.
  rec.pool = std::move(plan.pool);
  return rec;
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
  PlanSpaceCache cache;
  return RunPipeline(workload, horizon, horizon_options, nullptr, cache,
                     /*deadline_seconds=*/0.0);
}

StatusOr<HorizonPlan> Advisor::RunPipeline(
    const Workload& workload, const WorkloadHorizon& horizon,
    const HorizonOptions& horizon_options, const CandidatePool* enumerated,
    PlanSpaceCache& cache, double deadline_seconds) const {
  Stopwatch watch;
  obs::Span advise_span("advisor.advise", "advisor");
  if (horizon.empty()) {
    return Status::InvalidArgument("horizon has no windows");
  }
  // The call's worker pool: null at one thread (all work stays on the
  // calling thread); the output is the same either way.
  const size_t num_threads = options_.num_threads != 0
                                 ? options_.num_threads
                                 : util::ThreadPool::DefaultNumThreads();
  std::unique_ptr<util::ThreadPool> threads;
  if (num_threads > 1) threads = std::make_unique<util::ThreadPool>(num_threads);

  // 1. Candidate enumeration (paper §IV-A, Algorithm 1). ONE union pool
  // across the horizon: each distinct mix is enumerated once, in
  // first-appearance window order. The first mix's pool keeps its CfIds,
  // so its enumerator derives the support table the formulation then
  // completes; later mixes are interned into it, which keeps shared
  // candidates at one CfId for the per-window activation binaries and the
  // transition variables.
  HorizonPlan plan;
  double enumeration_seconds = 0.0;
  if (enumerated != nullptr) {
    plan.pool = *enumerated;
  } else {
    obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
    Enumerator enumerator(options_.enumerator);
    std::set<std::string> seen_mixes;
    for (const HorizonWindow& win : horizon.windows) {
      if (!seen_mixes.insert(win.mix).second) continue;
      if (workload.EntriesIn(win.mix).empty()) {
        return Status::InvalidArgument("workload has no statements in mix " +
                                       win.mix);
      }
      if (seen_mixes.size() == 1) {
        plan.pool = enumerator.EnumerateWorkload(workload, win.mix,
                                                 threads.get(),
                                                 &cache.supports);
      } else {
        plan.pool.MergeFrom(
            enumerator.EnumerateWorkload(workload, win.mix, threads.get()));
      }
    }
    enumeration_seconds = enumeration_phase.StopSeconds();
  }

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
  SchemaOptimizer optimizer(&cost_model_, &estimator, opt_options,
                            horizon_options);
  NOSE_ASSIGN_OR_RETURN(HorizonResult solved,
                        optimizer.Optimize(workload, horizon, plan.pool,
                                           cache, threads.get()));
  // The call's wall time so far: `watch` started before the worker pool
  // and enumeration, so pool start-up (in no phase) lands in "other". The
  // invariant audit below is not part of the Fig. 13 decomposition.
  AdvisorTiming timing = solved.windows[0].timing;
  timing.enumeration_seconds = enumeration_seconds;
  timing.total_seconds = watch.ElapsedSeconds();

  // "Other" is the remainder of the Fig. 13 decomposition. The measured
  // phases use their own stopwatches, so rounding can push the remainder a
  // hair below zero — clamp it, and insist the decomposition still accounts
  // for the total.
  const double measured =
      timing.enumeration_seconds + timing.cost_calculation_seconds +
      timing.bip_construction_seconds + timing.bip_solve_seconds;
  timing.other_seconds = std::max(0.0, timing.total_seconds - measured);
  // The decomposition should still account for the total; a large residual
  // means a phase stopwatch is missing or double-counting time. Report it
  // as a gauge plus a diagnostic instead of aborting — a loaded machine can
  // legitimately skew the independent clock reads.
  const double residual =
      std::abs(measured + timing.other_seconds - timing.total_seconds);
  static obs::Gauge& residual_gauge = obs::MetricsRegistry::Global().GetGauge(
      "advisor.timing_residual_seconds");
  residual_gauge.Set(residual);
  std::optional<Diagnostic> residual_warning;
  if (residual >= 1e-3 + 1e-3 * timing.total_seconds) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "phase breakdown misses the measured total by %.6fs "
                  "(total %.6fs)",
                  residual, timing.total_seconds);
    Diagnostic& d = residual_warning.emplace();
    d.code = "NOSE-W006";
    d.severity = Severity::kWarning;
    d.message = msg;
    d.note = "a phase stopwatch is missing or double-counting time";
  }

  plan.transitions = std::move(solved.transitions);
  plan.execution_objective = solved.execution_objective;
  plan.migration_objective = solved.migration_objective;
  plan.total_objective = solved.total_objective;
  plan.windows.resize(horizon.size());
  for (size_t w = 0; w < horizon.size(); ++w) {
    HorizonPlan::Window& window = plan.windows[w];
    window.label = horizon.windows[w].label;
    window.mix = horizon.windows[w].mix;
    window.duration = horizon.windows[w].duration;
    Recommendation& rec = window.rec;
    static_cast<OptimizationResult&>(rec) = std::move(solved.windows[w]);
    rec.timing = timing;
    // The union pool stays on the plan — see HorizonPlan.
    rec.num_candidates = plan.pool.size();
    RecommendationView view{&rec.schema, &rec.query_plans, &rec.update_plans,
                            rec.objective, rec.solve_proven};
    if (options_.verify_invariants) {
      obs::Span verify_span("advisor.verify_invariants", "advisor");
      NOSE_RETURN_IF_ERROR(VerifyRecommendation(workload, window.mix, view));
    }
    if (residual_warning.has_value()) {
      rec.diagnostics.push_back(*residual_warning);
    }
    if (options_.analyze_antipatterns) {
      obs::Span analyze_span("advisor.analyze_antipatterns", "advisor");
      std::vector<Diagnostic> findings =
          AnalyzeRecommendation(workload, window.mix, view,
                                rec.num_candidates, options_.antipatterns);
      rec.diagnostics.insert(rec.diagnostics.end(),
                             std::make_move_iterator(findings.begin()),
                             std::make_move_iterator(findings.end()));
    }
  }
  if (deadline_seconds > 0.0) {
    const bool hit = watch.ElapsedSeconds() <= deadline_seconds;
    for (HorizonPlan::Window& window : plan.windows) {
      window.rec.deadline_seconds = deadline_seconds;
      window.rec.deadline_hit = hit;
    }
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
