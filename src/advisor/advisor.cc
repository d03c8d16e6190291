#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "analysis/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/plan_space.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose {

Advisor::Advisor(AdvisorOptions options)
    : options_(options), cost_model_(options.cost_params) {}

namespace {

/// Builds the advisor's worker pool: num_threads == 1 keeps everything on
/// the calling thread (no pool at all); the output is the same either way,
/// only the wall clock differs.
std::unique_ptr<util::ThreadPool> MakeWorkerPool(size_t num_threads) {
  if (num_threads == 0) num_threads = util::ThreadPool::DefaultNumThreads();
  if (num_threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(num_threads);
}

}  // namespace

StatusOr<Recommendation> Advisor::Recommend(const Workload& workload,
                                            const std::string& mix) const {
  std::unique_ptr<util::ThreadPool> pool_threads =
      MakeWorkerPool(options_.num_threads);

  // 1. Candidate enumeration (paper §IV-A, Algorithm 1).
  obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
  Enumerator enumerator(options_.enumerator);
  CandidatePool pool =
      enumerator.EnumerateWorkload(workload, mix, pool_threads.get());
  const double enumeration_seconds = enumeration_phase.StopSeconds();

  return RecommendImpl(workload, mix, std::move(pool), enumeration_seconds,
                       pool_threads.get(), /*cache=*/nullptr);
}

StatusOr<Recommendation> Advisor::Recommend(const Workload& workload,
                                            const std::string& mix,
                                            double deadline_seconds) const {
  if (deadline_seconds <= 0.0) return Recommend(workload, mix);
  Stopwatch watch;
  std::unique_ptr<util::ThreadPool> pool_threads =
      MakeWorkerPool(options_.num_threads);

  obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
  Enumerator enumerator(options_.enumerator);
  CandidatePool pool =
      enumerator.EnumerateWorkload(workload, mix, pool_threads.get());
  const double enumeration_seconds = enumeration_phase.StopSeconds();

  // Hand the optimizer what enumeration left of the budget. The optimizer
  // in turn charges planning and assembly against it and bounds only the
  // solve — see OptimizerOptions::deadline_seconds. A non-positive
  // remainder still runs the pipeline, as the smallest positive budget (0
  // would disable it): the optimizer finds it spent and solves only the
  // root node, which still yields an incumbent. The overrun is reported
  // through deadline_hit.
  const double remaining = std::max(std::numeric_limits<double>::min(),
                                    deadline_seconds - watch.ElapsedSeconds());
  NOSE_ASSIGN_OR_RETURN(
      Recommendation rec,
      RecommendImpl(workload, mix, std::move(pool), enumeration_seconds,
                    pool_threads.get(), /*cache=*/nullptr, remaining));
  rec.deadline_seconds = deadline_seconds;
  rec.deadline_hit = watch.ElapsedSeconds() <= deadline_seconds;
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
  std::unique_ptr<util::ThreadPool> pool_threads =
      MakeWorkerPool(options_.num_threads);

  // Mixes that weight the same statement set see the same candidates and
  // the same plan spaces (enumeration and planning are weight-independent),
  // so they share one pool and one PlanSpaceCache. Mixes that drop
  // statements to weight zero (e.g. a read-only mix of a read/write
  // workload) land in their own group — reusing a union pool for them
  // would change the enumerated candidates and hence the recommendation.
  struct Group {
    CandidatePool pool;
    double enumeration_seconds = 0.0;
    PlanSpaceCache cache;
    std::set<std::string> names;  ///< statement names, for subset checks
  };
  std::vector<std::unique_ptr<Group>> groups;
  std::map<std::string, size_t> group_of_signature;
  static obs::Counter& reuse_counter =
      obs::MetricsRegistry::Global().GetCounter("advisor.pool_reuse_hits");
  static obs::Counter& cross_counter = obs::MetricsRegistry::Global()
      .GetCounter("advisor.cross_group_seeds");

  Enumerator enumerator(options_.enumerator);
  std::vector<std::pair<std::string, Recommendation>> out;
  out.reserve(mixes.size());
  for (const std::string& mix : mixes) {
    const auto entries = workload.EntriesIn(mix);
    if (entries.empty()) {
      return Status::InvalidArgument("workload has no statements in mix " +
                                     mix);
    }
    std::string signature;
    for (const auto& [entry, weight] : entries) {
      signature += entry->name;
      signature += '\n';
    }
    const auto [it, inserted] =
        group_of_signature.emplace(std::move(signature), groups.size());
    if (inserted) {
      groups.push_back(std::make_unique<Group>());
      Group& fresh = *groups.back();
      for (const auto& [entry, weight] : entries) fresh.names.insert(entry->name);
      obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
      fresh.pool =
          enumerator.EnumerateWorkload(workload, mix, pool_threads.get());
      fresh.enumeration_seconds = enumeration_phase.StopSeconds();
      // Cross-group sharing: when an earlier group's statement set contains
      // this one's (Browsing ⊆ Bidding), its pool contains this pool and
      // its plan spaces project exactly — seed the new cache instead of
      // rebuilding. The projection is byte-exact, so recommendations stay
      // identical to per-mix Recommend either way.
      for (size_t g = 0; g + 1 < groups.size(); ++g) {
        const Group& prior = *groups[g];
        if (prior.names.size() < fresh.names.size()) continue;
        if (!std::includes(prior.names.begin(), prior.names.end(),
                           fresh.names.begin(), fresh.names.end())) {
          continue;
        }
        if (SeedCacheFromSuperset(prior.cache, prior.pool, fresh.pool, entries,
                                  &fresh.cache)) {
          cross_counter.Increment();
          break;
        }
      }
    } else {
      reuse_counter.Increment();
    }
    Group& group = *groups[it->second];
    // The pool is copied into each Recommendation (it owns it; plans point
    // into the copy), and the first mix of the group carries the
    // enumeration time in its Fig. 13 breakdown.
    NOSE_ASSIGN_OR_RETURN(
        Recommendation rec,
        RecommendImpl(workload, mix, group.pool,
                      inserted ? group.enumeration_seconds : 0.0,
                      pool_threads.get(), &group.cache));
    out.emplace_back(mix, std::move(rec));
  }
  return out;
}

StatusOr<HorizonPlan> Advisor::PlanHorizon(
    const Workload& workload, const WorkloadHorizon& horizon,
    const HorizonPlanOptions& horizon_options) const {
  obs::Span plan_span("advisor.plan_horizon", "advisor");
  if (horizon.empty()) {
    return Status::InvalidArgument("horizon has no windows");
  }
  std::unique_ptr<util::ThreadPool> pool_threads =
      MakeWorkerPool(options_.num_threads);

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
  HorizonOptions hopts;
  hopts.optimizer = options_.optimizer;
  hopts.migration_cost_weight = horizon_options.migration_cost_weight;
  hopts.initial_schema = horizon_options.initial_schema;
  hopts.capture_bip = horizon_options.capture_bip;
  hopts.backfill_chunk_rows = horizon_options.backfill_chunk_rows;
  HorizonOptimizer optimizer(&cost_model_, &estimator, hopts);
  PlanSpaceCache cache;
  NOSE_ASSIGN_OR_RETURN(HorizonResult solved,
                        optimizer.Optimize(workload, horizon, plan.pool,
                                           pool_threads.get(), &cache));

  plan.transitions = std::move(solved.transitions);
  plan.execution_objective = solved.execution_objective;
  plan.migration_objective = solved.migration_objective;
  plan.total_objective = solved.total_objective;
  plan.collapsed = solved.collapsed;
  plan.windows.reserve(horizon.size());
  for (size_t w = 0; w < horizon.size(); ++w) {
    OptimizationResult& opt = solved.windows[w];
    HorizonPlan::Window window;
    window.label = horizon.windows[w].label;
    window.mix = horizon.windows[w].mix;
    window.duration = horizon.windows[w].duration;
    Recommendation& rec = window.rec;
    // The union pool stays on the HorizonPlan — see the struct comment.
    rec.num_candidates = plan.pool.size();
    rec.schema = std::move(opt.schema);
    rec.query_plans = std::move(opt.query_plans);
    rec.update_plans = std::move(opt.update_plans);
    rec.objective = opt.objective;
    rec.solve_proven = opt.solve_proven;
    rec.best_bound = opt.best_bound;
    rec.anytime_gap = opt.anytime_gap;
    rec.bip_variables = opt.bip_variables;
    rec.bip_constraints = opt.bip_constraints;
    rec.bb_nodes = opt.bb_nodes;
    rec.timing.cost_calculation_seconds = opt.timing.cost_calculation_seconds;
    rec.timing.bip_construction_seconds = opt.timing.bip_construction_seconds;
    rec.timing.cost_solve_seconds = opt.timing.cost_solve_seconds;
    rec.timing.size_solve_seconds = opt.timing.size_solve_seconds;
    rec.timing.bip_solve_seconds = opt.timing.bip_solve_seconds;
    rec.timing.other_seconds = opt.timing.other_seconds;
    if (options_.verify_invariants) {
      obs::Span verify_span("advisor.verify_invariants", "advisor");
      RecommendationView view{&rec.schema, &rec.query_plans, &rec.update_plans,
                              rec.objective, rec.solve_proven};
      NOSE_RETURN_IF_ERROR(VerifyRecommendation(workload, window.mix, view));
    }
    plan.windows.push_back(std::move(window));
  }
  return plan;
}

std::string HorizonPlan::ToString() const {
  std::string out = "=== Horizon plan (" + std::to_string(windows.size()) +
                    " windows, " + std::to_string(transitions.size()) +
                    " migrations" + (collapsed ? ", collapsed" : "") +
                    ") ===\n";
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

StatusOr<Recommendation> Advisor::RecommendWithPool(
    const Workload& workload, const std::string& mix,
    const CandidatePool& pool, PlanSpaceCache* cache) const {
  std::unique_ptr<util::ThreadPool> pool_threads =
      MakeWorkerPool(options_.num_threads);
  // Enumeration already happened (the pool is the caller's); its time is
  // charged wherever the caller measured it.
  return RecommendImpl(workload, mix, pool, /*enumeration_seconds=*/0.0,
                       pool_threads.get(), cache);
}

bool SeedCacheFromSuperset(
    const PlanSpaceCache& super_cache, const CandidatePool& super_pool,
    const CandidatePool& sub_pool,
    const std::vector<std::pair<const WorkloadEntry*, double>>& entries,
    PlanSpaceCache* out) {
  std::vector<CfId> sub_to_super(sub_pool.size());
  std::unordered_map<CfId, CfId> super_to_sub;
  super_to_sub.reserve(sub_pool.size());
  for (size_t c = 0; c < sub_pool.size(); ++c) {
    const CfId id = super_pool.Find(sub_pool[c]);
    if (id == kInvalidCfId) return false;
    sub_to_super[c] = id;
    super_to_sub.emplace(id, static_cast<CfId>(c));
  }
  static obs::Counter& seeded_counter = obs::MetricsRegistry::Global()
      .GetCounter("advisor.cross_group_spaces_seeded");

  for (const auto& [entry, weight] : entries) {
    if (entry->IsQuery()) {
      auto it = super_cache.query_spaces.find(entry->name);
      if (it == super_cache.query_spaces.end()) continue;
      out->query_spaces.emplace(
          entry->name, QueryPlanner::RestrictToPool(it->second, sub_to_super,
                                                    super_pool.size()));
      seeded_counter.Increment();
      continue;
    }
    auto it = super_cache.update_supports.find(entry->name);
    if (it == super_cache.update_supports.end()) continue;
    // Keep the supports whose candidate survives in the sub pool, renumber
    // them, and restore ascending sub-id order — the order a fresh costing
    // pass over the sub pool emits.
    std::vector<PlanSpaceCache::UpdateSupport> supports;
    for (const PlanSpaceCache::UpdateSupport& sup : it->second) {
      auto sit = super_to_sub.find(static_cast<CfId>(sup.cf_index));
      if (sit == super_to_sub.end()) continue;
      PlanSpaceCache::UpdateSupport mapped = sup;
      mapped.cf_index = sit->second;
      supports.push_back(std::move(mapped));
    }
    std::sort(supports.begin(), supports.end(),
              [](const PlanSpaceCache::UpdateSupport& a,
                 const PlanSpaceCache::UpdateSupport& b) {
                return a.cf_index < b.cf_index;
              });
    for (const PlanSpaceCache::UpdateSupport& sup : supports) {
      for (const std::string& text : sup.support_texts) {
        const std::string key = entry->name + '\n' + text;
        if (out->support_spaces.count(key) != 0) continue;
        auto sp = super_cache.support_spaces.find(key);
        if (sp == super_cache.support_spaces.end()) continue;
        PlanSpaceCache::SupportSpace seeded;
        seeded.query = sp->second.query;
        seeded.space = QueryPlanner::RestrictToPool(
            sp->second.space, sub_to_super, super_pool.size());
        // Fresh builds store the empty marker for support queries the pool
        // cannot answer; apply the same rule to a projection that lost all
        // of its complete plans.
        if (!seeded.space.HasPlan()) seeded.space = PlanSpace();
        out->support_spaces.emplace(key, std::move(seeded));
        seeded_counter.Increment();
      }
    }
    out->update_supports.emplace(entry->name, std::move(supports));
  }
  return true;
}

StatusOr<Recommendation> Advisor::RecommendImpl(
    const Workload& workload, const std::string& mix, CandidatePool pool,
    double enumeration_seconds, util::ThreadPool* pool_threads,
    PlanSpaceCache* cache, double optimizer_deadline_seconds) const {
  obs::PhaseSpan total("advisor.recommend", "advisor");
  Recommendation rec;
  rec.pool = std::move(pool);
  rec.num_candidates = rec.pool.size();
  rec.timing.enumeration_seconds = enumeration_seconds;

  // 2-4. Query planning, schema optimization, plan recommendation.
  CardinalityEstimator estimator(workload.graph(), &cost_model_.params());
  OptimizerOptions opt_options = options_.optimizer;
  if (optimizer_deadline_seconds > 0.0) {
    opt_options.deadline_seconds = optimizer_deadline_seconds;
  }
  SchemaOptimizer optimizer(&cost_model_, &estimator, opt_options);
  NOSE_ASSIGN_OR_RETURN(
      OptimizationResult opt,
      optimizer.Optimize(workload, mix, rec.pool, pool_threads, cache));

  rec.schema = std::move(opt.schema);
  rec.query_plans = std::move(opt.query_plans);
  rec.update_plans = std::move(opt.update_plans);
  rec.objective = opt.objective;
  rec.solve_proven = opt.solve_proven;
  rec.best_bound = opt.best_bound;
  rec.anytime_gap = opt.anytime_gap;
  rec.bip_variables = opt.bip_variables;
  rec.bip_constraints = opt.bip_constraints;
  rec.bb_nodes = opt.bb_nodes;
  rec.timing.cost_calculation_seconds = opt.timing.cost_calculation_seconds;
  rec.timing.bip_construction_seconds = opt.timing.bip_construction_seconds;
  rec.timing.cost_solve_seconds = opt.timing.cost_solve_seconds;
  rec.timing.size_solve_seconds = opt.timing.size_solve_seconds;
  rec.timing.bip_solve_seconds = opt.timing.bip_solve_seconds;
  // Enumeration ran before this span started (Recommend times it; the
  // shared-pool path charges it to the group's first mix).
  rec.timing.total_seconds = total.ElapsedSeconds() + enumeration_seconds;
  // "Other" is the remainder of the Fig. 13 decomposition. The measured
  // phases use their own stopwatches, so rounding can push the remainder a
  // hair below zero — clamp it, and insist the decomposition still accounts
  // for the total.
  rec.timing.other_seconds = std::max(
      0.0, rec.timing.total_seconds - rec.timing.cost_calculation_seconds -
               rec.timing.bip_construction_seconds -
               rec.timing.bip_solve_seconds);
  // The decomposition should still account for the total; a large residual
  // means a phase stopwatch is missing or double-counting time. Report it
  // as a gauge plus a diagnostic instead of aborting — a loaded machine can
  // legitimately skew the independent clock reads.
  const double residual =
      std::abs(rec.timing.cost_calculation_seconds +
               rec.timing.bip_construction_seconds +
               rec.timing.bip_solve_seconds + rec.timing.other_seconds -
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

  if (options_.verify_invariants) {
    obs::Span verify_span("advisor.verify_invariants", "advisor");
    RecommendationView view{&rec.schema, &rec.query_plans, &rec.update_plans,
                            rec.objective, rec.solve_proven};
    NOSE_RETURN_IF_ERROR(VerifyRecommendation(workload, mix, view));
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
