#include "advisor/session.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/plan_space.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose {

namespace {

/// Seeds `out` with exact projections of `super_cache`'s plan spaces onto
/// `sub_pool`, for the statements in `entries`. Every seeded space is
/// byte-identical to what a fresh build over `sub_pool` would produce.
/// Returns false without touching `out` when some sub-pool candidate is
/// absent from `super_pool` (the pools do not nest, so projection would be
/// lossy). Statements missing from `super_cache` are skipped — the
/// optimizer simply rebuilds those.
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

}  // namespace

struct AdvisingSession::Group {
  std::set<std::string> names;  ///< the statement set
  CandidatePool pool;
  PlanSpaceCache cache;
};

AdvisingSession::AdvisingSession(AdvisorOptions options) : advisor_(options) {}

AdvisingSession::~AdvisingSession() = default;

StatusOr<Recommendation> AdvisingSession::Advise(const Workload& workload,
                                                 const std::string& mix,
                                                 double deadline_seconds) {
  Stopwatch watch;
  const auto entries = workload.EntriesIn(mix);
  if (entries.empty()) {
    return Status::InvalidArgument("workload has no statements in mix " +
                                   mix);
  }
  std::set<std::string> names;
  for (const auto& [entry, weight] : entries) names.insert(entry->name);
  std::unique_ptr<util::ThreadPool> threads = advisor_.MakeWorkerPool();
  static obs::Counter& reuse_counter =
      obs::MetricsRegistry::Global().GetCounter("advisor.pool_reuse_hits");
  static obs::Counter& cross_counter = obs::MetricsRegistry::Global()
      .GetCounter("advisor.cross_group_seeds");

  PoolReuse reuse = PoolReuse::kSameStatements;
  double enumeration_seconds = 0.0;
  auto it = std::find_if(groups_.begin(), groups_.end(),
                         [&](const std::unique_ptr<Group>& group) {
                           return group->names == names;
                         });
  if (it != groups_.end()) {
    reuse_counter.Increment();
  } else {
    auto fresh = std::make_unique<Group>();
    obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
    fresh->pool = Enumerator(advisor_.options_.enumerator)
                      .EnumerateWorkload(workload, mix, threads.get());
    enumeration_seconds = enumeration_phase.StopSeconds();
    // A group whose statement set contains this one's has a pool that
    // contains this pool, and its plan spaces project exactly: seed the
    // new cache instead of rebuilding.
    reuse = PoolReuse::kCold;
    for (const std::unique_ptr<Group>& prior : groups_) {
      if (std::includes(prior->names.begin(), prior->names.end(),
                        names.begin(), names.end()) &&
          SeedCacheFromSuperset(prior->cache, prior->pool, fresh->pool,
                                entries, &fresh->cache)) {
        reuse = PoolReuse::kSeeded;
        cross_counter.Increment();
        break;
      }
    }
    fresh->names = std::move(names);
    groups_.push_back(std::move(fresh));
    it = std::prev(groups_.end());
  }
  // The pool is copied into the Recommendation, which owns it (plans point
  // into the copy); the call that enumerated carries the enumeration time.
  Group& group = **it;
  NOSE_ASSIGN_OR_RETURN(
      Recommendation rec,
      advisor_.RecommendImpl(workload, mix, group.pool, enumeration_seconds,
                             threads.get(), &group.cache, watch,
                             deadline_seconds));
  rec.reuse = reuse;
  return rec;
}

}  // namespace nose
