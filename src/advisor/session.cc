#include "advisor/session.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nose {

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
  const auto entries = workload.EntriesIn(mix);
  if (entries.empty()) {
    return Status::InvalidArgument("workload has no statements in mix " +
                                   mix);
  }
  std::set<std::string> names;
  for (const auto& [entry, weight] : entries) names.insert(entry->name);
  static obs::Counter& reuse_counter =
      obs::MetricsRegistry::Global().GetCounter("advisor.pool_reuse_hits");

  auto it = std::find_if(groups_.begin(), groups_.end(),
                         [&](const std::unique_ptr<Group>& group) {
                           return group->names == names;
                         });
  const bool cold = it == groups_.end();
  if (cold) {
    groups_.push_back(std::make_unique<Group>());
    groups_.back()->names = std::move(names);
    it = std::prev(groups_.end());
  } else {
    reuse_counter.Increment();
  }
  // The Recommendation owns the pool its plans point into: a cold call
  // enumerates it and the group keeps a copy; a reused group's pool is
  // copied into the call.
  Group& group = **it;
  StatusOr<HorizonPlan> plan = advisor_.RunPipeline(
      workload, WorkloadHorizon::Single(mix), HorizonOptions(),
      cold ? nullptr : &group.pool, group.cache, deadline_seconds);
  if (!plan.ok()) {
    // A failed cold call leaves no group: its cache holds a partial table
    // for a pool the group never received.
    if (cold) groups_.erase(it);
    return plan.status();
  }
  if (cold) group.pool = plan->pool;
  Recommendation rec = Advisor::OnlyWindow(std::move(plan).value());
  rec.reuse = cold ? PoolReuse::kCold : PoolReuse::kSameStatements;
  return rec;
}

}  // namespace nose
