#include "advisor/session.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

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

  PoolReuse reuse = PoolReuse::kSameStatements;
  double enumeration_seconds = 0.0;
  auto it = std::find_if(groups_.begin(), groups_.end(),
                         [&](const std::unique_ptr<Group>& group) {
                           return group->names == names;
                         });
  if (it != groups_.end()) {
    reuse_counter.Increment();
  } else {
    reuse = PoolReuse::kCold;
    auto fresh = std::make_unique<Group>();
    obs::PhaseSpan enumeration_phase("advisor.enumeration", "advisor");
    fresh->pool = Enumerator(advisor_.options_.enumerator)
                      .EnumerateWorkload(workload, mix, threads.get());
    enumeration_seconds = enumeration_phase.StopSeconds();
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
