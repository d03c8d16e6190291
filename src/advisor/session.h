#ifndef NOSE_ADVISOR_SESSION_H_
#define NOSE_ADVISOR_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"

namespace nose {

/// Stateful advising for one workload whose mix changes over time: Fig.
/// 12's four mixes, and the re-advises of the evolve and serve loops.
///
/// The session keeps every statement-set group it has advised: the
/// interned candidate pool plus its PlanSpaceCache, which also carries the
/// group's last root-LP basis for a hot start. Enumeration and planning do
/// not depend on weights, so a mix whose statement set matches a group
/// reuses that group verbatim (PoolReuse::kSameStatements); any other mix
/// enumerates and plans from scratch (PoolReuse::kCold), even when a
/// group's set contains its own (Browsing ⊆ Bidding).
/// Each new statement set becomes a group. Every result is byte-identical
/// to Advisor::Recommend(workload, mix, deadline_seconds) on the same
/// options: the previous incumbent is deliberately not seeded (see
/// SchemaOptimizer), so gap-based pruning cannot steer the search to a
/// different within-gap optimum.
///
/// Groups are matched by statement names: use one session per workload.
/// Weights may change between calls (the drift trigger rewrites its
/// observed mix before each re-advise); statement definitions may not.
class AdvisingSession {
 public:
  explicit AdvisingSession(AdvisorOptions options = AdvisorOptions());
  ~AdvisingSession();

  /// Advises `mix`, reusing whatever the session's groups allow;
  /// Recommendation::reuse says which path ran. deadline_seconds bounds
  /// the call exactly as in Advisor::Recommend (0 = unbudgeted).
  StatusOr<Recommendation> Advise(const Workload& workload,
                                  const std::string& mix,
                                  double deadline_seconds = 0.0);

 private:
  struct Group;

  Advisor advisor_;
  std::vector<std::unique_ptr<Group>> groups_;
};

}  // namespace nose

#endif  // NOSE_ADVISOR_SESSION_H_
