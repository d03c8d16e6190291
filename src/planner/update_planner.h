#ifndef NOSE_PLANNER_UPDATE_PLANNER_H_
#define NOSE_PLANNER_UPDATE_PLANNER_H_

#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "planner/plan.h"
#include "schema/column_family.h"
#include "util/statusor.h"
#include "workload/update.h"
#include "workload/workload.h"

namespace nose {

/// True if executing `update` requires modifying records of `cf`
/// (the paper's Modifies? predicate, Algorithm 1):
///  - UPDATE: cf stores one of the SET fields;
///  - INSERT/DELETE: cf stores any field of the written entity;
///  - CONNECT/DISCONNECT: cf's path traverses the relationship.
bool Modifies(const Update& update, const ColumnFamily& cf);

/// Builds the support queries needed to maintain `cf` under `update`
/// (paper §VI-B): queries that recover the partition/clustering key
/// attributes of every record that must be rewritten, given only the
/// update's parameters. May legitimately be empty (all key attributes are
/// supplied by the statement). Requires Modifies(update, cf).
std::vector<Query> SupportQueries(const Update& update, const ColumnFamily& cf);

/// Expected number of `cf` records that `update` rewrites.
double ModifiedRowEstimate(const Update& update, const ColumnFamily& cf,
                           const CardinalityEstimator& est);

/// Cost of the write portion (deletes + inserts, excluding support
/// queries) of maintaining `cf` under one execution of `update`.
double UpdateWriteCost(const Update& update, const ColumnFamily& cf,
                       const CardinalityEstimator& est, const CostModel& cost);

/// Maintenance work for one (update, column family) pair in a concrete
/// schema: execute the support query plans, then delete/insert records.
struct UpdatePlanPart {
  const ColumnFamily* cf = nullptr;
  /// Interned CandidatePool id of `cf` (kInvalidCfId outside the advisor
  /// pipeline); see PlanStep::cf_id.
  CfId cf_id = kInvalidCfId;
  std::vector<QueryPlan> support_plans;
  /// True if the rewrite must delete old records before inserting (a key
  /// attribute changes); otherwise inserts overwrite in place.
  bool delete_then_insert = false;
  double rows = 0.0;
  double write_cost = 0.0;
};

/// Full implementation plan for an update against a schema.
struct UpdatePlan {
  const Update* update = nullptr;
  std::vector<UpdatePlanPart> parts;
  double cost = 0.0;

  std::string ToString() const;
};

class QueryPlanner;
class Schema;

/// Plans `update` against a fixed schema (the baselines of §VII-A): for
/// every column family the update modifies, plans its support queries with
/// `planner` restricted to the schema and estimates the write cost. Fails
/// if a required support query cannot be answered by the schema.
StatusOr<UpdatePlan> PlanUpdateForSchema(const Update& update,
                                         const Schema& schema,
                                         const QueryPlanner& planner,
                                         const CardinalityEstimator& est,
                                         const CostModel& cost);

/// Weighted cost of running `mix` with the given plans: Σ weight × plan
/// cost over the mix's statements, an update costing its parts' writes
/// plus each distinct support query once (parts store a shared support
/// plan once each, but it executes once per statement). Statements
/// without a plan add nothing. This is the objective a recommendation
/// reports and what the NOSE-I006 audit replays.
double ReplayedPlanCost(
    const Workload& workload, const std::string& mix,
    const std::vector<std::pair<std::string, QueryPlan>>& query_plans,
    const std::vector<std::pair<std::string, UpdatePlan>>& update_plans);

}  // namespace nose

#endif  // NOSE_PLANNER_UPDATE_PLANNER_H_
