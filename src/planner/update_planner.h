#ifndef NOSE_PLANNER_UPDATE_PLANNER_H_
#define NOSE_PLANNER_UPDATE_PLANNER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "planner/plan.h"
#include "planner/plan_space.h"
#include "schema/candidate_pool.h"
#include "schema/column_family.h"
#include "util/statusor.h"
#include "util/thread_pool.h"
#include "workload/update.h"
#include "workload/workload.h"

namespace nose {

/// True if executing `update` requires modifying records of `cf`
/// (the paper's Modifies? predicate, Algorithm 1):
///  - UPDATE: cf stores one of the SET fields;
///  - INSERT/DELETE: cf stores any field of the written entity;
///  - CONNECT/DISCONNECT: cf's path traverses the relationship.
bool Modifies(const Update& update, const ColumnFamily& cf);

/// True if `update` changes a partition/clustering attribute of `cf`,
/// forcing a delete + reinsert of whole records.
bool ChangesKeyOf(const Update& update, const ColumnFamily& cf);

/// Builds the support queries needed to maintain `cf` under `update`
/// (paper §VI-B): queries that recover the partition/clustering key
/// attributes of every record that must be rewritten, given only the
/// update's parameters. May legitimately be empty (all key attributes are
/// supplied by the statement). Requires Modifies(update, cf).
std::vector<Query> SupportQueries(const Update& update, const ColumnFamily& cf);

/// The support queries of one candidate pool, derived once per (update,
/// candidate) pair. For each update statement the table lists the pool
/// candidates the update modifies, in ascending CfId; each entry names its
/// support queries as indices into that update's distinct queries, which
/// are deduplicated by text in first-sighting order and carry their plan
/// space once it has been planned. The enumerator extends the table as it
/// grows the pool, the formulation covers what the pool gained since, and
/// a table kept with its pool (PlanSpaceCache) derives nothing again.
class SupportTable {
 public:
  struct DistinctQuery {
    std::shared_ptr<const Query> query;
    std::string text;  ///< query->ToString(), the deduplication key
    /// The query's plan space over the pool, once planned; empty states()
    /// marks a support query no candidate plan answers.
    std::optional<PlanSpace> space;
  };
  struct Entry {
    CfId cf = kInvalidCfId;
    /// One index into the update's `distinct` per query of
    /// SupportQueries(update, pool[cf]), in its order.
    std::vector<size_t> queries;
    /// UpdateWriteCost of the pair, once the formulation has priced it.
    std::optional<double> write_cost;
  };
  struct Row {
    std::vector<DistinctQuery> distinct;
    std::vector<Entry> entries;
    CfId covered = 0;  ///< candidates [0, covered) are derived
  };

  /// Derives, for every update among `entries` (queries are skipped), its
  /// pairs with the candidates of `pool` its row has not covered yet.
  /// Updates are independent, so they fan out on `threads`. Returns the
  /// distinct queries this call added: update by update in `entries`
  /// order, each update's in first-sighting order. The pointers stay valid
  /// until the next Extend. Every call must pass the same pool, grown or
  /// not since the last.
  std::vector<const DistinctQuery*> Extend(
      const std::vector<std::pair<const WorkloadEntry*, double>>& entries,
      const CandidatePool& pool, util::ThreadPool* threads = nullptr);

  /// The row of update statement `name`, which Extend must have seen.
  Row& At(const std::string& name) { return rows_.at(name); }

 private:
  std::map<std::string, Row> rows_;
};

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
