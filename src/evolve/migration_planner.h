#ifndef NOSE_EVOLVE_MIGRATION_PLANNER_H_
#define NOSE_EVOLVE_MIGRATION_PLANNER_H_

#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "optimizer/horizon.h"
#include "schema/schema.h"

namespace nose::evolve {

/// Diff of two named schemas turned into an ordered migration: build every
/// new-only column family (smallest first, so early steps finish fast and
/// a failed migration wastes the least data movement), catch up from the
/// update log, dual-write, verify, cut over, then drop old-only column
/// families. Statement availability holds at every step by construction:
/// the old generation's column families are untouched until the
/// post-cutover drops, and the new generation only becomes active once all
/// builds completed and verified.
struct MigrationPlan {
  /// Store names of column families present in both schemas, as named by
  /// the NEW schema. The harness names kept families after their live
  /// store column family, so these are also the old names.
  std::vector<std::string> keep_names;
  /// Indices into the new schema that must be built, in build order.
  std::vector<size_t> build_indices;
  /// Old store names to drop after cutover.
  std::vector<std::string> drop_names;
  double est_build_rows = 0.0;
  double est_build_bytes = 0.0;
  double est_build_cost_ms = 0.0;
  /// Σ DropCostMs over drop_names (the post-cutover drops).
  double est_drop_cost_ms = 0.0;
  /// Σ DualWriteCostMs over the builds under the traffic profile given to
  /// PlanMigration; 0 when the caller passed no traffic.
  double est_dual_write_cost_ms = 0.0;

  bool empty() const { return build_indices.empty() && drop_names.empty(); }
  /// Everything a migration is expected to charge the store: builds,
  /// drops, and dual-write overhead. The quantity commensurable with the
  /// horizon BIP's transition pricing.
  double est_total_cost_ms() const {
    return est_build_cost_ms + est_drop_cost_ms + est_dual_write_cost_ms;
  }
};

/// Diffs `old_schema` against `new_schema` (both carrying store names) by
/// canonical column-family key and prices the data movement with the
/// store's latency model, using the SAME pricing functions as the horizon
/// optimizer's transition variables (BuildCostMs / DropCostMs /
/// DualWriteCostMs) — so a reactive migration and a planned one charge
/// identically for identical diffs. `traffic` describes the foreground
/// load expected while the migration runs; the default prices no
/// dual-write overhead.
MigrationPlan PlanMigration(const Schema& old_schema, const Schema& new_schema,
                            const CostModel& cost,
                            const MigrationTraffic& traffic = MigrationTraffic());

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_MIGRATION_PLANNER_H_
