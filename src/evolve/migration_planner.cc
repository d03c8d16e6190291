#include "evolve/migration_planner.h"

#include <algorithm>

#include "optimizer/horizon.h"

namespace nose::evolve {

MigrationPlan PlanMigration(const Schema& old_schema, const Schema& new_schema,
                            const CostModel& cost,
                            const MigrationTraffic& traffic) {
  MigrationPlan plan;

  for (size_t i = 0; i < new_schema.size(); ++i) {
    const ColumnFamily& cf = new_schema.column_families()[i];
    if (old_schema.FindByKey(cf.key()) != nullptr) {
      plan.keep_names.push_back(new_schema.names()[i]);
    } else {
      plan.build_indices.push_back(i);
    }
  }
  for (size_t i = 0; i < old_schema.size(); ++i) {
    const ColumnFamily& cf = old_schema.column_families()[i];
    if (new_schema.FindByKey(cf.key()) == nullptr) {
      plan.drop_names.push_back(old_schema.names()[i]);
    }
  }

  // Build smallest-first; ties break on store name for determinism.
  std::sort(plan.build_indices.begin(), plan.build_indices.end(),
            [&](size_t a, size_t b) {
              const double sa = new_schema.column_families()[a].SizeBytes();
              const double sb = new_schema.column_families()[b].SizeBytes();
              if (sa != sb) return sa < sb;
              return new_schema.names()[a] < new_schema.names()[b];
            });
  std::sort(plan.drop_names.begin(), plan.drop_names.end());

  for (size_t i : plan.build_indices) {
    const ColumnFamily& cf = new_schema.column_families()[i];
    plan.est_build_rows += cf.EntryCount();
    plan.est_build_bytes += cf.SizeBytes();
    // Shared pricing with the horizon optimizer's transition variables: a
    // planned schedule's migration charges match what executing this plan
    // will actually cost.
    plan.est_build_cost_ms += BuildCostMs(cf, cost);
    plan.est_dual_write_cost_ms += DualWriteCostMs(cf, cost, traffic);
  }
  for (size_t i = 0; i < plan.drop_names.size(); ++i) {
    plan.est_drop_cost_ms += DropCostMs(cost);
  }
  return plan;
}

}  // namespace nose::evolve
