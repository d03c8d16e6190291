#include "optimizer/horizon.h"

#include <algorithm>
#include <cmath>

namespace nose {

double BuildCostMs(const ColumnFamily& cf, const CostModel& cost) {
  const double rows = cf.EntryCount();
  const double bytes = cf.SizeBytes();
  const double bytes_per_row = rows > 0.0 ? bytes / rows : 0.0;
  return cost.PutCost(rows, rows, bytes_per_row);
}

double DropCostMs(const CostModel& cost) {
  return cost.params().write_request;
}

double DualWriteCostMs(const ColumnFamily& cf, const CostModel& cost,
                       const MigrationTraffic& traffic) {
  if (traffic.update_weight_share <= 0.0) return 0.0;
  const double rows = cf.EntryCount();
  if (rows <= 0.0) return 0.0;
  const double chunk = std::max(1.0, traffic.chunk_rows);
  const double chunks = std::ceil(rows / chunk);
  const double bytes_per_row = cf.SizeBytes() / rows;
  return traffic.update_weight_share * chunks *
         cost.PutCost(1.0, 1.0, bytes_per_row);
}

double UpdateWeightShare(const Workload& workload, const std::string& mix) {
  double total = 0.0;
  double updates = 0.0;
  for (const auto& [entry, weight] : workload.EntriesIn(mix)) {
    total += weight;
    if (!entry->IsQuery()) updates += weight;
  }
  return total > 0.0 ? updates / total : 0.0;
}

}  // namespace nose
