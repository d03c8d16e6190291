#ifndef NOSE_OPTIMIZER_HORIZON_H_
#define NOSE_OPTIMIZER_HORIZON_H_

#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "schema/candidate_pool.h"
#include "workload/workload.h"

namespace nose {

/// One planning window: a workload mix active for `duration` expected
/// statement executions. Window objectives are expected milliseconds per
/// statement (mix weights are normalized), so duration × objective is the
/// window's total expected execution time — commensurable with the
/// one-time migration costs the transition variables price.
struct HorizonWindow {
  std::string label;
  std::string mix;
  double duration = 1.0;
};

/// A forecast sequence of workload windows — the multi-period problem's
/// time axis (the time-dependent NoSE follow-up's input). The static design
/// is its one-window case.
struct WorkloadHorizon {
  std::vector<HorizonWindow> windows;

  /// One window of `mix` with duration 1: a single-mix advise.
  static WorkloadHorizon Single(const std::string& mix) {
    return WorkloadHorizon{{HorizonWindow{mix, mix, 1.0}}};
  }

  bool empty() const { return windows.empty(); }
  size_t size() const { return windows.size(); }
};

/// One-time cost of materializing `cf` from the base data: one write
/// request per row, priced with the store's latency model. The single
/// pricing function shared by MigrationPlanner's build steps and the
/// horizon BIP's transition variables, so a planned schedule's migration
/// charges match what the executor will actually pay.
double BuildCostMs(const ColumnFamily& cf, const CostModel& cost);

/// One-time cost of dropping a superseded column family after cutover:
/// one deletion request against the store, independent of the data volume
/// (the store reclaims rows in bulk). Shared by PlanMigration's drop steps
/// and the horizon BIP's drop variables, so planned and reactive migration
/// pricing agree.
double DropCostMs(const CostModel& cost);

/// Foreground-traffic profile while a migration runs, for pricing the
/// dual-write overhead of a build. The default (share 0) prices no
/// overhead — single-threaded replays with no concurrent foreground load.
struct MigrationTraffic {
  /// Fraction of the active mix's weight on update statements
  /// (UpdateWeightShare): the expected dual writes per foreground
  /// statement executed while the new generation is half-built.
  double update_weight_share = 0.0;
  /// Rows per backfill batch (evolve::MigrationOptions::chunk_rows): sets
  /// how many foreground statements interleave with the backfill.
  double chunk_rows = 256.0;
};

/// Expected dual-write overhead of building `cf` under foreground load:
/// the backfill takes ceil(rows / chunk_rows) store batches, roughly one
/// foreground statement interleaves per batch, and each interleaved update
/// pays one extra single-row put into the half-built generation.
double DualWriteCostMs(const ColumnFamily& cf, const CostModel& cost,
                       const MigrationTraffic& traffic);

/// Fraction of `mix`'s weight carried by update statements — the
/// update_weight_share to price migrations scheduled under that mix.
double UpdateWeightShare(const Workload& workload, const std::string& mix);

struct HorizonOptions {
  /// Multiplier on migration costs in the objective. 0 makes migrations
  /// free (every window gets its myopic optimum); large values pin the
  /// schema.
  double migration_cost_weight = 1.0;
  /// Rows per backfill batch assumed when pricing dual-write overhead;
  /// keep equal to evolve::MigrationOptions::chunk_rows so a planned
  /// schedule charges what the executor will actually pay. The
  /// update-weight share is derived per window from the workload itself
  /// (UpdateWeightShare of the mix the migration enters).
  double backfill_chunk_rows = 256.0;
};

/// A migration the plan schedules at the START of window `at_window`:
/// build these pool candidates, drop those. Pool ids index the
/// CandidatePool the optimizer ran against.
struct HorizonTransition {
  size_t at_window = 0;
  std::vector<CfId> builds;
  std::vector<CfId> drops;
  /// Unweighted store cost of the builds (Σ BuildCostMs); the objective
  /// charges migration_cost_weight times this plus the drop and dual-write
  /// charges below.
  double build_cost_ms = 0.0;
  /// Unweighted cost of the drops (Σ DropCostMs).
  double drop_cost_ms = 0.0;
  /// Expected dual-write overhead of the builds (Σ DualWriteCostMs under
  /// the entered window's mix).
  double dual_write_cost_ms = 0.0;
};

}  // namespace nose

#endif  // NOSE_OPTIMIZER_HORIZON_H_
