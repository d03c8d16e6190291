#ifndef NOSE_OPTIMIZER_HORIZON_H_
#define NOSE_OPTIMIZER_HORIZON_H_

#include <string>
#include <utility>
#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "schema/candidate_pool.h"
#include "schema/schema.h"
#include "optimizer/schema_optimizer.h"
#include "util/statusor.h"
#include "util/thread_pool.h"
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
/// time axis (the time-dependent NoSE follow-up's input).
struct WorkloadHorizon {
  std::vector<HorizonWindow> windows;

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
  /// Multiplier on build costs in the objective. 0 makes migrations free
  /// (every window gets its myopic optimum); large values pin the schema.
  double migration_cost_weight = 1.0;
  /// Schema deployed before window 0, if any. Candidates it already
  /// materializes are free to keep in window 0; everything else pays a
  /// build. Null means window 0 is the initial deployment — its builds are
  /// sunk cost, not migration.
  const Schema* initial_schema = nullptr;
  /// When non-null and the joint multi-period BIP is assembled, receives a
  /// copy of it (solver_micro's multi-period instance class). Left
  /// untouched when the horizon collapses to a single-window solve.
  BipCapture* capture_bip = nullptr;
  /// Rows per backfill batch assumed when pricing dual-write overhead;
  /// keep equal to evolve::MigrationOptions::chunk_rows so a planned
  /// schedule charges what the executor will actually pay. The
  /// update-weight share is derived per window from the workload itself
  /// (UpdateWeightShare of the mix the migration enters).
  double backfill_chunk_rows = 256.0;
};

/// A migration the plan schedules at the START of window `at_window`:
/// build these pool candidates, drop those. Pool ids index the
/// CandidatePool the optimizer ran against. Initial-schema column
/// families absent from the pool are dropped by the executor but carry no
/// id here.
struct HorizonTransition {
  size_t at_window = 0;
  std::vector<CfId> builds;
  std::vector<CfId> drops;
  /// Unweighted store cost of the builds (Σ BuildCostMs); the objective
  /// charges migration_cost_weight times this plus the drop and dual-write
  /// charges below.
  double build_cost_ms = 0.0;
  /// Unweighted cost of the drops (Σ DropCostMs). Initial-schema column
  /// families absent from the pool are dropped by the executor but carry
  /// no id here and are not charged (a constant the optimum cannot avoid).
  double drop_cost_ms = 0.0;
  /// Expected dual-write overhead of the builds (Σ DualWriteCostMs under
  /// the entered window's mix).
  double dual_write_cost_ms = 0.0;
};

/// The multi-period optimum: one schema + plans per window, the migration
/// schedule between them, and the split objective.
struct HorizonResult {
  /// One entry per horizon window (merged identical windows are expanded
  /// back). objective is the window's expected ms per statement — the
  /// same quantity single-window Optimize reports.
  std::vector<OptimizationResult> windows;
  /// Non-empty migrations only, in window order.
  std::vector<HorizonTransition> transitions;
  /// Σ_w duration_w × windows[w].objective.
  double execution_objective = 0.0;
  /// migration_cost_weight × Σ transition (build + drop + dual-write)
  /// costs.
  double migration_objective = 0.0;
  double total_objective = 0.0;
  /// True when every window shared one mix and no initial schema was
  /// given: the horizon collapsed to ONE single-window solve, replicated —
  /// byte-identical to SchemaOptimizer::Optimize by construction.
  bool collapsed = false;
  bool solve_proven = false;
  int bip_variables = 0;
  int bip_constraints = 0;
  int bb_nodes = 0;
};

/// Multi-period, migration-aware schema optimization: instantiates the
/// per-window BIP formulation (optimizer/formulation.h) once per run of
/// identical adjacent windows over ONE shared candidate pool, couples the
/// per-window CF-activation binaries δ_{w,c} with continuous transition
/// variables t_{w,c} ≥ δ_{w,c} − δ_{w−1,c} priced at migration_cost_weight
/// × (BuildCostMs(c) + DualWriteCostMs(c)) and drop variables
/// d_{w,c} ≥ δ_{w−1,c} − δ_{w,c} priced at migration_cost_weight ×
/// DropCostMs, and solves the joint BIP. The
/// result decides WHEN a migration pays for itself: a schema change is
/// scheduled only where the execution savings over the remaining windows
/// exceed the build cost.
///
/// Merging adjacent identical windows is exact: build costs are
/// subadditive along a schema path (builds(A→N) ⊆ builds(A→B) ∪
/// builds(B→N)), so an optimal plan never migrates between two windows
/// with identical weighted workloads.
class HorizonOptimizer {
 public:
  /// `optimizer` holds the per-window formulation/solve options. The
  /// capture hooks inside are ignored (use HorizonOptions::capture_bip for
  /// the joint instance).
  HorizonOptimizer(const CostModel* cost_model,
                   const CardinalityEstimator* estimator,
                   OptimizerOptions optimizer,
                   HorizonOptions options = HorizonOptions())
      : cost_(cost_model),
        est_(estimator),
        optimizer_(std::move(optimizer)),
        options_(options) {}

  /// `pool` must cover every window's statements and outlive the result
  /// (plans point into it). `cache` is shared across every window — plan
  /// spaces depend only on (statement, pool), so W windows of the same
  /// statements cost one planning pass, and per-window pre-solves chain
  /// root-basis hot starts through it.
  StatusOr<HorizonResult> Optimize(const Workload& workload,
                                   const WorkloadHorizon& horizon,
                                   const CandidatePool& pool,
                                   util::ThreadPool* threads = nullptr,
                                   PlanSpaceCache* cache = nullptr) const;

 private:
  const CostModel* cost_;
  const CardinalityEstimator* est_;
  OptimizerOptions optimizer_;
  HorizonOptions options_;
};

}  // namespace nose

#endif  // NOSE_OPTIMIZER_HORIZON_H_
