#ifndef NOSE_SERVE_SERVE_H_
#define NOSE_SERVE_SERVE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "advisor/session.h"
#include "evolve/migration_executor.h"
#include "evolve/scenario.h"
#include "evolve/workload_tracker.h"
#include "rubis/datagen.h"
#include "store/record_store.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace nose::serve {

/// Knobs of the harness's traffic (`nose serve`; `nose evolve` runs one
/// thread and one stream).
struct ServeOptions {
  /// Driver worker threads replaying the statement mix concurrently.
  size_t threads = 4;
  /// Fixed logical client streams, independent of `threads` (stream s runs
  /// on worker s % threads). Each stream owns a sharded parameter
  /// generator, so cross-stream statements never write the same record and
  /// the final store state is byte-identical at ANY thread count for a
  /// given stream count.
  size_t streams = 8;
  /// Hash stripes per store column family (concurrency of the store).
  size_t store_stripes = 16;
  /// Drivers that may load migration backfill chunks at once.
  size_t migration_threads = 2;
  /// Target aggregate transaction rate (transactions/second) the drivers
  /// pace themselves to; 0 = unpaced (as fast as possible).
  double target_rate = 0.0;
  /// Anytime-advising budget for each advise
  /// (AdvisingSession::Advise's deadline_seconds); 0 = unbudgeted.
  double advise_deadline_seconds = 0.0;
};

/// What starts a migration. The subcommand picks it.
enum class Trigger {
  /// `nose serve`: each phase's mix is re-advised at its boundary.
  kPhaseBoundary,
  /// `nose evolve`: the drift tracker's observed mix is re-advised when
  /// its estimate drifts from the advised weights.
  kDrift,
  /// `nose evolve --horizon` (or `mode planned`): the horizon schedule,
  /// solved up front, deploys each phase's window at its boundary.
  kHorizon,
};

/// Latency quantiles over per-transaction simulated store milliseconds.
struct LatencyQuantiles {
  size_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// One live migration, from its start to its cutover (or abort).
struct MigrationRecord {
  size_t at_phase = 0;  ///< scenario phase it started in
  std::string to_mix;   ///< the mix the new generation was advised for
  size_t started_at_transaction = 0;
  size_t finished_at_transaction = 0;
  /// The plan's shape and estimates.
  size_t builds = 0;
  size_t keeps = 0;
  size_t drops = 0;
  double est_build_cost_ms = 0.0;
  /// Builds, drops and dual-write overhead: commensurable with actual_ms.
  double est_total_cost_ms = 0.0;
  /// The executor's work; progress.simulated_ms is the store time it
  /// charged.
  evolve::MigrationProgress progress;
  /// Space reclaimed by dropping the superseded generation at cutover.
  uint64_t rows_dropped = 0;
  uint64_t bytes_dropped = 0;
  /// Wall-clock seconds from migration start to completed cutover.
  double wall_seconds = 0.0;
  /// The advise that chose the new schema (none under kHorizon).
  bool advise_incremental = false;
  double advise_seconds = 0.0;
  /// kDrift: the tracker's drift when it triggered.
  double drift_at_trigger = 0.0;
  /// kHorizon: the schedule's window the migration deploys.
  bool planned = false;
  size_t to_window = 0;
  bool aborted = false;
};

/// One advising call of the run: the initial deployment's, a boundary's,
/// or a drift trigger's.
struct AdviseRecord {
  size_t phase = 0;
  std::string mix;
  double deadline_seconds = 0.0;
  double elapsed_seconds = 0.0;
  double anytime_gap = 0.0;
  bool deadline_hit = true;
  /// How the harness's advising session obtained the candidate pool.
  PoolReuse reuse = PoolReuse::kCold;
  /// The recommendation differed from the deployed schema (a migration —
  /// or for the first advise the initial deployment — followed).
  bool schema_changed = false;
};

struct ServeReport {
  Trigger trigger = Trigger::kPhaseBoundary;
  size_t threads = 0;
  size_t streams = 0;
  size_t transactions = 0;
  size_t statements = 0;
  /// Per-transaction latency, bucketed by migration state at execution
  /// time: before any migration, while one is in flight, and after the
  /// last cutover.
  LatencyQuantiles before;
  LatencyQuantiles during;
  LatencyQuantiles after;
  std::vector<AdviseRecord> advises;
  /// Advises after the initial deployment's, and those of them that reused
  /// a statement-set group of the session.
  size_t readvises() const { return advises.empty() ? 0 : advises.size() - 1; }
  size_t incremental_readvises() const;
  /// New schemas equal to the live one, adopted in place without a
  /// migration.
  size_t no_op_readvises = 0;
  /// kDrift and kHorizon: the tracker's drift after the last transaction.
  double last_drift = 0.0;
  /// Phase statements the live generation could not serve: a missing plan,
  /// or a plan over a column family missing from the store.
  size_t invariant_violations = 0;
  std::vector<MigrationRecord> migrations;
  StoreStats store;
  /// RecordStore::ContentDigest() of the final store — the byte-
  /// equivalence handle (identical at any thread count for fixed streams).
  uint64_t store_digest = 0;
  double wall_seconds = 0.0;

  std::string ToString() const;
};

/// One schema generation: recommendation, store-named schema, plans keyed
/// by statement, executor. Drivers snapshot the active generation per
/// transaction, so a superseded one lives until its last in-flight
/// transaction finishes (the cutover's epoch barrier waits on that).
struct Generation {
  Recommendation rec;
  std::unique_ptr<Schema> named;
  std::map<std::string, QueryPlan> query_plans;
  std::map<std::string, UpdatePlan> update_plans;
  std::unique_ptr<PlanExecutor> executor;
};

/// The one scenario loop behind `nose serve` and `nose evolve`. Driver
/// threads replay each phase's mix against the sharded concurrent store.
/// A migration starts on the run's Trigger and advances through
/// MigrationExecutor::Step, which the drivers call at their transaction
/// boundaries, so it overlaps traffic at any thread count; the driver
/// whose step verified it cuts over behind an epoch barrier and drops the
/// superseded column families. A migration never outlives its phase: when
/// the phase's drivers are done, the harness steps it to cutover.
///
/// At every phase boundary the harness checks that the live generation
/// has a plan for every statement the phase can draw. If not, it steps
/// the migration in flight to cutover and, if that is not enough, advises
/// the phase's mix and migrates to it, before the phase's first
/// transaction. All advising goes through one AdvisingSession.
///
/// Determinism: the workload is S fixed logical streams; stream s owns a
/// sharded rubis::ParamGenerator (shard s of S) and its own RNG drawing
/// from the phase's sampler, so its statement sequence is independent of
/// the thread count, and statements of different streams never write the
/// same record. All cross-stream interleavings therefore commute in the
/// store, and the final post-cutover content digest is identical at any
/// thread count. At one thread the whole run, migrations included, is
/// deterministic.
class ServeHarness : private evolve::DriverBarrier {
 public:
  /// `nose serve`: migrates at phase boundaries (Trigger::kPhaseBoundary).
  static StatusOr<std::unique_ptr<ServeHarness>> Create(
      const evolve::DriftScenario& scenario, ServeOptions options);
  /// `nose evolve`: one thread, one stream, Trigger::kHorizon under
  /// `mode planned` (Run solves the horizon first) and Trigger::kDrift
  /// otherwise.
  static StatusOr<std::unique_ptr<ServeHarness>> CreateEvolve(
      const evolve::DriftScenario& scenario);
  ~ServeHarness();

  /// Runs every scenario phase and assembles the report.
  Status Run();

  const ServeReport& report() const { return report_; }
  RecordStore* store() { return store_.get(); }
  const Workload& workload() const { return *env_.workload; }
  const Dataset& data() const { return *env_.data; }
  /// The live generation (after Run: the final one).
  const Generation& active() const { return *active_; }
  const evolve::StatementLog& log() const { return log_; }
  /// kHorizon: the schedule; it owns the pool every window's plans point
  /// into. Null under the other triggers.
  const HorizonPlan* horizon_plan() const { return horizon_plan_.get(); }

 private:
  /// One logical client stream.
  struct Stream {
    std::unique_ptr<rubis::ParamGenerator> params;
    Rng mix_rng{0};
    size_t remaining = 0;  ///< transactions left in the current phase
  };

  /// (latency bucket, simulated ms) of one transaction.
  struct Sample {
    int bucket;
    double ms;
  };

  ServeHarness(evolve::DriftScenario scenario, ServeOptions options,
               Trigger trigger);
  static StatusOr<std::unique_ptr<ServeHarness>> Make(
      const evolve::DriftScenario& scenario, ServeOptions options,
      Trigger trigger);
  /// kHorizon: solves the scenario's phases as a horizon, one window per
  /// phase.
  Status PlanHorizon();

  /// Advises `mix` through the session and records the call.
  StatusOr<Recommendation> Advise(const std::string& mix);
  /// Advises `mix` and starts a migration toward the result.
  Status AdviseAndMigrate(const std::string& mix, MigrationRecord record);
  /// Deploys phase 0's schema, or handles the current phase's boundary:
  /// the trigger's migration, then the servability check.
  Status PrepareBoundary();
  /// Starts a migration toward `rec` (advised for record.to_mix), or
  /// adopts `rec` in place when the physical schema is unchanged.
  Status StartMigration(MigrationRecord record, Recommendation rec);
  /// Drift trigger: writes the tracker's estimate into kObservedMix,
  /// re-advises it and starts the migration.
  Status Readvise();
  /// Steps the migration in flight to cutover with no driver running.
  Status StepToCutover();
  /// One Step of the migration in flight; cuts over if this caller must.
  Status StepMigration();
  /// Swaps in the pending generation behind the epoch barrier and drops
  /// the superseded column families.
  Status Cutover();
  void AbortMigration();
  bool MigrationInFlight() const;
  /// Store-name prefix of the next generation's new families.
  std::string NextPrefix() {
    return "s" + std::to_string(next_serial_++) + "_";
  }
  /// Makes `gen`, advised for `mix`, the active generation, audits it
  /// against the current phase, and returns the superseded one.
  std::shared_ptr<Generation> Activate(std::shared_ptr<Generation> gen,
                                       const std::string& mix);
  /// Statements the current phase can draw that the active generation
  /// cannot serve.
  size_t Unavailable() const;

  /// Drives the current phase's traffic on the worker threads.
  Status RunPhase();
  void DriverLoop(size_t workers, const std::vector<size_t>& owned,
                  const rubis::TransactionSampler& sampler,
                  std::vector<Sample>* samples, size_t* statements,
                  Status* status);
  /// Runs `tx` on a snapshot of the active generation, released on
  /// return.
  Status ExecuteTransaction(Stream& stream, const rubis::Transaction& tx,
                            size_t* statements);
  /// A driver's transaction boundary: steps the migration in flight, or
  /// checks the drift trigger.
  Status EndTransaction();

  /// DriverBarrier, for the migration's deciding verification pass.
  void Pause() override;
  void Resume() override;
  void MaybePark();  ///< driver side of Pause

  evolve::DriftScenario scenario_;
  ServeOptions options_;
  Trigger trigger_;

  evolve::ScenarioEnvironment env_;
  AdvisingSession session_;
  std::unique_ptr<RecordStore> store_;
  std::vector<Stream> streams_;
  std::unique_ptr<HorizonPlan> horizon_plan_;
  /// kDrift and kHorizon (one driver thread): fed every executed
  /// statement.
  std::unique_ptr<evolve::WorkloadTracker> tracker_;
  /// Index of the phase being prepared or driven; written between phases.
  size_t phase_ = 0;

  /// Active generation; drivers copy the shared_ptr under gen_mu_ at each
  /// transaction start.
  std::mutex gen_mu_;
  std::shared_ptr<Generation> active_;
  size_t next_serial_ = 0;  ///< names new families "s<serial>_..."

  /// The migration in flight and its target. Set only while no other
  /// driver runs: at a phase boundary, or by the drift trigger, which
  /// runs on one thread. Kept after its cutover until the next migration
  /// replaces it, so drivers may still Step it (a no-op).
  std::shared_ptr<Generation> pending_;
  std::unique_ptr<evolve::MigrationPlan> mig_plan_;
  std::unique_ptr<evolve::MigrationExecutor> migration_;
  MigrationRecord mig_record_;
  Stopwatch mig_wall_;

  evolve::StatementLog log_;
  /// Transactions completed over the run.
  std::atomic<size_t> transactions_{0};
  std::atomic<size_t> invariant_violations_{0};

  /// Latency bucket of newly started transactions: 0 before any migration,
  /// 1 while one is in flight, 2 after the last cutover.
  std::atomic<int> bucket_{0};

  /// Pause barrier for the deciding verification pass.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;   ///< pausing driver waits: all parked
  std::condition_variable resume_cv_;  ///< parked drivers wait: resume
  /// Written under pause_mu_; drivers read it lock-free as the fast path
  /// and re-check under the mutex before parking.
  std::atomic<bool> pause_requested_{false};
  size_t parked_ = 0;                  ///< guarded by pause_mu_
  size_t running_drivers_ = 0;         ///< guarded by pause_mu_

  ServeReport report_;
  std::vector<double> latencies_[3];  ///< per-bucket samples, merged at join
};

}  // namespace nose::serve

#endif  // NOSE_SERVE_SERVE_H_
