#ifndef NOSE_SERVE_SERVE_H_
#define NOSE_SERVE_SERVE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "evolve/evolve.h"
#include "evolve/migration_executor.h"
#include "evolve/scenario.h"
#include "rubis/datagen.h"
#include "store/record_store.h"
#include "util/statusor.h"

namespace nose::serve {

/// Knobs of the online serving layer (`nose serve`).
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
  /// Worker threads backfilling migration chunks.
  size_t migration_threads = 2;
  /// Target aggregate transaction rate (transactions/second) the drivers
  /// pace themselves to; 0 = unpaced (as fast as possible).
  double target_rate = 0.0;
  /// Anytime-advising budget for the re-advise at each mix boundary
  /// (Advisor::Recommend(workload, mix, deadline)); 0 = unbudgeted.
  double advise_deadline_seconds = 0.0;
  /// Concurrent verification attempts before quiescing the drivers for one
  /// authoritative pass (foreground writes can race the old-generation
  /// write and its dual write, making individual mismatches transient).
  size_t verify_attempts = 8;
};

/// Latency quantiles over per-transaction simulated store milliseconds.
struct LatencyQuantiles {
  size_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Timeline of one live migration executed under load.
struct ServeMigrationRecord : evolve::MigrationCounts {
  size_t at_phase = 0;  ///< scenario phase whose boundary triggered it
  std::string to_mix;
  /// Dirty concurrent verification passes retried before a clean one.
  uint64_t verify_retries = 0;
  /// True when the drivers had to be quiesced for the deciding pass.
  bool quiesced_verify = false;
  /// Space reclaimed by dropping the superseded generation at cutover.
  uint64_t rows_dropped = 0;
  uint64_t bytes_dropped = 0;
  /// Simulated store milliseconds charged to migration work.
  double simulated_ms = 0.0;
  /// Wall-clock seconds from migration start to completed cutover.
  double wall_seconds = 0.0;
};

/// One deadline-bounded advising call at a mix boundary.
struct ServeAdviseRecord {
  size_t phase = 0;
  std::string mix;
  double deadline_seconds = 0.0;
  double elapsed_seconds = 0.0;
  double anytime_gap = 0.0;
  bool deadline_hit = true;
  /// The recommendation differed from the deployed schema (a migration —
  /// or for phase 0 the initial deployment — followed).
  bool schema_changed = false;
};

struct ServeReport {
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
  std::vector<ServeMigrationRecord> migrations;
  std::vector<ServeAdviseRecord> advises;
  StoreStats store;
  /// RecordStore::ContentDigest() of the final store — the byte-
  /// equivalence handle (identical at any thread count for fixed streams).
  uint64_t store_digest = 0;
  double wall_seconds = 0.0;

  std::string ToString() const;
};

/// The online serving layer: multi-threaded drivers replay a drift
/// scenario's phase mixes against the sharded concurrent store while, at
/// each mix boundary, a deadline-bounded re-advise runs and — when the
/// recommended schema changed — a migration worker executes the schema
/// change live (parallel chunked backfill, log catch-up, a locked
/// dual-write flip, verification with retries, and an epoch-barrier
/// cutover that drops the superseded column families).
///
/// Determinism: the workload is S fixed logical streams; stream s owns a
/// sharded rubis::ParamGenerator (shard s of S) and its own RNG drawing
/// from the phase's sampler, so its statement sequence is independent of
/// the thread count, and statements of different streams never write the
/// same record. All cross-stream interleavings therefore commute in the
/// store, and the final post-cutover content digest is identical at any
/// thread count.
class ServeHarness {
 public:
  static StatusOr<std::unique_ptr<ServeHarness>> Create(
      const evolve::DriftScenario& scenario, ServeOptions options);
  ~ServeHarness();

  /// Runs every scenario phase (advise -> migrate-if-changed under load ->
  /// drive traffic) and assembles the report.
  Status Run();

  const ServeReport& report() const { return report_; }
  RecordStore* store() { return store_.get(); }
  const Workload& workload() const { return *env_.workload; }

 private:
  /// Shared with driver threads, which snapshot the active generation per
  /// transaction: a superseded one lives until its last in-flight
  /// transaction finishes (the cutover's epoch barrier waits on that).
  using Generation = evolve::Generation;

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

  ServeHarness(evolve::DriftScenario scenario, ServeOptions options);

  StatusOr<Recommendation> AdviseForPhase(size_t phase);
  /// Advises phase `p`'s mix and either adopts the result in place (same
  /// schema) or arms a live migration toward it (started by RunPhase).
  Status PrepareBoundary(size_t phase);
  /// Drives phase `p`'s traffic on the worker threads, concurrently with
  /// any armed migration.
  Status RunPhase(size_t phase);
  void DriverLoop(size_t workers, const std::vector<size_t>& owned,
                  const rubis::TransactionSampler& sampler,
                  std::vector<Sample>* samples, size_t* statements,
                  Status* status);
  Status ExecuteTransaction(Stream& stream, const rubis::Transaction& tx,
                            const std::shared_ptr<Generation>& gen,
                            size_t* statements);
  /// The migration worker: backfill -> catch-up -> locked flip ->
  /// verify (retry, then quiesce) -> swap -> epoch barrier -> drop.
  void MigrationWorker();
  /// Blocks until every running driver is parked at a transaction
  /// boundary. The caller resumes them with ResumeDrivers().
  void QuiesceDrivers();
  void ResumeDrivers();
  void MaybePark();  ///< driver side of QuiesceDrivers

  evolve::DriftScenario scenario_;
  ServeOptions options_;

  evolve::ScenarioEnvironment env_;
  std::unique_ptr<Advisor> advisor_;
  std::unique_ptr<RecordStore> store_;
  std::vector<Stream> streams_;

  /// Active generation; drivers copy the shared_ptr under gen_mu_ at each
  /// transaction start.
  std::mutex gen_mu_;
  std::shared_ptr<Generation> active_;
  std::shared_ptr<Generation> pending_;
  size_t next_serial_ = 0;  ///< names new families "s<serial>_..."

  /// Armed migration state (created at a boundary, executed by
  /// MigrationWorker while RunPhase drives traffic).
  std::unique_ptr<evolve::MigrationPlan> mig_plan_;
  std::unique_ptr<evolve::MigrationExecutor> migration_;
  std::thread migration_thread_;
  Status migration_status_;
  ServeMigrationRecord mig_record_;

  /// log_mu_ guards the logs and the dual-write routing decision: an
  /// update is EITHER appended before the flip (the locked final
  /// ReplayRange covers it) OR routed to OnUpdate — never both, because
  /// the append + routing check and the flip + tail replay hold the same
  /// mutex.
  std::mutex log_mu_;
  std::vector<evolve::LoggedStatement> update_log_;
  std::vector<evolve::LoggedStatement> query_log_;
  bool dual_routing_ = false;                        ///< guarded by log_mu_
  evolve::MigrationExecutor* live_migration_ = nullptr;  ///< guarded by log_mu_
  const Generation* migrating_from_ = nullptr;       ///< guarded by log_mu_

  /// Latency bucket of newly started transactions: 0 before any migration,
  /// 1 while one is in flight, 2 after the last cutover.
  std::atomic<int> bucket_{0};

  /// Quiesce barrier for the authoritative verification pass.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;   ///< migration worker waits: all parked
  std::condition_variable resume_cv_;  ///< drivers wait: resume
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
