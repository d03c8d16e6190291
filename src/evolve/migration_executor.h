#ifndef NOSE_EVOLVE_MIGRATION_EXECUTOR_H_
#define NOSE_EVOLVE_MIGRATION_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "evolve/migration_planner.h"
#include "executor/dataset.h"
#include "executor/plan_executor.h"
#include "store/record_store.h"
#include "util/statusor.h"

namespace nose::evolve {

/// One executed statement with its bound parameters.
struct LoggedStatement {
  std::string statement;
  PlanExecutor::Params params;
};

class MigrationExecutor;

/// The statements a run's drivers executed, shared with the migration in
/// flight. The update log is the full history since the initial load
/// (catch-up replays it to rebuild logical state the dataset does not
/// contain); the query log is a fixed ring of the most recent queries that
/// verification compares. One mutex guards both logs and the dual-write
/// routing, so every update is either in the log prefix a migration
/// replays or dual-written by it, never both.
class StatementLog {
 public:
  explicit StatementLog(size_t query_capacity)
      : query_capacity_(query_capacity) {}

  /// Keeps the newest `query_capacity` queries: once the ring is full, each
  /// query overwrites the oldest in constant time.
  void AddQuery(LoggedStatement entry);
  /// Appends an update that `via` executed. Returns the migration that
  /// must dual-write it — the one whose catch-up has flipped to dual
  /// writes, when `via` is its old generation's executor — or null.
  MigrationExecutor* AddUpdate(LoggedStatement entry, const PlanExecutor* via);
  /// Ends dual-write routing: after a cutover's epoch barrier, or when the
  /// migration failed.
  void StopDualWrites();

  std::vector<LoggedStatement> updates() const;
  /// The query ring, oldest first.
  std::vector<LoggedStatement> queries() const;

 private:
  friend class MigrationExecutor;

  mutable std::mutex mu_;
  const size_t query_capacity_;
  std::vector<LoggedStatement> updates_;  ///< guarded by mu_
  std::vector<LoggedStatement> queries_;  ///< guarded by mu_
  /// Slot of the oldest query once the ring is full; guarded by mu_.
  size_t query_head_ = 0;
  MigrationExecutor* dual_ = nullptr;     ///< guarded by mu_
};

/// The drivers a migration advances among: the deciding verification pass
/// runs with every driver but the caller parked.
class DriverBarrier {
 public:
  /// Blocks until every driver other than the caller is parked at a
  /// transaction boundary; they stay parked until Resume.
  virtual void Pause() = 0;
  virtual void Resume() = 0;

 protected:
  ~DriverBarrier() = default;
};

enum class MigrationPhase {
  kBackfill,         ///< chunked loads of the new column families
  kCatchUp,          ///< replaying the update log into the new generation
  kDualWrite,        ///< soak: updates applied to both generations
  kVerify,           ///< sampled queries compared old vs. new
  kReadyForCutover,  ///< verified; the caller may cut over
  kDone,
  kFailed,
};

struct MigrationProgress {
  uint64_t rows_backfilled = 0;
  uint64_t chunks = 0;
  uint64_t catchup_updates = 0;
  uint64_t dual_writes = 0;
  uint64_t verify_queries = 0;
  uint64_t verify_mismatches = 0;
  uint64_t verify_skipped = 0;
  /// Dirty verification passes retried before a clean or deciding one.
  uint64_t verify_retries = 0;
  /// True when the deciding verification pass ran with the drivers paused.
  bool quiesced_verify = false;
  /// Simulated store milliseconds charged by migration work (backfill +
  /// catch-up + dual writes + verification reads).
  double simulated_ms = 0.0;
};

/// Executes one migration plan against the live store in bounded steps.
/// Drivers call Step at their transaction boundaries, from any number of
/// threads, and log every statement they execute in the StatementLog,
/// which hands an update to OnUpdate once dual writes are on. One Step
/// does one unit of the protocol:
///
///  1. backfill: loads one chunk of root rows into a build-set column
///     family. At most `max_loaders` drivers load at once, and catch-up
///     starts only once every chunk has landed.
///  2. catch-up: copies the next batch of logged updates under the log
///     mutex and replays it outside. When at most one batch is left, the
///     Step replays that tail under the mutex and turns dual writes on in
///     the same critical section (the flip).
///  3. dual write: a soak of a few Steps.
///  4. verify: compares the sampled queries on both generations. Under
///     concurrent drivers a mismatch can be transient (between an
///     old-generation write and its dual write), so a dirty pass is
///     retried at the next Step; after kVerifyAttempts dirty passes one
///     deciding pass runs with the other drivers paused, and a mismatch
///     there fails the migration.
///  5. ready for cutover: the Step that verified returns true, and only
///     that one. Its caller swaps generations behind an epoch barrier,
///     stops dual writes, drops the old families and calls FinishCutover.
///
/// Steps after backfill are serialized: a driver that finds another one
/// mid-step returns at once and serves its next transaction.
///
/// Safety: backfill, catch-up and dual writes write only build-set column
/// families, so queries served from the old generation are untouched until
/// cutover, and cutover is only offered after every sampled query returned
/// identical rows from both generations.
class MigrationExecutor {
 public:
  struct Options {
    size_t chunk_rows = 256;       ///< root rows per backfill chunk
    size_t catchup_batch = 64;     ///< log entries replayed per Step
    size_t verify_samples = 16;    ///< logged queries compared at verify
  };

  /// All pointers are borrowed and must outlive the executor. `new_schema`
  /// maps the new generation's column families to store names; build-set
  /// column families are created here.
  MigrationExecutor(const Dataset* data, RecordStore* store,
                    const Schema* new_schema, PlanExecutor* old_executor,
                    PlanExecutor* new_executor,
                    const std::map<std::string, QueryPlan>* old_query_plans,
                    const std::map<std::string, QueryPlan>* new_query_plans,
                    const std::map<std::string, UpdatePlan>* new_update_plans,
                    const MigrationPlan* plan, Options options,
                    size_t max_loaders);

  /// Creates the build-set column families, derives the replay plans
  /// (new-generation update plans filtered to build-set parts) and splits
  /// the backfill into chunks. Must be called once before Step; separate
  /// from the constructor so creation errors surface.
  Status Prepare();

  /// Advances one unit of the protocol (see the class comment). Returns
  /// true to the one caller that must now cut over; an error (and
  /// kFailed) on a store failure or a deciding verification mismatch.
  StatusOr<bool> Step(StatementLog* log, DriverBarrier* drivers);

  /// Applies one just-executed update to the build set. The StatementLog
  /// routes updates here only after the flip, so nothing is applied twice.
  /// Safe to call from multiple driver threads concurrently.
  Status OnUpdate(const LoggedStatement& entry);

  /// Marks the cutover done (the caller has swapped generations).
  void FinishCutover() { phase_.store(MigrationPhase::kDone); }

  MigrationPhase phase() const { return phase_.load(); }
  MigrationProgress progress() const;

 private:
  friend class StatementLog;

  /// Backfill chunk: root rows [begin, end) of build column family
  /// `cf_index`.
  struct Chunk {
    size_t cf_index;
    size_t begin;
    size_t end;
  };

  Status BackfillStep();
  Status CatchUpStep(StatementLog* log);
  StatusOr<bool> VerifyStep(StatementLog* log, DriverBarrier* drivers);
  /// One verification pass over the sampled query log: true when every
  /// compared query matched.
  StatusOr<bool> VerifyPass(const std::vector<LoggedStatement>& query_log);
  /// Replays entries [begin, end) of `updates` into the build set.
  Status Replay(const std::vector<LoggedStatement>& updates, size_t begin,
                size_t end);
  Status ReplayUpdate(const LoggedStatement& entry);
  /// Moves from phase `from` to `to`; a no-op from any other phase, so a
  /// failure is final.
  void Advance(MigrationPhase from, MigrationPhase to);
  Status Fail(Status status);

  const Dataset* data_;
  RecordStore* store_;
  const Schema* new_schema_;
  PlanExecutor* old_executor_;
  PlanExecutor* new_executor_;
  const std::map<std::string, QueryPlan>* old_query_plans_;
  const std::map<std::string, QueryPlan>* new_query_plans_;
  const std::map<std::string, UpdatePlan>* new_update_plans_;
  const MigrationPlan* plan_;
  Options options_;
  size_t max_loaders_;

  /// New-generation update plans restricted to parts that write build-set
  /// column families, keyed by statement; statements with no build-set
  /// part are absent. Replay and dual writes maintain ONLY the build set:
  /// kept column families are live in both generations and the foreground
  /// old-generation plans already maintain them — re-applying older log
  /// entries to a kept family would race (and could lose) newer foreground
  /// writes to the same record under concurrent serving.
  std::map<std::string, UpdatePlan> replay_plans_;
  std::vector<Chunk> chunks_;

  std::atomic<MigrationPhase> phase_{MigrationPhase::kBackfill};
  /// Guards the cursors below; Steps after backfill hold it throughout.
  std::mutex step_mu_;
  size_t next_chunk_ = 0;     ///< next backfill chunk to claim
  size_t chunks_landed_ = 0;  ///< backfill chunks loaded
  size_t loaders_ = 0;        ///< drivers loading a chunk right now
  size_t replay_pos_ = 0;     ///< next update-log entry to replay
  size_t dual_write_steps_ = 0;
  size_t dirty_passes_ = 0;

  mutable std::mutex progress_mu_;
  MigrationProgress progress_;   ///< guarded by progress_mu_
  int64_t progress_sim_ns_ = 0;  ///< guarded by progress_mu_
};

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_MIGRATION_EXECUTOR_H_
