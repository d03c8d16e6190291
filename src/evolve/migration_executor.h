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
#include "util/thread_pool.h"

namespace nose::evolve {

/// One executed statement with its bound parameters, as logged by the
/// controller. The update log is the full history since the initial load
/// (catch-up replays it to rebuild logical state the dataset does not
/// contain); the query log is a bounded sample used by verification.
struct LoggedStatement {
  std::string statement;
  PlanExecutor::Params params;
};

enum class MigrationPhase {
  kBackfill,         ///< chunked loads of the new column families
  kCatchUp,          ///< replaying the update log into the new generation
  kDualWrite,        ///< soak: updates applied to both generations
  kVerify,           ///< sampled queries compared old vs. new
  kReadyForCutover,  ///< verified; controller may cut over
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
  /// Simulated store milliseconds charged by migration work (backfill +
  /// catch-up + dual writes + verification reads).
  double simulated_ms = 0.0;
};

/// The fields the evolve and serve migration records share: the plan's
/// shape and estimates, and the executor's work counters.
struct MigrationCounts {
  size_t builds = 0;
  size_t keeps = 0;
  size_t drops = 0;
  uint64_t rows_backfilled = 0;
  uint64_t catchup_updates = 0;
  uint64_t dual_writes = 0;
  uint64_t verify_queries = 0;
  double est_build_cost_ms = 0.0;
  /// Estimated drop + dual-write charges, so the estimate is
  /// commensurable with the simulated ms charged — which includes both.
  double est_drop_cost_ms = 0.0;
  double est_dual_write_cost_ms = 0.0;

  void CopyPlan(const MigrationPlan& plan);
  void CopyProgress(const MigrationProgress& progress);
};

/// Executes one migration plan against the live store in bounded steps.
///
/// Single-threaded (evolve loop) use: the controller calls Step() between
/// transactions (one backfill chunk / catch-up batch / verify pass per
/// call) and OnUpdate() after every executed update so the new generation
/// stays in sync once dual-writing starts.
///
/// Concurrent (serve loop) use: a migration worker drives
/// BackfillAll/ReplayRange/BeginDualWrite/TryVerify/MarkReadyForCutover
/// while driver threads execute foreground statements and call OnUpdate
/// concurrently. phase() is atomic and progress() snapshots under a lock,
/// so both are safe from any thread; the caller is responsible for the
/// replay-vs-dual-write handoff (every update either lands in the replayed
/// log prefix or is OnUpdate'd after BeginDualWrite, never both — see
/// serve/ServeHarness).
///
/// Safety: backfill and catch-up write only new-generation column
/// families, so queries served from the old generation are untouched until
/// the controller cuts over — and cutover is only offered after every
/// sampled query returned identical rows from both generations.
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
                    const MigrationPlan* plan, Options options);

  /// Creates the build-set column families and derives the replay plans
  /// (new-generation update plans filtered to build-set parts). Must be
  /// called once before Step; separate from the constructor so creation
  /// errors surface.
  Status Prepare();

  /// Advances one bounded unit of work. `update_log` is the controller's
  /// full update history (append-only); `query_log` the recent-query
  /// sample. Returns an error (and enters kFailed) on verification
  /// mismatch or store failure.
  Status Step(const std::vector<LoggedStatement>& update_log,
              const std::vector<LoggedStatement>& query_log);

  /// Applies one just-executed update to the new generation when the
  /// migration has passed catch-up (phases kDualWrite and later). Earlier
  /// phases rely on the update log instead, so nothing is double-applied:
  /// catch-up replays exactly the entries executed before dual-writing
  /// began. Safe to call from multiple driver threads concurrently.
  Status OnUpdate(const LoggedStatement& entry);

  /// Backfills every build-set column family in one call, fanning the
  /// chunks out over `pool` (serial when null). Disjoint root-row ranges
  /// write disjoint rows, so chunks are independent; the call returns only
  /// once every chunk landed. Transitions kBackfill -> kCatchUp.
  Status BackfillAll(util::ThreadPool* pool);

  /// Replays update-log entries [begin, end) into the new generation
  /// without any phase transition: the serve loop's catch-up primitive,
  /// driven from the migration worker while drivers keep appending.
  Status ReplayRange(const std::vector<LoggedStatement>& update_log,
                     size_t begin, size_t end);

  /// Transitions to kDualWrite. The caller must guarantee (e.g. by holding
  /// its update-log mutex across the final ReplayRange and this call) that
  /// every update before the transition was replayed and every one after
  /// it reaches OnUpdate.
  void BeginDualWrite() { phase_.store(MigrationPhase::kDualWrite); }

  /// One verification pass over the sampled query log: true when every
  /// compared query matched, false on a mismatch (no phase change — under
  /// concurrent foreground writes a mismatch can be a transient between
  /// the old-generation write and its dual write, so the caller retries).
  /// Hard store errors fail the migration as usual.
  StatusOr<bool> TryVerify(const std::vector<LoggedStatement>& query_log);

  /// Marks verification complete; cutover may proceed.
  void MarkReadyForCutover() {
    phase_.store(MigrationPhase::kReadyForCutover);
  }

  /// Marks the cutover done (controller has swapped generations).
  void FinishCutover() { phase_.store(MigrationPhase::kDone); }

  MigrationPhase phase() const { return phase_.load(); }
  MigrationProgress progress() const;

 private:
  Status BackfillStep();
  Status CatchUpStep(const std::vector<LoggedStatement>& update_log);
  Status VerifyStep(const std::vector<LoggedStatement>& query_log);
  Status ReplayUpdate(const LoggedStatement& entry);
  /// Loads root rows [begin, end) of build CF `cf_index`, accounting rows
  /// and simulated charge into progress. Any thread.
  Status BackfillChunk(size_t cf_index, size_t begin, size_t end);

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

  /// New-generation update plans restricted to parts that write build-set
  /// column families, keyed by statement; statements with no build-set
  /// part are absent. Replay and dual writes maintain ONLY the build set:
  /// kept column families are live in both generations and the foreground
  /// old-generation plans already maintain them — re-applying older log
  /// entries to a kept family would race (and could lose) newer foreground
  /// writes to the same record under concurrent serving.
  std::map<std::string, UpdatePlan> replay_plans_;

  std::atomic<MigrationPhase> phase_{MigrationPhase::kBackfill};
  mutable std::mutex progress_mu_;
  MigrationProgress progress_;     ///< guarded by progress_mu_
  int64_t progress_sim_ns_ = 0;    ///< guarded by progress_mu_
  size_t build_pos_ = 0;    ///< index into plan_->build_indices
  size_t root_cursor_ = 0;  ///< next root row of the current build CF
  size_t replay_pos_ = 0;   ///< next update-log entry to replay
  size_t dual_write_steps_ = 0;
};

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_MIGRATION_EXECUTOR_H_
