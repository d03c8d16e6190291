#include "evolve/migration_executor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "executor/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nose::evolve {

namespace {

/// Steps a migration soaks in dual-write before it verifies.
constexpr size_t kMinDualWriteSteps = 2;

/// Dirty verification passes before the deciding pass with the drivers
/// paused.
constexpr size_t kVerifyAttempts = 8;

int64_t MsToNanos(double ms) {
  return static_cast<int64_t>(std::llround(ms * 1e6));
}

}  // namespace

void StatementLog::AddQuery(LoggedStatement entry) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.push_back(std::move(entry));
  if (queries_.size() > query_capacity_) queries_.erase(queries_.begin());
}

MigrationExecutor* StatementLog::AddUpdate(LoggedStatement entry,
                                           const PlanExecutor* via) {
  std::lock_guard<std::mutex> lock(mu_);
  updates_.push_back(std::move(entry));
  return dual_ != nullptr && dual_->old_executor_ == via ? dual_ : nullptr;
}

void StatementLog::StopDualWrites() {
  std::lock_guard<std::mutex> lock(mu_);
  dual_ = nullptr;
}

std::vector<LoggedStatement> StatementLog::updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return updates_;
}

std::vector<LoggedStatement> StatementLog::queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_;
}

MigrationExecutor::MigrationExecutor(
    const Dataset* data, RecordStore* store, const Schema* new_schema,
    PlanExecutor* old_executor, PlanExecutor* new_executor,
    const std::map<std::string, QueryPlan>* old_query_plans,
    const std::map<std::string, QueryPlan>* new_query_plans,
    const std::map<std::string, UpdatePlan>* new_update_plans,
    const MigrationPlan* plan, Options options, size_t max_loaders)
    : data_(data),
      store_(store),
      new_schema_(new_schema),
      old_executor_(old_executor),
      new_executor_(new_executor),
      old_query_plans_(old_query_plans),
      new_query_plans_(new_query_plans),
      new_update_plans_(new_update_plans),
      plan_(plan),
      options_(options),
      max_loaders_(std::max<size_t>(1, max_loaders)) {
  if (options_.chunk_rows == 0) options_.chunk_rows = 1;
  if (options_.catchup_batch == 0) options_.catchup_batch = 1;
}

MigrationProgress MigrationExecutor::progress() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  MigrationProgress out = progress_;
  out.simulated_ms = static_cast<double>(progress_sim_ns_) / 1e6;
  return out;
}

void MigrationExecutor::Advance(MigrationPhase from, MigrationPhase to) {
  phase_.compare_exchange_strong(from, to);
}

Status MigrationExecutor::Fail(Status status) {
  phase_.store(MigrationPhase::kFailed);
  return status;
}

Status MigrationExecutor::Prepare() {
  std::set<std::string> build_keys;
  for (size_t i : plan_->build_indices) {
    const ColumnFamily& cf = new_schema_->column_families()[i];
    const std::string& name = new_schema_->names()[i];
    NOSE_RETURN_IF_ERROR(store_->CreateColumnFamily(
        name, cf.partition_key().size(), cf.clustering_key().size(),
        cf.values().size()));
    build_keys.insert(cf.key());
    // Disjoint root-row ranges write disjoint rows, so chunks commute.
    const size_t total_roots = data_->RowCount(cf.path().EntityAt(0));
    for (size_t begin = 0; begin < total_roots;
         begin += options_.chunk_rows) {
      chunks_.push_back(
          {i, begin, std::min(begin + options_.chunk_rows, total_roots)});
    }
  }
  // Replay maintains only the build set (see replay_plans_ in the header):
  // kept families are live and already maintained by the foreground.
  for (const auto& [stmt, plan] : *new_update_plans_) {
    UpdatePlan filtered;
    filtered.update = plan.update;
    for (const UpdatePlanPart& part : plan.parts) {
      if (part.cf != nullptr && build_keys.count(part.cf->key()) > 0) {
        filtered.parts.push_back(part);
      }
    }
    if (!filtered.parts.empty()) replay_plans_.emplace(stmt, filtered);
  }
  if (chunks_.empty()) phase_ = MigrationPhase::kCatchUp;
  return Status::Ok();
}

StatusOr<bool> MigrationExecutor::Step(StatementLog* log,
                                       DriverBarrier* drivers) {
  if (phase_.load() == MigrationPhase::kBackfill) {
    NOSE_RETURN_IF_ERROR(BackfillStep());
    return false;
  }
  std::unique_lock<std::mutex> lock(step_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;  // another driver is stepping
  switch (phase_.load()) {
    case MigrationPhase::kCatchUp:
      NOSE_RETURN_IF_ERROR(CatchUpStep(log));
      return false;
    case MigrationPhase::kDualWrite:
      if (++dual_write_steps_ >= kMinDualWriteSteps) {
        Advance(MigrationPhase::kDualWrite, MigrationPhase::kVerify);
      }
      return false;
    case MigrationPhase::kVerify:
      return VerifyStep(log, drivers);
    case MigrationPhase::kBackfill:
    case MigrationPhase::kReadyForCutover:
    case MigrationPhase::kDone:
    case MigrationPhase::kFailed:
      return false;
  }
  return false;
}

Status MigrationExecutor::BackfillStep() {
  size_t c = 0;
  {
    std::lock_guard<std::mutex> lock(step_mu_);
    if (next_chunk_ == chunks_.size() || loaders_ >= max_loaders_) {
      return Status::Ok();
    }
    c = next_chunk_++;
    ++loaders_;
  }
  obs::Span span("evolve.backfill_chunk", "evolve");
  const Chunk& chunk = chunks_[c];
  const double before_ms = RecordStore::ThreadChargeMs();
  auto written = LoadColumnFamilyChunk(
      *data_, new_schema_->column_families()[chunk.cf_index],
      new_schema_->names()[chunk.cf_index], store_, chunk.begin, chunk.end);
  if (written.ok()) {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_sim_ns_ += MsToNanos(RecordStore::ThreadChargeMs() - before_ms);
    progress_.rows_backfilled += written.value();
    ++progress_.chunks;
  }
  {
    std::lock_guard<std::mutex> lock(step_mu_);
    --loaders_;
    // Catch-up starts only once every chunk landed: a replayed update must
    // never be overwritten by a chunk still loading the dataset's row.
    if (written.ok() && ++chunks_landed_ == chunks_.size()) {
      Advance(MigrationPhase::kBackfill, MigrationPhase::kCatchUp);
    }
  }
  if (!written.ok()) return Fail(written.status());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("evolve.backfill_rows").Add(written.value());
  reg.GetCounter("evolve.backfill_chunks").Increment();
  return Status::Ok();
}

Status MigrationExecutor::ReplayUpdate(const LoggedStatement& entry) {
  auto it = replay_plans_.find(entry.statement);
  // An update with no build-set part modifies nothing the migration is
  // responsible for; the kept families were maintained by the foreground.
  if (it == replay_plans_.end()) return Status::Ok();
  return new_executor_->ExecuteUpdate(it->second, entry.params);
}

Status MigrationExecutor::Replay(const std::vector<LoggedStatement>& updates,
                                 size_t begin, size_t end) {
  const double before_ms = RecordStore::ThreadChargeMs();
  for (size_t i = begin; i < end; ++i) {
    Status s = ReplayUpdate(updates[i]);
    if (!s.ok()) return Fail(s);
  }
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.catchup_updates += end - begin;
    progress_sim_ns_ += MsToNanos(RecordStore::ThreadChargeMs() - before_ms);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.catchup_updates")
      .Add(end - begin);
  return Status::Ok();
}

Status MigrationExecutor::CatchUpStep(StatementLog* log) {
  std::vector<LoggedStatement> batch;
  {
    std::lock_guard<std::mutex> lock(log->mu_);
    const size_t logged = log->updates_.size();
    if (logged - replay_pos_ <= options_.catchup_batch) {
      // The flip: every update logged before this critical section is
      // replayed in it, and every one logged after it is dual-written.
      NOSE_RETURN_IF_ERROR(Replay(log->updates_, replay_pos_, logged));
      replay_pos_ = logged;
      log->dual_ = this;
      Advance(MigrationPhase::kCatchUp, MigrationPhase::kDualWrite);
      return Status::Ok();
    }
    // Drivers keep appending (the vector may reallocate under them), so
    // the batch is copied under the mutex and replayed outside it.
    const auto first =
        log->updates_.begin() + static_cast<ptrdiff_t>(replay_pos_);
    batch.assign(first,
                 first + static_cast<ptrdiff_t>(options_.catchup_batch));
  }
  NOSE_RETURN_IF_ERROR(Replay(batch, 0, batch.size()));
  replay_pos_ += batch.size();
  return Status::Ok();
}

StatusOr<bool> MigrationExecutor::VerifyPass(
    const std::vector<LoggedStatement>& query_log) {
  obs::Span span("evolve.verify", "evolve");
  const double before_ms = RecordStore::ThreadChargeMs();
  size_t compared = 0;
  size_t skipped = 0;
  bool clean = true;
  Status status = Status::Ok();
  for (size_t i = query_log.size();
       i-- > 0 && compared < options_.verify_samples;) {
    const LoggedStatement& entry = query_log[i];
    auto nit = new_query_plans_->find(entry.statement);
    auto oit = old_query_plans_->find(entry.statement);
    if (nit == new_query_plans_->end() || oit == old_query_plans_->end()) {
      ++skipped;
      continue;
    }
    auto old_rows = old_executor_->ExecuteQuery(oit->second, entry.params);
    if (!old_rows.ok()) {
      status = old_rows.status();
      break;
    }
    auto new_rows = new_executor_->ExecuteQuery(nit->second, entry.params);
    if (!new_rows.ok()) {
      status = new_rows.status();
      break;
    }
    std::vector<ValueTuple> a = std::move(old_rows).value();
    std::vector<ValueTuple> b = std::move(new_rows).value();
    // Both plans honour the query's ORDER BY, but rows tied on the sort key
    // may interleave differently; compare as sets.
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ++compared;
    if (a != b) {
      clean = false;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.verify_queries += compared;
    progress_.verify_skipped += skipped;
    progress_sim_ns_ += MsToNanos(RecordStore::ThreadChargeMs() - before_ms);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.verify_queries")
      .Add(compared);
  if (!status.ok()) return status;
  return clean;
}

StatusOr<bool> MigrationExecutor::VerifyStep(StatementLog* log,
                                             DriverBarrier* drivers) {
  // With the drivers paused no foreground write can race the pass, so a
  // mismatch in the deciding pass is a real migration fault.
  const bool deciding = dirty_passes_ >= kVerifyAttempts;
  if (deciding) drivers->Pause();
  StatusOr<bool> clean = VerifyPass(log->queries());
  if (deciding) drivers->Resume();
  if (!clean.ok()) return Fail(clean.status());
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.quiesced_verify = deciding;
    if (!*clean) ++(deciding ? progress_.verify_mismatches
                             : progress_.verify_retries);
  }
  if (*clean) {
    Advance(MigrationPhase::kVerify, MigrationPhase::kReadyForCutover);
    return phase_.load() == MigrationPhase::kReadyForCutover;
  }
  if (!deciding) {
    ++dirty_passes_;
    return false;
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.verify_mismatches")
      .Increment();
  return Fail(Status::Internal("migration verification mismatch"));
}

Status MigrationExecutor::OnUpdate(const LoggedStatement& entry) {
  const double before_ms = RecordStore::ThreadChargeMs();
  Status s = ReplayUpdate(entry);
  if (!s.ok()) return Fail(s);
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++progress_.dual_writes;
    progress_sim_ns_ += MsToNanos(RecordStore::ThreadChargeMs() - before_ms);
  }
  obs::MetricsRegistry::Global().GetCounter("evolve.dual_writes").Increment();
  return Status::Ok();
}

}  // namespace nose::evolve
