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

int64_t MsToNanos(double ms) {
  return static_cast<int64_t>(std::llround(ms * 1e6));
}

}  // namespace

void MigrationCounts::CopyPlan(const MigrationPlan& plan) {
  builds = plan.build_indices.size();
  keeps = plan.keep_names.size();
  drops = plan.drop_names.size();
  est_build_cost_ms = plan.est_build_cost_ms;
  est_drop_cost_ms = plan.est_drop_cost_ms;
  est_dual_write_cost_ms = plan.est_dual_write_cost_ms;
}

void MigrationCounts::CopyProgress(const MigrationProgress& progress) {
  rows_backfilled = progress.rows_backfilled;
  catchup_updates = progress.catchup_updates;
  dual_writes = progress.dual_writes;
  verify_queries = progress.verify_queries;
}

MigrationExecutor::MigrationExecutor(
    const Dataset* data, RecordStore* store, const Schema* new_schema,
    PlanExecutor* old_executor, PlanExecutor* new_executor,
    const std::map<std::string, QueryPlan>* old_query_plans,
    const std::map<std::string, QueryPlan>* new_query_plans,
    const std::map<std::string, UpdatePlan>* new_update_plans,
    const MigrationPlan* plan, Options options)
    : data_(data),
      store_(store),
      new_schema_(new_schema),
      old_executor_(old_executor),
      new_executor_(new_executor),
      old_query_plans_(old_query_plans),
      new_query_plans_(new_query_plans),
      new_update_plans_(new_update_plans),
      plan_(plan),
      options_(options) {
  if (options_.chunk_rows == 0) options_.chunk_rows = 1;
  if (options_.catchup_batch == 0) options_.catchup_batch = 1;
}

MigrationProgress MigrationExecutor::progress() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  MigrationProgress out = progress_;
  out.simulated_ms = static_cast<double>(progress_sim_ns_) / 1e6;
  return out;
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
  if (plan_->build_indices.empty()) phase_ = MigrationPhase::kCatchUp;
  return Status::Ok();
}

Status MigrationExecutor::Step(const std::vector<LoggedStatement>& update_log,
                               const std::vector<LoggedStatement>& query_log) {
  switch (phase_.load()) {
    case MigrationPhase::kBackfill:
      return BackfillStep();
    case MigrationPhase::kCatchUp:
      return CatchUpStep(update_log);
    case MigrationPhase::kDualWrite:
      if (++dual_write_steps_ >= kMinDualWriteSteps) {
        phase_ = MigrationPhase::kVerify;
      }
      return Status::Ok();
    case MigrationPhase::kVerify:
      return VerifyStep(query_log);
    case MigrationPhase::kReadyForCutover:
    case MigrationPhase::kDone:
    case MigrationPhase::kFailed:
      return Status::Ok();
  }
  return Status::Ok();
}

Status MigrationExecutor::BackfillChunk(size_t cf_index, size_t begin,
                                        size_t end) {
  const ColumnFamily& cf = new_schema_->column_families()[cf_index];
  const std::string& name = new_schema_->names()[cf_index];
  const double before_ms = RecordStore::ThreadChargeMs();
  auto written = LoadColumnFamilyChunk(*data_, cf, name, store_, begin, end);
  if (!written.ok()) {
    phase_ = MigrationPhase::kFailed;
    return written.status();
  }
  const double charge = RecordStore::ThreadChargeMs() - before_ms;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_sim_ns_ += MsToNanos(charge);
    progress_.rows_backfilled += written.value();
    ++progress_.chunks;
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("evolve.backfill_rows").Add(written.value());
  reg.GetCounter("evolve.backfill_chunks").Increment();
  return Status::Ok();
}

Status MigrationExecutor::BackfillStep() {
  obs::Span span("evolve.backfill_chunk", "evolve");
  const size_t i = plan_->build_indices[build_pos_];
  const ColumnFamily& cf = new_schema_->column_families()[i];
  const size_t total_roots = data_->RowCount(cf.path().EntityAt(0));

  NOSE_RETURN_IF_ERROR(
      BackfillChunk(i, root_cursor_, root_cursor_ + options_.chunk_rows));

  root_cursor_ += options_.chunk_rows;
  if (root_cursor_ >= total_roots) {
    root_cursor_ = 0;
    if (++build_pos_ >= plan_->build_indices.size()) {
      phase_ = MigrationPhase::kCatchUp;
    }
  }
  return Status::Ok();
}

Status MigrationExecutor::BackfillAll(util::ThreadPool* pool) {
  obs::Span span("evolve.backfill_all", "evolve");
  // Flatten every build CF into (cf_index, root range) chunks, then fan
  // out: disjoint root ranges produce disjoint rows, so chunks commute.
  struct Chunk {
    size_t cf_index;
    size_t begin;
    size_t end;
  };
  std::vector<Chunk> chunks;
  for (size_t i : plan_->build_indices) {
    const ColumnFamily& cf = new_schema_->column_families()[i];
    const size_t total_roots = data_->RowCount(cf.path().EntityAt(0));
    for (size_t begin = 0; begin < total_roots;
         begin += options_.chunk_rows) {
      chunks.push_back(
          {i, begin, std::min(begin + options_.chunk_rows, total_roots)});
    }
  }
  Status status = util::ParallelForStatus(pool, chunks.size(), [&](size_t c) {
    return BackfillChunk(chunks[c].cf_index, chunks[c].begin, chunks[c].end);
  });
  if (!status.ok()) {
    phase_ = MigrationPhase::kFailed;
    return status;
  }
  phase_ = MigrationPhase::kCatchUp;
  return Status::Ok();
}

Status MigrationExecutor::ReplayUpdate(const LoggedStatement& entry) {
  auto it = replay_plans_.find(entry.statement);
  // An update with no build-set part modifies nothing the migration is
  // responsible for; the kept families were maintained by the foreground.
  if (it == replay_plans_.end()) return Status::Ok();
  return new_executor_->ExecuteUpdate(it->second, entry.params);
}

Status MigrationExecutor::ReplayRange(
    const std::vector<LoggedStatement>& update_log, size_t begin, size_t end) {
  const double before_ms = RecordStore::ThreadChargeMs();
  size_t replayed = 0;
  for (size_t i = begin; i < end && i < update_log.size(); ++i) {
    Status s = ReplayUpdate(update_log[i]);
    if (!s.ok()) {
      phase_ = MigrationPhase::kFailed;
      return s;
    }
    ++replayed;
  }
  const double charge = RecordStore::ThreadChargeMs() - before_ms;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.catchup_updates += replayed;
    progress_sim_ns_ += MsToNanos(charge);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.catchup_updates")
      .Add(replayed);
  return Status::Ok();
}

Status MigrationExecutor::CatchUpStep(
    const std::vector<LoggedStatement>& update_log) {
  const size_t begin = replay_pos_;
  const size_t end =
      std::min(update_log.size(), replay_pos_ + options_.catchup_batch);
  NOSE_RETURN_IF_ERROR(ReplayRange(update_log, begin, end));
  replay_pos_ = end;
  if (replay_pos_ == update_log.size()) {
    // Every update executed so far has been replayed in order; from here
    // the controller's OnUpdate calls keep the new generation in sync.
    phase_ = MigrationPhase::kDualWrite;
  }
  return Status::Ok();
}

StatusOr<bool> MigrationExecutor::TryVerify(
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
  const double charge = RecordStore::ThreadChargeMs() - before_ms;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.verify_queries += compared;
    progress_.verify_skipped += skipped;
    progress_sim_ns_ += MsToNanos(charge);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.verify_queries")
      .Add(compared);
  if (!status.ok()) {
    phase_ = MigrationPhase::kFailed;
    return status;
  }
  return clean;
}

Status MigrationExecutor::VerifyStep(
    const std::vector<LoggedStatement>& query_log) {
  // A failed comparison in the single-threaded loop is never transient —
  // no foreground write can interleave — so a mismatch fails the
  // migration outright.
  NOSE_ASSIGN_OR_RETURN(bool clean, TryVerify(query_log));
  if (!clean) {
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      ++progress_.verify_mismatches;
    }
    obs::MetricsRegistry::Global()
        .GetCounter("evolve.verify_mismatches")
        .Increment();
    phase_ = MigrationPhase::kFailed;
    return Status::Internal("migration verification mismatch");
  }
  phase_ = MigrationPhase::kReadyForCutover;
  return Status::Ok();
}

Status MigrationExecutor::OnUpdate(const LoggedStatement& entry) {
  const MigrationPhase phase = phase_.load();
  if (phase != MigrationPhase::kDualWrite &&
      phase != MigrationPhase::kVerify &&
      phase != MigrationPhase::kReadyForCutover) {
    return Status::Ok();
  }
  const double before_ms = RecordStore::ThreadChargeMs();
  Status s = ReplayUpdate(entry);
  if (!s.ok()) {
    phase_ = MigrationPhase::kFailed;
    return s;
  }
  const double charge = RecordStore::ThreadChargeMs() - before_ms;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++progress_.dual_writes;
    progress_sim_ns_ += MsToNanos(charge);
  }
  obs::MetricsRegistry::Global().GetCounter("evolve.dual_writes").Increment();
  return Status::Ok();
}

}  // namespace nose::evolve
