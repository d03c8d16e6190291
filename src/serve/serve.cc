#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "executor/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose::serve {

namespace {

/// Concurrent verification attempts before quiescing the drivers for one
/// authoritative pass (foreground writes can race the old-generation write
/// and its dual write, making individual mismatches transient).
constexpr size_t kVerifyAttempts = 8;

LatencyQuantiles Quantiles(std::vector<double>& samples) {
  LatencyQuantiles q;
  q.count = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double p) {
    const size_t i = std::min(
        samples.size() - 1,
        static_cast<size_t>(std::ceil(p * static_cast<double>(samples.size()))) -
            (p > 0.0 ? 1 : 0));
    return samples[i];
  };
  q.p50_ms = at(0.50);
  q.p95_ms = at(0.95);
  q.p99_ms = at(0.99);
  q.max_ms = samples.back();
  return q;
}

void PrintQuantiles(std::ostringstream& out, const char* label,
                    const LatencyQuantiles& q) {
  out << "  " << label << ": " << q.count << " txns";
  if (q.count > 0) {
    out << ", p50 " << q.p50_ms << " / p95 " << q.p95_ms << " / p99 "
        << q.p99_ms << " / max " << q.max_ms << " ms";
  }
  out << "\n";
}

/// True when `gen` has a plan for every statement `sampler` can draw.
bool Serves(const evolve::Generation& gen, const Workload& workload,
            const rubis::TransactionSampler& sampler) {
  for (const rubis::TransactionSampler::Entry& entry : sampler.entries()) {
    for (const std::string& stmt : entry.tx->statements) {
      const bool planned = workload.FindEntry(stmt)->IsQuery()
                               ? gen.query_plans.count(stmt) != 0
                               : gen.update_plans.count(stmt) != 0;
      if (!planned) return false;
    }
  }
  return true;
}

}  // namespace

ServeHarness::ServeHarness(evolve::DriftScenario scenario, ServeOptions options)
    : scenario_(std::move(scenario)),
      options_(std::move(options)),
      session_(scenario_.options.advisor) {}

ServeHarness::~ServeHarness() {
  if (migration_thread_.joinable()) migration_thread_.join();
}

StatusOr<std::unique_ptr<ServeHarness>> ServeHarness::Create(
    const evolve::DriftScenario& scenario, ServeOptions options) {
  if (options.threads == 0) options.threads = 1;
  if (options.streams == 0) options.streams = options.threads;
  std::unique_ptr<ServeHarness> harness(
      new ServeHarness(scenario, std::move(options)));
  NOSE_ASSIGN_OR_RETURN(harness->env_, evolve::MakeEnvironment(scenario));
  harness->store_ = std::make_unique<RecordStore>(
      scenario.options.advisor.cost_params, harness->options_.store_stripes);
  const size_t streams = harness->options_.streams;
  harness->streams_.resize(streams);
  for (size_t s = 0; s < streams; ++s) {
    // Per-stream generators: stream s's statement sequence is a function
    // of (seed, s, stream count) only — never of the thread count.
    harness->streams_[s].params = std::make_unique<rubis::ParamGenerator>(
        harness->env_.data.get(), scenario.seed, s, streams);
    harness->streams_[s].mix_rng =
        Rng(scenario.seed + 0x9e3779b97f4a7c15ull * (s + 1));
  }
  harness->report_.threads = harness->options_.threads;
  harness->report_.streams = streams;
  return harness;
}

StatusOr<Recommendation> ServeHarness::AdviseForPhase(size_t phase) {
  const std::string& mix = scenario_.phases[phase].mix;
  Stopwatch watch;
  StatusOr<Recommendation> rec = session_.Advise(
      *env_.workload, mix, options_.advise_deadline_seconds);
  if (!rec.ok()) return rec.status();
  ServeAdviseRecord record;
  record.phase = phase;
  record.mix = mix;
  record.deadline_seconds = options_.advise_deadline_seconds;
  record.elapsed_seconds = watch.ElapsedSeconds();
  record.anytime_gap = rec->anytime_gap;
  record.deadline_hit = rec->deadline_hit;
  record.reuse = rec->reuse;
  report_.advises.push_back(record);
  return rec;
}

Status ServeHarness::PrepareBoundary(size_t phase) {
  NOSE_ASSIGN_OR_RETURN(Recommendation rec, AdviseForPhase(phase));
  const Schema* live = active_ != nullptr ? active_->named.get() : nullptr;
  std::shared_ptr<Generation> next = evolve::MakeGeneration(
      std::move(rec), live, "s" + std::to_string(next_serial_++) + "_",
      store_.get());
  if (phase == 0) {
    report_.advises.back().schema_changed = true;
    active_ = std::move(next);
    // The initial deployment is not part of the served workload: load the
    // full schema uncharged, exactly like the evolve loop's Init.
    return LoadSchema(*env_.data, *active_->named, store_.get());
  }

  mig_record_ = ServeMigrationRecord();
  evolve::ArmedMigration armed = evolve::ArmMigration(
      *active_, *next, *env_.workload, scenario_.phases[phase].mix, *env_.data,
      store_.get(), scenario_.options, &mig_record_);
  if (armed.executor == nullptr) {
    // Same physical schema: adopt the fresh plans in place (drivers are
    // parked between phases, so a plain swap is safe).
    std::lock_guard<std::mutex> lock(gen_mu_);
    active_ = std::move(next);
    return Status::Ok();
  }

  report_.advises.back().schema_changed = true;
  mig_record_.at_phase = phase;
  mig_record_.to_mix = scenario_.phases[phase].mix;
  pending_ = std::move(next);
  mig_plan_ = std::move(armed.plan);
  migration_ = std::move(armed.executor);
  NOSE_RETURN_IF_ERROR(migration_->Prepare());
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    live_migration_ = migration_.get();
    dual_routing_ = false;
    migrating_from_ = active_.get();
  }
  return Status::Ok();
}

Status ServeHarness::ExecuteTransaction(Stream& stream,
                                        const rubis::Transaction& tx,
                                        const std::shared_ptr<Generation>& gen,
                                        size_t* statements) {
  PlanExecutor::Params params;
  for (const std::string& stmt : tx.statements) {
    stream.params->AddStatementParams(*env_.workload->FindEntry(stmt),
                                      &params);
  }
  for (const std::string& stmt : tx.statements) {
    if (env_.workload->FindEntry(stmt)->IsQuery()) {
      auto it = gen->query_plans.find(stmt);
      if (it == gen->query_plans.end()) {
        return Status::NotFound("no active plan for query " + stmt);
      }
      NOSE_RETURN_IF_ERROR(
          gen->executor->ExecuteQuery(it->second, params).status());
      std::lock_guard<std::mutex> lock(log_mu_);
      query_log_.push_back({stmt, params});
      if (query_log_.size() > scenario_.options.query_log_capacity) {
        query_log_.erase(query_log_.begin());
      }
    } else {
      auto it = gen->update_plans.find(stmt);
      if (it == gen->update_plans.end()) {
        return Status::NotFound("no active plan for update " + stmt);
      }
      NOSE_RETURN_IF_ERROR(gen->executor->ExecuteUpdate(it->second, params));
      evolve::MigrationExecutor* dual = nullptr;
      {
        // The append and the routing decision share log_mu_ with the
        // dual-write flip: every update is either in the replayed log
        // prefix or dual-written, never both (see the header).
        std::lock_guard<std::mutex> lock(log_mu_);
        update_log_.push_back({stmt, params});
        if (dual_routing_ && gen.get() == migrating_from_) {
          dual = live_migration_;
        }
      }
      if (dual != nullptr) {
        NOSE_RETURN_IF_ERROR(dual->OnUpdate({stmt, params}));
      }
    }
    ++*statements;
  }
  return Status::Ok();
}

void ServeHarness::MaybePark() {
  if (!pause_requested_.load(std::memory_order_relaxed)) return;
  std::unique_lock<std::mutex> lock(pause_mu_);
  if (!pause_requested_.load(std::memory_order_relaxed)) return;
  ++parked_;
  pause_cv_.notify_all();
  resume_cv_.wait(lock, [&] {
    return !pause_requested_.load(std::memory_order_relaxed);
  });
  --parked_;
}

void ServeHarness::QuiesceDrivers() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  pause_requested_.store(true, std::memory_order_relaxed);
  pause_cv_.wait(lock, [&] { return parked_ == running_drivers_; });
}

void ServeHarness::ResumeDrivers() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_.store(false, std::memory_order_relaxed);
  }
  resume_cv_.notify_all();
}

void ServeHarness::DriverLoop(size_t workers, const std::vector<size_t>& owned,
                              const rubis::TransactionSampler& sampler,
                              std::vector<Sample>* samples, size_t* statements,
                              Status* status) {
  const auto start = std::chrono::steady_clock::now();
  const double period_seconds =
      options_.target_rate > 0.0
          ? static_cast<double>(workers) / options_.target_rate
          : 0.0;
  size_t executed = 0;
  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (size_t s : owned) {
      Stream& stream = streams_[s];
      if (stream.remaining == 0) continue;
      work_left = true;
      MaybePark();
      if (period_seconds > 0.0) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(executed) * period_seconds)));
      }
      // Sample the transaction from the stream's own RNG: the sequence
      // depends only on the stream, not on which worker runs it.
      const rubis::Transaction& tx = sampler.Pick(&stream.mix_rng);

      std::shared_ptr<Generation> gen;
      {
        std::lock_guard<std::mutex> lock(gen_mu_);
        gen = active_;
      }
      const int bucket = bucket_.load(std::memory_order_relaxed);
      const double before = RecordStore::ThreadChargeMs();
      Status s_txn = ExecuteTransaction(stream, tx, gen, statements);
      if (!s_txn.ok()) {
        *status = s_txn;
        return;
      }
      samples->push_back({bucket, RecordStore::ThreadChargeMs() - before});
      --stream.remaining;
      ++executed;
    }
  }
  *status = Status::Ok();
}

void ServeHarness::MigrationWorker() {
  obs::Span span("serve.migration", "serve");
  Stopwatch wall;
  Status status = [&]() -> Status {
    // 1. Parallel chunked backfill of the build set.
    util::ThreadPool pool(std::max<size_t>(1, options_.migration_threads));
    NOSE_RETURN_IF_ERROR(migration_->BackfillAll(&pool));

    // 2. Catch-up: replay the update log in slices copied under the lock
    // (drivers keep appending; the vector may reallocate under them).
    size_t replayed = 0;
    const size_t tail_threshold =
        std::max<size_t>(1, scenario_.options.migration.catchup_batch);
    while (true) {
      std::vector<evolve::LoggedStatement> slice;
      {
        std::lock_guard<std::mutex> lock(log_mu_);
        if (update_log_.size() - replayed <= tail_threshold) break;
        slice.assign(update_log_.begin() + static_cast<ptrdiff_t>(replayed),
                     update_log_.end());
      }
      NOSE_RETURN_IF_ERROR(migration_->ReplayRange(slice, 0, slice.size()));
      replayed += slice.size();
    }

    // 3. The flip: under log_mu_ replay the remaining tail and switch to
    // dual-write routing. Every update appended before this critical
    // section is in the replayed prefix; every one after it is OnUpdate'd.
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      NOSE_RETURN_IF_ERROR(
          migration_->ReplayRange(update_log_, replayed, update_log_.size()));
      migration_->BeginDualWrite();
      dual_routing_ = true;
    }

    // 4. Verify with retries: a mismatch can be a transient between an
    // old-generation write and its dual write landing.
    bool clean = false;
    for (size_t attempt = 0; attempt < kVerifyAttempts && !clean; ++attempt) {
      std::vector<evolve::LoggedStatement> qlog;
      {
        std::lock_guard<std::mutex> lock(log_mu_);
        qlog = query_log_;
      }
      NOSE_ASSIGN_OR_RETURN(clean, migration_->TryVerify(qlog));
      if (!clean) {
        ++mig_record_.verify_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!clean) {
      // Authoritative pass with the drivers parked: no foreground write
      // can race, so a mismatch here is a real migration bug.
      QuiesceDrivers();
      mig_record_.quiesced_verify = true;
      std::vector<evolve::LoggedStatement> qlog;
      {
        std::lock_guard<std::mutex> lock(log_mu_);
        qlog = query_log_;
      }
      StatusOr<bool> quiet = migration_->TryVerify(qlog);
      ResumeDrivers();
      NOSE_ASSIGN_OR_RETURN(clean, std::move(quiet));
      if (!clean) {
        return Status::Internal("serve migration verification mismatch");
      }
    }
    migration_->MarkReadyForCutover();

    // 5. Cutover: swap the active generation, then wait out in-flight
    // transactions still holding the old one (they keep dual-writing, so
    // nothing is lost). Only then stop routing and drop the old families.
    std::shared_ptr<Generation> old;
    {
      std::lock_guard<std::mutex> lock(gen_mu_);
      old = active_;
      active_ = std::move(pending_);
    }
    while (old.use_count() > 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      dual_routing_ = false;
      live_migration_ = nullptr;
      migrating_from_ = nullptr;
    }
    migration_->FinishCutover();

    const StoreStats before_drop = store_->stats();
    for (const std::string& name : mig_plan_->drop_names) {
      NOSE_RETURN_IF_ERROR(store_->DropColumnFamily(name));
    }
    const StoreStats after_drop = store_->stats();
    mig_record_.rows_dropped =
        after_drop.rows_dropped - before_drop.rows_dropped;
    mig_record_.bytes_dropped =
        after_drop.bytes_dropped - before_drop.bytes_dropped;
    bucket_.store(2, std::memory_order_relaxed);
    return Status::Ok();
  }();

  if (!status.ok()) {
    // Stop routing so drivers do not keep feeding a dead migration.
    std::lock_guard<std::mutex> lock(log_mu_);
    dual_routing_ = false;
    live_migration_ = nullptr;
    migrating_from_ = nullptr;
  }
  const evolve::MigrationProgress prog = migration_->progress();
  mig_record_.CopyProgress(prog);
  mig_record_.simulated_ms = prog.simulated_ms;
  mig_record_.wall_seconds = wall.ElapsedSeconds();
  migration_status_ = status;
}

Status ServeHarness::RunPhase(size_t phase) {
  const evolve::DriftPhase& drift_phase = scenario_.phases[phase];
  const rubis::TransactionSampler& sampler = env_.phase_samplers[phase];

  // Deal this phase's transactions across the fixed streams.
  const size_t streams = streams_.size();
  for (size_t s = 0; s < streams; ++s) {
    streams_[s].remaining = drift_phase.transactions / streams +
                            (s < drift_phase.transactions % streams ? 1 : 0);
  }

  const bool migrating = migration_ != nullptr;
  if (migrating) {
    bucket_.store(1, std::memory_order_relaxed);
    if (Serves(*active_, *env_.workload, sampler)) {
      migration_thread_ = std::thread(&ServeHarness::MigrationWorker, this);
    } else {
      // The live generation has no plan for some statement this phase
      // draws (the live schema was advised for a mix without it): cut
      // over before any driver starts.
      MigrationWorker();
      NOSE_RETURN_IF_ERROR(migration_status_);
    }
  }

  const size_t workers = std::min(options_.threads, std::max<size_t>(1, streams));
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    running_drivers_ = workers;
  }
  std::vector<std::thread> threads;
  std::vector<std::vector<Sample>> samples(workers);
  std::vector<size_t> statements(workers, 0);
  std::vector<Status> statuses(workers, Status::Ok());
  for (size_t w = 0; w < workers; ++w) {
    std::vector<size_t> owned;
    for (size_t s = w; s < streams; s += workers) owned.push_back(s);
    threads.emplace_back([this, w, workers, owned = std::move(owned),
                          &sampler, &samples, &statements, &statuses] {
      DriverLoop(workers, owned, sampler, &samples[w], &statements[w],
                 &statuses[w]);
      std::lock_guard<std::mutex> lock(pause_mu_);
      --running_drivers_;
      pause_cv_.notify_all();
    });
  }
  for (std::thread& t : threads) t.join();
  if (migration_thread_.joinable()) migration_thread_.join();

  static const char* kBucketHistograms[3] = {"serve.txn_before_ms",
                                             "serve.txn_during_ms",
                                             "serve.txn_after_ms"};
  for (size_t w = 0; w < workers; ++w) {
    NOSE_RETURN_IF_ERROR(statuses[w]);
    report_.statements += statements[w];
    for (const Sample& sample : samples[w]) {
      latencies_[sample.bucket].push_back(sample.ms);
      obs::MetricsRegistry::Global()
          .GetHistogram(kBucketHistograms[sample.bucket])
          .Observe(sample.ms);
    }
  }
  report_.transactions += drift_phase.transactions;

  if (migrating) {
    NOSE_RETURN_IF_ERROR(migration_status_);
    report_.migrations.push_back(mig_record_);
    migration_.reset();
    mig_plan_.reset();
    obs::MetricsRegistry::Global()
        .GetCounter("serve.migrations_completed")
        .Increment();
  }
  return Status::Ok();
}

Status ServeHarness::Run() {
  obs::Span span("serve.run", "serve");
  Stopwatch wall;
  for (size_t p = 0; p < scenario_.phases.size(); ++p) {
    NOSE_RETURN_IF_ERROR(PrepareBoundary(p));
    NOSE_RETURN_IF_ERROR(RunPhase(p));
  }
  report_.before = Quantiles(latencies_[0]);
  report_.during = Quantiles(latencies_[1]);
  report_.after = Quantiles(latencies_[2]);
  report_.store = store_->stats();
  report_.store_digest = store_->ContentDigest();
  report_.wall_seconds = wall.ElapsedSeconds();
  return Status::Ok();
}

std::string ServeReport::ToString() const {
  std::ostringstream out;
  out << "serve: " << transactions << " transactions / " << statements
      << " statements on " << threads << " threads (" << streams
      << " streams), " << wall_seconds << " s wall\n";
  out << "latency (simulated ms per transaction):\n";
  PrintQuantiles(out, "before migration", before);
  PrintQuantiles(out, "during migration", during);
  PrintQuantiles(out, "after cutover   ", after);
  out << "advises: " << advises.size() << "\n";
  for (const ServeAdviseRecord& a : advises) {
    out << "  phase " << a.phase << " mix " << a.mix << ": "
        << (a.reuse != PoolReuse::kCold ? "incremental" : "cold") << " in "
        << a.elapsed_seconds * 1e3 << " ms";
    if (a.deadline_seconds > 0.0) {
      out << " (deadline " << a.deadline_seconds * 1e3 << " ms "
          << (a.deadline_hit ? "HIT" : "MISSED") << ", anytime gap "
          << a.anytime_gap << ")";
    }
    out << (a.schema_changed ? ", schema changed" : ", schema kept") << "\n";
  }
  out << "migrations: " << migrations.size() << "\n";
  for (size_t i = 0; i < migrations.size(); ++i) {
    const ServeMigrationRecord& m = migrations[i];
    out << "  [" << i << "] phase " << m.at_phase << " -> " << m.to_mix
        << ": " << m.builds << " build / " << m.keeps << " keep / " << m.drops
        << " drop, backfilled " << m.rows_backfilled << " rows, caught up "
        << m.catchup_updates << " updates, " << m.dual_writes
        << " dual writes, verified " << m.verify_queries << " queries ("
        << m.verify_retries << " retries"
        << (m.quiesced_verify ? ", quiesced" : "") << "), reclaimed "
        << m.rows_dropped << " rows / " << m.bytes_dropped << " bytes, est "
        << m.est_build_cost_ms + m.est_drop_cost_ms + m.est_dual_write_cost_ms
        << " ms, actual " << m.simulated_ms << " ms, " << m.wall_seconds
        << " s wall\n";
  }
  out << "store: " << store.gets << " gets / " << store.puts << " puts / "
      << store.deletes << " deletes, " << store.simulated_ms
      << " simulated ms, digest " << store_digest << "\n";
  return out.str();
}

}  // namespace nose::serve
