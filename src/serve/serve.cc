#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "executor/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nose::serve {

namespace {

using evolve::MigrationPhase;

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

/// Names `rec`'s column families for `store`: families kept from the live
/// generation `reuse_names_from` keep their store names, new ones get
/// `prefix` so both generations coexist in one store (no live generation:
/// advised names). Builds the generation's executor over `store`.
std::shared_ptr<Generation> MakeGeneration(Recommendation rec,
                                           const Schema* reuse_names_from,
                                           const std::string& prefix,
                                           RecordStore* store) {
  auto gen = std::make_shared<Generation>();
  gen->rec = std::move(rec);
  gen->named = std::make_unique<Schema>();
  const Schema& advised = gen->rec.schema;
  for (size_t i = 0; i < advised.size(); ++i) {
    const ColumnFamily& cf = advised.column_families()[i];
    const std::string* kept =
        reuse_names_from != nullptr ? reuse_names_from->NameOf(cf) : nullptr;
    const std::string name =
        kept != nullptr ? *kept
                        : (reuse_names_from != nullptr ? prefix : std::string()) +
                              advised.names()[i];
    gen->named->Add(cf, name, advised.PoolIdAt(i));
  }
  for (const auto& [stmt, plan] : gen->rec.query_plans) {
    gen->query_plans.emplace(stmt, plan);
  }
  for (const auto& [stmt, plan] : gen->rec.update_plans) {
    gen->update_plans.emplace(stmt, plan);
  }
  gen->executor = std::make_unique<PlanExecutor>(store, gen->named.get());
  return gen;
}

}  // namespace

ServeHarness::ServeHarness(evolve::DriftScenario scenario, ServeOptions options,
                           Trigger trigger)
    : scenario_(std::move(scenario)),
      options_(std::move(options)),
      trigger_(trigger),
      session_(scenario_.options.advisor),
      log_(scenario_.options.query_log_capacity) {}

ServeHarness::~ServeHarness() = default;

StatusOr<std::unique_ptr<ServeHarness>> ServeHarness::Create(
    const evolve::DriftScenario& scenario, ServeOptions options) {
  return Make(scenario, std::move(options), Trigger::kPhaseBoundary);
}

StatusOr<std::unique_ptr<ServeHarness>> ServeHarness::CreateEvolve(
    const evolve::DriftScenario& scenario) {
  ServeOptions options;
  options.threads = 1;
  options.streams = 1;
  return Make(scenario, options,
              scenario.planned ? Trigger::kHorizon : Trigger::kDrift);
}

StatusOr<std::unique_ptr<ServeHarness>> ServeHarness::Make(
    const evolve::DriftScenario& scenario, ServeOptions options,
    Trigger trigger) {
  if (options.threads == 0) options.threads = 1;
  if (options.streams == 0) options.streams = options.threads;
  std::unique_ptr<ServeHarness> harness(
      new ServeHarness(scenario, std::move(options), trigger));
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
  if (trigger != Trigger::kPhaseBoundary) {
    harness->tracker_ =
        std::make_unique<evolve::WorkloadTracker>(scenario.options.tracker);
  }
  harness->report_.trigger = trigger;
  harness->report_.threads = harness->options_.threads;
  harness->report_.streams = streams;
  return harness;
}

Status ServeHarness::PlanHorizon() {
  WorkloadHorizon horizon;
  for (size_t p = 0; p < scenario_.phases.size(); ++p) {
    const evolve::DriftPhase& phase = scenario_.phases[p];
    HorizonWindow window;
    window.label = phase.mix;
    window.mix = phase.mix;
    // One unit of window objective is one pass over the mix's weighted
    // statements, and a sampled transaction costs objective / Σ_tx w_tx in
    // expectation (statement weights are sums of the transaction weights
    // using them). Scaling by transactions / Σ_tx w_tx makes
    // Σ duration·objective the expected total execution milliseconds —
    // commensurable with the migration build costs in the same objective.
    window.duration = static_cast<double>(phase.transactions) /
                      env_.phase_samplers[p].total();
    horizon.windows.push_back(std::move(window));
  }
  HorizonOptions horizon_options;
  horizon_options.migration_cost_weight = scenario_.migration_cost_weight;
  // Price scheduled migrations with the chunking the executor will use.
  horizon_options.backfill_chunk_rows =
      static_cast<double>(scenario_.options.migration.chunk_rows);
  NOSE_ASSIGN_OR_RETURN(
      HorizonPlan plan,
      Advisor(scenario_.options.advisor)
          .PlanHorizon(*env_.workload, horizon, horizon_options));
  horizon_plan_ = std::make_unique<HorizonPlan>(std::move(plan));
  return Status::Ok();
}

StatusOr<Recommendation> ServeHarness::Advise(const std::string& mix) {
  Stopwatch watch;
  StatusOr<Recommendation> rec = session_.Advise(
      *env_.workload, mix, options_.advise_deadline_seconds);
  if (!rec.ok()) return rec.status();
  AdviseRecord record;
  record.phase = phase_;
  record.mix = mix;
  record.deadline_seconds = options_.advise_deadline_seconds;
  record.elapsed_seconds = watch.ElapsedSeconds();
  record.anytime_gap = rec->anytime_gap;
  record.deadline_hit = rec->deadline_hit;
  record.reuse = rec->reuse;
  report_.advises.push_back(record);
  return rec;
}

Status ServeHarness::AdviseAndMigrate(const std::string& mix,
                                      MigrationRecord record) {
  NOSE_ASSIGN_OR_RETURN(Recommendation rec, Advise(mix));
  record.to_mix = mix;
  record.advise_incremental = rec.reuse != PoolReuse::kCold;
  record.advise_seconds = report_.advises.back().elapsed_seconds;
  NOSE_RETURN_IF_ERROR(StartMigration(std::move(record), std::move(rec)));
  report_.advises.back().schema_changed = MigrationInFlight();
  return Status::Ok();
}

Status ServeHarness::PrepareBoundary() {
  const std::string& mix = scenario_.phases[phase_].mix;
  MigrationRecord record;
  record.at_phase = phase_;
  if (phase_ == 0) {
    Recommendation rec;
    if (trigger_ == Trigger::kHorizon) {
      NOSE_RETURN_IF_ERROR(PlanHorizon());
      // The copied plans point into horizon_plan_->pool, which lives as
      // long as the harness.
      rec = horizon_plan_->windows[0].rec;
    } else {
      NOSE_ASSIGN_OR_RETURN(rec, Advise(mix));
      report_.advises.back().schema_changed = true;
    }
    std::shared_ptr<Generation> first =
        MakeGeneration(std::move(rec), nullptr, NextPrefix(), store_.get());
    // The initial deployment is not part of the served workload: load the
    // full schema uncharged.
    NOSE_RETURN_IF_ERROR(LoadSchema(*env_.data, *first->named, store_.get()));
    Activate(std::move(first), mix);
  } else if (trigger_ == Trigger::kPhaseBoundary) {
    NOSE_RETURN_IF_ERROR(AdviseAndMigrate(mix, record));
  } else if (trigger_ == Trigger::kHorizon) {
    obs::Span span("evolve.planned_migration", "evolve");
    MigrationRecord planned = record;
    planned.to_mix = mix;
    planned.planned = true;
    planned.to_window = phase_;
    NOSE_RETURN_IF_ERROR(
        StartMigration(planned, horizon_plan_->windows[phase_].rec));
  }
  if (Unavailable() == 0) return Status::Ok();
  // The live generation has no plan for some statement this phase draws
  // (it was advised for a mix without it): cut over before any driver
  // starts, to the migration in flight or else to the phase's own mix.
  NOSE_RETURN_IF_ERROR(StepToCutover());
  if (Unavailable() == 0) return Status::Ok();
  NOSE_RETURN_IF_ERROR(AdviseAndMigrate(mix, record));
  return StepToCutover();
}

Status ServeHarness::StartMigration(MigrationRecord record,
                                    Recommendation rec) {
  record.started_at_transaction = transactions_.load();
  if (tracker_ != nullptr) record.drift_at_trigger = tracker_->drift();
  std::shared_ptr<Generation> next = MakeGeneration(
      std::move(rec), active_->named.get(), NextPrefix(), store_.get());
  // Dual writes are priced with the update share of the mix the migration
  // enters — the pricing the horizon planner charges transitions with, so
  // planned, reactive and served estimates agree.
  MigrationTraffic traffic;
  traffic.update_weight_share =
      UpdateWeightShare(*env_.workload, record.to_mix);
  traffic.chunk_rows =
      static_cast<double>(scenario_.options.migration.chunk_rows);
  auto plan = std::make_unique<evolve::MigrationPlan>(evolve::PlanMigration(
      *active_->named, *next->named,
      CostModel(scenario_.options.advisor.cost_params), traffic));
  if (plan->empty()) {
    // Same physical schema: the fresh plans only re-rank equal-cost paths,
    // so they are adopted in place (no driver runs a transaction now).
    Activate(std::move(next), record.to_mix);
    ++report_.no_op_readvises;
    return Status::Ok();
  }
  record.builds = plan->build_indices.size();
  record.keeps = plan->keep_names.size();
  record.drops = plan->drop_names.size();
  record.est_build_cost_ms = plan->est_build_cost_ms;
  record.est_total_cost_ms = plan->est_total_cost_ms();
  migration_ = std::make_unique<evolve::MigrationExecutor>(
      env_.data.get(), store_.get(), next->named.get(),
      active_->executor.get(), next->executor.get(), &active_->query_plans,
      &next->query_plans, &next->update_plans, plan.get(),
      scenario_.options.migration, options_.migration_threads);
  pending_ = std::move(next);
  mig_plan_ = std::move(plan);
  mig_record_ = std::move(record);
  mig_wall_.Reset();
  bucket_.store(1, std::memory_order_relaxed);
  Status prepared = migration_->Prepare();
  if (!prepared.ok()) {
    AbortMigration();
    return prepared;
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.migrations_started")
      .Increment();
  return Status::Ok();
}

Status ServeHarness::Readvise() {
  obs::Span span("evolve.readvise", "evolve");
  for (const auto& [name, weight] : tracker_->estimate()) {
    NOSE_RETURN_IF_ERROR(
        env_.workload->SetWeight(name, evolve::kObservedMix, weight));
  }
  MigrationRecord record;
  record.at_phase = phase_;
  return AdviseAndMigrate(evolve::kObservedMix, std::move(record));
}

bool ServeHarness::MigrationInFlight() const {
  if (migration_ == nullptr) return false;
  const MigrationPhase phase = migration_->phase();
  return phase != MigrationPhase::kDone && phase != MigrationPhase::kFailed;
}

Status ServeHarness::StepMigration() {
  StatusOr<bool> cut = migration_->Step(&log_, this);
  if (!cut.ok()) {
    // Stop routing so drivers do not keep feeding a dead migration.
    log_.StopDualWrites();
    return cut.status();
  }
  return *cut ? Cutover() : Status::Ok();
}

Status ServeHarness::StepToCutover() {
  while (MigrationInFlight()) NOSE_RETURN_IF_ERROR(StepMigration());
  return Status::Ok();
}

std::shared_ptr<Generation> ServeHarness::Activate(
    std::shared_ptr<Generation> gen, const std::string& mix) {
  std::shared_ptr<Generation> old;
  {
    std::lock_guard<std::mutex> lock(gen_mu_);
    old = std::exchange(active_, std::move(gen));
  }
  if (tracker_ != nullptr) {
    std::map<std::string, double> weights;
    for (const auto& [entry, weight] : env_.workload->EntriesIn(mix)) {
      weights[entry->name] = weight;
    }
    tracker_->SetAdvised(weights);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("evolve.invariant_checks").Increment();
  if (const size_t unavailable = Unavailable()) {
    invariant_violations_ += unavailable;
    reg.GetCounter("evolve.invariant_violations").Add(unavailable);
  }
  return old;
}

Status ServeHarness::Cutover() {
  obs::Span span("evolve.cutover", "evolve");
  std::shared_ptr<Generation> old =
      Activate(std::move(pending_), mig_record_.to_mix);
  // The epoch barrier: wait out in-flight transactions still holding the
  // old generation (they keep dual-writing, so nothing is lost). Only then
  // stop dual writes and drop the old families.
  while (old.use_count() > 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  log_.StopDualWrites();
  migration_->FinishCutover();

  const StoreStats before_drop = store_->stats();
  for (const std::string& name : mig_plan_->drop_names) {
    NOSE_RETURN_IF_ERROR(store_->DropColumnFamily(name));
  }
  const StoreStats after_drop = store_->stats();
  mig_record_.rows_dropped = after_drop.rows_dropped - before_drop.rows_dropped;
  mig_record_.bytes_dropped =
      after_drop.bytes_dropped - before_drop.bytes_dropped;
  mig_record_.finished_at_transaction = transactions_.load();
  mig_record_.progress = migration_->progress();
  mig_record_.wall_seconds = mig_wall_.ElapsedSeconds();
  report_.migrations.push_back(mig_record_);
  bucket_.store(2, std::memory_order_relaxed);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("evolve.migrations_completed").Increment();
  reg.GetGauge("evolve.generation")
      .Set(static_cast<double>(report_.migrations.size()));
  return Status::Ok();
}

void ServeHarness::AbortMigration() {
  log_.StopDualWrites();
  mig_record_.aborted = true;
  mig_record_.finished_at_transaction = transactions_.load();
  mig_record_.progress = migration_->progress();
  mig_record_.wall_seconds = mig_wall_.ElapsedSeconds();
  report_.migrations.push_back(mig_record_);
  // Tear out any half-built column families so the store returns to the
  // pre-migration catalog.
  for (size_t i : mig_plan_->build_indices) {
    const std::string& name = pending_->named->names()[i];
    if (store_->HasColumnFamily(name)) (void)store_->DropColumnFamily(name);
  }
  migration_.reset();
  mig_plan_.reset();
  pending_.reset();
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.migrations_aborted")
      .Increment();
}

size_t ServeHarness::Unavailable() const {
  const Generation& gen = *active_;
  auto live = [&](CfId cf_id, const ColumnFamily* cf) {
    const std::string* name =
        cf_id != kInvalidCfId ? gen.named->NameOfId(cf_id) : nullptr;
    if (name == nullptr) name = gen.named->NameOf(*cf);
    return name != nullptr && store_->HasColumnFamily(*name);
  };
  auto servable = [&](const QueryPlan& plan) {
    return std::all_of(plan.steps.begin(), plan.steps.end(),
                       [&](const PlanStep& s) { return live(s.cf_id, s.cf); });
  };
  std::set<std::string> statements;
  for (const auto& entry : env_.phase_samplers[phase_].entries()) {
    statements.insert(entry.tx->statements.begin(),
                      entry.tx->statements.end());
  }
  size_t unavailable = 0;
  for (const std::string& stmt : statements) {
    bool ok = false;
    if (env_.workload->FindEntry(stmt)->IsQuery()) {
      auto it = gen.query_plans.find(stmt);
      ok = it != gen.query_plans.end() && servable(it->second);
    } else if (auto it = gen.update_plans.find(stmt);
               it != gen.update_plans.end()) {
      ok = std::all_of(
          it->second.parts.begin(), it->second.parts.end(),
          [&](const UpdatePlanPart& part) {
            return live(part.cf_id, part.cf) &&
                   std::all_of(part.support_plans.begin(),
                               part.support_plans.end(), servable);
          });
    }
    if (!ok) ++unavailable;
  }
  return unavailable;
}

Status ServeHarness::ExecuteTransaction(Stream& stream,
                                        const rubis::Transaction& tx,
                                        size_t* statements) {
  std::shared_ptr<Generation> gen;
  {
    std::lock_guard<std::mutex> lock(gen_mu_);
    gen = active_;
  }
  PlanExecutor::Params params;
  for (const std::string& stmt : tx.statements) {
    stream.params->AddStatementParams(*env_.workload->FindEntry(stmt),
                                      &params);
  }
  for (const std::string& stmt : tx.statements) {
    if (env_.workload->FindEntry(stmt)->IsQuery()) {
      auto it = gen->query_plans.find(stmt);
      if (it == gen->query_plans.end()) {
        ++invariant_violations_;
        return Status::NotFound("no active plan for query " + stmt);
      }
      NOSE_RETURN_IF_ERROR(
          gen->executor->ExecuteQuery(it->second, params).status());
      log_.AddQuery({stmt, params});
    } else {
      auto it = gen->update_plans.find(stmt);
      if (it == gen->update_plans.end()) {
        ++invariant_violations_;
        return Status::NotFound("no active plan for update " + stmt);
      }
      NOSE_RETURN_IF_ERROR(gen->executor->ExecuteUpdate(it->second, params));
      if (evolve::MigrationExecutor* dual =
              log_.AddUpdate({stmt, params}, gen->executor.get())) {
        NOSE_RETURN_IF_ERROR(dual->OnUpdate({stmt, params}));
      }
    }
    if (tracker_ != nullptr) tracker_->Record(stmt);
    ++*statements;
  }
  return Status::Ok();
}

Status ServeHarness::EndTransaction() {
  ++transactions_;
  if (tracker_ != nullptr) report_.last_drift = tracker_->drift();
  if (MigrationInFlight()) return StepMigration();
  if (trigger_ == Trigger::kDrift && tracker_->ShouldReadvise()) {
    return Readvise();
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

void ServeHarness::Pause() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  pause_requested_.store(true, std::memory_order_relaxed);
  // The caller is a driver at its transaction boundary, or no driver runs.
  pause_cv_.wait(lock, [&] { return parked_ + 1 >= running_drivers_; });
}

void ServeHarness::Resume() {
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
      const int bucket = bucket_.load(std::memory_order_relaxed);
      const double before = RecordStore::ThreadChargeMs();
      Status s_txn = ExecuteTransaction(stream, tx, statements);
      if (s_txn.ok()) {
        samples->push_back({bucket, RecordStore::ThreadChargeMs() - before});
        --stream.remaining;
        ++executed;
        s_txn = EndTransaction();
      }
      if (!s_txn.ok()) {
        *status = s_txn;
        return;
      }
    }
  }
  *status = Status::Ok();
}

Status ServeHarness::RunPhase() {
  const evolve::DriftPhase& drift_phase = scenario_.phases[phase_];
  const rubis::TransactionSampler& sampler = env_.phase_samplers[phase_];

  // Deal this phase's transactions across the fixed streams.
  const size_t streams = streams_.size();
  for (size_t s = 0; s < streams; ++s) {
    streams_[s].remaining = drift_phase.transactions / streams +
                            (s < drift_phase.transactions % streams ? 1 : 0);
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
  // A migration never outlives its phase.
  return StepToCutover();
}

Status ServeHarness::Run() {
  obs::Span span("serve.run", "serve");
  Stopwatch wall;
  Status status = Status::Ok();
  for (size_t p = 0; p < scenario_.phases.size() && status.ok(); ++p) {
    phase_ = p;
    status = PrepareBoundary();
    if (status.ok()) status = RunPhase();
  }
  if (migration_ != nullptr &&
      migration_->phase() == MigrationPhase::kFailed) {
    AbortMigration();
  }
  report_.transactions = transactions_.load();
  report_.invariant_violations = invariant_violations_.load();
  report_.before = Quantiles(latencies_[0]);
  report_.during = Quantiles(latencies_[1]);
  report_.after = Quantiles(latencies_[2]);
  report_.store = store_->stats();
  report_.store_digest = store_->ContentDigest();
  report_.wall_seconds = wall.ElapsedSeconds();
  return status;
}

size_t ServeReport::incremental_readvises() const {
  return static_cast<size_t>(std::count_if(
      advises.begin() + static_cast<ptrdiff_t>(advises.size() - readvises()),
      advises.end(),
      [](const AdviseRecord& a) { return a.reuse != PoolReuse::kCold; }));
}

std::string ServeReport::ToString() const {
  std::ostringstream out;
  out << (trigger == Trigger::kPhaseBoundary ? "serve" : "evolve") << ": "
      << transactions << " transactions / " << statements
      << " statements on " << threads << " threads (" << streams
      << " streams), " << wall_seconds << " s wall\n";
  out << "latency (simulated ms per transaction):\n";
  PrintQuantiles(out, "before migration", before);
  PrintQuantiles(out, "during migration", during);
  PrintQuantiles(out, "after cutover   ", after);
  out << "re-advises: " << incremental_readvises() << " incremental, "
      << readvises() - incremental_readvises() << " cold, "
      << no_op_readvises << " no-op\n";
  out << "advises: " << advises.size() << "\n";
  for (const AdviseRecord& a : advises) {
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
  if (trigger != Trigger::kPhaseBoundary) {
    out << "last drift: " << last_drift << "\n";
  }
  out << "invariant violations: " << invariant_violations << "\n";
  out << "migrations: " << migrations.size() << "\n";
  for (size_t i = 0; i < migrations.size(); ++i) {
    const MigrationRecord& m = migrations[i];
    const evolve::MigrationProgress& p = m.progress;
    out << "  [" << i << "] phase " << m.at_phase << " -> " << m.to_mix
        << ", txn " << m.started_at_transaction << " -> "
        << m.finished_at_transaction << (m.aborted ? " ABORTED" : "") << ": "
        << m.builds << " build / " << m.keeps << " keep / " << m.drops
        << " drop, backfilled " << p.rows_backfilled << " rows, caught up "
        << p.catchup_updates << " updates, " << p.dual_writes
        << " dual writes, verified " << p.verify_queries << " queries ("
        << p.verify_mismatches << " mismatches, " << p.verify_retries
        << " retries" << (p.quiesced_verify ? ", quiesced" : "")
        << "), reclaimed " << m.rows_dropped << " rows / " << m.bytes_dropped
        << " bytes, est " << m.est_total_cost_ms << " ms, actual "
        << p.simulated_ms << " ms, " << m.wall_seconds << " s wall";
    if (m.planned) {
      out << ", planned -> window " << m.to_window;
    } else if (trigger == Trigger::kDrift) {
      out << ", drift " << m.drift_at_trigger;
    }
    out << "\n";
  }
  out << "store: " << store.gets << " gets / " << store.puts << " puts / "
      << store.deletes << " deletes, " << store.simulated_ms
      << " simulated ms, digest " << store_digest << "\n";
  return out.str();
}

}  // namespace nose::serve
