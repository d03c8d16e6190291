// End-to-end benchmark of the NoSE advisor and its serving layer.
//
//   nose_perf --workload NAME --seed N --seconds S --trace 0|1
//
// Progress goes to stderr; the last line of stdout is one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Workloads (see README.md for why each one exists):
//
//   advise_rubis    cold Advisor::Recommend of the RUBiS bidding mix, with
//                   seed-perturbed statement weights
//   serve_bidding   closed-loop RUBiS bidding transactions (reads and
//                   writes) on the advised schema in the striped RecordStore
//   serve_browsing  the same for the read-only browsing mix
//   serve_migrate   ServeHarness runs of a bidding -> browsing drift, each
//                   re-advising and migrating live under load
//
// Every workload first deploys RUBiS (fixed data, the schema advised for
// its mix and a normalized-schema reference, each loaded into a store);
// that deployment is the set-up, timed again in throwaway copies during
// the run, and the reference is what its checks compare against.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "analysis/invariants.h"
#include "cost/cardinality.h"
#include "evolve/scenario.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "obs/metrics.h"
#include "planner/plan_space.h"
#include "planner/update_planner.h"
#include "rubis/datagen.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "schemas/normalized.h"
#include "serve/serve.h"
#include "store/record_store.h"
#include "util/rng.h"

namespace nose::perf {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fixed shape of every run; only the seed varies the inputs.
constexpr double kRubisScale = 0.25;   // rubis::ScaleFor factor
constexpr double kMigrateScale = 0.05;  // each migrate run regenerates it
constexpr uint64_t kDataSeed = 42;      // the deployed data is not an input
constexpr size_t kAdviseThreads = 2;
constexpr size_t kServeThreads = 2;
constexpr size_t kControlThreads = 4;  // any count gives the same contents
constexpr size_t kStreams = 8;
constexpr size_t kStripes = 16;
constexpr size_t kSetupSamples = 9;
constexpr double kSetupSeconds = 3.0;  // deployment time to aim for per run
constexpr size_t kCheckSamples = 8;  // parameter draws per query checked
constexpr size_t kMigrateDefaultTxns = 2000;
constexpr size_t kMigrateBrowsingTxns = 6000;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "FATAL [%s]: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

template <typename T>
T Must(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what, value.status());
  return std::move(value).value();
}

/// Busy time per layer, summed over the calls this program makes into it
/// during the whole run (set-up, measured window and checks).
struct Layers {
  double enumerate_s = 0.0;
  double cost_s = 0.0;
  double bip_build_s = 0.0;
  double bip_solve_s = 0.0;
  double load_s = 0.0;
  double exec_s = 0.0;
};

Layers g_layers;  // main thread only; serving workers merge at join

AdvisorOptions AdviseOptions() {
  AdvisorOptions options;
  options.num_threads = kAdviseThreads;
  return options;
}

StatusOr<Recommendation> Advise(const Workload& workload,
                                const std::string& mix) {
  StatusOr<Recommendation> rec =
      Advisor(AdviseOptions()).Recommend(workload, mix);
  if (rec.ok()) {
    g_layers.enumerate_s += rec->timing.enumeration_seconds;
    g_layers.cost_s += rec->timing.cost_calculation_seconds;
    g_layers.bip_build_s += rec->timing.bip_construction_seconds;
    g_layers.bip_solve_s += rec->timing.bip_solve_seconds;
  }
  return rec;
}

/// The invariant audit `nose advise --verify` runs: every statement of the
/// mix has a valid plan and the plan costs reproduce the objective.
Status Audit(const Workload& workload, const std::string& mix,
             const Recommendation& rec) {
  RecommendationView view;
  view.schema = &rec.schema;
  view.query_plans = &rec.query_plans;
  view.update_plans = &rec.update_plans;
  view.objective = rec.objective;
  view.solve_proven = rec.solve_proven;
  return VerifyRecommendation(workload, mix, view);
}

/// A schema loaded into its own store, with one plan per statement.
struct Deployment {
  std::unique_ptr<Recommendation> rec;  // owns the pool advised plans use
  Schema schema;
  std::map<std::string, QueryPlan> query_plans;
  std::map<std::string, UpdatePlan> update_plans;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<PlanExecutor> executor;
};

void Load(const Dataset& data, Deployment* dep) {
  dep->store = std::make_unique<RecordStore>(CostParams(), kStripes);
  const auto start = Clock::now();
  Must(LoadSchema(data, dep->schema, dep->store.get()), "load");
  g_layers.load_s += SecondsSince(start);
  dep->executor =
      std::make_unique<PlanExecutor>(dep->store.get(), &dep->schema);
}

struct RubisEnv {
  std::unique_ptr<EntityGraph> graph;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Deployment> nose;        // advised for the workload's mix
  std::unique_ptr<Deployment> normalized;  // reference answers
};

std::unique_ptr<Deployment> DeployAdvised(const Dataset& data,
                                          Recommendation rec) {
  auto dep = std::make_unique<Deployment>();
  dep->rec = std::make_unique<Recommendation>(std::move(rec));
  dep->schema = dep->rec->schema;
  for (const auto& [name, plan] : dep->rec->query_plans) {
    dep->query_plans.emplace(name, plan);
  }
  for (const auto& [name, plan] : dep->rec->update_plans) {
    dep->update_plans.emplace(name, plan);
  }
  Load(data, dep.get());
  return dep;
}

std::unique_ptr<Deployment> DeployNormalized(const RubisEnv& env,
                                             const std::string& mix) {
  auto dep = std::make_unique<Deployment>();
  dep->schema =
      Must(NormalizedSchema(*env.graph, *env.workload, mix), "normalized");
  CostModel cost;
  CardinalityEstimator estimator(env.graph.get(), &cost.params());
  QueryPlanner planner(&cost, &estimator);
  for (const auto& [entry, weight] : env.workload->EntriesIn(mix)) {
    if (entry->IsQuery()) {
      dep->query_plans.emplace(
          entry->name, Must(planner.PlanForSchema(
                                entry->query(), dep->schema.column_families()),
                            "normalized/" + entry->name));
    } else {
      dep->update_plans.emplace(
          entry->name,
          Must(PlanUpdateForSchema(entry->update(), dep->schema, planner,
                                   estimator, cost),
               "normalized/" + entry->name));
    }
  }
  Load(*env.data, dep.get());
  return dep;
}

/// Generates the RUBiS data, advises `mix` and loads both the advised and
/// the normalized schema (whose bidding statements cover every mix).
std::unique_ptr<RubisEnv> DeployRubis(const std::string& mix) {
  auto env = std::make_unique<RubisEnv>();
  const rubis::ModelScale scale = rubis::ScaleFor(kRubisScale);
  env->graph = Must(rubis::MakeGraph(scale), "rubis model");
  env->data = std::make_unique<Dataset>(
      rubis::GenerateData(env->graph.get(), scale, kDataSeed));
  env->workload = Must(rubis::MakeWorkload(*env->graph), "rubis workload");
  env->nose =
      DeployAdvised(*env->data, Must(Advise(*env->workload, mix), "advise"));
  env->normalized = DeployNormalized(*env, rubis::kBiddingMix);
  return env;
}

/// Times RUBiS deployments. The first is the one the workload runs on; the
/// others are deployed and thrown away at evenly spaced points of the
/// measured window (teardown is not timed). Deployment j goes into sample
/// j mod kSetupSamples, so every sample is the mean of deployments spread
/// over the whole run, and setup_s is the median of the samples.
///
/// On a shared VM the host flips between fast and slow phases lasting about
/// a second (a fixed CPU loop swings ±20%), so single deployment times are
/// bimodal and a median of them jumps between the modes from run to run;
/// the mean of a sample follows the share of slow phases smoothly.
class SetupTimer {
 public:
  SetupTimer(std::string mix, double window_s)
      : mix_(std::move(mix)), window_s_(window_s) {}

  /// The first deployment; its time sets how many the window holds, about
  /// kSetupSeconds of them in all.
  std::unique_ptr<RubisEnv> Deploy() {
    std::unique_ptr<RubisEnv> env = TimedDeploy();
    const double per_sample =
        std::round(kSetupSeconds / (kSetupSamples * times_s_.front()));
    per_sample_ = std::max<size_t>(2, static_cast<size_t>(per_sample));
    return env;
  }

  size_t deployments() const { return kSetupSamples * per_sample_; }

  /// Takes every deployment due once `elapsed_s` of the window has passed.
  void DeployDue(double elapsed_s) {
    while (times_s_.size() < deployments() &&
           elapsed_s >= SliceEnd(times_s_.size() - 1)) {
      TimedDeploy();
    }
  }

  /// End of slice `i` when the window is cut into deployments() equal
  /// slices; deployment k + 1 is due at the end of slice k.
  double SliceEnd(size_t i) const {
    return window_s_ * static_cast<double>(i + 1) /
           static_cast<double>(deployments());
  }

  double Median() {
    DeployDue(window_s_);  // a window that ended early still owes some
    std::vector<double> means(kSetupSamples, 0.0);
    for (size_t j = 0; j < times_s_.size(); ++j) {
      means[j % kSetupSamples] += times_s_[j] / per_sample_;
    }
    std::sort(means.begin(), means.end());
    std::fprintf(stderr, "set-up: %zu deployments, sample means %.4f-%.4f s\n",
                 times_s_.size(), means.front(), means.back());
    return means[kSetupSamples / 2];
  }

 private:
  std::unique_ptr<RubisEnv> TimedDeploy() {
    const auto start = Clock::now();
    std::unique_ptr<RubisEnv> env = DeployRubis(mix_);
    times_s_.push_back(SecondsSince(start));
    return env;
  }

  std::string mix_;
  double window_s_;
  size_t per_sample_ = 2;
  std::vector<double> times_s_;  // one per deployment, in order
};

StatusOr<std::vector<ValueTuple>> TimedQuery(
    Deployment& dep, const QueryPlan& plan,
    const PlanExecutor::Params& params) {
  const auto start = Clock::now();
  auto rows = dep.executor->ExecuteQuery(plan, params);
  g_layers.exec_s += SecondsSince(start);
  return rows;
}

/// Runs kCheckSamples parameter draws of every query of `mix` in both
/// deployments and compares the answers as sets.
bool AnswersMatch(const RubisEnv& env, Deployment& dep, Deployment& ref,
                  const std::string& mix, uint64_t seed) {
  rubis::ParamGenerator params(env.data.get(), seed);
  for (const auto& [entry, weight] : env.workload->EntriesIn(mix)) {
    if (!entry->IsQuery()) continue;
    auto a = dep.query_plans.find(entry->name);
    auto b = ref.query_plans.find(entry->name);
    if (a == dep.query_plans.end() || b == ref.query_plans.end()) {
      Die("check", Status::NotFound("no plan for " + entry->name));
    }
    for (size_t k = 0; k < kCheckSamples; ++k) {
      const PlanExecutor::Params p = params.ForStatement(*entry);
      auto got = Must(TimedQuery(dep, a->second, p), "query");
      auto want = Must(TimedQuery(ref, b->second, p), "query");
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        std::fprintf(stderr, "check: %s answers differ from the reference\n",
                     entry->name.c_str());
        return false;
      }
    }
  }
  return true;
}

/// What one measured window produced.
struct Window {
  std::vector<double> latencies_s;  // one per completed operation
  double wall_s = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
};

// --- advise_rubis -----------------------------------------------------------

/// Adds a copy of the bidding mix named `name` with every statement weight
/// scaled by a factor drawn from `rng` in [1/1.05, 1.05].
void AddPerturbedMix(Workload* workload, const std::string& name, Rng* rng) {
  for (const WorkloadEntry& entry : workload->entries()) {
    const double weight = entry.WeightIn(rubis::kBiddingMix);
    if (weight <= 0.0) continue;
    const double factor =
        std::exp(std::log(1.05) * (2.0 * rng->NextDouble() - 1.0));
    Must(workload->SetWeight(entry.name, name, weight * factor), "mix");
  }
}

/// Each operation is one cold Recommend of a fresh perturbation of the
/// bidding mix. The perturbation is small because solve time swings with
/// the weights (a 25% perturbation spread run medians by 15-25%); the
/// other RUBiS mixes are left out because they would make the latency
/// multimodal (browsing solves ten times faster, the write-scaled mixes
/// four times slower).
Window RunAdviseRubis(RubisEnv& env, uint64_t seed, double seconds,
                      SetupTimer& setup) {
  Rng rng(seed ^ 0x5eedf00dull);
  Window w;
  std::unique_ptr<Recommendation> last;
  double busy_s = 0.0;
  for (; busy_s < seconds; setup.DeployDue(busy_s)) {
    const std::string mix =
        std::string(rubis::kBiddingMix) + "~" + std::to_string(w.attempted);
    AddPerturbedMix(env.workload.get(), mix, &rng);
    ++w.attempted;
    const auto start = Clock::now();
    StatusOr<Recommendation> rec = Advise(*env.workload, mix);
    const double op_s = SecondsSince(start);
    busy_s += op_s;
    if (!rec.ok()) {
      std::fprintf(stderr, "advise %s: %s\n", mix.c_str(),
                   rec.status().ToString().c_str());
      ++w.failed;
      continue;
    }
    w.latencies_s.push_back(op_s);
    Status audit = Audit(*env.workload, mix, *rec);
    if (!audit.ok()) {
      std::fprintf(stderr, "audit %s: %s\n", mix.c_str(),
                   audit.ToString().c_str());
      w.correct = false;
    }
    last = std::make_unique<Recommendation>(std::move(rec).value());
  }
  w.wall_s = busy_s;
  // The last advised schema answers like the reference.
  if (last != nullptr) {
    auto dep = DeployAdvised(*env.data, std::move(*last));
    if (!AnswersMatch(env, *dep, *env.normalized, rubis::kBiddingMix,
                      seed + 1)) {
      w.correct = false;
    }
  }
  return w;
}

// --- serve_bidding, serve_browsing -------------------------------------------

/// One logical client: a sharded parameter generator (its writes never
/// touch another stream's records, so streams commute in the store) and
/// its own transaction sampler.
struct Stream {
  std::unique_ptr<rubis::ParamGenerator> params;
  Rng rng{0};
  size_t done = 0;
};

std::vector<Stream> MakeStreams(const Dataset* data, uint64_t seed) {
  std::vector<Stream> streams(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    streams[s].params =
        std::make_unique<rubis::ParamGenerator>(data, seed, s, kStreams);
    streams[s].rng = Rng(seed * 0x9e3779b97f4a7c15ull + s + 1);
  }
  return streams;
}

/// Cumulative transaction weights of `mix` (bidding or browsing).
std::vector<double> MixCumulative(const std::string& mix) {
  std::vector<double> cumulative;
  double total = 0.0;
  for (const rubis::Transaction& tx : rubis::Transactions()) {
    total +=
        mix == rubis::kBrowsingMix ? tx.browsing_weight : tx.bidding_weight;
    cumulative.push_back(total);
  }
  return cumulative;
}

/// Samples a transaction from `stream` and executes it; adds the execution
/// time to `*exec_s` when it is non-null.
Status ServeOne(const Workload& workload, Deployment& dep, Stream& stream,
                const std::vector<double>& cumulative, double* exec_s) {
  const std::vector<rubis::Transaction>& txs = rubis::Transactions();
  const double pick = stream.rng.NextDouble() * cumulative.back();
  const size_t chosen = std::min<size_t>(
      txs.size() - 1,
      std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
          cumulative.begin());
  const rubis::Transaction& tx = txs[chosen];
  PlanExecutor::Params params;
  for (const std::string& stmt : tx.statements) {
    stream.params->AddStatementParams(*workload.FindEntry(stmt), &params);
  }
  const auto start = exec_s != nullptr ? Clock::now() : Clock::time_point();
  for (const std::string& stmt : tx.statements) {
    if (workload.FindEntry(stmt)->IsQuery()) {
      auto rows = dep.executor->ExecuteQuery(dep.query_plans.at(stmt), params);
      if (!rows.ok()) return rows.status();
    } else {
      NOSE_RETURN_IF_ERROR(
          dep.executor->ExecuteUpdate(dep.update_plans.at(stmt), params));
    }
  }
  if (exec_s != nullptr) *exec_s += SecondsSince(start);
  ++stream.done;
  return Status::Ok();
}

/// Closed loop: `threads` workers, worker t driving streams t, t +
/// threads, ... round robin, while `more(stream index)` holds.
template <typename More>
Window Drive(const RubisEnv& env, Deployment& dep, std::vector<Stream>& streams,
             const std::vector<double>& cumulative, size_t threads,
             bool trace, More more) {
  struct Worker {
    std::vector<double> latencies_s;
    size_t failed = 0;
    double exec_s = 0.0;
  };
  std::vector<Worker> workers(threads);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Worker& me = workers[t];
      for (bool busy = true; busy;) {
        busy = false;
        for (size_t s = t; s < streams.size(); s += threads) {
          if (!more(s)) continue;
          busy = true;
          const auto op_start = Clock::now();
          Status status = ServeOne(*env.workload, dep, streams[s], cumulative,
                                   trace ? &me.exec_s : nullptr);
          if (status.ok()) {
            me.latencies_s.push_back(SecondsSince(op_start));
          } else {
            std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
            ++me.failed;
            busy = false;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  Window w;
  w.wall_s = SecondsSince(start);
  for (Worker& me : workers) {
    w.latencies_s.insert(w.latencies_s.end(), me.latencies_s.begin(),
                         me.latencies_s.end());
    w.failed += me.failed;
    g_layers.exec_s += me.exec_s;
  }
  w.attempted = w.latencies_s.size() + w.failed;
  w.correct = w.failed == 0;
  return w;
}

Window RunServe(RubisEnv& env, const std::string& mix, uint64_t seed,
                bool trace, double seconds, SetupTimer& setup) {
  const std::vector<double> cumulative = MixCumulative(mix);
  std::vector<Stream> streams = MakeStreams(env.data.get(), seed);
  const uint64_t digest_before = env.nose->store->ContentDigest();
  // The window is served in slices with a set-up sample between them; the
  // streams carry over, so the slices form one run.
  Window w;
  for (size_t i = 0; i < setup.deployments(); ++i) {
    const double slice_s =
        setup.SliceEnd(i) - (i == 0 ? 0.0 : setup.SliceEnd(i - 1));
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(slice_s));
    Window slice =
        Drive(env, *env.nose, streams, cumulative, kServeThreads, trace,
              [&](size_t) { return Clock::now() < deadline; });
    w.latencies_s.insert(w.latencies_s.end(), slice.latencies_s.begin(),
                         slice.latencies_s.end());
    w.wall_s += slice.wall_s;
    w.attempted += slice.attempted;
    w.failed += slice.failed;
    w.correct = w.correct && slice.correct;
    if (!slice.correct) break;
    setup.DeployDue(setup.SliceEnd(i));
  }

  if (mix == rubis::kBrowsingMix) {
    // Read-only traffic: the store is untouched and still answers like
    // the reference.
    if (env.nose->store->ContentDigest() != digest_before) {
      std::fprintf(stderr, "check: read-only traffic changed the store\n");
      w.correct = false;
    }
    if (!AnswersMatch(env, *env.nose, *env.normalized, mix, seed + 1)) {
      w.correct = false;
    }
    return w;
  }
  // Control: replay each stream's transactions on a freshly loaded copy.
  // Streams commute, so the final contents must be identical.
  Deployment control;
  control.schema = env.nose->schema;
  control.query_plans = env.nose->query_plans;
  control.update_plans = env.nose->update_plans;
  Load(*env.data, &control);
  std::vector<Stream> replay = MakeStreams(env.data.get(), seed);
  Window again = Drive(env, control, replay, cumulative, kControlThreads,
                       trace, [&](size_t s) {
                         return replay[s].done < streams[s].done;
                       });
  if (!again.correct ||
      control.store->ContentDigest() != env.nose->store->ContentDigest()) {
    std::fprintf(stderr, "check: served store diverged from the control\n");
    w.correct = false;
  }
  return w;
}

// --- serve_migrate ----------------------------------------------------------

evolve::DriftScenario MigrateScenario(uint64_t seed) {
  const std::string text =
      "workload rubis\n"
      "scale " + std::to_string(kMigrateScale) + "\n"
      "seed " + std::to_string(seed) + "\n"
      "chunk-rows 256\ncatchup-batch 64\nverify-samples 8\nquery-log 128\n"
      "phase default " + std::to_string(kMigrateDefaultTxns) + "\n"
      "phase browsing " + std::to_string(kMigrateBrowsingTxns) + "\n";
  evolve::DriftScenario scenario =
      Must(evolve::ParseScenario(text, "serve_migrate"), "scenario");
  scenario.options.advisor.num_threads = kAdviseThreads;
  return scenario;
}

StatusOr<serve::ServeReport> ServeEpisode(const evolve::DriftScenario& scenario,
                                          size_t threads, double* run_s) {
  serve::ServeOptions options;
  options.threads = threads;
  options.streams = kStreams;
  options.store_stripes = kStripes;
  options.migration_threads = 1;
  NOSE_ASSIGN_OR_RETURN(auto harness,
                        serve::ServeHarness::Create(scenario, options));
  const auto start = Clock::now();
  NOSE_RETURN_IF_ERROR(harness->Run());
  *run_s = SecondsSince(start);
  return harness->report();
}

Window RunServeMigrate(uint64_t seed, double seconds, SetupTimer& setup) {
  const evolve::DriftScenario scenario = MigrateScenario(seed);
  Window w;
  uint64_t digest = 0;
  double busy_s = 0.0;
  for (; busy_s < seconds; setup.DeployDue(busy_s)) {
    ++w.attempted;
    double run_s = 0.0;
    StatusOr<serve::ServeReport> report =
        ServeEpisode(scenario, kServeThreads, &run_s);
    if (!report.ok()) {
      std::fprintf(stderr, "serve: %s\n", report.status().ToString().c_str());
      ++w.failed;
      w.correct = false;
      break;
    }
    busy_s += run_s;
    w.latencies_s.push_back(run_s);
    if (report->migrations.size() != 1) {
      std::fprintf(stderr, "check: %zu migrations, expected 1\n",
                   report->migrations.size());
      w.correct = false;
    }
    if (w.latencies_s.size() == 1) digest = report->store_digest;
    if (report->store_digest != digest) {
      std::fprintf(stderr, "check: store digest differs between runs\n");
      w.correct = false;
    }
  }
  w.wall_s = busy_s;
  // Single-threaded control: same streams, so the same final contents.
  double control_s = 0.0;
  StatusOr<serve::ServeReport> control = ServeEpisode(scenario, 1, &control_s);
  if (!control.ok() || control->store_digest != digest) {
    std::fprintf(stderr, "check: single-threaded control diverged\n");
    w.correct = false;
  }
  return w;
}

// --- reporting --------------------------------------------------------------

/// Nearest-rank quantile of sorted `v`.
double Quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

class JsonMetrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0' && *value != '\0';
      if (!have_seed) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->workload.empty() &&
         args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nose_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::string& name = args.workload;
  if (name != "advise_rubis" && name != "serve_bidding" &&
      name != "serve_browsing" && name != "serve_migrate") {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const std::string mix =
      name == "serve_browsing" ? rubis::kBrowsingMix : rubis::kBiddingMix;
  SetupTimer setup(mix, args.seconds);
  std::unique_ptr<RubisEnv> env = setup.Deploy();
  bool correct =
      AnswersMatch(*env, *env->nose, *env->normalized, mix, args.seed + 2);

  Window w;
  if (name == "advise_rubis") {
    w = RunAdviseRubis(*env, args.seed, args.seconds, setup);
  } else if (name == "serve_bidding" || name == "serve_browsing") {
    w = RunServe(*env, mix, args.seed, args.trace, args.seconds, setup);
  } else {
    w = RunServeMigrate(args.seed, args.seconds, setup);
  }
  const double setup_s = setup.Median();
  correct = correct && w.correct && !w.latencies_s.empty();

  std::vector<double> sorted = w.latencies_s;
  std::sort(sorted.begin(), sorted.end());
  const double ops = static_cast<double>(sorted.size());
  JsonMetrics metrics;
  if (!args.trace) {
    metrics.Add("op_p50_ms", Quantile(sorted, 0.50) * 1e3, "ms");
    metrics.Add("op_p90_ms", Quantile(sorted, 0.90) * 1e3, "ms");
    metrics.Add("ops_per_s", w.wall_s > 0.0 ? ops / w.wall_s : 0.0, "1/s");
    metrics.Add("setup_s", setup_s, "s");
  } else {
    // The registry starts at zero with the process: these are run totals.
    std::map<std::string, uint64_t> counters =
        obs::MetricsRegistry::Global().CounterValues();
    auto total = [&](const char* counter) {
      return static_cast<double>(counters[counter]);
    };
    metrics.Add("traced_op_p50_ms", Quantile(sorted, 0.50) * 1e3, "ms");
    metrics.Add("ops", ops, "count");
    metrics.Add("enumerate_ms", g_layers.enumerate_s * 1e3, "ms");
    metrics.Add("cost_ms", g_layers.cost_s * 1e3, "ms");
    metrics.Add("bip_build_ms", g_layers.bip_build_s * 1e3, "ms");
    metrics.Add("bip_solve_ms", g_layers.bip_solve_s * 1e3, "ms");
    metrics.Add("bb_nodes", total("solver.bb_nodes"), "count");
    metrics.Add("lp_solves", total("solver.lp_solves"), "count");
    metrics.Add("load_ms", g_layers.load_s * 1e3, "ms");
    metrics.Add("exec_ms", g_layers.exec_s * 1e3, "ms");
    metrics.Add("executor_queries", total("executor.queries"), "count");
    metrics.Add("executor_updates", total("executor.updates"), "count");
    metrics.Add("store_gets", total("store.gets"), "count");
    metrics.Add("store_rows_read", total("store.rows_read"), "count");
    metrics.Add("store_puts", total("store.puts"), "count");
    metrics.Add("backfill_rows", total("evolve.backfill_rows"), "count");
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<size_t>(1, w.attempted),
              w.failed, metrics.body().c_str());
  return 0;
}

}  // namespace
}  // namespace nose::perf

int main(int argc, char** argv) { return nose::perf::Main(argc, argv); }
