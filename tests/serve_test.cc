// The online serving layer: concurrent drivers over the sharded store,
// live migration under load, and anytime deadline-bounded advising.

#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "evolve/scenario.h"
#include "randwl/random_workload.h"
#include "rubis/datagen.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "serve/serve.h"
#include "store/record_store.h"

namespace nose::serve {
namespace {

evolve::DriftScenario TwoPhaseScenario() {
  auto scenario = evolve::ParseScenario(
      "workload rubis\n"
      "scale 0.02\n"
      "seed 7\n"
      "chunk-rows 64\n"
      "catchup-batch 16\n"
      "query-log 64\n"
      "phase default 160\n"
      "phase browsing 240\n");
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  return *scenario;
}

ServeOptions Options(size_t threads) {
  ServeOptions options;
  options.threads = threads;
  options.streams = 8;
  options.store_stripes = 8;
  options.migration_threads = 2;
  return options;
}

StatusOr<std::unique_ptr<ServeHarness>> RunServe(size_t threads) {
  auto harness = ServeHarness::Create(TwoPhaseScenario(), Options(threads));
  if (!harness.ok()) return harness.status();
  NOSE_RETURN_IF_ERROR((*harness)->Run());
  return harness;
}

// The tentpole invariant: S fixed streams own disjoint written-record
// shards, so the final post-cutover store content is byte-identical at ANY
// driver thread count — 8 concurrent drivers with a live migration racing
// them must land exactly where the single-threaded control does.
TEST(ServeTest, StoreContentIdenticalAcrossThreadCounts) {
  auto control = RunServe(1);
  ASSERT_TRUE(control.ok()) << control.status();
  auto concurrent = RunServe(8);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status();

  const ServeReport& a = (*control)->report();
  const ServeReport& b = (*concurrent)->report();
  EXPECT_NE(a.store_digest, 0u);
  EXPECT_EQ(a.store_digest, b.store_digest);

  // Both runs executed the same logical workload…
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.statements, b.statements);
  // …and both migrated live at the browsing boundary.
  ASSERT_EQ(a.migrations.size(), 1u);
  ASSERT_EQ(b.migrations.size(), 1u);
  EXPECT_GT(b.migrations[0].progress.rows_backfilled, 0u);
  EXPECT_GT(b.migrations[0].rows_dropped, 0u);
}

TEST(ServeTest, ReportsLatencyTimelineAndMigrationRecord) {
  // A third phase after the migration phase: RunPhase joins the migration
  // worker before it returns, so all of phase 2 lands in the "after"
  // bucket however long the migration took under load.
  evolve::DriftScenario scenario = TwoPhaseScenario();
  scenario.phases.push_back({"browsing", 80});
  auto created = ServeHarness::Create(scenario, Options(4));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_TRUE((*created)->Run().ok());
  const ServeReport& report = (*created)->report();

  EXPECT_EQ(report.threads, 4u);
  EXPECT_EQ(report.streams, 8u);
  EXPECT_EQ(report.transactions, 160u + 240u + 80u);
  // Every transaction landed in exactly one latency bucket: phase 0 before
  // any migration, phase 1 during or after it, phase 2 after it.
  EXPECT_EQ(report.before.count, 160u);
  EXPECT_EQ(report.during.count + report.after.count, 240u + 80u);
  EXPECT_GE(report.after.count, 80u);
  EXPECT_GE(report.before.p95_ms, report.before.p50_ms);
  EXPECT_GE(report.before.p99_ms, report.before.p95_ms);
  EXPECT_GE(report.before.max_ms, report.before.p99_ms);

  ASSERT_EQ(report.migrations.size(), 1u);
  const MigrationRecord& m = report.migrations[0];
  EXPECT_EQ(m.at_phase, 1u);
  EXPECT_EQ(m.to_mix, "browsing");
  EXPECT_GT(m.builds, 0u);
  EXPECT_GT(m.drops, 0u);
  EXPECT_GT(m.progress.verify_queries, 0u);
  EXPECT_GT(m.bytes_dropped, 0u);
  EXPECT_GT(m.wall_seconds, 0.0);

  ASSERT_EQ(report.advises.size(), 3u);
  EXPECT_TRUE(report.advises[0].schema_changed);   // initial deployment
  EXPECT_TRUE(report.advises[1].schema_changed);   // browsing migration
  EXPECT_FALSE(report.advises[2].schema_changed);  // browsing again: kept
  // One advising session across the boundaries: browsing is a new
  // statement set, and the third advise finds its group.
  EXPECT_EQ(report.advises[0].reuse, PoolReuse::kCold);
  EXPECT_EQ(report.advises[1].reuse, PoolReuse::kCold);
  EXPECT_EQ(report.advises[2].reuse, PoolReuse::kSameStatements);

  const std::string text = report.ToString();
  EXPECT_NE(text.find("before migration"), std::string::npos);
  EXPECT_NE(text.find("after cutover"), std::string::npos);
  EXPECT_NE(text.find("migrations: 1"), std::string::npos);
}

// The bundled drift scenario: the browsing re-advise enumerates and plans
// its own statement set, and the final store content is the known one.
TEST(ServeTest, BundledScenarioAdvisesBrowsingColdAtTheKnownDigest) {
  auto scenario =
      evolve::LoadScenarioFile(NOSE_WORKLOADS_DIR "/rubis_drift.scenario");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto harness = ServeHarness::Create(*scenario, Options(2));
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  const ServeReport& report = (*harness)->report();
  ASSERT_EQ(report.advises.size(), 2u);
  EXPECT_EQ(report.advises[0].reuse, PoolReuse::kCold);
  EXPECT_EQ(report.advises[1].mix, "browsing");
  EXPECT_EQ(report.advises[1].reuse, PoolReuse::kCold);
  EXPECT_EQ(report.migrations.size(), 1u);
  EXPECT_EQ(report.store_digest, 12556392712640623771ull);
  EXPECT_NE(report.ToString().find("mix browsing: cold in"),
            std::string::npos);
}

// Drivers step the migration at their transaction boundaries, so it
// overlaps traffic even with one driver thread; the final store content is
// still the known one, at any thread count.
TEST(ServeTest, MigrationOverlapsTrafficAtOneThread) {
  auto scenario =
      evolve::LoadScenarioFile(NOSE_WORKLOADS_DIR "/rubis_drift.scenario");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  uint64_t digests[2] = {0, 0};
  const size_t threads[2] = {1, 8};
  for (size_t i = 0; i < 2; ++i) {
    auto harness = ServeHarness::Create(*scenario, Options(threads[i]));
    ASSERT_TRUE(harness.ok()) << harness.status();
    ASSERT_TRUE((*harness)->Run().ok());
    const ServeReport& report = (*harness)->report();
    ASSERT_EQ(report.migrations.size(), 1u) << threads[i];
    if (threads[i] == 1) {
      EXPECT_GT(report.during.count, 0u);
      const MigrationRecord& m = report.migrations[0];
      EXPECT_GT(m.finished_at_transaction, m.started_at_transaction);
    }
    digests[i] = report.store_digest;
  }
  EXPECT_EQ(digests[0], 12556392712640623771ull);
  EXPECT_EQ(digests[0], digests[1]);
}

// A phase whose mix the live generation cannot serve: the bundled
// scenario's settings with a short browsing phase before its default
// phase, so the default phase draws store_bid, which the browsing schema
// has no plan for. The migration to the default schema completes before
// any of that phase's drivers start, at every thread count.
TEST(ServeTest, UnservableMixCutsOverBeforeDriversStart) {
  auto scenario =
      evolve::LoadScenarioFile(NOSE_WORKLOADS_DIR "/rubis_drift.scenario");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  scenario->phases = {{"browsing", 10}, {"default", 250}};
  uint64_t digests[2] = {0, 0};
  const size_t threads[2] = {4, 1};
  for (size_t i = 0; i < 2; ++i) {
    auto harness = ServeHarness::Create(*scenario, Options(threads[i]));
    ASSERT_TRUE(harness.ok()) << harness.status();
    Status run = (*harness)->Run();
    ASSERT_TRUE(run.ok()) << threads[i] << " threads: " << run;
    const ServeReport& report = (*harness)->report();
    EXPECT_EQ(report.migrations.size(), 1u) << threads[i];
    EXPECT_EQ(report.during.count, 0u) << threads[i];
    digests[i] = report.store_digest;
  }
  EXPECT_NE(digests[0], 0u);
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(ServeTest, UnknownPhaseMixIsRejected) {
  auto scenario = evolve::ParseScenario(
      "workload rubis\n"
      "scale 0.02\n"
      "phase default 60\n"
      "phase bogus 60\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto harness = ServeHarness::Create(*scenario, Options(2));
  ASSERT_FALSE(harness.ok());
  EXPECT_EQ(harness.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(harness.status().ToString().find("phase 1 runs unknown mix"),
            std::string::npos)
      << harness.status();
}

// Same mix in consecutive phases: the re-advise returns the same schema and
// the harness adopts it in place — no migration, no dropped families.
TEST(ServeTest, SameMixAdoptsInPlaceWithoutMigration) {
  auto scenario = evolve::ParseScenario(
      "workload rubis\n"
      "scale 0.02\n"
      "seed 7\n"
      "phase default 80\n"
      "phase default 80\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto harness = ServeHarness::Create(*scenario, Options(4));
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  const ServeReport& report = (*harness)->report();
  EXPECT_EQ(report.migrations.size(), 0u);
  ASSERT_EQ(report.advises.size(), 2u);
  EXPECT_FALSE(report.advises[1].schema_changed);
  // No migration ever started, so everything is "before".
  EXPECT_EQ(report.before.count, report.transactions);
  EXPECT_EQ(report.during.count + report.after.count, 0u);
}

// ===========================================================================
// Sharded parameter generation (the commutativity foundation)
// ===========================================================================

// Different shards of the same seed must never emit the same written-row
// ids: ?item and ?user/?touser identify the records updates write, and the
// serve driver's determinism argument rests on these being disjoint.
TEST(ServeShardTest, ShardsEmitDisjointWrittenIds) {
  auto graph = rubis::MakeGraph(rubis::ScaleFor(0.02));
  ASSERT_TRUE(graph.ok());
  Dataset data = rubis::GenerateData(graph->get(), rubis::ScaleFor(0.02), 7);
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok());
  const WorkloadEntry* store_bid = (*workload)->FindEntry("store_bid");
  ASSERT_NE(store_bid, nullptr);

  constexpr size_t kShards = 4;
  std::set<int64_t> seen_items;
  std::set<int64_t> seen_users;
  for (size_t shard = 0; shard < kShards; ++shard) {
    rubis::ParamGenerator gen(&data, /*seed=*/7, shard, kShards);
    std::set<int64_t> items;
    std::set<int64_t> users;
    for (int i = 0; i < 200; ++i) {
      PlanExecutor::Params params;
      gen.AddStatementParams(*store_bid, &params);
      items.insert(std::get<int64_t>(params.at("item")));
      users.insert(std::get<int64_t>(params.at("user")));
    }
    for (int64_t id : items) {
      EXPECT_TRUE(seen_items.insert(id).second)
          << "item " << id << " emitted by two shards";
    }
    for (int64_t id : users) {
      EXPECT_TRUE(seen_users.insert(id).second)
          << "user " << id << " emitted by two shards";
    }
  }
}

// The 1-of-1 sharding is the unsharded constructor: `nose evolve`'s one
// stream (shard 0 of 1) draws the ids an unsharded generator does.
TEST(ServeShardTest, SingleShardMatchesUnshardedConstructor) {
  auto graph = rubis::MakeGraph(rubis::ScaleFor(0.02));
  ASSERT_TRUE(graph.ok());
  Dataset data = rubis::GenerateData(graph->get(), rubis::ScaleFor(0.02), 7);
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok());
  const WorkloadEntry* store_bid = (*workload)->FindEntry("store_bid");
  ASSERT_NE(store_bid, nullptr);

  rubis::ParamGenerator plain(&data, 7);
  rubis::ParamGenerator sharded(&data, 7, 0, 1);
  for (int i = 0; i < 100; ++i) {
    PlanExecutor::Params a, b;
    plain.AddStatementParams(*store_bid, &a);
    sharded.AddStatementParams(*store_bid, &b);
    EXPECT_EQ(a, b);
  }
}

// ===========================================================================
// Anytime deadline-bounded advising
// ===========================================================================

TEST(AnytimeAdviseTest, TinyDeadlineStillReturnsValidIncumbent) {
  // The Fig. 13 scale-1 random workload: its root LP is fractional, so a
  // root-only solve cannot prove the optimum. (RUBiS roots are integral.)
  randwl::GeneratorOptions gen;
  gen.num_entities = 6;
  gen.num_statements = 12;
  gen.seed = 4243;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();
  Advisor advisor;
  // An absurdly small budget: the pipeline must still return a usable
  // incumbent (never an error merely because time ran out).
  auto rec = advisor.Recommend(*rw->workload, Workload::kDefaultMix, 1e-6);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GT(rec->schema.size(), 0u);
  EXPECT_FALSE(rec->query_plans.empty());
  // The solver stopped at the deadline before proving optimality, so the
  // incumbent carries a positive optimality-gap bound…
  EXPECT_GT(rec->anytime_gap, 0.0);
  // …and the record admits it blew the budget.
  EXPECT_FALSE(rec->deadline_hit);
}

TEST(AnytimeAdviseTest, GenerousDeadlineIsBitwiseIdenticalToUnbudgeted) {
  auto graph = rubis::MakeGraph(rubis::ScaleFor(0.02));
  ASSERT_TRUE(graph.ok());
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok());
  Advisor advisor;
  auto unbudgeted = advisor.Recommend(**workload, rubis::kBiddingMix);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status();
  auto budgeted = advisor.Recommend(**workload, rubis::kBiddingMix, 3600.0);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_TRUE(budgeted->deadline_hit);
  EXPECT_EQ(budgeted->anytime_gap, 0.0);
  EXPECT_EQ(budgeted->objective, unbudgeted->objective);
  EXPECT_EQ(budgeted->ToString(), unbudgeted->ToString());
}

// ===========================================================================
// RecordStore::ContentDigest
// ===========================================================================

TEST(ContentDigestTest, IndependentOfStripeCountAndInsertOrder) {
  CostParams params;
  RecordStore a(params, /*stripes=*/1);
  RecordStore b(params, /*stripes=*/16);
  ASSERT_TRUE(a.CreateColumnFamily("cf", 1, 1, 1).ok());
  ASSERT_TRUE(b.CreateColumnFamily("cf", 1, 1, 1).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        a.Put("cf", {Value(int64_t{i})}, {Value(int64_t{i % 7})},
              {Value(std::string("v") + std::to_string(i))})
            .ok());
  }
  // Same records, reverse order, different striping.
  for (int i = 49; i >= 0; --i) {
    ASSERT_TRUE(
        b.Put("cf", {Value(int64_t{i})}, {Value(int64_t{i % 7})},
              {Value(std::string("v") + std::to_string(i))})
            .ok());
  }
  EXPECT_NE(a.ContentDigest(), 0u);
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());

  // Content changes move the digest.
  ASSERT_TRUE(
      b.Put("cf", {Value(int64_t{0})}, {Value(int64_t{0})},
            {Value(std::string("changed"))})
          .ok());
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

}  // namespace
}  // namespace nose::serve
