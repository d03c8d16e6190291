#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "evolve/driver.h"
#include "evolve/evolve.h"
#include "evolve/migration_planner.h"
#include "evolve/scenario.h"
#include "evolve/workload_tracker.h"
#include "executor/loader.h"
#include "rubis/workload.h"
#include "tests/hotel_fixture.h"

namespace nose::evolve {
namespace {

// ===========================================================================
// WorkloadTracker
// ===========================================================================

TEST(EvolveTrackerTest, TriggersAfterSustainedDrift) {
  TrackerOptions opts;
  opts.window = 10;
  opts.alpha = 0.5;
  opts.threshold = 0.2;
  opts.trigger_windows = 2;
  opts.cooldown_windows = 0;
  WorkloadTracker tracker(opts);
  tracker.SetAdvised({{"a", 0.5}, {"b", 0.5}});

  // First all-"a" window: drift 0.25 > threshold, but one window is not
  // enough for the two-window trigger.
  for (int i = 0; i < 10; ++i) tracker.Record("a");
  EXPECT_EQ(tracker.windows_closed(), 1u);
  EXPECT_GT(tracker.drift(), opts.threshold);
  EXPECT_FALSE(tracker.ShouldReadvise());

  // Second consecutive over-threshold window trips the trigger.
  for (int i = 0; i < 10; ++i) tracker.Record("a");
  EXPECT_TRUE(tracker.ShouldReadvise());
  // Consuming the trigger resets it.
  EXPECT_FALSE(tracker.ShouldReadvise());

  // The estimate decays "b" geometrically but never to exact zero: the
  // observed mix keeps the full statement set, which is what keeps
  // re-advising on the fully incremental path.
  ASSERT_TRUE(tracker.estimate().count("b"));
  EXPECT_GT(tracker.estimate().at("b"), 0.0);
  EXPECT_LT(tracker.estimate().at("b"), 0.5);
}

TEST(EvolveTrackerTest, StableWorkloadNeverTriggers) {
  TrackerOptions opts;
  opts.window = 10;
  opts.threshold = 0.2;
  opts.trigger_windows = 2;
  opts.cooldown_windows = 0;
  WorkloadTracker tracker(opts);
  tracker.SetAdvised({{"a", 0.5}, {"b", 0.5}});
  for (int i = 0; i < 100; ++i) {
    tracker.Record(i % 2 == 0 ? "a" : "b");
    EXPECT_FALSE(tracker.ShouldReadvise());
  }
  EXPECT_EQ(tracker.windows_closed(), 10u);
  EXPECT_LT(tracker.drift(), opts.threshold);
}

TEST(EvolveTrackerTest, CooldownSuppressesRetrigger) {
  TrackerOptions opts;
  opts.window = 4;
  opts.alpha = 1.0;  // estimate snaps to the window frequency
  opts.threshold = 0.2;
  opts.trigger_windows = 1;
  opts.cooldown_windows = 3;
  WorkloadTracker tracker(opts);
  tracker.SetAdvised({{"a", 0.5}, {"b", 0.5}});
  // SetAdvised starts a cooldown: the first drifting windows are ignored.
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 4; ++i) tracker.Record("a");
    EXPECT_FALSE(tracker.ShouldReadvise()) << "cooldown window " << w;
  }
  for (int i = 0; i < 4; ++i) tracker.Record("a");
  EXPECT_TRUE(tracker.ShouldReadvise());
}

// ===========================================================================
// Scenario parsing
// ===========================================================================

TEST(EvolveScenarioTest, ParsesDirectivesAndPhases) {
  auto scenario = ParseScenario(
      "# comment\n"
      "workload rubis\n"
      "scale 0.1\n"
      "seed 7\n"
      "window 16\n"
      "alpha 0.4\n"
      "threshold 0.12\n"
      "trigger-windows 3\n"
      "cooldown-windows 1\n"
      "chunk-rows 99\n"
      "catchup-batch 17\n"
      "verify-samples 5\n"
      "query-log 64\n"
      "phase default 100\n"
      "phase browsing 200\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  EXPECT_EQ(scenario->workload, "rubis");
  EXPECT_DOUBLE_EQ(scenario->scale, 0.1);
  EXPECT_EQ(scenario->seed, 7u);
  EXPECT_EQ(scenario->options.tracker.window, 16u);
  EXPECT_DOUBLE_EQ(scenario->options.tracker.alpha, 0.4);
  EXPECT_DOUBLE_EQ(scenario->options.tracker.threshold, 0.12);
  EXPECT_EQ(scenario->options.tracker.trigger_windows, 3);
  EXPECT_EQ(scenario->options.tracker.cooldown_windows, 1u);
  EXPECT_EQ(scenario->options.migration.chunk_rows, 99u);
  EXPECT_EQ(scenario->options.migration.catchup_batch, 17u);
  EXPECT_EQ(scenario->options.migration.verify_samples, 5u);
  EXPECT_EQ(scenario->options.query_log_capacity, 64u);
  ASSERT_EQ(scenario->phases.size(), 2u);
  EXPECT_EQ(scenario->phases[0].mix, "default");
  EXPECT_EQ(scenario->phases[0].transactions, 100u);
  EXPECT_EQ(scenario->phases[1].mix, "browsing");
  EXPECT_EQ(scenario->phases[1].transactions, 200u);
}

TEST(EvolveScenarioTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseScenario("bogus-directive 1\nphase default 10\n").ok());
  EXPECT_FALSE(ParseScenario("scale nope\nphase default 10\n").ok());
  EXPECT_FALSE(ParseScenario("phase default 0\n").ok());
  EXPECT_FALSE(ParseScenario("phase default\n").ok());
  // No phases: nothing to run.
  EXPECT_FALSE(ParseScenario("workload rubis\n").ok());
}

TEST(EvolveScenarioTest, ParsesModeAndMigrationWeight) {
  auto planned = ParseScenario(
      "mode planned\n"
      "migration-weight 2.5\n"
      "phase default 10\n");
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_TRUE(planned->planned);
  EXPECT_DOUBLE_EQ(planned->migration_cost_weight, 2.5);

  auto reactive = ParseScenario("mode reactive\nphase default 10\n");
  ASSERT_TRUE(reactive.ok()) << reactive.status();
  EXPECT_FALSE(reactive->planned);

  EXPECT_FALSE(ParseScenario("mode sideways\nphase default 10\n").ok());
  EXPECT_FALSE(
      ParseScenario("migration-weight -1\nphase default 10\n").ok());
}

TEST(EvolveScenarioTest, ErrorsCarrySourceLinePrefix) {
  // Errors use the diagnostics "file:line: message" convention, with the
  // source name (the file path when loaded from disk) as the file.
  auto bad = ParseScenario("scale 0.1\nscale nope\n", "drift.scenario");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("drift.scenario:2: "),
            std::string::npos)
      << bad.status();

  // The default source name keeps errors readable for inline text.
  auto inline_bad = ParseScenario("seed -1\n");
  ASSERT_FALSE(inline_bad.ok());
  EXPECT_NE(inline_bad.status().message().find("scenario:1: "),
            std::string::npos)
      << inline_bad.status();
}

TEST(EvolveScenarioTest, RejectsTrailingTokens) {
  EXPECT_FALSE(ParseScenario("scale 0.1 oops\nphase default 10\n").ok());
  EXPECT_FALSE(ParseScenario("phase default 10 extra\n").ok());
  EXPECT_FALSE(ParseScenario("mode planned now\nphase default 10\n").ok());
  // Trailing comments are fine — they are stripped before tokenizing.
  EXPECT_TRUE(ParseScenario("scale 0.1 # tiny\nphase default 10\n").ok());
}

// ===========================================================================
// MigrationPlanner
// ===========================================================================

/// Distinct candidate column families from the hotel workload. The graph
/// is carried along because column-family paths reference it by pointer.
struct HotelPool {
  std::unique_ptr<EntityGraph> graph;
  std::vector<ColumnFamily> cfs;
};

HotelPool MakeHotelPool() {
  HotelPool out;
  out.graph = MakeHotelGraph();
  Workload workload(out.graph.get());
  (void)workload.AddQuery("q", MakeFig3Query(*out.graph));
  out.cfs = Enumerator()
                .EnumerateWorkload(workload, Workload::kDefaultMix)
                .candidates();
  return out;
}

TEST(EvolveMigrationPlannerTest, DiffsByDefinitionAndOrdersBuildsBySize) {
  HotelPool pool = MakeHotelPool();
  const std::vector<ColumnFamily>& cfs = pool.cfs;
  ASSERT_GE(cfs.size(), 4u);

  Schema old_schema;
  old_schema.Add(cfs[0], "dropped_cf");
  old_schema.Add(cfs[1], "kept_cf");

  Schema new_schema;
  // Kept families carry their live store name into the new generation (the
  // controller's MakeGeneration guarantees this); only new-only families
  // get generation-prefixed names.
  new_schema.Add(cfs[1], "kept_cf");
  new_schema.Add(cfs[2], "g1_new_a");
  new_schema.Add(cfs[3], "g1_new_b");

  CostModel cost;
  MigrationPlan plan = PlanMigration(old_schema, new_schema, cost);
  EXPECT_FALSE(plan.empty());
  // The kept family is identified by canonical key and keeps serving from
  // the live store without any data movement.
  ASSERT_EQ(plan.keep_names.size(), 1u);
  EXPECT_EQ(plan.keep_names[0], "kept_cf");
  ASSERT_EQ(plan.drop_names.size(), 1u);
  EXPECT_EQ(plan.drop_names[0], "dropped_cf");
  ASSERT_EQ(plan.build_indices.size(), 2u);
  // Builds come smallest-first so a failed migration wastes the least
  // data movement.
  const auto& ncfs = new_schema.column_families();
  EXPECT_LE(ncfs[plan.build_indices[0]].SizeBytes(),
            ncfs[plan.build_indices[1]].SizeBytes());

  EXPECT_GT(plan.est_build_rows, 0.0);
  EXPECT_GT(plan.est_build_cost_ms, 0.0);
  // One drop, priced like the horizon optimizer's transitions.
  EXPECT_EQ(plan.est_drop_cost_ms, DropCostMs(cost));
}

TEST(EvolveMigrationPlannerTest, IdenticalSchemasYieldEmptyPlan) {
  HotelPool pool = MakeHotelPool();
  const std::vector<ColumnFamily>& cfs = pool.cfs;
  ASSERT_GE(cfs.size(), 2u);
  Schema a;
  a.Add(cfs[0], "one");
  a.Add(cfs[1], "two");
  Schema b;
  b.Add(cfs[1], "renamed_two");  // order and names differ; definitions match
  b.Add(cfs[0], "renamed_one");
  CostModel cost;
  MigrationPlan plan = PlanMigration(a, b, cost);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.keep_names.size(), 2u);
}

// ===========================================================================
// End-to-end drift: live migration keeps query results identical to a
// control store, and the final schema matches a cold advise at the final
// observed weights.
// ===========================================================================

TEST(EvolveE2ETest, RubisDriftMigratesLiveAndStaysConsistent) {
  auto scenario = ParseScenario(
      "workload rubis\n"
      "scale 0.05\n"
      "seed 42\n"
      "window 32\n"
      "alpha 0.3\n"
      "threshold 0.08\n"
      "trigger-windows 2\n"
      "cooldown-windows 2\n"
      "chunk-rows 256\n"
      "catchup-batch 64\n"
      "verify-samples 8\n"
      "query-log 128\n"
      "phase default 150\n"
      "phase browsing 250\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto runner = DriftRunner::Create(*scenario);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());

  const EvolveReport& report = (*runner)->report();
  EXPECT_EQ(report.transactions, 400u);
  EXPECT_EQ(report.invariant_violations, 0u);
  ASSERT_GE(report.migrations.size(), 1u);
  EXPECT_EQ(report.re_advises_cold, 0u);  // the EWMA keeps the full set
  for (const MigrationRecord& m : report.migrations) {
    EXPECT_FALSE(m.aborted);
    EXPECT_EQ(m.verify_mismatches, 0u);
    EXPECT_GT(m.verify_queries, 0u);
    EXPECT_TRUE(m.advise_incremental);
    if (m.builds > 0) {
      EXPECT_GT(m.rows_backfilled, 0u);
    }
  }

  EvolveController& controller = (*runner)->controller();
  ASSERT_FALSE(controller.migration_in_progress());

  // Final-schema parity: re-advising cold at the final observed weights
  // (the "__observed" mix the controller wrote into the workload) must
  // reproduce the active recommendation byte for byte.
  auto cold = Advisor().Recommend((*runner)->workload(), "__observed");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(controller.active_rec().ToString(), cold->ToString());

  // Control-store equivalence: a fresh store built on the FINAL schema from
  // the immutable dataset, with the full update log replayed through the
  // final generation's plans, must answer every logged query with exactly
  // the rows the live (migrated-in-place) store returns.
  const Schema& schema = controller.active_schema();
  RecordStore control;
  ASSERT_TRUE(LoadSchema((*runner)->data(), schema, &control).ok());
  PlanExecutor control_exec(&control, &schema);
  for (const LoggedStatement& entry : controller.update_log()) {
    auto it = controller.active_update_plans().find(entry.statement);
    if (it == controller.active_update_plans().end()) continue;
    ASSERT_TRUE(control_exec.ExecuteUpdate(it->second, entry.params).ok())
        << entry.statement;
  }
  PlanExecutor live_exec(controller.store(), &schema);
  size_t compared = 0;
  for (const LoggedStatement& entry : controller.query_log()) {
    auto it = controller.active_query_plans().find(entry.statement);
    ASSERT_NE(it, controller.active_query_plans().end()) << entry.statement;
    auto live = live_exec.ExecuteQuery(it->second, entry.params);
    auto expected = control_exec.ExecuteQuery(it->second, entry.params);
    ASSERT_TRUE(live.ok()) << entry.statement << ": " << live.status();
    ASSERT_TRUE(expected.ok()) << entry.statement << ": " << expected.status();
    std::sort(live->begin(), live->end());
    std::sort(expected->begin(), expected->end());
    EXPECT_EQ(*live, *expected) << entry.statement;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

// The bundled scenario with the advisor's invariant audit on in every
// build type: each re-advise must report the cost of the plans it
// returns (NOSE-I006).
TEST(EvolveE2ETest, BundledDriftScenarioPassesInvariantAudit) {
  auto scenario = LoadScenarioFile(NOSE_WORKLOADS_DIR "/rubis_drift.scenario");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  scenario->options.advisor.verify_invariants = true;
  auto runner = DriftRunner::Create(*scenario);
  ASSERT_TRUE(runner.ok()) << runner.status();
  Status run = (*runner)->Run();
  ASSERT_TRUE(run.ok()) << run;
  const EvolveReport& report = (*runner)->report();
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_GE(report.migrations.size(), 1u);
}

TEST(EvolveE2ETest, UnknownPhaseMixIsRejected) {
  auto scenario = ParseScenario(
      "workload rubis\n"
      "scale 0.02\n"
      "phase default 60\n"
      "phase bogus 60\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto runner = DriftRunner::Create(*scenario);
  ASSERT_FALSE(runner.ok());
  EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument);
  const std::string message = runner.status().ToString();
  EXPECT_NE(message.find("phase 1"), std::string::npos) << message;
  EXPECT_NE(message.find("'bogus'"), std::string::npos) << message;
  EXPECT_NE(message.find("browsing, default, write100x, write10x"),
            std::string::npos)
      << message;
}

// ===========================================================================
// Planned (horizon) mode: the schedule solved up front migrates at the
// boundary the optimizer chose, and the planned objective undercuts the
// reactive baseline's realized cost.
// ===========================================================================

TEST(EvolveE2ETest, PlannedHorizonMigratesAtBoundaryAndBeatsReactive) {
  const char* base =
      "workload rubis\n"
      "scale 0.05\n"
      "seed 42\n"
      "window 32\n"
      "alpha 0.3\n"
      "threshold 0.08\n"
      "trigger-windows 2\n"
      "cooldown-windows 2\n"
      "chunk-rows 256\n"
      "catchup-batch 64\n"
      "verify-samples 8\n"
      "query-log 128\n"
      "phase default 150\n"
      "phase browsing 250\n";

  auto planned_scenario = ParseScenario(std::string("mode planned\n") + base);
  ASSERT_TRUE(planned_scenario.ok()) << planned_scenario.status();
  ASSERT_TRUE(planned_scenario->planned);
  auto planned = DriftRunner::Create(*planned_scenario);
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_TRUE((*planned)->Run().ok());

  const HorizonPlan* plan = (*planned)->horizon_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->windows.size(), 2u);
  EXPECT_FALSE(plan->collapsed);

  const EvolveReport& report = (*planned)->report();
  EXPECT_EQ(report.transactions, 400u);
  EXPECT_EQ(report.invariant_violations, 0u);
  // Planned mode never re-advises: the whole schedule was solved up front.
  EXPECT_EQ(report.re_advises_incremental, 0u);
  EXPECT_EQ(report.re_advises_cold, 0u);
  for (const MigrationRecord& m : report.migrations) {
    EXPECT_TRUE(m.planned);
    EXPECT_FALSE(m.aborted);
    EXPECT_EQ(m.verify_mismatches, 0u);
    EXPECT_EQ(m.to_window, 1u);
    // The migration starts at the planned phase boundary, not on a drift
    // trigger somewhere inside the phase.
    EXPECT_EQ(m.started_at_transaction, 150u);
  }
  if (!plan->transitions.empty()) {
    EXPECT_EQ(plan->transitions[0].at_window, 1u);
    ASSERT_GE(report.migrations.size() + report.no_op_readvises, 1u);
    // The report names the boundary the optimizer migrated at.
    EXPECT_NE(report.ToString().find("planned -> window 1"),
              std::string::npos);
    EXPECT_NE(plan->ToString().find("migrate at start of window 1"),
              std::string::npos);
  }
  EvolveController& controller = (*planned)->controller();
  ASSERT_FALSE(controller.migration_in_progress());
  EXPECT_EQ(controller.current_window(), plan->windows.size() - 1);

  // Reactive baseline on the byte-identical scenario (drift triggers, same
  // seed and phases).
  auto reactive_scenario = ParseScenario(base);
  ASSERT_TRUE(reactive_scenario.ok()) << reactive_scenario.status();
  ASSERT_FALSE(reactive_scenario->planned);
  auto reactive = DriftRunner::Create(*reactive_scenario);
  ASSERT_TRUE(reactive.ok()) << reactive.status();
  ASSERT_TRUE((*reactive)->Run().ok());

  const double planned_realized =
      (*planned)->controller().store()->stats().simulated_ms;
  const double reactive_realized =
      (*reactive)->controller().store()->stats().simulated_ms;
  // The acceptance bar: the planned schedule's total objective (execution
  // + migration, in cost-model ms) does not exceed what the reactive
  // baseline actually paid, and neither does the planned run's own
  // realized cost.
  EXPECT_LE(plan->total_objective, reactive_realized);
  EXPECT_LE(planned_realized, reactive_realized);
}

}  // namespace
}  // namespace nose::evolve
