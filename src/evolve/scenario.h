#ifndef NOSE_EVOLVE_SCENARIO_H_
#define NOSE_EVOLVE_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "evolve/migration_executor.h"
#include "evolve/workload_tracker.h"
#include "executor/dataset.h"
#include "rubis/workload.h"
#include "util/statusor.h"

namespace nose::evolve {

/// Reserved mix name the tracker's observed weights are written into
/// before each drift re-advise.
inline constexpr char kObservedMix[] = "__observed";

struct EvolveOptions {
  TrackerOptions tracker;
  MigrationExecutor::Options migration;
  AdvisorOptions advisor;
  /// Recent queries kept for migration verification.
  size_t query_log_capacity = 128;
};

/// One phase of a drift scenario: sample transactions from `mix` for
/// `transactions` transactions.
struct DriftPhase {
  std::string mix;
  size_t transactions = 0;
};

/// A parsed drift scenario file. Line-based format, `#` comments (full-line
/// or trailing); extra tokens after a directive's arguments are an error:
///   workload rubis
///   scale 0.05
///   seed 42
///   mode planned            # or reactive (default)
///   migration-weight 1.0    # multiplier on build costs in planned mode
///   window 32
///   alpha 0.3
///   threshold 0.08
///   trigger-windows 2
///   cooldown-windows 2
///   chunk-rows 256
///   catchup-batch 64
///   verify-samples 8
///   query-log 128
///   phase default 300
///   phase browsing 600
struct DriftScenario {
  std::string workload = "rubis";
  double scale = 0.05;
  uint64_t seed = 42;
  /// Planned mode solves the multi-period horizon BIP up front (one window
  /// per phase) and migrates at the planned phase boundaries; reactive mode
  /// (the default) re-advises on drift triggers.
  bool planned = false;
  /// Multiplier on column-family build costs in the horizon objective.
  double migration_cost_weight = 1.0;
  EvolveOptions options;
  std::vector<DriftPhase> phases;
};

/// Parses a scenario. Errors carry `source`:line: prefixes in the same
/// "file:12: message" convention as analysis diagnostics.
StatusOr<DriftScenario> ParseScenario(const std::string& text,
                                      const std::string& source = "scenario");
StatusOr<DriftScenario> LoadScenarioFile(const std::string& path);

/// The application a scenario runs in the serve::ServeHarness: its model,
/// generated dataset and workload, and one transaction sampler per phase.
/// `graph` and `data` sit behind pointers because `workload` and the
/// harness's executors point into them.
struct ScenarioEnvironment {
  std::unique_ptr<EntityGraph> graph;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Workload> workload;
  std::vector<rubis::TransactionSampler> phase_samplers;
};

/// Builds the environment of `scenario`: the one place that maps the
/// scenario's `workload` name to an application. Fails with
/// InvalidArgument on a scenario without phases or a phase whose mix the
/// workload does not define.
StatusOr<ScenarioEnvironment> MakeEnvironment(const DriftScenario& scenario);

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_SCENARIO_H_
