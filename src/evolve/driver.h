#ifndef NOSE_EVOLVE_DRIVER_H_
#define NOSE_EVOLVE_DRIVER_H_

#include <memory>
#include <string>

#include "advisor/advisor.h"
#include "evolve/evolve.h"
#include "evolve/scenario.h"
#include "rubis/datagen.h"
#include "util/statusor.h"

namespace nose::evolve {

/// Owns a drift-scenario run end to end: builds the scenario's environment
/// (MakeEnvironment: model, dataset, workload, phase samplers), drives the
/// controller through each phase by sampling transactions from the phase's
/// mix, and leaves its state (controller, logs, store) open for
/// inspection — the e2e drift test replays the logs against a control
/// store, and the drift bench reads the migration records.
///
/// With DriftScenario::planned set, the runner first solves the
/// multi-period horizon BIP (one window per phase, windows weighted by
/// their expected transaction volume) and drives the controller through
/// the planned schedule: migrations start at phase boundaries the
/// optimizer chose, not on drift triggers.
class DriftRunner {
 public:
  static StatusOr<std::unique_ptr<DriftRunner>> Create(
      const DriftScenario& scenario);

  /// Runs every phase, then drives any in-flight migration to completion.
  Status Run();

  EvolveController& controller() { return *controller_; }
  const EvolveReport& report() const { return controller_->report(); }
  Workload& workload() { return *env_.workload; }
  const Dataset& data() const { return *env_.data; }
  const EntityGraph& graph() const { return *env_.graph; }
  const DriftScenario& scenario() const { return scenario_; }
  /// The horizon schedule solved up front in planned mode; null in
  /// reactive mode (or before Run). Owns the pool every planned window's
  /// plans point into.
  const HorizonPlan* horizon_plan() const { return horizon_plan_.get(); }

 private:
  explicit DriftRunner(DriftScenario scenario)
      : scenario_(std::move(scenario)) {}

  Status RunPhase(size_t phase);
  /// Planned mode: builds the WorkloadHorizon from the phases, solves it,
  /// and hands the schedule to the controller.
  Status PlanAndInit();

  DriftScenario scenario_;
  ScenarioEnvironment env_;
  std::unique_ptr<rubis::ParamGenerator> params_;
  std::unique_ptr<EvolveController> controller_;
  std::unique_ptr<HorizonPlan> horizon_plan_;
  Rng rng_{0};
};

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_DRIVER_H_
