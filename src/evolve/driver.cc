#include "evolve/driver.h"

#include <vector>

namespace nose::evolve {

StatusOr<std::unique_ptr<DriftRunner>> DriftRunner::Create(
    const DriftScenario& scenario) {
  std::unique_ptr<DriftRunner> runner(new DriftRunner(scenario));
  NOSE_ASSIGN_OR_RETURN(runner->env_, MakeEnvironment(scenario));
  runner->params_ = std::make_unique<rubis::ParamGenerator>(
      runner->env_.data.get(), scenario.seed);
  runner->controller_ = std::make_unique<EvolveController>(
      runner->env_.workload.get(), runner->env_.data.get(), scenario.options);
  runner->rng_ = Rng(scenario.seed);
  return runner;
}

Status DriftRunner::RunPhase(size_t phase) {
  const Workload& workload = *env_.workload;
  for (size_t t = 0; t < scenario_.phases[phase].transactions; ++t) {
    const rubis::Transaction& tx = env_.phase_samplers[phase].Pick(&rng_);
    PlanExecutor::Params params;
    for (const std::string& stmt : tx.statements) {
      params_->AddStatementParams(*workload.FindEntry(stmt), &params);
    }
    for (const std::string& stmt : tx.statements) {
      if (workload.FindEntry(stmt)->IsQuery()) {
        auto rows = controller_->ExecuteQuery(stmt, params);
        if (!rows.ok()) return rows.status();
      } else {
        NOSE_RETURN_IF_ERROR(controller_->ExecuteUpdate(stmt, params));
      }
    }
    NOSE_RETURN_IF_ERROR(controller_->EndTransaction());
  }
  return Status::Ok();
}

Status DriftRunner::PlanAndInit() {
  WorkloadHorizon horizon;
  std::vector<size_t> starts;
  size_t cumulative = 0;
  for (size_t p = 0; p < scenario_.phases.size(); ++p) {
    const DriftPhase& phase = scenario_.phases[p];
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
    starts.push_back(cumulative);
    cumulative += phase.transactions;
  }

  Advisor advisor(scenario_.options.advisor);
  HorizonOptions horizon_options;
  horizon_options.migration_cost_weight = scenario_.migration_cost_weight;
  // Price scheduled migrations with the chunking the executor will use.
  horizon_options.backfill_chunk_rows =
      static_cast<double>(scenario_.options.migration.chunk_rows);
  auto plan = advisor.PlanHorizon(*env_.workload, horizon, horizon_options);
  if (!plan.ok()) return plan.status();
  horizon_plan_ = std::make_unique<HorizonPlan>(std::move(*plan));

  std::vector<PlannedWindow> windows;
  windows.reserve(horizon_plan_->windows.size());
  for (size_t w = 0; w < horizon_plan_->windows.size(); ++w) {
    PlannedWindow planned;
    planned.label = horizon_plan_->windows[w].label;
    planned.mix = horizon_plan_->windows[w].mix;
    planned.start_transaction = starts[w];
    // The copied plans point into horizon_plan_->pool, which this runner
    // keeps alive for the controller's lifetime.
    planned.rec = horizon_plan_->windows[w].rec;
    windows.push_back(std::move(planned));
  }
  return controller_->InitPlanned(std::move(windows));
}

Status DriftRunner::Run() {
  if (scenario_.planned) {
    NOSE_RETURN_IF_ERROR(PlanAndInit());
  } else {
    NOSE_RETURN_IF_ERROR(controller_->Init(scenario_.phases.front().mix));
  }
  for (size_t p = 0; p < scenario_.phases.size(); ++p) {
    NOSE_RETURN_IF_ERROR(RunPhase(p));
  }
  return controller_->Finish();
}

}  // namespace nose::evolve
