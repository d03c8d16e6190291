#include "evolve/scenario.h"

#include <cstdlib>
#include <sstream>

#include "obs/file.h"
#include "rubis/datagen.h"
#include "rubis/model.h"
#include "util/strings.h"

namespace nose::evolve {

StatusOr<DriftScenario> ParseScenario(const std::string& text,
                                      const std::string& source) {
  DriftScenario scenario;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;

  // Same "file:12: message" shape as SourceLocation::ToString, so scenario
  // errors read like the rest of the toolchain's diagnostics.
  auto malformed = [&](const std::string& what) {
    return Status::InvalidArgument(source + ":" + std::to_string(lineno) +
                                   ": " + what);
  };

  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) continue;

    auto number = [&](double* out) -> Status {
      double v;
      if (!(tokens >> v)) return malformed("expected a number");
      *out = v;
      return Status::Ok();
    };
    auto count = [&](size_t* out) -> Status {
      double v = 0.0;
      NOSE_RETURN_IF_ERROR(number(&v));
      if (v < 0.0) return malformed("expected a non-negative count");
      *out = static_cast<size_t>(v);
      return Status::Ok();
    };

    if (key == "workload") {
      if (!(tokens >> scenario.workload)) {
        return malformed("expected a workload name");
      }
    } else if (key == "scale") {
      NOSE_RETURN_IF_ERROR(number(&scenario.scale));
      if (scenario.scale <= 0.0) return malformed("scale must be > 0");
    } else if (key == "seed") {
      size_t seed = 0;
      NOSE_RETURN_IF_ERROR(count(&seed));
      scenario.seed = seed;
    } else if (key == "mode") {
      std::string mode;
      if (!(tokens >> mode)) {
        return malformed("expected 'planned' or 'reactive'");
      }
      if (mode == "planned") {
        scenario.planned = true;
      } else if (mode == "reactive") {
        scenario.planned = false;
      } else {
        return malformed("unknown mode '" + mode +
                         "' (want 'planned' or 'reactive')");
      }
    } else if (key == "migration-weight") {
      NOSE_RETURN_IF_ERROR(number(&scenario.migration_cost_weight));
      if (scenario.migration_cost_weight < 0.0) {
        return malformed("migration-weight must be >= 0");
      }
    } else if (key == "window") {
      NOSE_RETURN_IF_ERROR(count(&scenario.options.tracker.window));
    } else if (key == "alpha") {
      NOSE_RETURN_IF_ERROR(number(&scenario.options.tracker.alpha));
    } else if (key == "threshold") {
      NOSE_RETURN_IF_ERROR(number(&scenario.options.tracker.threshold));
    } else if (key == "trigger-windows") {
      size_t n = 0;
      NOSE_RETURN_IF_ERROR(count(&n));
      scenario.options.tracker.trigger_windows = static_cast<int>(n);
    } else if (key == "cooldown-windows") {
      NOSE_RETURN_IF_ERROR(count(&scenario.options.tracker.cooldown_windows));
    } else if (key == "chunk-rows") {
      NOSE_RETURN_IF_ERROR(count(&scenario.options.migration.chunk_rows));
    } else if (key == "catchup-batch") {
      NOSE_RETURN_IF_ERROR(count(&scenario.options.migration.catchup_batch));
    } else if (key == "verify-samples") {
      NOSE_RETURN_IF_ERROR(count(&scenario.options.migration.verify_samples));
    } else if (key == "query-log") {
      NOSE_RETURN_IF_ERROR(count(&scenario.options.query_log_capacity));
    } else if (key == "phase") {
      DriftPhase phase;
      if (!(tokens >> phase.mix)) return malformed("expected a mix");
      NOSE_RETURN_IF_ERROR(count(&phase.transactions));
      if (phase.transactions == 0) {
        return malformed("phase must run at least one transaction");
      }
      scenario.phases.push_back(std::move(phase));
    } else {
      return malformed("unknown directive '" + key + "'");
    }

    std::string extra;
    if (tokens >> extra) {
      return malformed("unexpected trailing token '" + extra + "' after '" +
                       key + "'");
    }
  }
  if (scenario.phases.empty()) {
    return Status::InvalidArgument(source + ": scenario has no phases");
  }
  return scenario;
}

StatusOr<DriftScenario> LoadScenarioFile(const std::string& path) {
  std::string text, error;
  if (!obs::ReadFile(path, &text, &error)) {
    return Status::NotFound("scenario: " + error);
  }
  return ParseScenario(text, path);
}

StatusOr<ScenarioEnvironment> MakeEnvironment(const DriftScenario& scenario) {
  if (scenario.workload != "rubis") {
    return Status::Unimplemented("unknown scenario workload " +
                                 scenario.workload);
  }
  if (scenario.phases.empty()) {
    return Status::InvalidArgument("scenario has no phases");
  }
  ScenarioEnvironment env;
  const rubis::ModelScale scale = rubis::ScaleFor(scenario.scale);
  NOSE_ASSIGN_OR_RETURN(env.graph, rubis::MakeGraph(scale));
  env.data = std::make_unique<Dataset>(
      rubis::GenerateData(env.graph.get(), scale, scenario.seed));
  NOSE_ASSIGN_OR_RETURN(env.workload, rubis::MakeWorkload(*env.graph));
  for (size_t p = 0; p < scenario.phases.size(); ++p) {
    const std::string& mix = scenario.phases[p].mix;
    auto sampler = rubis::TransactionSampler::ForMix(mix);
    if (!sampler.ok()) {
      return Status::InvalidArgument(
          "phase " + std::to_string(p) + " runs unknown mix '" + mix +
          "' (workload " + scenario.workload + " defines " +
          StrJoin(env.workload->MixNames(), ", ") + ")");
    }
    env.phase_samplers.push_back(std::move(sampler).value());
  }
  return env;
}

}  // namespace nose::evolve
