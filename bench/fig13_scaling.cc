// Reproduces Fig. 13: advisor runtime, broken into cost calculation / BIP
// construction / BIP solving / other, as the workload size grows. Random
// entity graphs (Watts-Strogatz) and random-walk statements mirror the
// paper's §VII-B setup; the scale factor multiplies both the number of
// entities and the number of statements.
//
//   fig13_scaling [--threads N] [--json FILE] [--max-scale N]
//                 [--solve-budget SECS] [--metrics FILE]
//
// --threads sets the advisor's worker-thread count (the recommendation is
// identical at any value; only the wall clock changes). Each row also
// reports the answer's quality: the branch-and-bound node count, whether
// the solve proved its optimum, and the anytime gap of a budget-bound
// answer. --json appends the per-scale phase breakdown and those quality
// fields as nose-bench-v1 records to FILE so baseline-vs-threaded runs can
// be diffed. Environment
// fallbacks NOSE_FIG13_MAX_SCALE and NOSE_FIG13_SOLVE_BUDGET still work.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "advisor/advisor.h"
#include "bench/bench_json.h"
#include "obs/metrics.h"
#include "randwl/random_workload.h"

namespace nose::bench {
namespace {

struct Args {
  size_t threads = 1;
  std::string json_path;
  std::string metrics_path;
  int max_scale = 5;
  double solve_budget = 45.0;
  bool ok = true;
};

Args Parse(int argc, char** argv) {
  Args args;
  if (const char* env = std::getenv("NOSE_FIG13_MAX_SCALE")) {
    args.max_scale = std::atoi(env);
  }
  if (const char* env = std::getenv("NOSE_FIG13_SOLVE_BUDGET")) {
    args.solve_budget = std::atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s wants a value\n", argv[i]);
        args.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = value();
      if (v != nullptr) args.threads = static_cast<size_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = value();
      if (v != nullptr) args.json_path = v;
    } else if (std::strcmp(argv[i], "--max-scale") == 0) {
      const char* v = value();
      if (v != nullptr) args.max_scale = std::atoi(v);
    } else if (std::strcmp(argv[i], "--solve-budget") == 0) {
      const char* v = value();
      if (v != nullptr) args.solve_budget = std::atof(v);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      const char* v = value();
      if (v != nullptr) args.metrics_path = v;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      args.ok = false;
    }
    if (!args.ok) break;
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (!args.ok) return 2;

  BenchJsonWriter json;
  if (!args.json_path.empty() && !json.Open(args.json_path, "fig13_scaling")) {
    return 1;
  }

  std::printf("Fig. 13 — advisor runtime vs workload scale factor\n");
  std::printf("base: 6 entities, 12 statements; scale multiplies both; "
              "threads=%zu\n\n",
              args.threads);
  std::printf("%5s %9s %9s %7s %9s %9s %9s %9s %9s %9s %6s %7s\n", "scale",
              "entities", "stmts", "cands", "cost(s)", "build(s)", "solve(s)",
              "other(s)", "total(s)", "nodes", "proven", "gap");

  // Per-phase wall time summed over every completed scale, in the column
  // order above; the closing shape line names the largest.
  const char* const kPhaseNames[] = {"cost calculation", "BIP construction",
                                     "BIP solving", "other"};
  double phase_totals[] = {0.0, 0.0, 0.0, 0.0};
  for (int scale = 1; scale <= args.max_scale; ++scale) {
    randwl::GeneratorOptions gen;
    gen.num_entities = 6 * static_cast<size_t>(scale);
    gen.num_statements = 12 * static_cast<size_t>(scale);
    gen.seed = 4242 + static_cast<uint64_t>(scale);
    auto rw = randwl::Generate(gen);
    if (!rw.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   rw.status().ToString().c_str());
      return 1;
    }

    AdvisorOptions options;
    options.num_threads = args.threads;
    options.optimizer.bip.time_limit_seconds = args.solve_budget;
    Advisor advisor(options);
    auto rec = advisor.Recommend(*rw->workload);
    if (!rec.ok()) {
      std::printf("%5d  advisor failed: %s\n", scale,
                  rec.status().ToString().c_str());
      continue;
    }
    const double phases[] = {
        rec->timing.cost_calculation_seconds,
        rec->timing.bip_construction_seconds, rec->timing.bip_solve_seconds,
        rec->timing.other_seconds + rec->timing.enumeration_seconds};
    for (size_t p = 0; p < 4; ++p) phase_totals[p] += phases[p];
    std::printf(
        "%5d %9zu %9zu %7zu %9.2f %9.2f %9.2f %9.2f %9.2f %9d %6s %6.1f%%\n",
        scale, gen.num_entities, gen.num_statements, rec->num_candidates,
        phases[0], phases[1], phases[2], phases[3], rec->timing.total_seconds,
        rec->bb_nodes, rec->solve_proven ? "yes" : "no",
        100.0 * rec->anytime_gap);
    std::fflush(stdout);
    json.Instance("scale" + std::to_string(scale))
        .Metric("threads", static_cast<double>(args.threads))
        .Metric("entities", static_cast<double>(gen.num_entities))
        .Metric("statements", static_cast<double>(gen.num_statements))
        .Metric("candidates", static_cast<double>(rec->num_candidates))
        .Metric("schema_size", static_cast<double>(rec->schema.size()))
        .Metric("objective", rec->objective)
        .Metric("proven", rec->solve_proven ? 1.0 : 0.0)
        .Metric("anytime_gap", rec->anytime_gap)
        .Metric("bb_nodes", static_cast<double>(rec->bb_nodes))
        .Metric("cost_seconds", rec->timing.cost_calculation_seconds)
        .Metric("build_seconds", rec->timing.bip_construction_seconds)
        .Metric("solve_seconds", rec->timing.bip_solve_seconds)
        .Metric("other_seconds",
                rec->timing.other_seconds + rec->timing.enumeration_seconds)
        .Metric("total_seconds", rec->timing.total_seconds);
  }
  json.Close();
  if (!args.metrics_path.empty()) {
    std::string error;
    if (!obs::MetricsRegistry::Global().WriteJson(args.metrics_path, &error)) {
      std::fprintf(stderr, "error: cannot write metrics: %s\n", error.c_str());
      return 1;
    }
  }
  size_t dominant = 0;
  double summed = 0.0;
  for (size_t p = 0; p < 4; ++p) {
    summed += phase_totals[p];
    if (phase_totals[p] > phase_totals[dominant]) dominant = p;
  }
  std::printf(
      "\nshape check: summed over all scales, %s dominates: %.2f s of "
      "%.2f s (%.0f%%)\n",
      kPhaseNames[dominant], phase_totals[dominant], summed,
      summed > 0.0 ? 100.0 * phase_totals[dominant] / summed : 0.0);
  return 0;
}

}  // namespace
}  // namespace nose::bench

int main(int argc, char** argv) { return nose::bench::Main(argc, argv); }
