// Microbenchmarks of the LP/BIP solver substrate.
//
// Default mode (google-benchmark): simplex solve time vs problem size, and
// branch-and-bound on knapsack-like binary programs. These bound the
// optimizer's per-node cost.
//
//   solver_micro [google-benchmark flags]
//
// Comparison mode: replays synthetic cover instances and the real
// RUBiS-derived BIPs (captured from the schema optimizer via
// OptimizerOptions::capture_bip) on the production simplex and on the
// dense full-tableau reference (ReferenceLpSolve), appending one JSON
// object per instance to FILE (bench_results/ convention): rows, nnz, LP
// solve time and objective for both, end-of-solve factor fill, and the
// production branch-and-bound time and objective. Exits non-zero if the
// production LP optimum diverges from the reference, or if a
// thread-pooled branch-and-bound run is not byte-identical to the serial
// one — CI runs this as a correctness gate.
//
//   solver_micro --json FILE

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "bench/bench_json.h"
#include "obs/metrics.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "solver/bip.h"
#include "solver/lp.h"
#include "solver/solve_log.h"
#include "tests/reference_lp.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose {
namespace {

/// Random feasible covering-style LP: minimize positive costs subject to
/// >= rows, which is always feasible (upper bounds at 1, rhs <= row size).
LpProblem MakeCoverLp(int vars, int rows, uint64_t seed) {
  Rng rng(seed);
  LpProblem lp;
  for (int v = 0; v < vars; ++v) {
    lp.AddVariable(0.0, 1.0, 1.0 + static_cast<double>(rng.Uniform(100)));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    const int nnz = 3 + static_cast<int>(rng.Uniform(8));
    for (int k = 0; k < nnz; ++k) {
      coeffs.emplace_back(static_cast<int>(rng.Uniform(vars)), 1.0);
    }
    lp.AddRow(RowType::kGe, 1.0 + static_cast<double>(rng.Uniform(2)),
              std::move(coeffs));
  }
  return lp;
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpProblem lp = MakeCoverLp(n, n / 2, 42);
  for (auto _ : state) {
    LpResult r = lp.Solve();
    benchmark::DoNotOptimize(r.objective);
  }
  state.SetLabel("vars=" + std::to_string(n) +
                 " rows=" + std::to_string(n / 2));
}
BENCHMARK(BM_SimplexSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void BM_ReferenceLpSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpProblem lp = MakeCoverLp(n, n / 2, 42);
  for (auto _ : state) {
    LpResult r = ReferenceLpSolve(lp);
    benchmark::DoNotOptimize(r.objective);
  }
  state.SetLabel("vars=" + std::to_string(n) +
                 " rows=" + std::to_string(n / 2));
}
BENCHMARK(BM_ReferenceLpSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_BipSolveCover(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpProblem lp = MakeCoverLp(n, n / 2, 7);
  std::vector<int> binaries(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) binaries[static_cast<size_t>(v)] = v;
  for (auto _ : state) {
    BipResult r = SolveBip(lp, binaries);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BipSolveCover)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_BipKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  LpProblem lp;
  std::vector<std::pair<int, double>> weights;
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, -(1.0 + static_cast<double>(rng.Uniform(50))));
    weights.emplace_back(v, 1.0 + static_cast<double>(rng.Uniform(20)));
  }
  lp.AddRow(RowType::kLe, 5.0 * n, std::move(weights));
  std::vector<int> binaries(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) binaries[static_cast<size_t>(v)] = v;
  for (auto _ : state) {
    BipResult r = SolveBip(lp, binaries);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BipKnapsack)->Arg(20)->Arg(40)->Arg(80);

// ===========================================================================
// Production-vs-reference comparison mode (--json).
// ===========================================================================

struct Instance {
  std::string name;
  LpProblem lp;
  std::vector<int> binaries;  // empty => compare LP relaxation only
};

/// Best-of-2 wall time for one LP solve by `solve`.
double TimeLpMs(const LpProblem& lp, LpResult (*solve)(const LpProblem&),
                LpResult* out) {
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    Stopwatch watch;
    LpResult r = solve(lp);
    const double ms = watch.ElapsedSeconds() * 1000.0;
    if (rep == 0 || ms < best) {
      best = ms;
      *out = std::move(r);
    }
  }
  return best;
}

LpResult ProductionLpSolve(const LpProblem& lp) { return lp.Solve(); }

double TimeBipMs(const LpProblem& lp, const std::vector<int>& binaries,
                 double time_limit_seconds, BipResult* out,
                 util::ThreadPool* threads = nullptr) {
  BipOptions options;
  options.time_limit_seconds = time_limit_seconds;
  options.threads = threads;
  Stopwatch watch;
  *out = SolveBip(lp, binaries, options);
  return watch.ElapsedSeconds() * 1000.0;
}

/// End-of-solve stored factor entries (LU + eta file) as the solve log
/// records them.
uint64_t FillEndOf(const LpProblem& lp) {
  LpSolveStats stats;
  lp.Solve({}, /*max_iterations=*/0, /*deadline_seconds=*/0.0,
           /*start_basis=*/nullptr, /*final_basis=*/nullptr,
           /*duals=*/nullptr, &stats);
  return stats.fill_end;
}

/// RUBiS workload with every statement cloned `k` times under distinct
/// names. The advisor treats clones as separate statements, so plan
/// spaces and the BIP grow ~k-fold while the candidate pool keeps the
/// RUBiS shape (clones share the same interned column families) — this is
/// how the comparison table gets a RUBiS-derived instance big enough to
/// show how the solver scales.
std::unique_ptr<Workload> ScaleWorkload(const Workload& base, int k) {
  auto scaled = std::make_unique<Workload>(base.graph());
  for (int c = 0; c < k; ++c) {
    for (const WorkloadEntry& entry : base.entries()) {
      const std::string name = entry.name + "__c" + std::to_string(c);
      const double weight = entry.WeightIn(Workload::kDefaultMix);
      if (weight <= 0.0) continue;
      const Status status =
          entry.IsQuery() ? scaled->AddQuery(name, entry.query(), weight)
                          : scaled->AddUpdate(name, entry.update(), weight);
      if (!status.ok()) {
        std::fprintf(stderr, "FATAL [scale workload]: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  return scaled;
}

/// Captures the real RUBiS BIP for `mix` by running the advisor with a
/// capture hook installed.
Instance CaptureRubisBip(const Workload& workload, const std::string& mix) {
  BipCapture capture;
  AdvisorOptions options;
  options.optimizer.capture_bip = &capture;
  Advisor advisor(options);
  auto rec = advisor.Recommend(workload, mix);
  if (!rec.ok()) {
    std::fprintf(stderr, "FATAL [advise %s]: %s\n", mix.c_str(),
                 rec.status().ToString().c_str());
    std::exit(1);
  }
  if (!capture.captured) {
    std::fprintf(stderr, "FATAL [advise %s]: BIP was not captured\n",
                 mix.c_str());
    std::exit(1);
  }
  Instance inst;
  inst.name = "rubis_" + mix;
  inst.lp = std::move(capture.lp);
  inst.binaries = std::move(capture.binary_vars);
  return inst;
}

/// Captures the joint multi-period BIP (SchemaOptimizer over a horizon): a
/// horizon of `num_windows` windows alternating bidding→browsing, whose
/// per-window activation binaries are coupled by transition variables — the
/// comparison table's instances with multi-period block structure (W
/// diagonal window blocks plus inter-window coupling rows) that no
/// single-window capture exercises. Adjacent windows always differ in mix,
/// so the optimizer keeps every window as its own group, and the capture
/// hook receives the joint BIP, not the per-group pre-solves.
Instance CaptureHorizonBip(const Workload& workload, int num_windows) {
  BipCapture capture;
  AdvisorOptions options;
  options.optimizer.capture_bip = &capture;
  Advisor advisor(options);
  const char* mixes[] = {rubis::kBiddingMix, rubis::kBrowsingMix};
  WorkloadHorizon horizon;
  for (int w = 0; w < num_windows; ++w) {
    HorizonWindow window;
    window.label = std::string(mixes[w % 2]) + "_w" + std::to_string(w);
    window.mix = mixes[w % 2];
    window.duration = 5.0;
    horizon.windows.push_back(std::move(window));
  }
  auto plan = advisor.PlanHorizon(workload, horizon);
  if (!plan.ok()) {
    std::fprintf(stderr, "FATAL [plan horizon]: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  if (!capture.captured) {
    std::fprintf(stderr, "FATAL [plan horizon]: joint BIP was not captured\n");
    std::exit(1);
  }
  Instance inst;
  inst.name = "rubis_horizon" + std::to_string(num_windows);
  inst.lp = std::move(capture.lp);
  inst.binaries = std::move(capture.binary_vars);
  return inst;
}

int CompareMain(const std::string& json_path) {
  // Per-solve ceiling for the branch-and-bound replays.
  constexpr double kBipTimeLimitSeconds = 120.0;

  std::vector<Instance> instances;
  for (int n : {200, 400, 800}) {
    Instance inst;
    inst.name = "cover_lp" + std::to_string(n);
    inst.lp = MakeCoverLp(n, n / 2, 42);
    instances.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.name = "cover_bip160";
    inst.lp = MakeCoverLp(160, 80, 7);
    for (int v = 0; v < 160; ++v) inst.binaries.push_back(v);
    instances.push_back(std::move(inst));
  }
  // Real advisor instances: paper-like RUBiS entity counts, one BIP per
  // mix. browsing drops the write transactions, so its BIP is smaller.
  auto graph = rubis::MakeGraph();
  if (!graph.ok()) {
    std::fprintf(stderr, "FATAL [model]: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  auto workload = rubis::MakeWorkload(**graph);
  if (!workload.ok()) {
    std::fprintf(stderr, "FATAL [workload]: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  for (const char* mix :
       {rubis::kBrowsingMix, rubis::kBiddingMix, rubis::kWrite100xMix}) {
    instances.push_back(CaptureRubisBip(**workload, mix));
  }
  // The largest RUBiS-derived instance: the bidding workload cloned 3x.
  {
    std::unique_ptr<Workload> scaled = ScaleWorkload(**workload, 3);
    Instance inst = CaptureRubisBip(*scaled, Workload::kDefaultMix);
    inst.name = "rubis_x3";
    instances.push_back(std::move(inst));
  }
  // The multi-period instances: joint two- and four-window horizon BIPs.
  instances.push_back(CaptureHorizonBip(**workload, 2));
  instances.push_back(CaptureHorizonBip(**workload, 4));

  bench::BenchJsonWriter json;
  if (!json.Open(json_path, "solver_micro")) return 1;

  std::printf("%-18s %7s %7s %9s | %10s %10s | %s\n", "instance", "vars",
              "rows", "nnz", "lp", "reference", "objectives (lp vs reference)");
  bool diverged_any = false;
  for (Instance& inst : instances) {
    const bool is_bip = !inst.binaries.empty();
    LpResult fact_lp, ref_lp;
    const double fact_lp_ms = TimeLpMs(inst.lp, ProductionLpSolve, &fact_lp);
    const double ref_lp_ms = TimeLpMs(inst.lp, ReferenceLpSolve, &ref_lp);
    // The relaxation has one optimal value; the production simplex follows
    // its own floating-point path and is held to solver-tolerance
    // agreement with the dense reference. This is the CI divergence gate.
    const double lp_scale = std::max(1.0, std::abs(ref_lp.objective));
    bool diverged =
        fact_lp.status != ref_lp.status ||
        std::abs(fact_lp.objective - ref_lp.objective) > 1e-7 * lp_scale;
    const uint64_t fact_fill = FillEndOf(inst.lp);

    double fact_bip_ms = 0.0;
    bool thread_diverged = false;
    uint64_t fact_bip_factorizations = 0;
    BipResult fact_bip;
    if (is_bip) {
      const obs::Counter& factorizations =
          obs::MetricsRegistry::Global().GetCounter(
              "solver.lu_factorizations");
      const uint64_t factorizations_before = factorizations.value();
      fact_bip_ms = TimeBipMs(inst.lp, inst.binaries, kBipTimeLimitSeconds,
                              &fact_bip);
      fact_bip_factorizations = factorizations.value() - factorizations_before;
      // Thread-count invariance gate: pooled branch-and-bound must return
      // byte-for-byte the serial result — same objective bits, same
      // solution vector, same trajectory statistics.
      for (const size_t nthreads : {size_t{2}, size_t{8}}) {
        util::ThreadPool pool(nthreads);
        BipResult pooled;
        TimeBipMs(inst.lp, inst.binaries, kBipTimeLimitSeconds, &pooled,
                  &pool);
        if (pooled.status != fact_bip.status ||
            pooled.objective != fact_bip.objective || pooled.x != fact_bip.x ||
            pooled.nodes_explored != fact_bip.nodes_explored ||
            pooled.lp_iterations != fact_bip.lp_iterations) {
          thread_diverged = true;
        }
      }
      diverged = diverged || thread_diverged;
    }
    diverged_any = diverged_any || diverged;

    std::printf("%-18s %7d %7d %9zu | %8.2fms %8.2fms | %.10g vs %.10g%s\n",
                inst.name.c_str(), inst.lp.num_variables(), inst.lp.num_rows(),
                inst.lp.num_nonzeros(), fact_lp_ms, ref_lp_ms,
                fact_lp.objective, ref_lp.objective,
                diverged ? "  DIVERGED" : "");
    if (is_bip) {
      std::printf("%-18s %25s | bip %8.2fms %-10s objective %.10g\n", "", "",
                  fact_bip_ms, BipStatusName(fact_bip.status),
                  fact_bip.objective);
    }

    bench::BenchJsonWriter::Record record = json.Instance(inst.name);
    record.Metric("vars", inst.lp.num_variables())
        .Metric("rows", inst.lp.num_rows())
        .Metric("nnz", static_cast<double>(inst.lp.num_nonzeros()))
        .Metric("fact_lp_ms", fact_lp_ms)
        .Metric("dense_lp_ms", ref_lp_ms)
        .Metric("fact_lp_objective", fact_lp.objective)
        .Metric("dense_lp_objective", ref_lp.objective)
        .Metric("fact_fill_end", static_cast<double>(fact_fill));
    if (is_bip) {
      record.Metric("fact_bip_ms", fact_bip_ms)
          .Metric("fact_bip_objective", fact_bip.objective)
          .Metric("fact_bip_lu_factorizations",
                  static_cast<double>(fact_bip_factorizations))
          .Label("fact_bip_status", BipStatusName(fact_bip.status))
          .Label("thread_diverged", thread_diverged);
    }
    record.Label("kind", is_bip ? "bip" : "lp").Label("diverged", diverged);
  }
  json.Close();
  if (diverged_any) {
    std::fprintf(stderr,
                 "error: the LP optimum diverged from the reference (or a "
                 "thread gate failed) on at least one instance\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nose

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return nose::CompareMain(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
