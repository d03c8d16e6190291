// The pipeline counters must inherit the advisor's determinism contract:
// candidates enumerated, branch-and-bound nodes, simplex iterations — every
// counter delta must be bitwise-identical whether the advisor runs on 1, 2,
// or 8 threads. The enumerator merges per-task results in statement order
// and branch and bound evaluates fixed-size node batches whose results it
// processes in pop order, so any divergence here is a real scheduling leak,
// not measurement noise.

#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "obs/metrics.h"
#include "rubis/model.h"
#include "rubis/workload.h"

namespace nose {
namespace {

std::map<std::string, uint64_t> Delta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const uint64_t prev = it == before.end() ? 0 : it->second;
    if (value != prev) delta[name] = value - prev;
  }
  return delta;
}

/// Runs the advisor on RUBiS at 1/2/8 threads and requires the complete
/// counter delta map — not just a chosen subset — to be identical.
void CheckCounterInvariance(const AdvisorOptions& base, const std::string& mix,
                            const std::string& required_prefix) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::map<std::string, uint64_t> serial_delta;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AdvisorOptions options = base;
    options.num_threads = threads;
    const auto before = reg.CounterValues();
    Advisor advisor(options);
    auto rec = advisor.Recommend(**workload, mix);
    ASSERT_TRUE(rec.ok()) << "threads=" << threads << ": " << rec.status();
    const auto delta = Delta(before, reg.CounterValues());

    // The run must actually exercise the instrumented layers.
    ASSERT_GT(delta.count("enumerator.candidates_generated"), 0u)
        << "threads=" << threads;
    ASSERT_GT(delta.count("planner.spaces_built"), 0u) << "threads=" << threads;
    bool saw_solver = false;
    for (const auto& [name, value] : delta) {
      if (name.rfind(required_prefix, 0) == 0 && value > 0) saw_solver = true;
    }
    EXPECT_TRUE(saw_solver)
        << "threads=" << threads << ": no " << required_prefix << "* counter";

    if (threads == 1) {
      serial_delta = delta;
    } else {
      EXPECT_EQ(serial_delta, delta) << "threads=" << threads;
    }
  }
}

TEST(ObsDeterminismTest, BipCountersAreThreadCountInvariant) {
  AdvisorOptions options;
  // Deterministic stopping: bound the search by nodes, not wall clock.
  options.optimizer.bip.max_nodes = 20000;
  options.optimizer.bip.time_limit_seconds = 1e9;
  CheckCounterInvariance(options, rubis::kBiddingMix, "solver.bb_");
  // The serial run populated the canonical counters the issue pins.
  const auto values = obs::MetricsRegistry::Global().CounterValues();
  EXPECT_GT(values.at("enumerator.candidates_generated"), 0u);
  EXPECT_GT(values.at("solver.bb_nodes"), 0u);
  EXPECT_GT(values.at("solver.simplex_iterations"), 0u);
}

TEST(ObsDeterminismTest, AdviseAllMixesCountersAreThreadCountInvariant) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();

  AdvisorOptions base;
  base.optimizer.bip.max_nodes = 20000;
  base.optimizer.bip.time_limit_seconds = 1e9;
  // Bidding and 10x share a statement set, so the second of the pair rides
  // the interned pool (advisor.pool_reuse_hits) — that reuse must also be
  // invisible in the counter deltas.
  const std::vector<std::string> mixes = {
      rubis::kBrowsingMix, rubis::kBiddingMix, rubis::kWrite10xMix};

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::map<std::string, uint64_t> serial_delta;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AdvisorOptions options = base;
    options.num_threads = threads;
    const auto before = reg.CounterValues();
    Advisor advisor(options);
    auto all = advisor.AdviseAllMixes(**workload, mixes);
    ASSERT_TRUE(all.ok()) << "threads=" << threads << ": " << all.status();
    const auto delta = Delta(before, reg.CounterValues());

    // Rows are assembled per plan space on worker threads and appended in
    // statement order; the generated-row count must not depend on how the
    // assembly work was scheduled.
    ASSERT_GT(delta.count("optimizer.bip_rows_generated"), 0u)
        << "threads=" << threads;
    if (threads == 1) {
      serial_delta = delta;
    } else {
      EXPECT_EQ(serial_delta, delta) << "threads=" << threads;
    }
  }
  const auto values = reg.CounterValues();
  EXPECT_GT(values.at("optimizer.bip_rows_generated"), 0u);
  EXPECT_GT(values.at("solver.lp_nonzeros"), 0u);
  EXPECT_GT(values.at("advisor.pool_reuse_hits"), 0u);
}

}  // namespace
}  // namespace nose
