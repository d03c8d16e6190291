// The simplex pivot path, pinned. The LP kernels (pivot row, reduced-cost
// and devex updates, eta file, LU pivot search) may only get cheaper, never
// choose differently: a change that moves one pivot moves the iteration,
// factorization and node counts, and usually the objective's last bits.
// Only a change of where the simplex starts may move the path, and then
// only with these counts re-recorded. The iteration and factorization
// counts were recorded with the root crashed from the warm-start point;
// the node counts and objective bits are unchanged from the slack crash
// before it. Every value must hold at any thread count.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "obs/metrics.h"
#include "randwl/random_workload.h"
#include "rubis/model.h"
#include "rubis/workload.h"

namespace nose {
namespace {

/// What an advise's pivot path leaves behind: the solver counters it grew
/// and the objective's exact bits.
struct PivotPath {
  uint64_t simplex_iterations = 0;
  uint64_t lu_factorizations = 0;
  uint64_t bb_nodes = 0;
  std::string objective;  ///< printf "%a"
};

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

PivotPath Advise(const Workload& workload, const std::string& mix,
                 size_t threads) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::map<std::string, uint64_t> before = reg.CounterValues();
  AdvisorOptions options;
  options.num_threads = threads;
  Advisor advisor(options);
  auto rec = advisor.Recommend(workload, mix);
  EXPECT_TRUE(rec.ok()) << rec.status();
  const std::map<std::string, uint64_t> after = reg.CounterValues();
  auto delta = [&](const char* name) {
    const auto it = before.find(name);
    return after.at(name) - (it == before.end() ? 0 : it->second);
  };
  PivotPath path;
  path.simplex_iterations = delta("solver.simplex_iterations");
  path.lu_factorizations = delta("solver.lu_factorizations");
  path.bb_nodes = delta("solver.bb_nodes");
  if (rec.ok()) path.objective = HexFloat(rec->objective);
  return path;
}

void ExpectPath(const PivotPath& got, const PivotPath& want) {
  EXPECT_EQ(got.simplex_iterations, want.simplex_iterations);
  EXPECT_EQ(got.lu_factorizations, want.lu_factorizations);
  EXPECT_EQ(got.bb_nodes, want.bb_nodes);
  EXPECT_EQ(got.objective, want.objective);
}

TEST(PivotPathTest, RubisMixes) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  const std::vector<std::pair<std::string, PivotPath>> cases = {
      {rubis::kBiddingMix, {166, 4, 1, "0x1.198dc14ee5cb9p-1"}},
      {rubis::kBrowsingMix, {68, 3, 1, "0x1.423a593f17097p-2"}},
      {rubis::kWrite100xMix, {186, 5, 1, "0x1.9cb767d2d9f86p+0"}},
  };
  for (const auto& [mix, want] : cases) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(mix + " threads=" + std::to_string(threads));
      ExpectPath(Advise(**workload, mix, threads), want);
    }
  }
}

TEST(PivotPathTest, Fig13Scales) {
  // The instances bench/fig13_scaling runs: 6·s entities, 12·s statements,
  // seed 4242 + s.
  const std::vector<PivotPath> want = {
      {383, 121, 59, "0x1.7ba25d64868d5p-2"},
      {1100, 133, 61, "0x1.f066284baae2ep-2"},
  };
  for (size_t scale = 1; scale <= want.size(); ++scale) {
    randwl::GeneratorOptions gen;
    gen.num_entities = 6 * scale;
    gen.num_statements = 12 * scale;
    gen.seed = 4242 + scale;
    auto rw = randwl::Generate(gen);
    ASSERT_TRUE(rw.ok()) << rw.status();
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("scale " + std::to_string(scale) +
                   " threads=" + std::to_string(threads));
      ExpectPath(Advise(*rw->workload, Workload::kDefaultMix, threads),
                 want[scale - 1]);
    }
  }
}

}  // namespace
}  // namespace nose
