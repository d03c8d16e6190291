// The parallel advisor pipeline must be a pure performance knob: whatever
// AdvisorOptions::num_threads is set to, the recommendation — schema,
// plans, objective, even the interned candidate ids — must be byte-for-byte
// identical. These tests pin that contract on the real RUBiS workload and
// on random workloads of both solver strategies' sizes, and extend it to
// the shared-pool path: AdviseAllMixes must reproduce the per-mix
// Recommend output exactly, at every thread count.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "randwl/random_workload.h"
#include "rubis/model.h"
#include "rubis/workload.h"

namespace nose {
namespace {

/// Everything observable about a recommendation, rendered to strings.
struct Fingerprint {
  std::string schema;
  std::vector<CfId> pool_ids;
  std::vector<std::string> plans;
  double objective = 0.0;
  size_t num_candidates = 0;
};

Fingerprint FingerprintOf(const Recommendation& rec) {
  Fingerprint fp;
  fp.schema = rec.schema.ToString();
  for (size_t i = 0; i < rec.schema.size(); ++i) {
    fp.pool_ids.push_back(rec.schema.PoolIdAt(i));
  }
  for (const auto& [name, plan] : rec.query_plans) {
    fp.plans.push_back(name + "\n" + plan.ToString());
  }
  for (const auto& [name, plan] : rec.update_plans) {
    fp.plans.push_back(name + "\n" + plan.ToString());
  }
  fp.objective = rec.objective;
  fp.num_candidates = rec.num_candidates;
  return fp;
}

void ExpectIdentical(const Fingerprint& a, const Fingerprint& b,
                     const std::string& label) {
  EXPECT_EQ(a.schema, b.schema) << label;
  EXPECT_EQ(a.pool_ids, b.pool_ids) << label;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << label;
  // Bitwise equality, not a tolerance: the merge order is deterministic,
  // so even floating-point results must match exactly.
  EXPECT_EQ(a.objective, b.objective) << label;
  ASSERT_EQ(a.plans.size(), b.plans.size()) << label;
  for (size_t i = 0; i < a.plans.size(); ++i) {
    EXPECT_EQ(a.plans[i], b.plans[i]) << label << " plan " << i;
  }
}

void CheckThreadCounts(const Workload& workload, const std::string& mix,
                       const AdvisorOptions& base) {
  Fingerprint serial;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AdvisorOptions options = base;
    options.num_threads = threads;
    Advisor advisor(options);
    auto rec = advisor.Recommend(workload, mix);
    ASSERT_TRUE(rec.ok()) << "threads=" << threads << ": " << rec.status();
    if (threads == 1) {
      serial = FingerprintOf(*rec);
      EXPECT_FALSE(serial.schema.empty());
    } else {
      ExpectIdentical(serial, FingerprintOf(*rec),
                      "threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminismTest, RubisBiddingMixIsThreadCountInvariant) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  AdvisorOptions options;
  options.verify_invariants = true;
  CheckThreadCounts(**workload, rubis::kBiddingMix, options);
}

TEST(ParallelDeterminismTest, AdviseAllMixesMatchesPerMixAtEveryThreadCount) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  // Browsing sits in its own statement-set group; Bidding and 10x share a
  // group, exercising pool reuse and the cross-mix warm start.
  const std::vector<std::string> mixes = {
      rubis::kBrowsingMix, rubis::kBiddingMix, rubis::kWrite10xMix};
  AdvisorOptions base;
  // Deterministic stopping: bound the search by nodes, not wall clock.
  base.optimizer.bip.max_nodes = 20000;
  base.optimizer.bip.time_limit_seconds = 1e9;
  base.verify_invariants = true;

  // Per-mix path at one thread: the reference the shared-pool path must
  // reproduce byte-for-byte.
  std::vector<Fingerprint> reference;
  {
    AdvisorOptions options = base;
    options.num_threads = 1;
    Advisor advisor(options);
    for (const std::string& mix : mixes) {
      auto rec = advisor.Recommend(**workload, mix);
      ASSERT_TRUE(rec.ok()) << mix << ": " << rec.status();
      reference.push_back(FingerprintOf(*rec));
    }
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AdvisorOptions options = base;
    options.num_threads = threads;
    Advisor advisor(options);
    auto all = advisor.AdviseAllMixes(**workload, mixes);
    ASSERT_TRUE(all.ok()) << "threads=" << threads << ": " << all.status();
    ASSERT_EQ(all->size(), mixes.size()) << "threads=" << threads;
    for (size_t k = 0; k < mixes.size(); ++k) {
      EXPECT_EQ((*all)[k].first, mixes[k]);
      ExpectIdentical(reference[k], FingerprintOf((*all)[k].second),
                      mixes[k] + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminismTest, RandomWorkloadBipStrategy) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 5;
  gen.num_statements = 8;
  gen.seed = 20260806;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();
  AdvisorOptions options;
  // Deterministic stopping only: a node budget cuts the search at the same
  // tree node in every run, where a wall-clock limit would not.
  options.optimizer.bip.max_nodes = 20000;
  options.verify_invariants = true;
  CheckThreadCounts(*rw->workload, Workload::kDefaultMix, options);
}

}  // namespace
}  // namespace nose
