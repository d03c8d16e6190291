// Enumeration and planning, pinned bit for bit. Each candidate pool's
// key() sequence in CfId order, and every plan space of RUBiS `default`
// (per state: each edge's candidate id, target state and cost bits), is
// reduced to a 64-bit FNV-1a digest. The enumerator and planner may skip
// work whose result interning or the path check would discard, but never
// change a CfId, an edge or its order. The digests were recorded from the
// full (update, candidate) support fan-out and the full-pool TryMatch scan
// that the distinct-query enumeration and the path-bucketed planner
// replaced; every value must hold at any thread count.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "enumerator/enumerator.h"
#include "evolve/scenario.h"
#include "obs/metrics.h"
#include "optimizer/formulation.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
#include "planner/update_planner.h"
#include "randwl/random_workload.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "util/thread_pool.h"

namespace nose {
namespace {

/// 64-bit FNV-1a over a byte stream.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void String(const std::string& s) { Bytes(s.data(), s.size() + 1); }
  template <typename T>
  void Value(T v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t PoolDigest(const CandidatePool& pool) {
  Digest d;
  for (const ColumnFamily& cf : pool.candidates()) d.String(cf.key());
  return d.value();
}

uint64_t SpaceDigest(const PlanSpace& space) {
  Digest d;
  d.Value(static_cast<uint64_t>(space.states().size()));
  for (const PlanSpaceState& state : space.states()) {
    d.Value(static_cast<uint64_t>(state.edges.size()));
    for (const PlanSpaceEdge& edge : state.edges) {
      uint64_t cost_bits = 0;
      std::memcpy(&cost_bits, &edge.cost, sizeof(cost_bits));
      d.Value(static_cast<uint32_t>(edge.cf_index));
      d.Value(static_cast<int32_t>(edge.target_state));
      d.Value(cost_bits);
    }
  }
  return d.value();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A workload together with the graph it references.
struct Instance {
  std::unique_ptr<EntityGraph> graph;
  std::unique_ptr<Workload> workload;
};

Instance LoadHotel() {
  const std::string dir = NOSE_WORKLOADS_DIR;
  Instance out;
  auto graph = ParseModel(ReadFileOrDie(dir + "/hotel.model"));
  EXPECT_TRUE(graph.ok()) << graph.status();
  out.graph = std::move(graph).value();
  auto workload =
      ParseWorkload(*out.graph, ReadFileOrDie(dir + "/hotel.workload"));
  EXPECT_TRUE(workload.ok()) << workload.status();
  out.workload = std::move(workload).value();
  return out;
}

Instance LoadRubis() {
  Instance out;
  auto graph = rubis::MakeGraph();
  EXPECT_TRUE(graph.ok()) << graph.status();
  out.graph = std::move(graph).value();
  auto workload = rubis::MakeWorkload(*out.graph);
  EXPECT_TRUE(workload.ok()) << workload.status();
  out.workload = std::move(workload).value();
  return out;
}

Instance GenerateRandom(const randwl::GeneratorOptions& gen) {
  auto rw = randwl::Generate(gen);
  EXPECT_TRUE(rw.ok()) << rw.status();
  return Instance{std::move(rw->graph), std::move(rw->workload)};
}

struct PoolCase {
  std::string label;
  size_t size;
  uint64_t digest;
};

void ExpectPool(const Workload& workload, const std::string& mix,
                const PoolCase& want) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(want.label + " threads=" + std::to_string(threads));
    util::ThreadPool pool_threads(threads);
    const CandidatePool pool =
        Enumerator().EnumerateWorkload(workload, mix, &pool_threads);
    EXPECT_EQ(pool.size(), want.size);
    EXPECT_EQ(PoolDigest(pool), want.digest) << std::hex << "0x"
                                             << PoolDigest(pool);
  }
}

TEST(EnumerationDigestTest, HotelAndRubisPools) {
  const Instance hotel = LoadHotel();
  ExpectPool(*hotel.workload, Workload::kDefaultMix,
             {"hotel", 49, 0x7e4f99b08d361888ull});
  const Instance rubis = LoadRubis();
  const std::vector<std::pair<std::string, PoolCase>> cases = {
      {rubis::kBiddingMix, {"rubis default", 53, 0x11fb304430965968ull}},
      {rubis::kBrowsingMix, {"rubis browsing", 49, 0x0f4ea537e70d5b3aull}},
      {rubis::kWrite10xMix, {"rubis write10x", 53, 0x11fb304430965968ull}},
      {rubis::kWrite100xMix, {"rubis write100x", 53, 0x11fb304430965968ull}},
  };
  for (const auto& [mix, want] : cases) ExpectPool(*rubis.workload, mix, want);
}

TEST(EnumerationDigestTest, RandomWorkloadPools) {
  // randwl at its default options, seeds 1000001-1000010.
  const std::vector<PoolCase> want = {
      {"seed 1000001", 92, 0x9982a400ded9913full},
      {"seed 1000002", 89, 0xc4f864fb14b86cd7ull},
      {"seed 1000003", 103, 0xedca25ab20f17303ull},
      {"seed 1000004", 176, 0x23fd51f969785b12ull},
      {"seed 1000005", 134, 0xe9a25b77c13fd312ull},
      {"seed 1000006", 117, 0x86c803f5c6f389c0ull},
      {"seed 1000007", 165, 0x7d503f4a6cddb2b3ull},
      {"seed 1000008", 91, 0x1e8043571b00db17ull},
      {"seed 1000009", 128, 0xc9c45c236d1f577cull},
      {"seed 1000010", 102, 0x82101a9f6cd90640ull},
  };
  for (size_t k = 0; k < want.size(); ++k) {
    randwl::GeneratorOptions gen;
    gen.seed = 1000001 + k;
    const Instance rw = GenerateRandom(gen);
    ExpectPool(*rw.workload, Workload::kDefaultMix, want[k]);
  }
}

TEST(EnumerationDigestTest, Fig13ScalePools) {
  // The instances bench/fig13_scaling runs: 6·s entities, 12·s statements,
  // seed 4242 + s.
  const std::vector<PoolCase> want = {
      {"scale 1", 106, 0xeecf718de1c6622dull},
      {"scale 2", 206, 0x23cce7a4869c31a7ull},
      {"scale 3", 343, 0xf89aadc06d7ffe21ull},
  };
  for (size_t scale = 1; scale <= want.size(); ++scale) {
    randwl::GeneratorOptions gen;
    gen.num_entities = 6 * scale;
    gen.num_statements = 12 * scale;
    gen.seed = 4242 + scale;
    const Instance rw = GenerateRandom(gen);
    ExpectPool(*rw.workload, Workload::kDefaultMix, want[scale - 1]);
  }
}

TEST(EnumerationDigestTest, RubisDefaultPlanSpaces) {
  // The same spaces whatever the support table held before the build: an
  // empty table (the formulation derives every (update, candidate) pair),
  // one the enumerator filled (the formulation covers only the candidates
  // the support queries and Combine added), and a second build on the same
  // cache (nothing is derived).
  const Instance rubis = LoadRubis();
  const CostModel cost;
  const CardinalityEstimator est(rubis.graph.get(), &cost.params());
  obs::Counter& pairs =
      obs::MetricsRegistry::Global().GetCounter("planner.support_pairs");
  // The 12 query spaces in statement order, then the 9 shared support
  // spaces (one per distinct (update, support query)) in the
  // formulation's first-sighting order.
  const std::vector<uint64_t> want = {
      0xad09a6a8833f0892ull, 0x562a43c4a7fd9271ull, 0x92e083e135199aa8ull,
      0x68fbc05ffb38011bull, 0x4c4cdb4289d5281full, 0xa3416a8dda8590bcull,
      0x41b167ee8e78fe59ull, 0x89b242033ef01fadull, 0x56948e9969e4f8b2ull,
      0x83890bfd9b0f1fd2ull, 0xf4b7c3bd1c123507ull, 0xc441dd6a2a689aa0ull,
      0x65c581ca51883e57ull, 0x2f39f9b814685025ull, 0x65c581ca51883e57ull,
      0xce47a88e097dfabfull, 0x997acef7ace2f40bull, 0xfc10e6276e10aac9ull,
      0x2f39f9b814685025ull, 0x5e87e1c03b528437ull, 0x256a5aa1d9fc3362ull,
  };
  uint64_t updates = 0;
  for (const auto& [entry, weight] :
       rubis.workload->EntriesIn(rubis::kBiddingMix)) {
    if (!entry->IsQuery()) ++updates;
  }
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    util::ThreadPool pool_threads(threads);
    const CandidatePool pool = Enumerator().EnumerateWorkload(
        *rubis.workload, rubis::kBiddingMix, &pool_threads);
    PlanSpaceCache empty;
    PlanSpaceCache filled;
    const CandidatePool filled_pool = Enumerator().EnumerateWorkload(
        *rubis.workload, rubis::kBiddingMix, &pool_threads, &filled.supports);
    ASSERT_EQ(PoolDigest(filled_pool), PoolDigest(pool));
    struct State {
      const char* label;
      const CandidatePool* pool;
      PlanSpaceCache* cache;
    };
    const State states[] = {
        {"empty table", &pool, &empty},
        {"enumerator-filled table", &filled_pool, &filled},
        {"second build", &filled_pool, &filled},
    };
    for (const State& state : states) {
      SCOPED_TRACE(std::string(state.label) +
                   " threads=" + std::to_string(threads));
      const uint64_t pairs_before = pairs.value();
      auto form = BuildWindowFormulation(*rubis.workload, rubis::kBiddingMix,
                                         *state.pool, &cost, &est,
                                         &pool_threads, *state.cache);
      const uint64_t derived = pairs.value() - pairs_before;
      ASSERT_TRUE(form.ok()) << form.status();
      ASSERT_EQ(form->query_spaces.size(), 12u);
      ASSERT_EQ(form->shared_supports.size(), 9u);
      // The (update, candidate) pairs the build derived: every pair of
      // the pool, only the tail the enumerator's table left, or none.
      const uint64_t all_pairs = updates * pool.size();
      if (&state == &states[0]) {
        EXPECT_EQ(derived, all_pairs);
      } else if (&state == &states[1]) {
        EXPECT_GT(derived, 0u);
        EXPECT_LT(derived, all_pairs);
      } else {
        EXPECT_EQ(derived, 0u);
      }
      std::vector<uint64_t> got;
      for (const SpaceVars& sv : form->query_spaces) {
        got.push_back(SpaceDigest(sv.space));
      }
      for (const auto& shared : form->shared_supports) {
        got.push_back(SpaceDigest(shared->sv.space));
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "space " << i << std::hex << " 0x"
                                   << got[i];
      }
    }
  }
}

TEST(EnumerationDigestTest, RubisDefaultEnumeratesEachSupportQueryOnce) {
  // RUBiS `default`'s (update, candidate) pairs derive 12 support
  // queries, but only 7 of them are distinct; each is enumerated once.
  const Instance rubis = LoadRubis();
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "enumerator.support_queries");
  const uint64_t before = counter.value();
  Enumerator().EnumerateWorkload(*rubis.workload, rubis::kBiddingMix);
  EXPECT_EQ(counter.value() - before, 7u);
}

/// Checks `table` against the full (update, candidate) fan-out over
/// `pool`: each update of `mix` lists exactly the candidates it modifies,
/// in ascending CfId, and each entry's query texts are SupportQueries'
/// own, in order.
void ExpectFullFanOut(const Workload& workload, const std::string& mix,
                      const CandidatePool& pool, SupportTable& table) {
  for (const auto& [entry, weight] : workload.EntriesIn(mix)) {
    if (entry->IsQuery()) continue;
    SCOPED_TRACE(entry->name);
    const SupportTable::Row& row = table.At(entry->name);
    std::vector<CfId> want_cfs;
    std::vector<CfId> got_cfs;
    for (CfId c = 0; c < pool.size(); ++c) {
      if (Modifies(entry->update(), pool[c])) want_cfs.push_back(c);
    }
    for (const SupportTable::Entry& e : row.entries) got_cfs.push_back(e.cf);
    ASSERT_EQ(got_cfs, want_cfs);
    for (const SupportTable::Entry& e : row.entries) {
      std::vector<std::string> want;
      for (const Query& q : SupportQueries(entry->update(), pool[e.cf])) {
        want.push_back(q.ToString());
      }
      std::vector<std::string> got;
      for (size_t i : e.queries) {
        ASSERT_LT(i, row.distinct.size());
        EXPECT_EQ(row.distinct[i].query->ToString(), row.distinct[i].text);
        got.push_back(row.distinct[i].text);
      }
      EXPECT_EQ(got, want) << "candidate " << e.cf;
    }
  }
}

/// The table the enumerator fills, extended over the finished pool as the
/// formulation extends it, and a table derived in one Extend, both equal
/// the full fan-out.
void ExpectTableIsFullFanOut(const Workload& workload, const std::string& mix) {
  SCOPED_TRACE(mix);
  const auto entries = workload.EntriesIn(mix);
  SupportTable staged;
  const CandidatePool pool =
      Enumerator().EnumerateWorkload(workload, mix, nullptr, &staged);
  staged.Extend(entries, pool);
  ExpectFullFanOut(workload, mix, pool, staged);
  SupportTable whole;
  whole.Extend(entries, pool);
  ExpectFullFanOut(workload, mix, pool, whole);
}

TEST(SupportTableTest, EqualsFullFanOut) {
  const Instance hotel = LoadHotel();
  ExpectTableIsFullFanOut(*hotel.workload, Workload::kDefaultMix);
  const Instance rubis = LoadRubis();
  for (const char* mix : {rubis::kBiddingMix, rubis::kBrowsingMix,
                          rubis::kWrite10xMix, rubis::kWrite100xMix}) {
    ExpectTableIsFullFanOut(*rubis.workload, mix);
  }
  for (uint64_t seed = 1000001; seed <= 1000010; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    randwl::GeneratorOptions gen;
    gen.seed = seed;
    const Instance rw = GenerateRandom(gen);
    ExpectTableIsFullFanOut(*rw.workload, Workload::kDefaultMix);
  }
  for (size_t scale = 1; scale <= 3; ++scale) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    randwl::GeneratorOptions gen;
    gen.num_entities = 6 * scale;
    gen.num_statements = 12 * scale;
    gen.seed = 4242 + scale;
    const Instance rw = GenerateRandom(gen);
    ExpectTableIsFullFanOut(*rw.workload, Workload::kDefaultMix);
  }
}

TEST(SupportTableTest, HorizonUnionPoolEqualsFullFanOut) {
  // The bundled drift scenario's horizon: one union pool over its phases'
  // mixes, merged in first-appearance order as Advisor::PlanHorizon builds
  // it, and one table extended window by window as its formulations do.
  auto scenario = evolve::LoadScenarioFile(std::string(NOSE_WORKLOADS_DIR) +
                                   "/rubis_drift.scenario");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  ASSERT_EQ(scenario->workload, "rubis");
  const Instance rubis = LoadRubis();
  std::vector<std::string> mixes;
  CandidatePool pool;
  for (const evolve::DriftPhase& phase : scenario->phases) {
    if (std::find(mixes.begin(), mixes.end(), phase.mix) != mixes.end()) {
      continue;
    }
    mixes.push_back(phase.mix);
    pool.MergeFrom(Enumerator().EnumerateWorkload(*rubis.workload, phase.mix));
  }
  ASSERT_EQ(mixes.size(), 2u);
  SupportTable table;
  for (const std::string& mix : mixes) {
    table.Extend(rubis.workload->EntriesIn(mix), pool);
  }
  for (const std::string& mix : mixes) {
    SCOPED_TRACE(mix);
    ExpectFullFanOut(*rubis.workload, mix, pool, table);
  }
}

}  // namespace
}  // namespace nose
