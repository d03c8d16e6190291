// Enumeration and planning, pinned bit for bit. Each candidate pool's
// key() sequence in CfId order, and every plan space of RUBiS `default`
// (per state: each edge's candidate id, target state and cost bits), is
// reduced to a 64-bit FNV-1a digest. The enumerator and planner may skip
// work whose result interning or the path check would discard, but never
// change a CfId, an edge or its order. The digests were recorded from the
// full (update, candidate) support fan-out and the full-pool TryMatch scan
// that the distinct-query enumeration and the path-bucketed planner
// replaced; every value must hold at any thread count.

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
#include "obs/metrics.h"
#include "optimizer/formulation.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
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
  const Instance rubis = LoadRubis();
  const CandidatePool pool =
      Enumerator().EnumerateWorkload(*rubis.workload, rubis::kBiddingMix);
  const CostModel cost;
  const CardinalityEstimator est(rubis.graph.get(), &cost.params());
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool_threads(threads);
    auto form = BuildWindowFormulation(*rubis.workload, rubis::kBiddingMix,
                                       pool, &cost, &est, &pool_threads,
                                       /*cache=*/nullptr);
    ASSERT_TRUE(form.ok()) << form.status();
    ASSERT_EQ(form->query_spaces.size(), 12u);
    ASSERT_EQ(form->shared_supports.size(), 9u);
    std::vector<uint64_t> got;
    for (const SpaceVars& sv : form->query_spaces) {
      got.push_back(SpaceDigest(sv.space));
    }
    for (const auto& shared : form->shared_supports) {
      got.push_back(SpaceDigest(shared->sv.space));
    }
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
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "space " << i << std::hex << " 0x"
                                 << got[i];
    }
  }
}

TEST(EnumerationDigestTest, RubisDefaultEnumeratesEachSupportQueryOnce) {
  // RUBiS `default` derives 12 support queries in the first round and
  // more in the second, but only 7 of them are distinct; each is
  // enumerated once.
  const Instance rubis = LoadRubis();
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "enumerator.support_queries");
  const uint64_t before = counter.value();
  Enumerator().EnumerateWorkload(*rubis.workload, rubis::kBiddingMix);
  EXPECT_EQ(counter.value() - before, 7u);
}

}  // namespace
}  // namespace nose
