// Solver telemetry (SolveLog): the determinism contract — the timing-free
// fingerprint of an advise is bitwise-identical at any thread count — and
// the production contract — the log records the search the advisor runs
// without it, one record per LP solve — on hotel (a one-node search) and
// Fig. 13 scale 1 (a branching one, whose batches hold several nodes).
// Fig. 13 scale 3 covers the batch relaxations a search discards. Plus
// disabled-by-default behaviour, the run report's "explain" section,
// ring-buffer semantics, and a golden test of the Explain() renderer.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "obs/file.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
#include "randwl/random_workload.h"
#include "solver/bip.h"
#include "solver/lp.h"
#include "solver/solve_log.h"

namespace nose {
namespace {

constexpr const char* kHotelModel = R"(
entity Hotel 100 {
  HotelCity string card 20
}
entity Room 10000 {
  RoomRate float card 100
}
entity Reservation 100000 { id ResID }
entity Guest 50000 {
  GuestName string
  GuestEmail string
}
relationship Hotel one_to_many Room as Rooms / Hotel
relationship Room one_to_many Reservation as Reservations / Room
relationship Guest one_to_many Reservation as Reservations / Guest
)";

constexpr const char* kHotelWorkload = R"(
statement guests_by_city 1 :
  SELECT Guest.GuestName, Guest.GuestEmail
  FROM Guest.Reservations.Room.Hotel
  WHERE Hotel.HotelCity = ?city AND Room.RoomRate > ?rate ;
statement reprice 20 :
  UPDATE Room SET RoomRate = ?rate WHERE Room.RoomID = ?room ;
)";

/// Advises the hotel workload at `threads` workers and returns the
/// recommendation (the BIP solves feed the enabled SolveLog as a side
/// effect).
Recommendation AdviseHotel(size_t threads) {
  auto graph = ParseModel(kHotelModel);
  EXPECT_TRUE(graph.ok());
  auto workload = ParseWorkload(**graph, kHotelWorkload);
  EXPECT_TRUE(workload.ok());
  AdvisorOptions options;
  options.num_threads = threads;
  Advisor advisor(options);
  auto rec = advisor.Recommend(**workload);
  EXPECT_TRUE(rec.ok());
  return std::move(rec).value();
}

/// Advises the Fig. 13 random workload of `scale` (6·scale entities,
/// 12·scale statements, the seed fig13_scaling uses) at `threads` workers.
Recommendation AdviseFig13(size_t scale, size_t threads) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 6 * scale;
  gen.num_statements = 12 * scale;
  gen.seed = 4242 + scale;
  auto rw = randwl::Generate(gen);
  EXPECT_TRUE(rw.ok());
  AdvisorOptions options;
  options.num_threads = threads;
  Advisor advisor(options);
  auto rec = advisor.Recommend(*rw->workload);
  EXPECT_TRUE(rec.ok());
  return std::move(rec).value();
}

/// Fig. 13 scale 1: its B&B branches, so node batches hold several
/// relaxations.
Recommendation AdviseFig13Scale1(size_t threads) {
  return AdviseFig13(1, threads);
}

using AdviseFn = Recommendation (*)(size_t threads);
struct Input {
  const char* name;
  AdviseFn advise;
  bool branches;  ///< the search explores more than the root
};
const std::vector<Input> kInputs = {
    {"hotel", AdviseHotel, false}, {"fig13-scale1", AdviseFig13Scale1, true}};

/// How much each solver.* counter grew while `advise` ran.
std::map<std::string, uint64_t> SolverCounterDeltas(AdviseFn advise,
                                                    size_t threads,
                                                    Recommendation* rec) {
  const auto before = obs::MetricsRegistry::Global().CounterValues();
  *rec = advise(threads);
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().CounterValues()) {
    if (name.rfind("solver.", 0) != 0) continue;
    const auto it = before.find(name);
    deltas[name] = value - (it == before.end() ? 0 : it->second);
  }
  return deltas;
}

/// Restores the global log to its default (disabled, empty) state however
/// the test exits.
struct SolveLogGuard {
  ~SolveLogGuard() {
    SolveLog::Global().Disable();
    SolveLog::Global().Clear();
  }
};

TEST(SolveLogTest, DisabledByDefaultRecordsNothing) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Disable();
  log.Clear();
  AdviseHotel(1);
  EXPECT_EQ(log.lp_record_count(), 0u);
  EXPECT_EQ(log.bip_record_count(), 0u);
}

TEST(SolveLogTest, EnablingDoesNotPerturbResults) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  for (const auto& [name, advise, branches] : kInputs) {
    SCOPED_TRACE(name);
    log.Disable();
    log.Clear();
    Recommendation plain;
    const auto plain_counters = SolverCounterDeltas(advise, 4, &plain);

    log.Enable();
    Recommendation logged;
    const auto logged_counters = SolverCounterDeltas(advise, 4, &logged);
    EXPECT_GT(log.lp_record_count(), 0u);
    EXPECT_GT(log.bip_record_count(), 0u);

    // Bitwise equality: telemetry must be observation-only.
    EXPECT_EQ(plain.objective, logged.objective);
    EXPECT_EQ(plain.schema.ToString(), logged.schema.ToString());
    EXPECT_EQ(plain.bb_nodes, logged.bb_nodes);
    if (branches) {
      EXPECT_GT(logged.bb_nodes, 1);
    }
    // The logged run is the production search: same LP solves, simplex
    // iterations, nodes and prunes, counter for counter.
    EXPECT_EQ(plain_counters, logged_counters);
    // One record per LP solve, discarded batch relaxations included.
    EXPECT_EQ(log.lp_record_count(), logged_counters.at("solver.lp_solves"));
  }
}

TEST(SolveLogTest, FingerprintIdenticalAcrossThreadCounts) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  for (const auto& [name, advise, branches] : kInputs) {
    std::string reference;
    size_t reference_lps = 0;
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      log.Enable();  // clears previous records and id counters
      Recommendation rec;
      const auto counters = SolverCounterDeltas(advise, threads, &rec);
      if (branches) {
        EXPECT_GT(rec.bb_nodes, 1);
      }
      EXPECT_EQ(log.lp_record_count(), counters.at("solver.lp_solves"));
      // One trajectory step per incumbent improvement, each better than
      // the last.
      for (const BipSolveStats& bip : log.BipRecords()) {
        ASSERT_EQ(bip.trajectory.size(), bip.incumbents);
        for (size_t i = 1; i < bip.trajectory.size(); ++i) {
          EXPECT_LT(bip.trajectory[i].value, bip.trajectory[i - 1].value);
        }
      }
      const std::string fp = log.Fingerprint();
      ASSERT_FALSE(fp.empty());
      if (reference.empty()) {
        reference = fp;
        reference_lps = log.lp_record_count();
      } else {
        EXPECT_EQ(fp, reference);
        EXPECT_EQ(log.lp_record_count(), reference_lps);
      }
    }
  }
}

// Fig. 13 scale 3 solves relaxations in its node batches whose nodes an
// incumbent found earlier in the same batch then prunes. Batch selection
// does not depend on the thread count, so one thread shows all of them.
// Each is logged stamped node -1, counts as an LP solve, and is charged to
// tree time, not to the root.
TEST(SolveLogTest, DiscardedBatchRelaxationsAreLoggedAsTreeTime) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable();
  Recommendation rec;
  const auto counters = SolverCounterDeltas(
      [](size_t threads) { return AdviseFig13(3, threads); }, 1, &rec);
  EXPECT_EQ(log.lp_record_count(), counters.at("solver.lp_solves"));

  const std::vector<LpSolveStats> lps = log.LpRecords();
  const std::string explain = log.Explain();
  size_t discarded_total = 0;
  double tree_ms = 0.0;
  double discarded_ms = 0.0;
  for (const LpSolveStats& lp : lps) {
    ASSERT_GT(lp.bip_id, 0u);
    if (lp.node_id != 0) tree_ms += lp.solve_ms;
    if (lp.node_id < 0) discarded_ms += lp.solve_ms;
  }
  for (const BipSolveStats& bip : log.BipRecords()) {
    SCOPED_TRACE("bip " + std::to_string(bip.id));
    // Every explored node logs exactly one relaxation under its ordinal;
    // every other record of the search is a discarded one, stamped -1.
    std::vector<int> explored;
    size_t discarded = 0;
    for (const LpSolveStats& lp : lps) {
      if (lp.bip_id != bip.id) continue;
      if (lp.node_id >= 0) {
        explored.push_back(lp.node_id);
      } else {
        EXPECT_EQ(lp.node_id, -1);
        ++discarded;
      }
    }
    std::sort(explored.begin(), explored.end());
    ASSERT_EQ(explored.size(), static_cast<size_t>(bip.nodes_explored));
    for (size_t i = 0; i < explored.size(); ++i) {
      EXPECT_EQ(explored[i], static_cast<int>(i));
    }
    if (discarded > 0) {
      EXPECT_NE(explain.find(std::to_string(discarded) +
                             " batch relaxations discarded"),
                std::string::npos);
    }
    discarded_total += discarded;
  }
  EXPECT_EQ(discarded_total, 8u);
  EXPECT_GT(discarded_ms, 0.0);
  char tree[64];
  std::snprintf(tree, sizeof(tree), "tree nodes %.2f ms", tree_ms);
  EXPECT_NE(explain.find(tree), std::string::npos) << explain;
}

// The report's "explain" section is the renderer's output for the log the
// report's "solve_log" section holds, as one JSON string.
TEST(SolveLogTest, ReportSectionRoundTrip) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable();
  AdviseHotel(1);
  ASSERT_GT(log.lp_record_count(), 0u);
  ASSERT_GT(log.bip_record_count(), 0u);

  const std::string explain = log.Explain();
  std::string section;
  obs::AppendJsonString(&section, explain);
  obs::RunReport report("advise");
  report.AddSection("solve_log", log.ToJson());
  report.AddSection("explain", section);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find(",\"explain\":" + section + "}"), std::string::npos);
  EXPECT_EQ(explain.rfind("== solve log ==\n", 0), 0u);
  EXPECT_NE(explain.find("== b&b solve 1 [optimal] =="), std::string::npos);
}

TEST(SolveLogTest, RingBufferDropsOldestAndCounts) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable();
  const size_t overflow = 6;
  for (size_t i = 0; i < SolveLog::kLpCapacity + overflow; ++i) {
    LpSolveStats stats;
    stats.rows = static_cast<int>(i);
    log.RecordLp(std::move(stats));
  }
  EXPECT_EQ(log.lp_record_count(), SolveLog::kLpCapacity);
  EXPECT_EQ(log.dropped_lp_records(), overflow);
  const std::vector<LpSolveStats> kept = log.LpRecords();
  ASSERT_EQ(kept.size(), SolveLog::kLpCapacity);
  // The oldest records fell off: ids overflow+1.. (1-based) survive.
  EXPECT_EQ(kept.front().id, overflow + 1);
  EXPECT_EQ(kept.front().rows, static_cast<int>(overflow));
  EXPECT_EQ(kept.back().id, SolveLog::kLpCapacity + overflow);

  for (size_t i = 0; i < SolveLog::kBipCapacity + overflow; ++i) {
    BipSolveStats stats;
    stats.id = i + 1;
    log.RecordBip(std::move(stats));
  }
  EXPECT_EQ(log.bip_record_count(), SolveLog::kBipCapacity);
  EXPECT_EQ(log.BipRecords().front().id, overflow + 1);
}

TEST(SolveLogTest, LpRecordsCarryBipContext) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable();
  AdviseHotel(1);
  // Advisor LP solves all happen inside B&B searches: every record must be
  // stamped with its enclosing solve so explain can attribute time.
  for (const LpSolveStats& lp : log.LpRecords()) {
    EXPECT_GT(lp.bip_id, 0u);
  }
  for (const BipSolveStats& bip : log.BipRecords()) {
    EXPECT_GT(bip.nodes_explored, 0);
  }
}

// explain_golden.txt is the diagnosis of one hotel advise:
//   nose advise --model workloads/hotel.model
//     --workload workloads/hotel.workload --report-json REPORT
// (the report's "explain" section). Its one LP and one bip record are
// rebuilt here field by field; Explain() is a pure function of the
// records, so it must reproduce the golden text byte for byte.
TEST(SolveLogTest, ExplainGolden) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable();

  LpSolveStats lp;
  lp.bip_id = 1;
  lp.node_id = 0;
  lp.status = "optimal";
  lp.rows = 179;
  lp.tableau_cols = 388;
  lp.iterations = 113;
  lp.phase1_iterations = 51;
  lp.bland_iterations = 0;
  lp.bound_flips = 30;
  lp.max_degenerate_streak = 50;
  lp.fill_start = 179;
  lp.fill_end = 273;
  lp.refactorizations = 3;
  lp.ft_updates = 81;
  lp.factor_fill = 273;
  lp.equilibration_cond = 1.0;
  lp.solve_ms = 0.734387;
  lp.fill_curve = {{0, 179}, {51, 244}};
  log.RecordLp(std::move(lp));

  BipSolveStats bip;
  bip.id = 1;
  bip.status = "optimal";
  bip.objective = 1.1868274349030468;
  bip.vars = 209;
  bip.rows = 179;
  bip.nonzeros = 547;
  bip.binaries = 49;
  bip.nodes_explored = 1;
  bip.max_depth = 0;
  bip.lp_iterations = 113;
  bip.incumbents = 1;
  bip.warm_started = true;
  bip.root_point_crash = true;
  bip.trajectory = {{/*node_id=*/0, /*depth=*/0, 1.1868274349030468}};
  bip.solve_ms = 0.916141;
  log.RecordBip(std::move(bip));

  std::string golden;
  std::string error;
  ASSERT_TRUE(obs::ReadFile(std::string(NOSE_TEST_DATA_DIR) +
                                "/explain_golden.txt",
                            &golden, &error))
      << error;
  const std::string rendered = log.Explain();
  EXPECT_EQ(rendered, golden);
  // The diagnosis the log exists for: fill growth and time attribution.
  EXPECT_NE(rendered.find("fill growth"), std::string::npos);
  EXPECT_NE(rendered.find("time attribution"), std::string::npos);
  EXPECT_NE(rendered.find("top lp time sinks"), std::string::npos);
}

}  // namespace
}  // namespace nose
