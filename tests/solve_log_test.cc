// Solver telemetry (SolveLog): the determinism contract — the timing-free
// fingerprint of an advise is bitwise-identical at any thread count — and
// the production contract — the log records the search the advisor runs
// without it, one record per LP solve — on hotel (a one-node search) and
// RUBiS `default` (a branching one, whose batches hold several nodes).
// Plus disabled-by-default behaviour, round-tripping through a run report's
// "solve_log" section, ring-buffer semantics, and a golden test of the
// `nose explain` renderer against the bundled run report under tests/data/.

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
#include "rubis/model.h"
#include "rubis/workload.h"
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

/// Advises RUBiS `default` at `threads` workers: its B&B branches, so
/// node batches hold several relaxations and some get discarded.
Recommendation AdviseRubis(size_t threads) {
  auto graph = rubis::MakeGraph();
  EXPECT_TRUE(graph.ok());
  auto workload = rubis::MakeWorkload(**graph);
  EXPECT_TRUE(workload.ok());
  AdvisorOptions options;
  options.num_threads = threads;
  Advisor advisor(options);
  auto rec = advisor.Recommend(**workload, rubis::kBiddingMix);
  EXPECT_TRUE(rec.ok());
  return std::move(rec).value();
}

using AdviseFn = Recommendation (*)(size_t threads);
const std::vector<std::pair<const char*, AdviseFn>> kInputs = {
    {"hotel", AdviseHotel}, {"rubis-default", AdviseRubis}};

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
  EXPECT_EQ(log.node_event_count(), 0u);
  EXPECT_EQ(log.bip_record_count(), 0u);
}

TEST(SolveLogTest, EnablingDoesNotPerturbResults) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  for (const auto& [name, advise] : kInputs) {
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
  for (const auto& [name, advise] : kInputs) {
    std::string reference;
    size_t reference_lps = 0;
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      log.Enable();  // clears previous records and id counters
      Recommendation rec;
      const auto counters = SolverCounterDeltas(advise, threads, &rec);
      EXPECT_EQ(log.lp_record_count(), counters.at("solver.lp_solves"));
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

TEST(SolveLogTest, ReportSectionRoundTrip) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable();
  AdviseHotel(1);

  const std::vector<LpSolveStats> lps = log.LpRecords();
  const std::vector<BipSolveStats> bips = log.BipRecords();
  ASSERT_FALSE(lps.empty());
  ASSERT_FALSE(bips.empty());

  obs::RunReport report("advise");
  report.AddSection("solve_log", log.ToJson());
  const std::string path = ::testing::TempDir() + "solve_log_report.json";
  std::string error;
  ASSERT_TRUE(report.WriteJson(path, &error)) << error;
  SolveLogData parsed;
  ASSERT_TRUE(ReadSolveLog(path, &parsed, &error)) << error;
  std::remove(path.c_str());
  ASSERT_EQ(parsed.lp.size(), lps.size());
  ASSERT_EQ(parsed.nodes.size(), log.node_event_count());
  ASSERT_EQ(parsed.bips.size(), bips.size());

  for (size_t i = 0; i < lps.size(); ++i) {
    EXPECT_EQ(parsed.lp[i].id, lps[i].id);
    EXPECT_EQ(parsed.lp[i].status, lps[i].status);
    EXPECT_EQ(parsed.lp[i].rows, lps[i].rows);
    EXPECT_EQ(parsed.lp[i].iterations, lps[i].iterations);
    EXPECT_EQ(parsed.lp[i].fill_end, lps[i].fill_end);
    EXPECT_EQ(parsed.lp[i].bip_id, lps[i].bip_id);
    EXPECT_EQ(parsed.lp[i].node_id, lps[i].node_id);
    EXPECT_EQ(parsed.lp[i].fill_curve, lps[i].fill_curve);
  }
  for (size_t i = 0; i < bips.size(); ++i) {
    EXPECT_EQ(parsed.bips[i].status, bips[i].status);
    EXPECT_EQ(parsed.bips[i].objective, bips[i].objective);
    EXPECT_EQ(parsed.bips[i].nodes_explored, bips[i].nodes_explored);
    EXPECT_EQ(parsed.bips[i].incumbents, bips[i].incumbents);
  }
}

TEST(SolveLogTest, RingBufferDropsOldestAndCounts) {
  SolveLogGuard guard;
  SolveLog& log = SolveLog::Global();
  log.Enable(/*max_lp_records=*/4, /*max_node_events=*/3,
             /*max_bip_records=*/2);
  for (int i = 0; i < 10; ++i) {
    LpSolveStats stats;
    stats.rows = i;
    log.RecordLp(std::move(stats));
  }
  EXPECT_EQ(log.lp_record_count(), 4u);
  EXPECT_EQ(log.dropped_lp_records(), 6u);
  const std::vector<LpSolveStats> kept = log.LpRecords();
  ASSERT_EQ(kept.size(), 4u);
  // The oldest records fell off: ids 7..10 (1-based) survive.
  EXPECT_EQ(kept.front().id, 7u);
  EXPECT_EQ(kept.front().rows, 6);
  EXPECT_EQ(kept.back().id, 10u);

  for (int i = 0; i < 5; ++i) {
    BbNodeEvent event;
    event.depth = i;
    log.RecordNode(std::move(event));
  }
  EXPECT_EQ(log.node_event_count(), 3u);
  EXPECT_EQ(log.dropped_node_events(), 2u);
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

// The golden pair under tests/data/ comes from one hotel advise:
//   nose advise --model workloads/hotel.model
//     --workload workloads/hotel.workload --report-json REPORT
//   nose explain REPORT > tests/data/explain_golden.txt
// explain_golden.json is a run report whose "solve_log" section holds that
// run's records verbatim (captured when the solve log was a JSONL file of
// its own, and converted once; the text was rendered from the JSONL).
// ExplainSolveLog is a pure function of the records, so the rendered
// report must reproduce the golden text byte for byte.
TEST(SolveLogTest, ExplainGolden) {
  const std::string dir = NOSE_TEST_DATA_DIR;
  SolveLogData data;
  std::string error;
  ASSERT_TRUE(ReadSolveLog(dir + "/explain_golden.json", &data, &error))
      << error;
  std::string golden;
  ASSERT_TRUE(obs::ReadFile(dir + "/explain_golden.txt", &golden, &error))
      << error;

  const std::string rendered = ExplainSolveLog(data);
  EXPECT_EQ(rendered, golden);
  // The diagnosis the log exists for: fill growth and time attribution.
  EXPECT_NE(rendered.find("fill growth"), std::string::npos);
  EXPECT_NE(rendered.find("time attribution"), std::string::npos);
  EXPECT_NE(rendered.find("top lp time sinks"), std::string::npos);
}

}  // namespace
}  // namespace nose
