// Additional solver behaviors: warm starts, the root crash from the
// warm-start point, budgets, deadlines, gaps, the
// branch-and-bound-vs-brute-force equivalence property, and infeasibility
// verdicts proven from hot starts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "advisor/advisor.h"
#include "obs/metrics.h"
#include "optimizer/schema_optimizer.h"
#include "randwl/random_workload.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "solver/bip.h"
#include "solver/lp.h"
#include "tests/reference_evaluator.h"
#include "tests/reference_lp.h"
#include "util/rng.h"

namespace nose {
namespace {

TEST(BipWarmStartTest, WarmStartBecomesIncumbent) {
  // min -(a + b) s.t. a + b <= 1: optimum -1. Warm start (0,0) has value 0;
  // the solver must still find the true optimum.
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -1.0);
  int b = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddRow(RowType::kLe, 1.0, {{a, 1.0}, {b, 1.0}});
  std::vector<double> warm = {0.0, 0.0};
  BipOptions options;
  options.warm_start = &warm;
  BipResult r = SolveBip(lp, {a, b}, options);
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(BipWarmStartTest, ZeroNodeBudgetReturnsWarmStart) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -1.0);
  std::vector<double> warm = {0.0};
  BipOptions options;
  options.warm_start = &warm;
  options.max_nodes = 0;
  BipResult r = SolveBip(lp, {a}, options);
  // Budget exhausted before any node: the warm start survives as the
  // (unproven) answer.
  EXPECT_EQ(r.status, BipStatus::kNodeLimit);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(BipWarmStartTest, NoSolutionWithoutWarmStartAndZeroBudget) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -1.0);
  BipOptions options;
  options.max_nodes = 0;
  BipResult r = SolveBip(lp, {a}, options);
  EXPECT_EQ(r.status, BipStatus::kNoSolution);
}

TEST(BipWarmStartTest, AbandonedRelaxationIsNotClaimedOptimal) {
  // y is continuous with an unbounded improving direction, so the root
  // relaxation is unbounded and branch and bound abandons it. The search
  // must not then claim the warm start optimal, nor, without a warm
  // start, the problem infeasible.
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, 1.0);
  int y = lp.AddVariable(0.0, LpProblem::kInfinity, -1.0);
  lp.AddRow(RowType::kGe, 0.0, {{y, 1.0}, {a, -1.0}});
  std::vector<double> warm = {0.0, 0.0};
  BipOptions options;
  options.warm_start = &warm;
  BipResult r = SolveBip(lp, {a}, options);
  EXPECT_EQ(r.status, BipStatus::kNodeLimit);
  EXPECT_EQ(r.objective, 0.0);
  EXPECT_FALSE(std::isfinite(r.best_bound));
  EXPECT_EQ(SolveBip(lp, {a}).status, BipStatus::kNoSolution);
}

// ===========================================================================
// The root crash from the warm-start point, on the advisor's own BIPs: the
// root LP starts each structural column at the bound the warm start holds,
// so it reaches the slack crash's optimum in fewer pivots.
// ===========================================================================

/// Advises `mix` with the BIP capture hook installed.
BipCapture CaptureBip(const Workload& workload, const std::string& mix) {
  BipCapture capture;
  AdvisorOptions options;
  options.optimizer.capture_bip = &capture;
  Advisor advisor(options);
  auto rec = advisor.Recommend(workload, mix);
  EXPECT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE(capture.captured);
  return capture;
}

/// The root LP of `bip`, cold, from `point` (null: the slack crash).
LpResult SolveRoot(const BipCapture& bip, const std::vector<double>* point,
                   LpBasis* final_basis = nullptr,
                   const LpBasis* start_basis = nullptr) {
  return bip.lp.Solve({}, /*max_iterations=*/0, /*deadline_seconds=*/0.0,
                      start_basis, final_basis, /*duals=*/nullptr,
                      /*stats=*/nullptr, point);
}

/// True when `x` violates some row of `lp` by more than 1e-6.
bool ViolatesARow(const LpProblem& lp, const std::vector<double>& x) {
  for (int i = 0; i < lp.num_rows(); ++i) {
    const LpRow& row = lp.row(i);
    double activity = 0.0;
    for (size_t k = 0; k < row.indices.size(); ++k) {
      activity += row.values[k] * x[static_cast<size_t>(row.indices[k])];
    }
    const bool ok = row.type == RowType::kLe   ? activity <= row.rhs + 1e-6
                    : row.type == RowType::kGe ? activity >= row.rhs - 1e-6
                                : std::fabs(activity - row.rhs) <= 1e-6;
    if (!ok) return true;
  }
  return false;
}

void ExpectPointCrash(const BipCapture& bip) {
  ASSERT_EQ(bip.warm_start.size(),
            static_cast<size_t>(bip.lp.num_variables()));
  ASSERT_FALSE(ViolatesARow(bip.lp, bip.warm_start));
  const LpResult slack = SolveRoot(bip, nullptr);
  ASSERT_EQ(slack.status, LpStatus::kOptimal);
  EXPECT_FALSE(slack.point_crash);

  // From the warm point: the same optimum in fewer iterations, and an
  // optimal basis with no artificial left in it.
  LpBasis basis;
  const LpResult point = SolveRoot(bip, &bip.warm_start, &basis);
  ASSERT_EQ(point.status, LpStatus::kOptimal);
  EXPECT_TRUE(point.point_crash);
  EXPECT_NEAR(point.objective, slack.objective, 1e-9);
  EXPECT_LT(point.iterations, slack.iterations);
  EXPECT_FALSE(basis.empty());

  // The branch-and-bound root does the same and hands its basis out.
  BipOptions options;
  options.warm_start = &bip.warm_start;
  LpBasis root_basis;
  options.capture_root_basis = &root_basis;
  const BipResult solved = SolveBip(bip.lp, bip.binary_vars, options);
  EXPECT_EQ(solved.status, BipStatus::kOptimal);
  EXPECT_FALSE(root_basis.empty());

  // A rejected hot start falls back to the crash from the point.
  const LpBasis wrong_basis{{0, 2}};
  const LpResult rejected =
      SolveRoot(bip, &bip.warm_start, nullptr, &wrong_basis);
  EXPECT_FALSE(rejected.hot_started);
  EXPECT_TRUE(rejected.point_crash);
  EXPECT_EQ(rejected.iterations, point.iterations);

  // A point of the wrong size is ignored: the slack crash, pivot for pivot.
  const std::vector<double> short_point(bip.warm_start.begin(),
                                        bip.warm_start.end() - 1);
  const LpResult wrong_size = SolveRoot(bip, &short_point);
  ASSERT_EQ(wrong_size.status, LpStatus::kOptimal);
  EXPECT_FALSE(wrong_size.point_crash);
  EXPECT_EQ(wrong_size.iterations, slack.iterations);
  EXPECT_EQ(wrong_size.objective, slack.objective);

  // A point off the feasible set (everything at its upper bound) still
  // ends at the same optimum through phase 1.
  std::vector<double> all_upper(bip.warm_start.size());
  for (int v = 0; v < bip.lp.num_variables(); ++v) {
    all_upper[static_cast<size_t>(v)] = bip.lp.upper_bound(v);
  }
  ASSERT_TRUE(ViolatesARow(bip.lp, all_upper));
  const LpResult infeasible_point = SolveRoot(bip, &all_upper);
  ASSERT_EQ(infeasible_point.status, LpStatus::kOptimal);
  EXPECT_TRUE(infeasible_point.point_crash);
  EXPECT_NEAR(infeasible_point.objective, slack.objective, 1e-9);
}

TEST(RootPointCrashTest, RubisDefault) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  ExpectPointCrash(CaptureBip(**workload, rubis::kBiddingMix));
}

TEST(RootPointCrashTest, Fig13Scales) {
  // The instances bench/fig13_scaling runs at scales 1 and 2.
  for (size_t scale = 1; scale <= 2; ++scale) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    randwl::GeneratorOptions gen;
    gen.num_entities = 6 * scale;
    gen.num_statements = 12 * scale;
    gen.seed = 4242 + scale;
    auto rw = randwl::Generate(gen);
    ASSERT_TRUE(rw.ok()) << rw.status();
    ExpectPointCrash(CaptureBip(*rw->workload, Workload::kDefaultMix));
  }
}

TEST(RootPointCrashTest, SpaceLimitedAdviseKeepsTheSlackCrash) {
  // A storage budget makes the optimizer's all-candidates point
  // infeasible, so the solve gets no warm start and its root keeps the
  // slack crash: the whole search's pivot path, recorded before the point
  // crash existed, must not move.
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  auto free = Advisor().Recommend(**workload, rubis::kBiddingMix);
  ASSERT_TRUE(free.ok()) << free.status();
  // A budget that binds: the search takes 15 nodes instead of 1, so the
  // children's hot starts are on the pinned path too.
  const double limit = 0.9 * free->schema.TotalSizeBytes();

  BipCapture bip;
  AdvisorOptions options;
  options.optimizer.capture_bip = &bip;
  options.optimizer.space_limit_bytes = limit;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::map<std::string, uint64_t> before = reg.CounterValues();
  auto rec = Advisor(options).Recommend(**workload, rubis::kBiddingMix);
  const std::map<std::string, uint64_t> after = reg.CounterValues();
  ASSERT_TRUE(rec.ok()) << rec.status();
  auto delta = [&](const char* name) {
    const auto it = before.find(name);
    return after.at(name) - (it == before.end() ? 0 : it->second);
  };
  ASSERT_TRUE(bip.captured);
  EXPECT_TRUE(bip.warm_start.empty());
  EXPECT_EQ(delta("solver.simplex_iterations"), 1660u);
  EXPECT_EQ(delta("solver.lu_factorizations"), 52u);
  EXPECT_EQ(delta("solver.bb_nodes"), 15u);
  char objective[64];
  std::snprintf(objective, sizeof(objective), "%a", rec->objective);
  EXPECT_EQ(std::string(objective), "0x1.3cfdab9368bcep+3");
}

TEST(LpDeadlineTest, DeadlineReturnsIterationLimit) {
  // A large random LP with an absurdly small deadline must abort cleanly.
  Rng rng(3);
  LpProblem lp;
  const int n = 400;
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, static_cast<double>(rng.UniformRange(-9, 9)));
  }
  for (int r = 0; r < 300; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    for (int k = 0; k < 6; ++k) {
      coeffs.emplace_back(static_cast<int>(rng.Uniform(n)),
                          static_cast<double>(rng.UniformRange(1, 5)));
    }
    lp.AddRow(RowType::kGe, 2.0, std::move(coeffs));
  }
  LpResult r = lp.Solve({}, /*max_iterations=*/0, /*deadline_seconds=*/1e-9);
  EXPECT_EQ(r.status, LpStatus::kIterationLimit);
}

TEST(BipGapTest, TightGapFindsExactOptimum) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, 100.0);
  int b = lp.AddVariable(0.0, 1.0, 100.5);
  lp.AddRow(RowType::kEq, 1.0, {{a, 1.0}, {b, 1.0}});
  BipOptions options;
  BipResult r = SolveBip(lp, {a, b}, options);
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 100.0, 1e-6);
  EXPECT_NEAR(r.x[a], 1.0, 1e-6);
}

TEST(SimplexStressTest, ManyDegenerateFlowRows) {
  // Chains of equality flow constraints (the schema optimizer's structure)
  // with ties everywhere — exercises devex pricing + Bland fallback.
  LpProblem lp;
  const int kChains = 40;
  const int kWidth = 4;
  std::vector<int> prev;
  for (int c = 0; c < kChains; ++c) {
    std::vector<int> layer;
    for (int w = 0; w < kWidth; ++w) {
      layer.push_back(lp.AddVariable(0.0, 1.0, 1.0));  // equal costs: ties
    }
    std::vector<std::pair<int, double>> row;
    for (int v : layer) row.emplace_back(v, 1.0);
    if (prev.empty()) {
      lp.AddRow(RowType::kEq, 1.0, std::move(row));
    } else {
      for (int v : prev) row.emplace_back(v, -1.0);
      lp.AddRow(RowType::kEq, 0.0, std::move(row));
    }
    prev = std::move(layer);
  }
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, static_cast<double>(kChains), 1e-5);
}

// ===========================================================================
// Property: on random all-binary instances with integer costs, branch and
// bound over the production simplex lands on exactly the brute-force
// optimum. Integer costs over a 0/1 assignment sum exactly (both the
// incumbent recompute and the reference accumulate in variable-index
// order), so the comparison is bitwise — any drift or premature
// optimality claim in the simplex, its hot starts or its dual-simplex
// repair turns into a hard failure here, not a tolerance blur.
// ===========================================================================

LpProblem MakeRandomBinaryProgram(Rng* rng) {
  LpProblem lp;
  const int n = 6 + static_cast<int>(rng->Uniform(7));  // 6..12 binaries
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, static_cast<double>(rng->UniformRange(-10, 20)));
  }
  const int rows = 3 + static_cast<int>(rng->Uniform(6));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    for (int v = 0; v < n; ++v) {
      if (rng->Chance(0.3)) {
        double c = static_cast<double>(rng->UniformRange(-3, 3));
        if (c == 0.0) c = 1.0;
        coeffs.emplace_back(v, c);
      }
    }
    if (coeffs.empty()) coeffs.emplace_back(0, 1.0);
    // Mostly ≤ rows with generous right-hand sides so a healthy majority
    // of instances stay feasible; the occasional = / ≥ row with a tight
    // rhs still produces infeasible instances, a welcome outcome — the
    // solver must agree with brute force on kInfeasible too.
    const double pick = rng->NextDouble();
    RowType type = RowType::kLe;
    double rhs = static_cast<double>(rng->UniformRange(0, 6));
    if (pick > 0.85) {
      type = RowType::kEq;
      rhs = static_cast<double>(rng->UniformRange(-1, 2));
    } else if (pick > 0.6) {
      type = RowType::kGe;
      rhs = static_cast<double>(rng->UniformRange(-4, 2));
    }
    lp.AddRow(type, rhs, std::move(coeffs));
  }
  return lp;
}

TEST(BipBruteForcePropertyTest, BitwiseMatchesBruteForce) {
  int feasible_seen = 0;
  int infeasible_seen = 0;
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 7);
    LpProblem lp = MakeRandomBinaryProgram(&rng);
    std::vector<int> binaries(static_cast<size_t>(lp.num_variables()));
    for (int v = 0; v < lp.num_variables(); ++v) {
      binaries[static_cast<size_t>(v)] = v;
    }
    const ReferenceBipResult ref = ReferenceBipMinimize(lp);
    ref.feasible ? ++feasible_seen : ++infeasible_seen;

    BipOptions options;
    options.absolute_gap = 0.0;
    const BipResult got = SolveBip(lp, binaries, options);
    if (ref.feasible) {
      ASSERT_EQ(got.status, BipStatus::kOptimal) << "seed " << seed;
      EXPECT_EQ(got.objective, ref.objective) << "seed " << seed;
    } else {
      EXPECT_EQ(got.status, BipStatus::kInfeasible) << "seed " << seed;
    }
  }
  // The generator must exercise both outcomes or the property is vacuous.
  EXPECT_GT(feasible_seen, 10);
  EXPECT_GT(infeasible_seen, 5);
}

// ===========================================================================
// Farkas verdicts from hot starts: when the dual repair of a hot-started
// child finds no entering column, the solve reports kInfeasible only if the
// repair's pivot row certifies it (lp.cc, PivotRowProvesInfeasible), and
// otherwise re-solves cold. Both paths must agree with the reference
// tableau on the fixed LP.
// ===========================================================================

/// Random LP shaped like the schema optimizer's BIPs: binary selection
/// variables `d` gating continuous flows (x ≤ d), equality coverage rows
/// over the flows, and one ≤ budget row over everything. Costs spread over
/// twelve decades, like the optimizer's byte- and request-scale terms, so
/// the equilibrated budget row mixes tiny and unit coefficients and pivot
/// rows carry the rounding-level entries on unbounded slacks that the
/// implied slack boxes exist for.
LpProblem MakeRandomFlowProgram(Rng* rng, std::vector<int>* binaries) {
  auto cost = [rng] {
    return std::pow(10.0, -6.0 + 12.0 * rng->NextDouble());
  };
  LpProblem lp;
  const int num_d = 10 + static_cast<int>(rng->Uniform(20));
  const int num_cover = 4 + static_cast<int>(rng->Uniform(10));
  for (int k = 0; k < num_d; ++k) {
    binaries->push_back(lp.AddVariable(0.0, 1.0, cost()));
  }
  std::vector<std::pair<int, double>> budget;
  for (int d : *binaries) budget.emplace_back(d, lp.cost(d));
  for (int c = 0; c < num_cover; ++c) {
    std::vector<std::pair<int, double>> cover;
    for (int d : *binaries) {
      if (!rng->Chance(0.4)) continue;
      const double x_cost = cost();
      const int x = lp.AddVariable(0.0, 1.0, x_cost);
      lp.AddRow(RowType::kLe, 0.0, {{x, 1.0}, {d, -1.0}});
      cover.emplace_back(x, 1.0);
      budget.emplace_back(x, x_cost);
    }
    if (cover.empty()) continue;
    lp.AddRow(RowType::kEq, 1.0, std::move(cover));
  }
  double total = 0.0;
  for (const auto& [var, c] : budget) total += c;
  lp.AddRow(RowType::kLe, total * (0.05 + 0.3 * rng->NextDouble()),
            std::move(budget));
  return lp;
}

uint64_t FarkasVerdicts() {
  return obs::MetricsRegistry::Global()
      .GetCounter("solver.lp_farkas_infeasible")
      .value();
}

TEST(FarkasHotStartPropertyTest, StatusMatchesReferenceUnderRandomFixings) {
  const uint64_t farkas_before = FarkasVerdicts();
  int hot_solves = 0;
  int infeasible_seen = 0;
  for (int seed = 0; seed < 48; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 11);
    std::vector<int> binaries;
    const LpProblem lp = MakeRandomFlowProgram(&rng, &binaries);
    LpBasis root_basis;
    const LpResult root = lp.Solve({}, 0, 0.0, nullptr, &root_basis);
    if (root.status != LpStatus::kOptimal || root_basis.empty()) continue;
    for (int trial = 0; trial < 12; ++trial) {
      // Fix a random subset of the binaries, as a branch-and-bound node
      // several levels down would.
      const uint64_t n = binaries.size();
      const int count = 1 + static_cast<int>(rng.Uniform(n / 2 + 1));
      std::vector<std::tuple<int, double, double>> fixings;
      LpProblem fixed = lp;
      for (int k = 0; k < count; ++k) {
        const int var = binaries[rng.Uniform(n)];
        const double value = rng.Chance(0.5) ? 1.0 : 0.0;
        fixings.emplace_back(var, value, value);
        fixed.SetBounds(var, value, value);  // a repeated var: last one wins
      }
      const LpResult reference = ReferenceLpSolve(fixed);
      const LpResult hot = lp.Solve(fixings, 0, 0.0, &root_basis);
      ++hot_solves;
      ASSERT_EQ(hot.status, reference.status)
          << "seed " << seed << " trial " << trial;
      if (reference.status == LpStatus::kInfeasible) ++infeasible_seen;
      if (reference.status == LpStatus::kOptimal) {
        const double scale = 1.0 + std::fabs(reference.objective);
        EXPECT_NEAR(hot.objective, reference.objective, 1e-7 * scale)
            << "seed " << seed << " trial " << trial;
      }
    }
  }
  EXPECT_GE(hot_solves, 500);
  EXPECT_GE(infeasible_seen, 50);
  // The certificate path must carry the verdicts (55 of 55 here); a check
  // that proves nothing would pass the status comparison vacuously, and
  // one without the implied slack boxes proves only 43.
  EXPECT_GE(FarkasVerdicts() - farkas_before, 50u);
}

TEST(FarkasHotStartTest, CertificateNeedsImpliedSlackBox) {
  // min b − z  s.t.  R0: y − 1e-10·z − b = 0.5   (y, z in [0, 1])
  //                  R1: z ≤ 0.5                   (slack s1 ≥ 0)
  // The optimum has y and z basic and b at 0. Fixing b = 1 pushes y to
  // 1.5 + 5e-11, above its bound. The repair's pivot row for y reads
  // y − b + 1e-10·s1 = 0.5 + 5e-11: the only column that could pull y
  // back is s1, with a pivot too small to take, so the repair stops.
  // With s1 in [0, ∞) the row bounds nothing; with the box R1 implies,
  // s1 = 0.5 − z in [0, 0.5], it proves y ≥ 1.5.
  LpProblem lp;
  const int y = lp.AddVariable(0.0, 1.0, 0.0);
  const int z = lp.AddVariable(0.0, 1.0, -1.0);
  const int b = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kEq, 0.5, {{y, 1.0}, {z, -1e-10}, {b, -1.0}});
  lp.AddRow(RowType::kLe, 0.5, {{z, 1.0}});
  LpBasis basis;
  const LpResult root = lp.Solve({}, 0, 0.0, nullptr, &basis);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  ASSERT_FALSE(basis.empty());
  ASSERT_EQ(basis.status[static_cast<size_t>(y)], 2);  // basic
  ASSERT_EQ(basis.status[static_cast<size_t>(z)], 2);

  LpProblem fixed = lp;
  fixed.SetBounds(b, 1.0, 1.0);
  ASSERT_EQ(ReferenceLpSolve(fixed).status, LpStatus::kInfeasible);

  const uint64_t farkas_before = FarkasVerdicts();
  const LpResult child = lp.Solve({{b, 1.0, 1.0}}, 0, 0.0, &basis);
  EXPECT_EQ(child.status, LpStatus::kInfeasible);
  EXPECT_TRUE(child.hot_started);
  EXPECT_EQ(FarkasVerdicts() - farkas_before, 1u);
}

TEST(FarkasHotStartTest, TightAggregateIsLeftToColdPhase1) {
  // min b − z  s.t.  R0: y − 1e-10·z − b = 0   (y in [0, 1], z ≥ 0)
  //                  R1: z ≤ 1e5               (slack s1 ≥ 0)
  // The optimum has z = 1e5 and y = 1e-5 basic, b at 0. Fixing b = 1
  // pushes y to 1 + 1e-5; the repair stops on the same too-small pivot
  // as above. But the LP is feasible (z = 0, y = 1): the aggregated row
  // y − b + 1e-10·s1 = 1e-5 reaches the top of its range exactly, inside
  // the margin, so no proof is claimed and the cold phase 1 decides.
  LpProblem lp;
  const int y = lp.AddVariable(0.0, 1.0, 0.0);
  const int z = lp.AddVariable(0.0, LpProblem::kInfinity, -1.0);
  const int b = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kEq, 0.0, {{y, 1.0}, {z, -1e-10}, {b, -1.0}});
  lp.AddRow(RowType::kLe, 1e5, {{z, 1.0}});
  LpBasis basis;
  const LpResult root = lp.Solve({}, 0, 0.0, nullptr, &basis);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  ASSERT_EQ(basis.status[static_cast<size_t>(y)], 2);  // basic
  ASSERT_EQ(basis.status[static_cast<size_t>(z)], 2);

  LpProblem fixed = lp;
  fixed.SetBounds(b, 1.0, 1.0);
  const LpResult reference = ReferenceLpSolve(fixed);
  ASSERT_EQ(reference.status, LpStatus::kOptimal);

  const uint64_t farkas_before = FarkasVerdicts();
  const LpResult child = lp.Solve({{b, 1.0, 1.0}}, 0, 0.0, &basis);
  ASSERT_EQ(child.status, LpStatus::kOptimal);
  EXPECT_NEAR(child.objective, reference.objective, 1e-7);
  EXPECT_FALSE(child.hot_started);  // the basis was rejected, not used
  EXPECT_EQ(FarkasVerdicts(), farkas_before);
}

}  // namespace
}  // namespace nose
