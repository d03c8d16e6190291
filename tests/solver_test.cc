#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "solver/bip.h"
#include "solver/lp.h"
#include "tests/reference_evaluator.h"
#include "util/rng.h"

namespace nose {
namespace {

constexpr double kTol = 1e-5;

TEST(LpTest, TrivialBoundsOnlyMinimization) {
  LpProblem lp;
  lp.AddVariable(0.0, 5.0, 2.0);
  lp.AddVariable(1.0, 4.0, -3.0);
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.0, kTol);
  EXPECT_NEAR(r.x[1], 4.0, kTol);
  EXPECT_NEAR(r.objective, -12.0, kTol);
}

TEST(LpTest, ClassicTwoVariableProblem) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative)
  LpProblem lp;
  int x = lp.AddVariable(0.0, LpProblem::kInfinity, -3.0);
  int y = lp.AddVariable(0.0, LpProblem::kInfinity, -5.0);
  lp.AddRow(RowType::kLe, 4.0, {{x, 1.0}});
  lp.AddRow(RowType::kLe, 12.0, {{y, 2.0}});
  lp.AddRow(RowType::kLe, 18.0, {{x, 3.0}, {y, 2.0}});
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_NEAR(r.x[1], 6.0, kTol);
  EXPECT_NEAR(r.objective, -36.0, kTol);
}

TEST(LpTest, EqualityConstraint) {
  LpProblem lp;
  int x = lp.AddVariable(0.0, 10.0, 1.0);
  int y = lp.AddVariable(0.0, 10.0, 2.0);
  lp.AddRow(RowType::kEq, 7.0, {{x, 1.0}, {y, 1.0}});
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 7.0, kTol);
  EXPECT_NEAR(r.x[1], 0.0, kTol);
  EXPECT_NEAR(r.objective, 7.0, kTol);
}

TEST(LpTest, GreaterEqualConstraint) {
  LpProblem lp;
  int x = lp.AddVariable(0.0, LpProblem::kInfinity, 3.0);
  int y = lp.AddVariable(0.0, LpProblem::kInfinity, 4.0);
  lp.AddRow(RowType::kGe, 10.0, {{x, 1.0}, {y, 2.0}});
  lp.AddRow(RowType::kGe, 3.0, {{x, 1.0}});
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // x = 3 forced; remaining 7/2 = 3.5 of y is cheaper per unit of coverage.
  EXPECT_NEAR(r.x[0], 3.0, kTol);
  EXPECT_NEAR(r.x[1], 3.5, kTol);
  EXPECT_NEAR(r.objective, 23.0, kTol);
}

TEST(LpTest, InfeasibleDetected) {
  LpProblem lp;
  int x = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kGe, 2.0, {{x, 1.0}});
  LpResult r = lp.Solve();
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(LpTest, UnboundedDetected) {
  LpProblem lp;
  int x = lp.AddVariable(0.0, LpProblem::kInfinity, -1.0);
  lp.AddRow(RowType::kGe, 0.0, {{x, 1.0}});
  LpResult r = lp.Solve();
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(LpTest, NegativeRhsHandled) {
  LpProblem lp;
  int x = lp.AddVariable(-5.0, 5.0, 1.0);
  lp.AddRow(RowType::kLe, -2.0, {{x, 1.0}});
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], -5.0, kTol);
}

TEST(LpTest, BoundOverridesApplyOnlyToThatSolve) {
  LpProblem lp;
  int x = lp.AddVariable(0.0, 1.0, -1.0);
  LpResult pinned = lp.Solve({{x, 0.0, 0.0}});
  ASSERT_EQ(pinned.status, LpStatus::kOptimal);
  EXPECT_NEAR(pinned.x[0], 0.0, kTol);
  LpResult free = lp.Solve();
  ASSERT_EQ(free.status, LpStatus::kOptimal);
  EXPECT_NEAR(free.x[0], 1.0, kTol);
}

TEST(LpTest, DuplicateCoefficientsAreSummed) {
  LpProblem lp;
  int x = lp.AddVariable(0.0, 10.0, 1.0);
  lp.AddRow(RowType::kGe, 6.0, {{x, 1.0}, {x, 2.0}});
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
}

// ---------------------------------------------------------------------------
// BIP tests
// ---------------------------------------------------------------------------

TEST(BipTest, SimpleKnapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5 (binary) -> a=1, b=1.
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -5.0);
  int b = lp.AddVariable(0.0, 1.0, -4.0);
  int c = lp.AddVariable(0.0, 1.0, -3.0);
  lp.AddRow(RowType::kLe, 5.0, {{a, 2.0}, {b, 3.0}, {c, 1.0}});
  BipResult r = SolveBip(lp, {a, b, c});
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -9.0, kTol);
  EXPECT_NEAR(r.x[a], 1.0, kTol);
  EXPECT_NEAR(r.x[b], 1.0, kTol);
  EXPECT_NEAR(r.x[c], 0.0, kTol);
}

TEST(BipTest, InfeasibleBinaryProblem) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, 1.0);
  int b = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kEq, 1.5, {{a, 2.0}, {b, 4.0}});  // no 0/1 combination
  BipResult r = SolveBip(lp, {a, b});
  EXPECT_EQ(r.status, BipStatus::kInfeasible);
}

TEST(BipTest, ImplicationConstraints) {
  // Mimics NoSE linking: edge <= cf, choose exactly one edge.
  LpProblem lp;
  int e1 = lp.AddVariable(0.0, 1.0, 3.0);
  int e2 = lp.AddVariable(0.0, 1.0, 5.0);
  int cf1 = lp.AddVariable(0.0, 1.0, 4.0);  // maintenance cost makes e2 win
  int cf2 = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kEq, 1.0, {{e1, 1.0}, {e2, 1.0}});
  lp.AddRow(RowType::kLe, 0.0, {{e1, 1.0}, {cf1, -1.0}});
  lp.AddRow(RowType::kLe, 0.0, {{e2, 1.0}, {cf2, -1.0}});
  BipResult r = SolveBip(lp, {e1, e2, cf1, cf2});
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, kTol);
  EXPECT_NEAR(r.x[e2], 1.0, kTol);
  EXPECT_NEAR(r.x[cf2], 1.0, kTol);
}

// Brute force over all 0/1 assignments for cross-checking.
double BruteForceBip(const LpProblem& lp, int n, bool* feasible) {
  double best = LpProblem::kInfinity;
  *feasible = false;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<std::tuple<int, double, double>> fix;
    for (int j = 0; j < n; ++j) {
      const double v = (mask >> j) & 1 ? 1.0 : 0.0;
      fix.emplace_back(j, v, v);
    }
    // With all variables fixed the LP solve is a feasibility check.
    LpResult r = lp.Solve(fix);
    if (r.status == LpStatus::kOptimal) {
      *feasible = true;
      best = std::min(best, r.objective);
    }
  }
  return best;
}

class RandomBipTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBipTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int n = 3 + static_cast<int>(rng.Uniform(8));  // 3..10 binaries
  LpProblem lp;
  for (int j = 0; j < n; ++j) {
    lp.AddVariable(0.0, 1.0, rng.UniformRange(-20, 20));
  }
  const int rows = 1 + static_cast<int>(rng.Uniform(6));
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < n; ++j) {
      if (rng.Chance(0.5)) {
        coeffs.emplace_back(j, static_cast<double>(rng.UniformRange(-5, 5)));
      }
    }
    if (coeffs.empty()) coeffs.emplace_back(0, 1.0);
    const RowType type = static_cast<RowType>(rng.Uniform(3));
    double rhs = static_cast<double>(rng.UniformRange(-4, 8));
    if (type == RowType::kEq) {
      // Make equality rows satisfiable reasonably often: use the row value
      // of a random 0/1 point as the rhs.
      double v = 0.0;
      for (const auto& [j, c] : coeffs) {
        if (rng.Chance(0.5)) v += c;
        (void)j;
      }
      rhs = v;
    }
    lp.AddRow(type, rhs, coeffs);
  }

  std::vector<int> binaries(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) binaries[static_cast<size_t>(j)] = j;
  BipResult bb = SolveBip(lp, binaries);

  bool feasible = false;
  const double brute = BruteForceBip(lp, n, &feasible);
  if (!feasible) {
    EXPECT_EQ(bb.status, BipStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(bb.status, BipStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(bb.objective, brute, 1e-4) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBipTest, ::testing::Range(0, 60));

// Random LPs must satisfy their own constraints at the reported optimum.
class RandomLpFeasibilityTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpFeasibilityTest, SolutionSatisfiesConstraints) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const int n = 2 + static_cast<int>(rng.Uniform(10));
  LpProblem lp;
  for (int j = 0; j < n; ++j) {
    const double lb = static_cast<double>(rng.UniformRange(-3, 0));
    const double ub = lb + static_cast<double>(rng.UniformRange(1, 6));
    lp.AddVariable(lb, ub, static_cast<double>(rng.UniformRange(-10, 10)));
  }
  struct RowCopy {
    RowType type;
    double rhs;
    std::vector<std::pair<int, double>> coeffs;
  };
  std::vector<RowCopy> rows;
  const int m = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < m; ++i) {
    RowCopy row;
    for (int j = 0; j < n; ++j) {
      if (rng.Chance(0.6)) {
        row.coeffs.emplace_back(j, static_cast<double>(rng.UniformRange(-4, 4)));
      }
    }
    if (row.coeffs.empty()) row.coeffs.emplace_back(0, 1.0);
    row.type = static_cast<RowType>(rng.Uniform(2));  // only Le / Ge
    row.rhs = static_cast<double>(rng.UniformRange(-10, 10));
    rows.push_back(row);
    lp.AddRow(row.type, row.rhs, row.coeffs);
  }
  LpResult r = lp.Solve();
  if (r.status != LpStatus::kOptimal) return;  // infeasible is acceptable
  for (int j = 0; j < n; ++j) {
    EXPECT_GE(r.x[static_cast<size_t>(j)], lp.lower_bound(j) - kTol);
    EXPECT_LE(r.x[static_cast<size_t>(j)], lp.upper_bound(j) + kTol);
  }
  for (const auto& row : rows) {
    double lhs = 0.0;
    std::vector<double> sum(static_cast<size_t>(n), 0.0);
    for (const auto& [j, c] : row.coeffs) sum[static_cast<size_t>(j)] += c;
    for (int j = 0; j < n; ++j) lhs += sum[static_cast<size_t>(j)] * r.x[static_cast<size_t>(j)];
    if (row.type == RowType::kLe) {
      EXPECT_LE(lhs, row.rhs + 1e-4);
    } else {
      EXPECT_GE(lhs, row.rhs - 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpFeasibilityTest,
                         ::testing::Range(0, 40));

/// Random weighted set-cover BIPs salted with redundant rows: duplicate
/// and positively scaled duplicate coverage rows, and singleton rows that
/// force some sets in and forbid others.
LpProblem MakeRandomCover(Rng* rng, std::vector<int>* binaries) {
  LpProblem lp;
  const int num_sets = static_cast<int>(rng->UniformRange(6, 14));
  const int num_items = static_cast<int>(rng->UniformRange(4, 10));
  for (int s = 0; s < num_sets; ++s) {
    binaries->push_back(
        lp.AddVariable(0.0, 1.0, 1.0 + static_cast<double>(rng->Uniform(9))));
  }
  for (int i = 0; i < num_items; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int s = 0; s < num_sets; ++s) {
      if (rng->Chance(0.4)) coeffs.emplace_back(s, 1.0);
    }
    if (coeffs.empty()) coeffs.emplace_back(static_cast<int>(rng->Uniform(num_sets)), 1.0);
    lp.AddRow(RowType::kGe, 1.0, coeffs);
    if (rng->Chance(0.3)) lp.AddRow(RowType::kGe, 1.0, coeffs);  // duplicate
    if (rng->Chance(0.3)) {
      // Positive scaling of the same cover row.
      const double s = 0.5 + static_cast<double>(rng->Uniform(8));
      std::vector<std::pair<int, double>> scaled = coeffs;
      for (auto& [v, c] : scaled) c *= s;
      lp.AddRow(RowType::kGe, s, scaled);
    }
  }
  // A few singleton rows: force some sets in, forbid others.
  for (int s = 0; s < num_sets; ++s) {
    if (rng->Chance(0.15)) lp.AddRow(RowType::kGe, 1.0, {{s, 1.0}});
    if (rng->Chance(0.1)) lp.AddRow(RowType::kLe, 0.0, {{s, 1.0}});
  }
  return lp;
}

TEST(BipTest, RandomCoversMatchBruteForce) {
  // Both gaps at 0 and integer costs: the incumbent's objective, summed in
  // index order, must equal the brute-force optimum bit for bit.
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 3);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    BipOptions options;
    options.absolute_gap = 0.0;
    const BipResult bip = SolveBip(lp, binaries, options);
    const ReferenceBipResult ref = ReferenceBipMinimize(lp);

    ASSERT_EQ(bip.status == BipStatus::kOptimal, ref.feasible)
        << "seed " << seed;
    if (!ref.feasible) {
      EXPECT_EQ(bip.status, BipStatus::kInfeasible) << "seed " << seed;
      continue;
    }
    EXPECT_EQ(bip.objective, ref.objective) << "seed " << seed;
  }
}

TEST(BasisHotStartTest, OptimalBasisRoundTripsIntoHotStart) {
  // A small LP solved twice: the second solve has different costs but the
  // same rows, so the captured basis loads and phase 1 is skipped.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 10.0, 1.0);
  int x1 = lp.AddVariable(0.0, 10.0, 2.0);
  lp.AddRow(RowType::kGe, 4.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kLe, 8.0, {{x0, 2.0}, {x1, 1.0}});

  LpBasis basis;
  LpResult first = lp.Solve({}, 0, 0.0, nullptr, &basis);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_FALSE(basis.empty());
  // One status per structural column plus one per inequality slack.
  EXPECT_EQ(basis.status.size(), 4u);

  lp.SetCost(x0, 5.0);
  LpResult hot = lp.Solve({}, 0, 0.0, &basis, nullptr);
  LpResult cold = lp.Solve({}, 0, 0.0, nullptr, nullptr);
  ASSERT_EQ(hot.status, LpStatus::kOptimal);
  EXPECT_TRUE(hot.hot_started);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-9);
}

TEST(BasisHotStartTest, MalformedBasisIsRejectedNotTrusted) {
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 10.0, 1.0);
  int x1 = lp.AddVariable(0.0, 10.0, 2.0);
  lp.AddRow(RowType::kGe, 4.0, {{x0, 1.0}, {x1, 1.0}});

  LpBasis wrong_size;
  wrong_size.status = {2};  // too short for 2 structurals + 1 slack
  LpResult r = lp.Solve({}, 0, 0.0, &wrong_size, nullptr);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_FALSE(r.hot_started);

  LpBasis all_basic;
  all_basic.status = {2, 2, 2};  // basic count != row count: singular
  LpResult r2 = lp.Solve({}, 0, 0.0, &all_basic, nullptr);
  ASSERT_EQ(r2.status, LpStatus::kOptimal);
  EXPECT_FALSE(r2.hot_started);
  EXPECT_NEAR(r.objective, r2.objective, 1e-9);
}

TEST(BasisHotStartTest, RandomCoverRootBasisReplaysAcrossCostChanges) {
  // The incremental-advisor pattern: capture the root basis of one BIP
  // solve, perturb only the objective, and re-solve with the basis as the
  // root hot start. The selected objective must match a cold re-solve.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 11);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    LpBasis root;
    BipOptions capture;
    capture.capture_root_basis = &root;
    BipResult first = SolveBip(lp, binaries, capture);
    if (first.status != BipStatus::kOptimal || root.empty()) continue;

    for (int v : binaries) lp.SetCost(v, lp.cost(v) + 0.25);
    BipOptions hot;
    hot.root_basis = &root;
    BipResult warm = SolveBip(lp, binaries, hot);
    BipOptions cold_opts;
    BipResult cold = SolveBip(lp, binaries, cold_opts);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
    if (warm.status == BipStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace nose
