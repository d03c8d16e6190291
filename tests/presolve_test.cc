#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "solver/bip.h"
#include "solver/presolve.h"
#include "util/rng.h"

namespace nose {
namespace {

TEST(PresolveTest, SingletonRowBecomesBound) {
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kLe, 1.0, {{x0, 2.0}});          // x0 <= 0.5
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, /*binary_vars=*/{}, &summary);
  EXPECT_EQ(summary.singleton_rows_dropped, 1);
  EXPECT_EQ(summary.bounds_tightened, 1);
  EXPECT_FALSE(summary.infeasible);
  EXPECT_EQ(reduced.num_rows(), 1);
  EXPECT_DOUBLE_EQ(reduced.upper_bound(x0), 0.5);
  EXPECT_DOUBLE_EQ(reduced.upper_bound(x1), 1.0);
}

TEST(PresolveTest, SingletonBoundRoundsForBinaries) {
  // Branch fixings REPLACE bounds, so a fractional tightening on a binary
  // must round to the integral feasible set: x0 <= 0.5 becomes x0 <= 0.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddRow(RowType::kLe, 0.5, {{x0, 1.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {x0}, &summary);
  EXPECT_FALSE(summary.infeasible);
  EXPECT_DOUBLE_EQ(reduced.upper_bound(x0), 0.0);
}

TEST(PresolveTest, DuplicateInequalityRowsDeduped) {
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});  // exact duplicate
  // Same coefficients, larger rhs: strictly tighter, dominates the first.
  lp.AddRow(RowType::kGe, 2.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kEq, 1.0, {{x0, 1.0}, {x1, 1.0}});  // eq rows never deduped
  lp.AddRow(RowType::kEq, 1.0, {{x0, 1.0}, {x1, 1.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {}, &summary);
  EXPECT_EQ(summary.duplicate_rows_dropped, 1);
  EXPECT_EQ(summary.dominated_rows_dropped, 1);
  EXPECT_EQ(reduced.num_rows(), 3);
}

TEST(PresolveTest, PositiveScaledDuplicateRowsDeduped) {
  // 2·(x0 + x1 ≥ 1) bounds the same half-space as x0 + x1 ≥ 1: dropped
  // under the scaled counter, not the byte-exact one.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kGe, 2.0, {{x0, 2.0}, {x1, 2.0}});    // 2x scaling
  lp.AddRow(RowType::kGe, 0.25, {{x0, 0.25}, {x1, 0.25}});  // 1/4 scaling

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {}, &summary);
  EXPECT_EQ(summary.duplicate_rows_dropped, 0);
  EXPECT_EQ(summary.scaled_duplicate_rows_dropped, 2);
  EXPECT_EQ(reduced.num_rows(), 1);
}

TEST(PresolveTest, NegativeScalingIsNotADuplicate) {
  // -1·(x0 + x1 ≥ 1) flips the half-space; with the sense unchanged the
  // rows constrain different sets and both must survive.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kGe, -1.0, {{x0, -1.0}, {x1, -1.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {}, &summary);
  EXPECT_EQ(summary.scaled_duplicate_rows_dropped, 0);
  EXPECT_EQ(reduced.num_rows(), 2);
}

TEST(PresolveTest, ScaledCoefficientsWithMismatchedRhsKeepTighter) {
  // Coefficients scale by 2 but the rhs does not: parallel half-spaces with
  // different offsets. 2x0 + 2x1 ≥ 3 means x0 + x1 ≥ 1.5, which contains
  // the ≥ 1 row's half-space — the weaker row is dominated, not a scaled
  // duplicate.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kGe, 3.0, {{x0, 2.0}, {x1, 2.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {}, &summary);
  EXPECT_EQ(summary.scaled_duplicate_rows_dropped, 0);
  EXPECT_EQ(summary.dominated_rows_dropped, 1);
  ASSERT_EQ(reduced.num_rows(), 1);
  EXPECT_DOUBLE_EQ(reduced.row(0).rhs, 3.0);  // the tighter row survives

  // The mirror ≤ pair: the SMALLER normalized rhs is the tighter one.
  LpProblem le;
  int y0 = le.AddVariable(0.0, 4.0, 1.0);
  int y1 = le.AddVariable(0.0, 4.0, 2.0);
  le.AddRow(RowType::kLe, 3.0, {{y0, 1.0}, {y1, 1.0}});
  le.AddRow(RowType::kLe, 4.0, {{y0, 2.0}, {y1, 2.0}});  // y0 + y1 <= 2

  PresolveSummary le_summary;
  LpProblem le_reduced = PresolveForBip(le, {}, &le_summary);
  EXPECT_EQ(le_summary.dominated_rows_dropped, 1);
  ASSERT_EQ(le_reduced.num_rows(), 1);
  EXPECT_DOUBLE_EQ(le_reduced.row(0).rhs, 4.0);
}

TEST(PresolveTest, BoxRedundantRowsDropped) {
  // x0 + x1 ≤ 5 can never bind over [0,1]²; the ≥ 1 cover row can.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddRow(RowType::kLe, 5.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kGe, -7.0, {{x0, 1.0}, {x1, 2.0}});  // min activity 0

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {}, &summary);
  EXPECT_EQ(summary.redundant_rows_dropped, 2);
  ASSERT_EQ(reduced.num_rows(), 1);
  EXPECT_EQ(reduced.row(0).type, RowType::kGe);
  EXPECT_DOUBLE_EQ(reduced.row(0).rhs, 1.0);
}

TEST(PresolveTest, ActivityStrengtheningFixesBinaries) {
  // x0 + x1 + x2 ≤ 1 with x2 forced up by a singleton: the residual
  // activity argument fixes x0 and x1 to zero and the row goes redundant.
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, -1.0);
  int x1 = lp.AddVariable(0.0, 1.0, -1.0);
  int x2 = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddRow(RowType::kGe, 1.0, {{x2, 1.0}});  // singleton: x2 >= 1
  lp.AddRow(RowType::kLe, 1.0, {{x0, 1.0}, {x1, 1.0}, {x2, 1.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {x0, x1, x2}, &summary);
  EXPECT_FALSE(summary.infeasible);
  EXPECT_EQ(summary.activity_bounds_tightened, 2);
  EXPECT_DOUBLE_EQ(reduced.upper_bound(x0), 0.0);
  EXPECT_DOUBLE_EQ(reduced.upper_bound(x1), 0.0);
  EXPECT_DOUBLE_EQ(reduced.lower_bound(x2), 1.0);
  EXPECT_EQ(summary.redundant_rows_dropped, 1);
  EXPECT_EQ(reduced.num_rows(), 0);
}

TEST(PresolveTest, ScaledEqualityRowsNeverDeduped) {
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  int x1 = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddRow(RowType::kEq, 1.0, {{x0, 1.0}, {x1, 1.0}});
  lp.AddRow(RowType::kEq, 2.0, {{x0, 2.0}, {x1, 2.0}});

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {}, &summary);
  EXPECT_EQ(summary.scaled_duplicate_rows_dropped, 0);
  EXPECT_EQ(reduced.num_rows(), 2);
}

TEST(PresolveTest, ConflictingSingletonsFlagInfeasible) {
  LpProblem lp;
  int x0 = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kGe, 1.0, {{x0, 1.0}});  // x0 >= 1
  lp.AddRow(RowType::kLe, 0.0, {{x0, 1.0}});  // x0 <= 0

  PresolveSummary summary;
  LpProblem reduced = PresolveForBip(lp, {x0}, &summary);
  EXPECT_TRUE(summary.infeasible);
  // The reduced problem is still constructible (bounds collapsed, not
  // inverted); callers must consult `infeasible` before trusting a solve.
  EXPECT_LE(reduced.lower_bound(x0), reduced.upper_bound(x0));
}

TEST(PresolveTest, EmptyContradictoryRowFlagsInfeasible) {
  LpProblem lp;
  (void)lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddRow(RowType::kGe, 1.0, {});  // 0 >= 1: never satisfiable

  PresolveSummary summary;
  (void)PresolveForBip(lp, {}, &summary);
  EXPECT_TRUE(summary.infeasible);
}

/// Random weighted set-cover BIPs, salted with the row patterns presolve
/// targets (duplicate coverage rows, singleton forcing rows). Presolve
/// on/off must agree on status and optimal objective — the reductions are
/// exact on the integral feasible set.
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
      // Positive scaling of the same cover row: pass 3's target.
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

TEST(PresolveTest, RandomCoversAgreeWithAndWithoutPresolve) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 3);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    BipOptions on;
    on.presolve = true;
    on.relative_gap = 0.0;
    BipOptions off = on;
    off.presolve = false;
    BipResult with = SolveBip(lp, binaries, on);
    BipResult without = SolveBip(lp, binaries, off);

    ASSERT_EQ(with.status, without.status) << "seed " << seed;
    if (with.status != BipStatus::kOptimal) continue;
    EXPECT_NEAR(with.objective, without.objective, 1e-6) << "seed " << seed;
  }
}

TEST(PresolveBasisTest, OptimalBasisRoundTripsIntoHotStart) {
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

TEST(PresolveBasisTest, MalformedBasisIsRejectedNotTrusted) {
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

TEST(PresolveBasisTest, RandomCoverRootBasisReplaysAcrossCostChanges) {
  // The incremental-advisor pattern: capture the root basis of one BIP
  // solve, perturb only the objective, and re-solve with the basis as the
  // root hot start. The selected objective must match a cold re-solve.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 11);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    LpBasis root;
    BipOptions capture;
    capture.relative_gap = 0.0;
    capture.capture_root_basis = &root;
    BipResult first = SolveBip(lp, binaries, capture);
    if (first.status != BipStatus::kOptimal || root.empty()) continue;

    for (int v : binaries) lp.SetCost(v, lp.cost(v) + 0.25);
    BipOptions hot;
    hot.relative_gap = 0.0;
    hot.root_basis = &root;
    BipResult warm = SolveBip(lp, binaries, hot);
    BipOptions cold_opts;
    cold_opts.relative_gap = 0.0;
    BipResult cold = SolveBip(lp, binaries, cold_opts);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
    if (warm.status == BipStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace nose
