#include "tests/reference_lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace nose {

namespace {

// The production engine's tolerances (solver/lp.cc).
constexpr double kDualTol = 1e-7;     // reduced-cost optimality tolerance
constexpr double kPivotTol = 1e-9;    // minimum pivot magnitude
constexpr double kPhase1Tol = 1e-6;   // residual infeasibility tolerance
constexpr double kDegenerateStep = 1e-10;
constexpr int kBlandTrigger = 60;  // degenerate iterations before Bland's rule

enum class VarStatus : uint8_t { kAtLower, kAtUpper, kBasic };

/// Dense full-tableau bounded-variable two-phase primal simplex: every
/// row starts with its own artificial (no crash basis), and every pivot is
/// a full Gauss-Jordan step over the explicit B⁻¹A. Slow and simple on
/// purpose. One instance per solve; not reused.
class DenseTableau {
 public:
  DenseTableau(int num_structural, std::vector<double> lb,
               std::vector<double> ub, std::vector<double> cost)
      : n_(num_structural),
        lb_(std::move(lb)),
        ub_(std::move(ub)),
        cost_(std::move(cost)) {}

  /// Appends an equality row a·x = rhs over all currently known columns
  /// (slack columns must have been added as variables by the caller).
  void AddEqualityRow(std::vector<double> dense_row, double rhs) {
    matrix_.push_back(std::move(dense_row));
    rhs_.push_back(rhs);
  }

  int AddColumn(double lb, double ub, double cost) {
    lb_.push_back(lb);
    ub_.push_back(ub);
    cost_.push_back(cost);
    return static_cast<int>(cost_.size()) - 1;
  }

  LpResult Run(int max_iterations);

 private:
  int NumCols() const { return static_cast<int>(cost_.size()); }
  int NumRows() const { return static_cast<int>(matrix_.size()); }

  double BoundValue(int j) const {
    return status_[static_cast<size_t>(j)] == VarStatus::kAtUpper
               ? ub_[static_cast<size_t>(j)]
               : lb_[static_cast<size_t>(j)];
  }

  bool IsFixed(int j) const {
    return ub_[static_cast<size_t>(j)] - lb_[static_cast<size_t>(j)] < 1e-12;
  }

  void ComputeReducedCosts(const std::vector<double>& phase_cost) {
    d_.assign(static_cast<size_t>(NumCols()), 0.0);
    for (int j = 0; j < NumCols(); ++j) {
      d_[static_cast<size_t>(j)] = phase_cost[static_cast<size_t>(j)];
    }
    for (int i = 0; i < NumRows(); ++i) {
      const double cb = phase_cost[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
      if (cb == 0.0) continue;
      const std::vector<double>& row = matrix_[static_cast<size_t>(i)];
      for (int j = 0; j < NumCols(); ++j) {
        d_[static_cast<size_t>(j)] -= cb * row[static_cast<size_t>(j)];
      }
    }
  }

  /// Runs simplex iterations until optimality/unboundedness/limit for the
  /// current phase. Returns the LP status for this phase.
  LpStatus Iterate(int max_iterations, int* iterations_used);

  int n_;  // structural variable count (prefix of the columns)
  std::vector<double> lb_, ub_, cost_;
  std::vector<std::vector<double>> matrix_;  // m rows x NumCols()
  std::vector<double> rhs_;
  std::vector<VarStatus> status_;
  std::vector<int> basis_;    // per row: basic column
  std::vector<double> xb_;    // per row: value of the basic variable
  std::vector<double> d_;     // reduced costs for the active phase
  std::vector<double> devex_;  // devex reference weights (pricing)
  int degenerate_streak_ = 0;
};

LpStatus DenseTableau::Iterate(int max_iterations, int* iterations_used) {
  const int m = NumRows();
  const int ncols = NumCols();
  int iter = 0;
  degenerate_streak_ = 0;
  devex_.assign(static_cast<size_t>(ncols), 1.0);
  for (; iter < max_iterations; ++iter) {
    const bool bland = degenerate_streak_ >= kBlandTrigger;
    // --- Pricing: devex (d_j^2 / w_j); Bland's rule under stalling. ---
    int enter = -1;
    double best_score = 0.0;
    for (int j = 0; j < ncols; ++j) {
      const VarStatus st = status_[static_cast<size_t>(j)];
      if (st == VarStatus::kBasic || IsFixed(j)) continue;
      const double dj = d_[static_cast<size_t>(j)];
      const bool eligible = (st == VarStatus::kAtLower && dj < -kDualTol) ||
                            (st == VarStatus::kAtUpper && dj > kDualTol);
      if (!eligible) continue;
      if (bland) {  // first eligible column
        enter = j;
        break;
      }
      const double score = dj * dj / devex_[static_cast<size_t>(j)];
      if (score > best_score) {
        best_score = score;
        enter = j;
      }
    }
    if (enter == -1) {
      *iterations_used += iter;
      return LpStatus::kOptimal;
    }

    const double dir =
        status_[static_cast<size_t>(enter)] == VarStatus::kAtLower ? 1.0 : -1.0;

    // --- Ratio test. ---
    double t_best = ub_[static_cast<size_t>(enter)] - lb_[static_cast<size_t>(enter)];
    int leave_row = -1;   // -1 => bound flip
    bool leave_at_upper = false;
    double best_pivot_mag = 0.0;
    for (int i = 0; i < m; ++i) {
      const double alpha = matrix_[static_cast<size_t>(i)][static_cast<size_t>(enter)];
      const double rate = dir * alpha;  // xb_i decreases at this rate
      if (std::abs(rate) <= kPivotTol) continue;
      const int k = basis_[static_cast<size_t>(i)];
      double limit;
      bool at_upper;
      if (rate > 0.0) {
        const double lbk = lb_[static_cast<size_t>(k)];
        if (lbk == -LpProblem::kInfinity) continue;
        limit = (xb_[static_cast<size_t>(i)] - lbk) / rate;
        at_upper = false;
      } else {
        const double ubk = ub_[static_cast<size_t>(k)];
        if (ubk == LpProblem::kInfinity) continue;
        limit = (xb_[static_cast<size_t>(i)] - ubk) / rate;
        at_upper = true;
      }
      if (limit < 0.0) limit = 0.0;  // guard tiny negative residuals
      const double mag = std::abs(alpha);
      const bool better =
          limit < t_best - 1e-10 ||
          (limit < t_best + 1e-10 && leave_row >= 0 &&
           (bland ? basis_[static_cast<size_t>(i)] <
                        basis_[static_cast<size_t>(leave_row)]
                  : mag > best_pivot_mag));
      if (better) {
        t_best = limit;
        leave_row = i;
        leave_at_upper = at_upper;
        best_pivot_mag = mag;
      }
    }

    if (t_best == LpProblem::kInfinity) {
      *iterations_used += iter;
      return LpStatus::kUnbounded;
    }
    degenerate_streak_ =
        (t_best <= kDegenerateStep) ? degenerate_streak_ + 1 : 0;

    // --- Apply the step to all basic values. ---
    if (t_best != 0.0) {
      for (int i = 0; i < m; ++i) {
        const double alpha =
            matrix_[static_cast<size_t>(i)][static_cast<size_t>(enter)];
        if (alpha != 0.0) xb_[static_cast<size_t>(i)] -= dir * alpha * t_best;
      }
    }

    if (leave_row == -1) {
      // Bound flip: the entering variable runs to its opposite bound.
      status_[static_cast<size_t>(enter)] =
          status_[static_cast<size_t>(enter)] == VarStatus::kAtLower
              ? VarStatus::kAtUpper
              : VarStatus::kAtLower;
      continue;
    }

    // --- Pivot: entering becomes basic in leave_row. ---
    const int leave_col = basis_[static_cast<size_t>(leave_row)];
    status_[static_cast<size_t>(leave_col)] =
        leave_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    const double enter_from =
        dir > 0 ? lb_[static_cast<size_t>(enter)] : ub_[static_cast<size_t>(enter)];
    basis_[static_cast<size_t>(leave_row)] = enter;
    status_[static_cast<size_t>(enter)] = VarStatus::kBasic;
    xb_[static_cast<size_t>(leave_row)] = enter_from + dir * t_best;

    // Gauss-Jordan elimination on the entering column.
    std::vector<double>& prow = matrix_[static_cast<size_t>(leave_row)];
    const double pivot = prow[static_cast<size_t>(enter)];
    assert(std::abs(pivot) > kPivotTol);
    const double inv = 1.0 / pivot;
    for (double& v : prow) v *= inv;
    prow[static_cast<size_t>(enter)] = 1.0;  // exact
    for (int i = 0; i < m; ++i) {
      if (i == leave_row) continue;
      std::vector<double>& row = matrix_[static_cast<size_t>(i)];
      const double factor = row[static_cast<size_t>(enter)];
      if (factor == 0.0) continue;
      for (int j = 0; j < ncols; ++j) {
        row[static_cast<size_t>(j)] -= factor * prow[static_cast<size_t>(j)];
      }
      row[static_cast<size_t>(enter)] = 0.0;  // exact
    }
    const double dfactor = d_[static_cast<size_t>(enter)];
    if (dfactor != 0.0) {
      for (int j = 0; j < ncols; ++j) {
        d_[static_cast<size_t>(j)] -= dfactor * prow[static_cast<size_t>(j)];
      }
      d_[static_cast<size_t>(enter)] = 0.0;
    }
    // Devex weight update against the (normalized) pivot row.
    const double w_enter = devex_[static_cast<size_t>(enter)];
    for (int j = 0; j < ncols; ++j) {
      const double a = prow[static_cast<size_t>(j)];
      if (a == 0.0) continue;
      double& w = devex_[static_cast<size_t>(j)];
      const double candidate = a * a * w_enter;
      if (candidate > w) w = candidate;
    }
    devex_[static_cast<size_t>(leave_col)] =
        std::max(1.0, w_enter / std::max(pivot * pivot, 1e-12));
  }
  *iterations_used += iter;
  return LpStatus::kIterationLimit;
}

LpResult DenseTableau::Run(int max_iterations) {
  const int m = NumRows();
  LpResult result;

  // Initial point: every column rests at a finite bound.
  status_.assign(static_cast<size_t>(NumCols()), VarStatus::kAtLower);
  for (int j = 0; j < NumCols(); ++j) {
    if (lb_[static_cast<size_t>(j)] == -LpProblem::kInfinity) {
      assert(ub_[static_cast<size_t>(j)] != LpProblem::kInfinity &&
             "free variables are not supported");
      status_[static_cast<size_t>(j)] = VarStatus::kAtUpper;
    }
  }

  // Residual per row given the initial nonbasic values; artificial columns
  // absorb it so the artificial basis starts feasible.
  std::vector<double> residual(static_cast<size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    double r = rhs_[static_cast<size_t>(i)];
    const std::vector<double>& row = matrix_[static_cast<size_t>(i)];
    for (int j = 0; j < NumCols(); ++j) {
      const double v = BoundValue(j);
      if (v != 0.0) r -= row[static_cast<size_t>(j)] * v;
    }
    residual[static_cast<size_t>(i)] = r;
  }

  // Negate rows with negative residual so that every artificial can enter
  // with coefficient +1 and the initial basis matrix is the identity.
  for (int i = 0; i < m; ++i) {
    if (residual[static_cast<size_t>(i)] < 0.0) {
      for (double& v : matrix_[static_cast<size_t>(i)]) v = -v;
      rhs_[static_cast<size_t>(i)] = -rhs_[static_cast<size_t>(i)];
      residual[static_cast<size_t>(i)] = -residual[static_cast<size_t>(i)];
    }
  }

  const int first_artificial = NumCols();
  basis_.resize(static_cast<size_t>(m));
  xb_.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const int art = AddColumn(0.0, LpProblem::kInfinity, 0.0);
    status_.push_back(VarStatus::kBasic);
    for (int r = 0; r < m; ++r) {
      matrix_[static_cast<size_t>(r)].push_back(r == i ? 1.0 : 0.0);
    }
    basis_[static_cast<size_t>(i)] = art;
    xb_[static_cast<size_t>(i)] = residual[static_cast<size_t>(i)];
  }

  // --- Phase 1: minimize the sum of artificials. ---
  std::vector<double> phase1_cost(static_cast<size_t>(NumCols()), 0.0);
  for (int j = first_artificial; j < NumCols(); ++j) {
    phase1_cost[static_cast<size_t>(j)] = 1.0;
  }
  ComputeReducedCosts(phase1_cost);
  result.iterations = 0;
  LpStatus phase1 = Iterate(max_iterations, &result.iterations);
  if (phase1 == LpStatus::kIterationLimit) {
    result.status = LpStatus::kIterationLimit;
    return result;
  }
  double infeasibility = 0.0;
  for (int i = 0; i < m; ++i) {
    if (basis_[static_cast<size_t>(i)] >= first_artificial) {
      infeasibility += xb_[static_cast<size_t>(i)];
    }
  }
  for (int j = first_artificial; j < NumCols(); ++j) {
    if (status_[static_cast<size_t>(j)] == VarStatus::kAtUpper) {
      infeasibility += std::abs(ub_[static_cast<size_t>(j)]);
    }
  }
  if (infeasibility > kPhase1Tol) {
    result.status = LpStatus::kInfeasible;
    return result;
  }

  // Freeze artificials at zero for phase 2. Any still basic sit at 0 and
  // can only leave the basis degenerately, which is fine.
  for (int j = first_artificial; j < NumCols(); ++j) {
    ub_[static_cast<size_t>(j)] = 0.0;
    if (status_[static_cast<size_t>(j)] == VarStatus::kAtUpper) {
      status_[static_cast<size_t>(j)] = VarStatus::kAtLower;
    }
  }

  // --- Phase 2: original objective. ---
  std::vector<double> phase2_cost = cost_;
  phase2_cost.resize(static_cast<size_t>(NumCols()), 0.0);
  ComputeReducedCosts(phase2_cost);
  LpStatus phase2 = Iterate(max_iterations, &result.iterations);
  if (phase2 == LpStatus::kIterationLimit ||
      phase2 == LpStatus::kUnbounded) {
    result.status = phase2;
    return result;
  }

  // Extract structural values and the objective.
  result.x.assign(static_cast<size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<size_t>(j)] != VarStatus::kBasic) {
      result.x[static_cast<size_t>(j)] = BoundValue(j);
    }
  }
  for (int i = 0; i < m; ++i) {
    const int k = basis_[static_cast<size_t>(i)];
    if (k < n_) result.x[static_cast<size_t>(k)] = xb_[static_cast<size_t>(i)];
  }
  result.objective = 0.0;
  for (int j = 0; j < n_; ++j) {
    result.objective += cost_[static_cast<size_t>(j)] * result.x[static_cast<size_t>(j)];
  }
  result.status = LpStatus::kOptimal;
  return result;
}

}  // namespace

LpResult ReferenceLpSolve(const LpProblem& problem) {
  const int n = problem.num_variables();
  std::vector<double> lb(static_cast<size_t>(n));
  std::vector<double> ub(static_cast<size_t>(n));
  std::vector<double> cost(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    lb[static_cast<size_t>(v)] = problem.lower_bound(v);
    ub[static_cast<size_t>(v)] = problem.upper_bound(v);
    cost[static_cast<size_t>(v)] = problem.cost(v);
  }
  DenseTableau tableau(n, std::move(lb), std::move(ub), std::move(cost));
  // Same slack numbering and row equilibration as LpProblem::Solve; dense
  // rows span structural + slack columns (the tableau appends its own
  // artificials).
  const int m = problem.num_rows();
  std::vector<int> slack_col(static_cast<size_t>(m), -1);
  int total_cols = n;
  for (int i = 0; i < m; ++i) {
    if (problem.row(i).type != RowType::kEq) {
      slack_col[static_cast<size_t>(i)] =
          tableau.AddColumn(0.0, LpProblem::kInfinity, 0.0);
      total_cols = slack_col[static_cast<size_t>(i)] + 1;
    }
  }
  for (int i = 0; i < m; ++i) {
    const LpRow& src = problem.row(i);
    const double scale = EquilibrationScale(MaxMagnitude(src));
    std::vector<double> dense(static_cast<size_t>(total_cols), 0.0);
    for (size_t k = 0; k < src.indices.size(); ++k) {
      dense[static_cast<size_t>(src.indices[k])] = src.values[k] * scale;
    }
    const int slack = slack_col[static_cast<size_t>(i)];
    if (src.type == RowType::kLe) {
      dense[static_cast<size_t>(slack)] = 1.0;
    } else if (src.type == RowType::kGe) {
      dense[static_cast<size_t>(slack)] = -1.0;
    }
    tableau.AddEqualityRow(std::move(dense), src.rhs * scale);
  }
  return tableau.Run(DefaultIterationLimit(problem));
}

}  // namespace nose
