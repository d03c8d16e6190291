#include "solver/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "obs/metrics.h"
#include "solver/factorization.h"
#include "solver/solve_log.h"
#include "util/stopwatch.h"

namespace nose {

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "?";
}

LpRow MakeLpRow(RowType type, double rhs,
                std::vector<std::pair<int, double>> coeffs) {
  std::sort(coeffs.begin(), coeffs.end());
  LpRow row;
  row.type = type;
  row.rhs = rhs;
  row.indices.reserve(coeffs.size());
  row.values.reserve(coeffs.size());
  for (const auto& [var, coeff] : coeffs) {
    if (!row.indices.empty() && row.indices.back() == var) {
      row.values.back() += coeff;
    } else {
      row.indices.push_back(var);
      row.values.push_back(coeff);
    }
  }
  return row;
}

void LpRowBuffer::Add(RowType type, double rhs,
                      std::vector<std::pair<int, double>> coeffs) {
  rows_.push_back(MakeLpRow(type, rhs, std::move(coeffs)));
  num_nonzeros_ += rows_.back().indices.size();
}

int LpProblem::AddVariable(double lb, double ub, double cost) {
  assert(lb <= ub);
  cost_.push_back(cost);
  lb_.push_back(lb);
  ub_.push_back(ub);
  return static_cast<int>(cost_.size()) - 1;
}

void LpProblem::AddRow(RowType type, double rhs,
                       std::vector<std::pair<int, double>> coeffs) {
  // Sum duplicate entries so callers can emit terms naively.
  LpRow row = MakeLpRow(type, rhs, std::move(coeffs));
#ifndef NDEBUG
  for (int var : row.indices) assert(var >= 0 && var < num_variables());
#endif
  num_nonzeros_ += row.indices.size();
  rows_.push_back(std::move(row));
}

void LpProblem::AppendRows(LpRowBuffer&& buffer) {
#ifndef NDEBUG
  for (const LpRow& row : buffer.rows_) {
    for (int var : row.indices) assert(var >= 0 && var < num_variables());
  }
#endif
  num_nonzeros_ += buffer.num_nonzeros_;
  if (rows_.empty()) {
    rows_ = std::move(buffer.rows_);
  } else {
    rows_.reserve(rows_.size() + buffer.rows_.size());
    for (LpRow& row : buffer.rows_) rows_.push_back(std::move(row));
  }
  buffer.rows_.clear();
  buffer.num_nonzeros_ = 0;
}

void LpProblem::SetBounds(int var, double lb, double ub) {
  assert(lb <= ub);
  lb_[static_cast<size_t>(var)] = lb;
  ub_[static_cast<size_t>(var)] = ub;
}

void LpProblem::SetCost(int var, double cost) {
  cost_[static_cast<size_t>(var)] = cost;
}

namespace {

constexpr double kDualTol = 1e-7;     // reduced-cost optimality tolerance
constexpr double kPivotTol = 1e-9;    // minimum pivot magnitude
constexpr double kPhase1Tol = 1e-6;   // residual infeasibility tolerance
constexpr double kDegenerateStep = 1e-10;
constexpr int kBlandTrigger = 60;  // degenerate iterations before Bland's rule

enum class VarStatus : uint8_t { kAtLower, kAtUpper, kBasic };

/// One equality row of the solver's working system in CSR form: the
/// original row (equilibrated), then its slack, then — on a cold start —
/// its artificial. Indices stay strictly increasing because slack and
/// artificial columns are numbered after every structural column.
struct CsrRow {
  std::vector<int> idx;
  std::vector<double> val;
};

// ===========================================================================
// Factorized revised simplex (the production engine).
// ===========================================================================

/// LU-factorized bounded-variable two-phase revised primal simplex — the
/// engine behind every LpProblem::Solve. Same phase structure, pricing
/// rule (devex with Bland fallback), and ratio test as the reference
/// tableau (ReferenceLpSolve), but the basis inverse is a Markowitz sparse
/// LU plus product-form etas (solver/factorization.h) instead of an
/// explicit B⁻¹A tableau: the entering column arrives by FTRAN, the pivot
/// row by BTRAN
/// plus one pass over the original columns, and fill stays near
/// nnz(basis) instead of growing toward m·n. The eta file collapses into
/// a fresh factorization on an update-count/fill trigger or whenever an
/// eta pivot is too small to apply stably. Hot starts additionally run a
/// bounded-variable dual simplex to repair the primal infeasibility a
/// branch-and-bound bound change leaves behind (the parent basis stays
/// dual feasible because only bounds changed), so a child node re-solves
/// in a handful of pivots. Duals come from one BTRAN at the optimum and
/// are available for hot-started solves too. One instance per Solve()
/// call; not reused.
class FactorizedSimplex {
 public:
  FactorizedSimplex(int num_structural, std::vector<double> lb,
                    std::vector<double> ub, std::vector<double> cost)
      : n_(num_structural),
        lb_(std::move(lb)),
        ub_(std::move(ub)),
        cost_(std::move(cost)) {}

  /// Appends an equality row a·x = rhs over all currently known columns
  /// (slack columns must have been added as variables by the caller).
  /// `slack_col` is the row's own slack column, or -1 for an original
  /// equality row — it seeds the crash basis.
  void AddEqualityRow(CsrRow row, double rhs, int slack_col) {
    rows_.push_back(std::move(row));
    rhs_.push_back(rhs);
    slack_col_.push_back(slack_col);
  }

  int AddColumn(double lb, double ub, double cost) {
    lb_.push_back(lb);
    ub_.push_back(ub);
    cost_.push_back(cost);
    return static_cast<int>(cost_.size()) - 1;
  }

  LpResult Run(int max_iterations, double deadline_seconds,
               const LpBasis* start_basis, LpBasis* final_basis,
               bool want_duals);

  /// Telemetry sink for this solve, or null (the default) for none. With a
  /// null sink the per-iteration cost is a handful of predictable branches.
  void set_stats(LpSolveStats* stats) { stats_ = stats; }
  /// Structural + slack + artificial columns.
  int NumColumns() const { return NumCols(); }
  /// Stored factor entries (LU + eta file) — the fill measure the
  /// telemetry samples.
  uint64_t StoredEntries() const { return fact_.stored_entries(); }
  int refactorizations() const { return refactorizations_; }
  int ft_updates() const { return ft_updates_; }
  /// L+U nonzeros of the most recent base factorization.
  uint64_t FactorFill() const { return fact_.lu_entries(); }

 private:
  int NumCols() const { return static_cast<int>(cost_.size()); }
  int NumRows() const { return static_cast<int>(rows_.size()); }

  double BoundValue(int j) const {
    return status_[static_cast<size_t>(j)] == VarStatus::kAtUpper
               ? ub_[static_cast<size_t>(j)]
               : lb_[static_cast<size_t>(j)];
  }

  bool IsFixed(int j) const {
    return ub_[static_cast<size_t>(j)] - lb_[static_cast<size_t>(j)] < 1e-12;
  }

  /// Scatters the CSR rows (including any appended artificial entries)
  /// into column-major storage sized to the current column count.
  void BuildColumns() {
    cols_.assign(static_cast<size_t>(NumCols()), SparseColumn{});
    for (int i = 0; i < NumRows(); ++i) {
      const CsrRow& row = rows_[static_cast<size_t>(i)];
      for (size_t k = 0; k < row.idx.size(); ++k) {
        SparseColumn& col = cols_[static_cast<size_t>(row.idx[k])];
        col.rows.push_back(i);
        col.vals.push_back(row.val[k]);
      }
    }
  }

  /// Factorizes the current basis into a fresh object, swapping it in only
  /// on success so the previous factors stay usable as a fallback.
  bool FactorizeBasis() {
    const int m = NumRows();
    std::vector<const SparseColumn*> ptrs;
    ptrs.reserve(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      ptrs.push_back(&cols_[static_cast<size_t>(basis_[static_cast<size_t>(i)])]);
    }
    BasisFactorization fresh;
    if (!fresh.Factorize(m, ptrs)) return false;
    fact_ = std::move(fresh);
    ++refactorizations_;
    return true;
  }

  /// xb := B⁻¹(b − N·x_N), recomputed from scratch (used after every
  /// refactorization to shed incremental drift).
  void ComputeXb() {
    std::vector<double> r = rhs_;
    for (int j = 0; j < NumCols(); ++j) {
      if (status_[static_cast<size_t>(j)] == VarStatus::kBasic) continue;
      const double bv = BoundValue(j);
      if (bv == 0.0) continue;
      const SparseColumn& col = cols_[static_cast<size_t>(j)];
      for (size_t k = 0; k < col.rows.size(); ++k) {
        r[static_cast<size_t>(col.rows[k])] -= col.vals[k] * bv;
      }
    }
    fact_.Ftran(&r);
    xb_ = std::move(r);
  }

  /// d := c − AᵀB⁻ᵀc_B, recomputed from scratch via one BTRAN.
  void ComputeReducedCosts(const std::vector<double>& phase_cost) {
    const int m = NumRows();
    std::vector<double> y(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      y[static_cast<size_t>(i)] =
          phase_cost[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
    }
    fact_.Btran(&y);
    d_.assign(phase_cost.begin(), phase_cost.end());
    for (int j = 0; j < NumCols(); ++j) {
      const SparseColumn& col = cols_[static_cast<size_t>(j)];
      double acc = 0.0;
      for (size_t k = 0; k < col.rows.size(); ++k) {
        const double yi = y[static_cast<size_t>(col.rows[k])];
        if (yi != 0.0) acc += col.vals[k] * yi;
      }
      d_[static_cast<size_t>(j)] -= acc;
    }
    y_ = std::move(y);
  }

  /// Fills rowvals_ with row `slot` of B⁻¹A (BTRAN of a unit vector, then
  /// one dot product per original column). O(nnz(A)).
  void ComputePivotRow(int slot) {
    const int m = NumRows();
    rho_.assign(static_cast<size_t>(m), 0.0);
    rho_[static_cast<size_t>(slot)] = 1.0;
    fact_.Btran(&rho_);
    rowvals_.assign(static_cast<size_t>(NumCols()), 0.0);
    for (int j = 0; j < NumCols(); ++j) {
      const SparseColumn& col = cols_[static_cast<size_t>(j)];
      double acc = 0.0;
      for (size_t k = 0; k < col.rows.size(); ++k) {
        const double ri = rho_[static_cast<size_t>(col.rows[k])];
        if (ri != 0.0) acc += col.vals[k] * ri;
      }
      rowvals_[static_cast<size_t>(j)] = acc;
    }
  }

  /// Replaces the basis column in `slot` with `enter` in the factorization:
  /// product-form eta when stable, otherwise a refactorization (which also
  /// re-syncs xb_ and d_ against `phase_cost` to shed drift). basis_ /
  /// status_ must already reflect the new basis. `ftran_column` is the
  /// entering column's FTRAN image under the OLD basis.
  void UpdateFactors(int slot, const std::vector<double>& ftran_column,
                     const std::vector<double>& phase_cost) {
    const bool appended = fact_.Update(slot, ftran_column);
    if (appended) ++ft_updates_;
    if (!appended || fact_.NeedsRefactorization()) {
      if (FactorizeBasis()) {
        ComputeXb();
        ComputeReducedCosts(phase_cost);
      } else if (!appended) {
        // Refactorization failed numerically; the old factors plus a
        // forced eta still represent the new basis exactly.
        fact_.ForceUpdate(slot, ftran_column);
        ++ft_updates_;
      }
    }
  }

  /// Loads a caller-provided basis: factorize, compute xb, and — when a
  /// bound change left basic variables outside their bounds — run the
  /// dual-simplex repair. Returns false when the basis cannot be used
  /// (wrong shape, singular, or repair gave up); the cold path then
  /// rebuilds every piece of state from scratch.
  bool TryLoadBasis(const LpBasis& basis, int* iterations_used);

  /// Bounded-variable dual simplex on the loaded basis: picks the most
  /// violated basic, prices its BTRAN row, and pivots by the dual ratio
  /// test until primal feasible. Returns false to fall back to a cold
  /// start (no eligible entering column — the cold phase 1 then delivers
  /// the trusted infeasibility verdict — or an iteration/numerics cap).
  bool DualRepair(int* iterations_used);

  /// Runs primal simplex iterations until optimality/unboundedness/limit
  /// for the current phase. Returns the LP status for this phase.
  LpStatus Iterate(int max_iterations, int* iterations_used,
                   const std::vector<double>& phase_cost);

  double deadline_seconds_ = 0.0;
  Stopwatch watch_;

  int n_;  // structural variable count (prefix of the columns)
  std::vector<double> lb_, ub_, cost_;
  std::vector<CsrRow> rows_;  // CSR input rows (residuals, sign flips)
  std::vector<double> rhs_;
  std::vector<int> slack_col_;
  std::vector<double> row_sign_;
  std::vector<int> artificial_of_row_;
  std::vector<SparseColumn> cols_;  // CSC incl. slack/artificial columns
  std::vector<VarStatus> status_;
  std::vector<int> basis_;  // slot -> basic column
  std::vector<double> xb_;  // slot -> value of the basic variable
  std::vector<double> d_;
  std::vector<double> y_;  // row duals from the last ComputeReducedCosts
  std::vector<double> devex_;
  std::vector<double> alpha_;    // FTRAN scratch (entering column)
  std::vector<double> rho_;      // BTRAN scratch (pivot row)
  std::vector<double> rowvals_;  // pivot row over all columns
  BasisFactorization fact_;
  int first_artificial_ = 0;
  int degenerate_streak_ = 0;
  int refactorizations_ = 0;
  int ft_updates_ = 0;
  LpSolveStats* stats_ = nullptr;
};

LpStatus FactorizedSimplex::Iterate(int max_iterations, int* iterations_used,
                                    const std::vector<double>& phase_cost) {
  const int m = NumRows();
  const int ncols = NumCols();
  const int base_iter = *iterations_used;  // cumulative across phases
  int iter = 0;
  degenerate_streak_ = 0;
  devex_.assign(static_cast<size_t>(ncols), 1.0);
  if (stats_ != nullptr) ++stats_->devex_resets;
  std::vector<int> col_rows;
  std::vector<double> col_vals;
  bool resynced_at_optimum = false;
  for (; iter < max_iterations; ++iter) {
    if (deadline_seconds_ > 0.0 && (iter & 31) == 0 &&
        watch_.ElapsedSeconds() > deadline_seconds_) {
      *iterations_used += iter;
      return LpStatus::kIterationLimit;
    }
    if (stats_ != nullptr && iter % SolveLog::kFillSampleStride == 0) {
      stats_->fill_curve.emplace_back(base_iter + iter,
                                      fact_.stored_entries());
    }
    const bool bland = degenerate_streak_ >= kBlandTrigger;
    if (stats_ != nullptr && bland) ++stats_->bland_iterations;
    // --- Pricing: devex (d_j^2 / w_j); Bland's rule under stalling. ---
    // `fallback` records the eligible column with the largest |d_j|
    // independent of the devex score: a long run of near-zero pivots can
    // inflate weights until every score underflows past best_score's 0
    // starting point, and an eligible column must never be invisible to
    // pricing — that is how false optima (and false phase-1
    // infeasibilities) happen.
    int enter = -1;
    int fallback = -1;
    double best_score = 0.0;
    double best_fallback = 0.0;
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
      if (std::abs(dj) > best_fallback) {
        best_fallback = std::abs(dj);
        fallback = j;
      }
      const double score = dj * dj / devex_[static_cast<size_t>(j)];
      if (score > best_score) {
        best_score = score;
        enter = j;
      }
    }
    if (enter == -1 && fallback >= 0) enter = fallback;
    if (enter == -1) {
      // The incrementally updated d_ (and xb_) accumulate rounding drift
      // between refactorizations — unlike a tableau engine, whose reduced
      // costs stay consistent with the tableau they came from. An
      // apparent optimum is only trusted after a resync: refactorize,
      // recompute both from scratch, and re-price. If pricing still finds
      // nothing against exact reduced costs, the optimum is real.
      if (!resynced_at_optimum) {
        resynced_at_optimum = true;
        if (FactorizeBasis()) {
          ComputeXb();
          ComputeReducedCosts(phase_cost);
          continue;
        }
      }
      *iterations_used += iter;
      return LpStatus::kOptimal;
    }
    resynced_at_optimum = false;

    const double dir =
        status_[static_cast<size_t>(enter)] == VarStatus::kAtLower ? 1.0 : -1.0;

    // --- Entering column: FTRAN of the original column. ---
    alpha_.assign(static_cast<size_t>(m), 0.0);
    {
      const SparseColumn& col = cols_[static_cast<size_t>(enter)];
      for (size_t k = 0; k < col.rows.size(); ++k) {
        alpha_[static_cast<size_t>(col.rows[k])] = col.vals[k];
      }
    }
    fact_.Ftran(&alpha_);
    col_rows.clear();
    col_vals.clear();
    for (int i = 0; i < m; ++i) {
      const double a = alpha_[static_cast<size_t>(i)];
      if (a != 0.0) {
        col_rows.push_back(i);
        col_vals.push_back(a);
      }
    }

    // --- Ratio test over the column's nonzeros only. ---
    double t_best = ub_[static_cast<size_t>(enter)] - lb_[static_cast<size_t>(enter)];
    int leave_pos = -1;   // position in col_rows; -1 => bound flip
    bool leave_at_upper = false;
    double best_pivot_mag = 0.0;
    for (size_t p = 0; p < col_rows.size(); ++p) {
      const int i = col_rows[p];
      const double alpha = col_vals[p];
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
          (limit < t_best + 1e-10 && leave_pos >= 0 &&
           (bland ? basis_[static_cast<size_t>(i)] <
                        basis_[static_cast<size_t>(col_rows[static_cast<size_t>(
                            leave_pos)])]
                  : mag > best_pivot_mag));
      if (better) {
        t_best = limit;
        leave_pos = static_cast<int>(p);
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
    if (stats_ != nullptr &&
        degenerate_streak_ > stats_->max_degenerate_streak) {
      stats_->max_degenerate_streak = degenerate_streak_;
    }

    // --- Apply the step to the affected basic values. ---
    if (t_best != 0.0) {
      for (size_t p = 0; p < col_rows.size(); ++p) {
        xb_[static_cast<size_t>(col_rows[p])] -= dir * col_vals[p] * t_best;
      }
    }

    if (leave_pos == -1) {
      if (stats_ != nullptr) ++stats_->bound_flips;
      // Bound flip: the entering variable runs to its opposite bound.
      status_[static_cast<size_t>(enter)] =
          status_[static_cast<size_t>(enter)] == VarStatus::kAtLower
              ? VarStatus::kAtUpper
              : VarStatus::kAtLower;
      continue;
    }

    // --- Pivot: entering becomes basic in leave_row. ---
    const int leave_row = col_rows[static_cast<size_t>(leave_pos)];
    const int leave_col = basis_[static_cast<size_t>(leave_row)];
    const double pivot = col_vals[static_cast<size_t>(leave_pos)];
    assert(std::abs(pivot) > kPivotTol);

    // Pivot row of B⁻¹A under the OUTGOING basis, for the reduced-cost and
    // devex updates (a tableau engine reads it off the stored row).
    ComputePivotRow(leave_row);

    status_[static_cast<size_t>(leave_col)] =
        leave_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    const double enter_from =
        dir > 0 ? lb_[static_cast<size_t>(enter)] : ub_[static_cast<size_t>(enter)];
    basis_[static_cast<size_t>(leave_row)] = enter;
    status_[static_cast<size_t>(enter)] = VarStatus::kBasic;
    xb_[static_cast<size_t>(leave_row)] = enter_from + dir * t_best;

    const double inv = 1.0 / pivot;
    const double dfactor = d_[static_cast<size_t>(enter)];
    if (dfactor != 0.0) {
      for (int j = 0; j < ncols; ++j) {
        const double a = rowvals_[static_cast<size_t>(j)];
        if (a != 0.0) d_[static_cast<size_t>(j)] -= dfactor * (a * inv);
      }
      d_[static_cast<size_t>(enter)] = 0.0;
    }
    // Devex weight update against the (normalized) pivot row. Weights are
    // clamped: long runs of tiny pivots otherwise inflate them geometrically
    // until d_j^2 / w_j underflows to zero for every column and pricing goes
    // blind (the reference tableau never accumulates enough degenerate
    // pivots for this, but the factorized engine can).
    constexpr double kDevexMax = 1e12;
    const double w_enter = devex_[static_cast<size_t>(enter)];
    for (int j = 0; j < ncols; ++j) {
      const double a = rowvals_[static_cast<size_t>(j)];
      if (a == 0.0) continue;
      const double an = a * inv;
      double& w = devex_[static_cast<size_t>(j)];
      const double candidate = std::min(kDevexMax, an * an * w_enter);
      if (candidate > w) w = candidate;
    }
    devex_[static_cast<size_t>(leave_col)] = std::min(
        kDevexMax, std::max(1.0, w_enter / std::max(pivot * pivot, 1e-12)));

    UpdateFactors(leave_row, alpha_, phase_cost);
  }
  *iterations_used += iter;
  return LpStatus::kIterationLimit;
}

bool FactorizedSimplex::DualRepair(int* iterations_used) {
  const int m = NumRows();
  const int ncols = NumCols();
  // The repair runs before any artificials exist, so the phase-2 cost is
  // just cost_ — and because only bounds changed since the basis was
  // optimal, d_ starts dual feasible (within tolerances).
  ComputeReducedCosts(cost_);
  const int limit = 2 * m + 100;
  for (int iter = 0; iter < limit; ++iter) {
    if (deadline_seconds_ > 0.0 && (iter & 31) == 0 &&
        watch_.ElapsedSeconds() > deadline_seconds_) {
      return false;
    }
    // --- Leaving variable: the most violated basic (lowest slot on tie).
    int leave_row = -1;
    bool to_upper = false;
    double worst = kPhase1Tol;
    for (int i = 0; i < m; ++i) {
      const int k = basis_[static_cast<size_t>(i)];
      const double v = xb_[static_cast<size_t>(i)];
      const double above = v - ub_[static_cast<size_t>(k)];
      const double below = lb_[static_cast<size_t>(k)] - v;
      if (above > worst) {
        worst = above;
        leave_row = i;
        to_upper = true;
      }
      if (below > worst) {
        worst = below;
        leave_row = i;
        to_upper = false;
      }
    }
    if (leave_row < 0) return true;  // primal feasible

    const int leave_col = basis_[static_cast<size_t>(leave_row)];
    ComputePivotRow(leave_row);

    // --- Dual ratio test: entering column whose sign moves the leaving
    // basic toward its violated bound, minimizing |d_j| / |a_rj| so the
    // remaining reduced costs keep their optimality signs.
    int enter = -1;
    double best_ratio = 0.0;
    double best_mag = 0.0;
    for (int j = 0; j < ncols; ++j) {
      const VarStatus st = status_[static_cast<size_t>(j)];
      if (st == VarStatus::kBasic || IsFixed(j)) continue;
      const double a = rowvals_[static_cast<size_t>(j)];
      if (std::abs(a) <= kPivotTol) continue;
      const bool at_lower = st == VarStatus::kAtLower;
      // Δx_j = (xb_r − bound) / a_rj must respect j's movable direction.
      const bool eligible = to_upper ? (at_lower ? a > 0.0 : a < 0.0)
                                     : (at_lower ? a < 0.0 : a > 0.0);
      if (!eligible) continue;
      const double dj = d_[static_cast<size_t>(j)];
      // Clamp tolerance-level dual infeasibility to zero.
      const double feas = std::max(at_lower ? dj : -dj, 0.0);
      const double mag = std::abs(a);
      const double ratio = feas / mag;
      if (enter < 0 || ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && mag > best_mag)) {
        enter = j;
        best_ratio = ratio;
        best_mag = mag;
      }
    }
    if (enter < 0) {
      // Dual unbounded — the subproblem is primal infeasible. Fall back to
      // the cold start for the trusted phase-1 verdict rather than
      // declaring infeasibility off fresh repair code.
      return false;
    }

    // --- Pivot. ---
    alpha_.assign(static_cast<size_t>(m), 0.0);
    {
      const SparseColumn& col = cols_[static_cast<size_t>(enter)];
      for (size_t k = 0; k < col.rows.size(); ++k) {
        alpha_[static_cast<size_t>(col.rows[k])] = col.vals[k];
      }
    }
    fact_.Ftran(&alpha_);
    const double pivot = alpha_[static_cast<size_t>(leave_row)];
    if (std::abs(pivot) <= kPivotTol) return false;  // numerics disagree

    const double bound_k = to_upper ? ub_[static_cast<size_t>(leave_col)]
                                    : lb_[static_cast<size_t>(leave_col)];
    const double dx = (xb_[static_cast<size_t>(leave_row)] - bound_k) / pivot;
    for (int i = 0; i < m; ++i) {
      const double a = alpha_[static_cast<size_t>(i)];
      if (a != 0.0) xb_[static_cast<size_t>(i)] -= a * dx;
    }
    const double enter_from = BoundValue(enter);
    status_[static_cast<size_t>(leave_col)] =
        to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    basis_[static_cast<size_t>(leave_row)] = enter;
    status_[static_cast<size_t>(enter)] = VarStatus::kBasic;
    xb_[static_cast<size_t>(leave_row)] = enter_from + dx;

    const double theta = d_[static_cast<size_t>(enter)] /
                         rowvals_[static_cast<size_t>(enter)];
    if (theta != 0.0) {
      for (int j = 0; j < ncols; ++j) {
        const double a = rowvals_[static_cast<size_t>(j)];
        if (a != 0.0) d_[static_cast<size_t>(j)] -= theta * a;
      }
    }
    d_[static_cast<size_t>(leave_col)] = -theta;
    d_[static_cast<size_t>(enter)] = 0.0;

    UpdateFactors(leave_row, alpha_, cost_);
    ++(*iterations_used);
  }
  return false;  // repair did not converge; cold start decides
}

bool FactorizedSimplex::TryLoadBasis(const LpBasis& basis,
                                     int* iterations_used) {
  const int m = NumRows();
  const int ncols = NumCols();
  if (static_cast<int>(basis.status.size()) != ncols) return false;
  std::vector<int> basic_cols;
  basic_cols.reserve(static_cast<size_t>(m));
  for (int j = 0; j < ncols; ++j) {
    const uint8_t st = basis.status[static_cast<size_t>(j)];
    if (st == static_cast<uint8_t>(VarStatus::kBasic)) {
      basic_cols.push_back(j);
    } else if (st == static_cast<uint8_t>(VarStatus::kAtLower)) {
      if (lb_[static_cast<size_t>(j)] == -LpProblem::kInfinity) return false;
    } else if (st == static_cast<uint8_t>(VarStatus::kAtUpper)) {
      if (ub_[static_cast<size_t>(j)] == LpProblem::kInfinity) return false;
    } else {
      return false;
    }
  }
  if (static_cast<int>(basic_cols.size()) != m) return false;

  status_.assign(static_cast<size_t>(ncols), VarStatus::kAtLower);
  for (int j = 0; j < ncols; ++j) {
    status_[static_cast<size_t>(j)] =
        static_cast<VarStatus>(basis.status[static_cast<size_t>(j)]);
  }
  basis_ = std::move(basic_cols);
  if (!FactorizeBasis()) return false;  // singular under this basis
  ComputeXb();

  bool feasible = true;
  for (int i = 0; i < m; ++i) {
    const size_t k = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    const double v = xb_[static_cast<size_t>(i)];
    if (v < lb_[k] - kPhase1Tol || v > ub_[k] + kPhase1Tol) {
      feasible = false;
      break;
    }
  }
  if (!feasible) feasible = DualRepair(iterations_used);
  if (!feasible) return false;

  for (int i = 0; i < m; ++i) {
    const size_t k = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    xb_[static_cast<size_t>(i)] =
        std::min(std::max(xb_[static_cast<size_t>(i)], lb_[k]), ub_[k]);
  }
  return true;
}

LpResult FactorizedSimplex::Run(int max_iterations, double deadline_seconds,
                                const LpBasis* start_basis,
                                LpBasis* final_basis, bool want_duals) {
  deadline_seconds_ = deadline_seconds;
  watch_.Reset();
  const int m = NumRows();
  LpResult result;
  if (final_basis != nullptr) final_basis->clear();
  result.iterations = 0;

  first_artificial_ = NumCols();
  row_sign_.assign(static_cast<size_t>(m), 1.0);
  artificial_of_row_.assign(static_cast<size_t>(m), -1);
  bool hot = false;
  if (start_basis != nullptr && !start_basis->empty()) {
    BuildColumns();
    hot = TryLoadBasis(*start_basis, &result.iterations);
  }
  result.hot_started = hot;
  if (stats_ != nullptr && hot) stats_->fill_start = fact_.stored_entries();

  if (!hot) {
    // Initial point: every column rests at a finite bound.
    status_.assign(static_cast<size_t>(NumCols()), VarStatus::kAtLower);
    for (int j = 0; j < NumCols(); ++j) {
      if (lb_[static_cast<size_t>(j)] == -LpProblem::kInfinity) {
        assert(ub_[static_cast<size_t>(j)] != LpProblem::kInfinity &&
               "free variables are not supported");
        status_[static_cast<size_t>(j)] = VarStatus::kAtUpper;
      }
    }

    // Residual per row given the initial nonbasic values.
    std::vector<double> residual(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      double r = rhs_[static_cast<size_t>(i)];
      const CsrRow& row = rows_[static_cast<size_t>(i)];
      for (size_t k = 0; k < row.idx.size(); ++k) {
        const double v = BoundValue(row.idx[k]);
        if (v != 0.0) r -= row.val[k] * v;
      }
      residual[static_cast<size_t>(i)] = r;
    }

    // Negate rows with negative residual so every artificial can enter
    // with coefficient +1 and the crash basis matrix is the identity.
    for (int i = 0; i < m; ++i) {
      if (residual[static_cast<size_t>(i)] < 0.0) {
        for (double& v : rows_[static_cast<size_t>(i)].val) v = -v;
        rhs_[static_cast<size_t>(i)] = -rhs_[static_cast<size_t>(i)];
        residual[static_cast<size_t>(i)] = -residual[static_cast<size_t>(i)];
        row_sign_[static_cast<size_t>(i)] = -1.0;
      }
    }

    // Crash basis: a row whose own slack carries coefficient +1 after the
    // sign normalization can start with that slack basic at the residual
    // (slacks live in [0, ∞), and the residual is now nonnegative) — no
    // artificial, no phase-1 work. NoSE's BIPs are dominated by ≤ linking
    // rows (x_e ≤ δ) whose residual at the all-lower starting point is zero,
    // so this removes the bulk of phase 1; artificials remain only for
    // equality rows and for inequalities pointing away from their slack.
    // The slack is the last entry of its row (its index exceeds every
    // structural one).
    first_artificial_ = NumCols();
    basis_.assign(static_cast<size_t>(m), -1);
    xb_.assign(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      const int slack = slack_col_[static_cast<size_t>(i)];
      const CsrRow& row = rows_[static_cast<size_t>(i)];
      if (slack >= 0 && row.val.back() == 1.0) {
        assert(row.idx.back() == slack);
        status_[static_cast<size_t>(slack)] = VarStatus::kBasic;
        basis_[static_cast<size_t>(i)] = slack;
        xb_[static_cast<size_t>(i)] = residual[static_cast<size_t>(i)];
      }
    }
    for (int i = 0; i < m; ++i) {
      if (basis_[static_cast<size_t>(i)] != -1) continue;
      const int art = AddColumn(0.0, LpProblem::kInfinity, 0.0);
      status_.push_back(VarStatus::kBasic);
      rows_[static_cast<size_t>(i)].idx.push_back(art);
      rows_[static_cast<size_t>(i)].val.push_back(1.0);
      basis_[static_cast<size_t>(i)] = art;
      xb_[static_cast<size_t>(i)] = residual[static_cast<size_t>(i)];
      artificial_of_row_[static_cast<size_t>(i)] = art;
    }
    BuildColumns();
    // The crash basis is all unit columns (slacks at +1, artificials at
    // +1), so this factorization is trivially nonsingular.
    const bool factored = FactorizeBasis();
    assert(factored);
    (void)factored;
    if (stats_ != nullptr) stats_->fill_start = fact_.stored_entries();

    // --- Phase 1: minimize the sum of artificials. ---
    std::vector<double> phase1_cost(static_cast<size_t>(NumCols()), 0.0);
    for (int j = first_artificial_; j < NumCols(); ++j) {
      phase1_cost[static_cast<size_t>(j)] = 1.0;
    }
    ComputeReducedCosts(phase1_cost);
    LpStatus phase1 = Iterate(max_iterations, &result.iterations, phase1_cost);
    if (stats_ != nullptr) stats_->phase1_iterations = result.iterations;
    if (phase1 == LpStatus::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      return result;
    }
    double infeasibility = 0.0;
    for (int i = 0; i < m; ++i) {
      if (basis_[static_cast<size_t>(i)] >= first_artificial_) {
        infeasibility += xb_[static_cast<size_t>(i)];
      }
    }
    for (int j = first_artificial_; j < NumCols(); ++j) {
      if (status_[static_cast<size_t>(j)] == VarStatus::kAtUpper) {
        infeasibility += std::abs(ub_[static_cast<size_t>(j)]);
      }
    }
    if (infeasibility > kPhase1Tol) {
      if (std::getenv("NOSE_LP_DEBUG") != nullptr) {
        std::fprintf(stderr, "[lp] phase-1 infeasibility %.3e (rows=%d)\n",
                     infeasibility, m);
      }
      result.status = LpStatus::kInfeasible;
      return result;
    }

    // Freeze artificials at zero for phase 2.
    for (int j = first_artificial_; j < NumCols(); ++j) {
      ub_[static_cast<size_t>(j)] = 0.0;
      if (status_[static_cast<size_t>(j)] == VarStatus::kAtUpper) {
        status_[static_cast<size_t>(j)] = VarStatus::kAtLower;
      }
    }
  }

  // --- Phase 2: original objective. ---
  std::vector<double> phase2_cost = cost_;
  phase2_cost.resize(static_cast<size_t>(NumCols()), 0.0);
  ComputeReducedCosts(phase2_cost);
  LpStatus phase2 = Iterate(max_iterations, &result.iterations, phase2_cost);
  if (phase2 == LpStatus::kIterationLimit || phase2 == LpStatus::kUnbounded) {
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

  // Dual extraction: one BTRAN of the basic costs gives the row
  // multipliers directly — no identity columns needed, so hot-started
  // solves get duals too. Undo the phase-1 row negation via row_sign_
  // (all +1 on the hot path, which never normalizes).
  if (want_duals) {
    std::vector<double> y(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      y[static_cast<size_t>(i)] =
          phase2_cost[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
    }
    fact_.Btran(&y);
    result.duals.assign(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      result.duals[static_cast<size_t>(i)] =
          row_sign_[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
    }
  }

  // Export the optimal basis over structural + slack columns only. A basis
  // with an artificial still in it (degenerate, at value 0) cannot be
  // replayed against a fresh crash start, so it is simply not captured.
  if (final_basis != nullptr) {
    bool exportable = true;
    for (int i = 0; i < m; ++i) {
      if (basis_[static_cast<size_t>(i)] >= first_artificial_) {
        exportable = false;
        break;
      }
    }
    if (exportable) {
      final_basis->status.resize(static_cast<size_t>(first_artificial_));
      for (int j = 0; j < first_artificial_; ++j) {
        final_basis->status[static_cast<size_t>(j)] =
            static_cast<uint8_t>(status_[static_cast<size_t>(j)]);
      }
    }
  }
  return result;
}

// ===========================================================================
// Reference engine: the original dense full-tableau implementation, kept
// only as the test oracle behind ReferenceLpSolve.
// ===========================================================================

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

/// Default simplex iteration cap when the caller passes none.
int DefaultIterationLimit(const LpProblem& problem) {
  return 20000 + 50 * (problem.num_rows() + problem.num_variables());
}

/// Largest coefficient magnitude of a row. Both engines divide each row by
/// it (row equilibration) so rows mixing byte-scale and unit-scale
/// coefficients — e.g. storage constraints — stay within the solver's
/// absolute tolerances.
double MaxMagnitude(const LpRow& row) {
  double max_mag = 0.0;
  for (double v : row.values) max_mag = std::max(max_mag, std::abs(v));
  return max_mag;
}

double EquilibrationScale(double max_mag) {
  return max_mag > 1e-12 ? 1.0 / max_mag : 1.0;
}

}  // namespace

LpResult LpProblem::Solve(
    const std::vector<std::tuple<int, double, double>>& bound_overrides,
    int max_iterations, double deadline_seconds, const LpBasis* start_basis,
    LpBasis* final_basis, std::vector<double>* duals) const {
  std::vector<double> lb = lb_;
  std::vector<double> ub = ub_;
  for (const auto& [var, olb, oub] : bound_overrides) {
    lb[static_cast<size_t>(var)] = olb;
    ub[static_cast<size_t>(var)] = oub;
  }

  const int n = num_variables();
  if (max_iterations <= 0) max_iterations = DefaultIterationLimit(*this);

  // Solver telemetry (--solve-log): one relaxed load when disabled; when
  // enabled the engine fills `stats` and the record is appended at the end.
  SolveLog& solve_log = SolveLog::Global();
  const bool logging = solve_log.enabled();
  LpSolveStats stats;
  Stopwatch solve_watch;
  // Equilibration conditioning estimate: spread of the per-row magnitudes
  // the scaling divides out (max/min over nontrivial rows).
  double equil_min = kInfinity;
  double equil_max = 0.0;

  // Slack columns: one per inequality row, so every row becomes equality.
  FactorizedSimplex simplex(n, std::move(lb), std::move(ub), cost_);
  simplex.set_stats(logging ? &stats : nullptr);
  std::vector<int> slack_col(rows_.size(), -1);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].type != RowType::kEq) {
      slack_col[i] = simplex.AddColumn(0.0, kInfinity, 0.0);
    }
  }
  std::vector<double> row_scale(rows_.size(), 1.0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    const LpRow& src = rows_[i];
    const double max_mag = MaxMagnitude(src);
    const double scale = EquilibrationScale(max_mag);
    row_scale[i] = scale;
    if (logging && max_mag > 1e-12) {
      equil_min = std::min(equil_min, max_mag);
      equil_max = std::max(equil_max, max_mag);
    }
    CsrRow row;
    row.idx = src.indices;
    row.val = src.values;
    if (scale != 1.0) {
      for (double& v : row.val) v *= scale;
    }
    if (src.type == RowType::kLe) {
      row.idx.push_back(slack_col[i]);
      row.val.push_back(1.0);
    } else if (src.type == RowType::kGe) {
      row.idx.push_back(slack_col[i]);
      row.val.push_back(-1.0);
    }
    simplex.AddEqualityRow(std::move(row), src.rhs * scale, slack_col[i]);
  }
  LpResult result = simplex.Run(max_iterations, deadline_seconds, start_basis,
                                final_basis, duals != nullptr);

  // Undo row equilibration on the duals: the engine solved
  // scale_i·(a_i·x) = scale_i·b_i, so the multiplier of the original row is
  // scale_i times the engine's.
  if (duals != nullptr) {
    if (result.status == LpStatus::kOptimal &&
        result.duals.size() == rows_.size()) {
      for (size_t i = 0; i < rows_.size(); ++i) {
        result.duals[i] *= row_scale[i];
      }
      *duals = result.duals;
    } else {
      duals->clear();
      result.duals.clear();
    }
  }

  static obs::Counter& solves =
      obs::MetricsRegistry::Global().GetCounter("solver.lp_solves");
  static obs::Counter& iterations = obs::MetricsRegistry::Global().GetCounter(
      "solver.simplex_iterations");
  static obs::Counter& nonzeros =
      obs::MetricsRegistry::Global().GetCounter("solver.lp_nonzeros");
  solves.Increment();
  iterations.Add(static_cast<uint64_t>(result.iterations));
  nonzeros.Add(num_nonzeros_);
  const bool hot_start_attempted =
      start_basis != nullptr && !start_basis->empty();
  if (hot_start_attempted) {
    static obs::Counter& hot_attempts = obs::MetricsRegistry::Global()
        .GetCounter("solver.lp_hot_start_attempts");
    hot_attempts.Increment();
    if (result.hot_started) {
      static obs::Counter& hot_starts =
          obs::MetricsRegistry::Global().GetCounter("solver.lp_hot_starts");
      hot_starts.Increment();
    }
  }
  if (logging) {
    stats.engine = "factorized";
    stats.status = LpStatusName(result.status);
    stats.rows = num_rows();
    stats.cols = n;
    stats.tableau_cols = simplex.NumColumns();
    stats.nonzeros = num_nonzeros_;
    stats.iterations = result.iterations;
    stats.fill_end = simplex.StoredEntries();
    stats.refactorizations = simplex.refactorizations();
    stats.ft_updates = simplex.ft_updates();
    stats.factor_fill = simplex.FactorFill();
    stats.hot_start_attempted = hot_start_attempted;
    stats.hot_started = result.hot_started;
    stats.equilibration_cond =
        (equil_max > 0.0 && equil_min > 0.0) ? equil_max / equil_min : 1.0;
    stats.bip_id = SolveLog::ContextBipId();
    stats.node_id = SolveLog::ContextNodeId();
    stats.solve_ms = solve_watch.ElapsedMillis();
    solve_log.RecordLp(std::move(stats));
  }
  return result;
}

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
