#include "solver/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

/// Outcome of loading a hot-start basis (FactorizedSimplex::TryLoadBasis).
enum class HotLoad { kFeasible, kInfeasible, kRejected };

using CsrRow = LpWorkingSystem::Row;

// ===========================================================================
// Factorized revised simplex (the production engine).
// ===========================================================================

/// LU-factorized bounded-variable two-phase revised primal simplex — the
/// engine behind every LpProblem::Solve. Same phase structure, pricing
/// rule (devex with Bland fallback), and ratio test as the reference
/// tableau (tests/reference_lp.h), but the basis inverse is a Markowitz sparse
/// LU plus product-form etas (solver/factorization.h) instead of an
/// explicit B⁻¹A tableau: the entering column arrives by FTRAN, the pivot
/// row by BTRAN plus a pass over the rows where that BTRAN is nonzero, and
/// fill stays near nnz(basis) instead of growing toward m·n. Reduced costs
/// and devex weights are updated from the pivot row, touching only its
/// nonzero columns, and recomputed from scratch (one BTRAN and a pass over
/// every column) only at refactorizations. The eta file collapses into
/// a fresh factorization on an update-count/fill trigger or whenever an
/// eta pivot is too small to apply stably. Hot starts additionally run a
/// bounded-variable dual simplex to repair the primal infeasibility a
/// branch-and-bound bound change leaves behind (the parent basis stays
/// dual feasible because only bounds changed), so a child node re-solves
/// in a handful of pivots. When the repair stalls on a row no column can
/// fix, that row is checked as a Farkas certificate (an aggregate of the
/// constraints that no point in the variable box satisfies) and, if it
/// holds, the solve ends kInfeasible with no phase 1; an unchecked stall
/// falls back to the cold start. Duals come from one BTRAN at the optimum
/// and are available for hot-started solves too. One instance per Solve()
/// call, over a working system that many instances may share: a solve
/// reads the system's rows, right-hand sides and columns in place, and
/// only the cold crash copies the pieces it changes (negated rows,
/// artificial columns).
class FactorizedSimplex {
 public:
  /// `lb`, `ub` and `cost` cover the system's structural and slack
  /// columns.
  FactorizedSimplex(const LpWorkingSystem& system, std::vector<double> lb,
                    std::vector<double> ub, std::vector<double> cost)
      : system_(system),
        n_(system.problem().num_variables()),
        lb_(std::move(lb)),
        ub_(std::move(ub)),
        cost_(std::move(cost)),
        rhs_(&system.rhs()),
        cols_(&system.columns()) {}

  int AddColumn(double lb, double ub, double cost) {
    lb_.push_back(lb);
    ub_.push_back(ub);
    cost_.push_back(cost);
    return static_cast<int>(cost_.size()) - 1;
  }

  /// `start_point`, when it has one value per structural variable, places
  /// the cold crash's nonbasic columns (see the crash in Run); otherwise,
  /// or when `start_basis` loads, it is ignored.
  LpResult Run(int max_iterations, double deadline_seconds,
               const LpBasis* start_basis, LpBasis* final_basis,
               bool want_duals, const std::vector<double>* start_point);

  /// Telemetry sink for this solve, or null (the default) for none. With a
  /// null sink the per-iteration cost is a handful of predictable branches.
  void set_stats(LpSolveStats* stats) { stats_ = stats; }
  /// Structural + slack + artificial columns.
  int NumColumns() const { return NumCols(); }
  /// Stored factor entries (LU + eta file) — the fill measure the
  /// telemetry samples.
  uint64_t StoredEntries() const { return fact_.stored_entries(); }
  int refactorizations() const { return refactorizations_; }
  /// Factorize calls, successful or not.
  int factorizations() const { return factorizations_; }
  int ft_updates() const { return ft_updates_; }
  /// L+U nonzeros of the most recent base factorization.
  uint64_t FactorFill() const { return fact_.lu_entries(); }
  /// True when Run returned kInfeasible from a hot start's Farkas check
  /// rather than from a cold phase 1.
  bool farkas_infeasible() const { return farkas_infeasible_; }

 private:
  int NumCols() const { return static_cast<int>(cost_.size()); }
  int NumRows() const { return static_cast<int>(system_.rows().size()); }

  double BoundValue(int j) const {
    return status_[static_cast<size_t>(j)] == VarStatus::kAtUpper
               ? ub_[static_cast<size_t>(j)]
               : lb_[static_cast<size_t>(j)];
  }

  bool IsFixed(int j) const {
    return ub_[static_cast<size_t>(j)] - lb_[static_cast<size_t>(j)] < 1e-12;
  }

  const SparseColumn& Column(int j) const {
    return (*cols_)[static_cast<size_t>(j)];
  }

  /// Factorizes the current basis into the spare factorization, swapping
  /// it in only on success so the previous factors stay usable as a
  /// fallback. Both keep their storage across refactorizations.
  bool FactorizeBasis() {
    const int m = NumRows();
    basis_cols_.clear();
    for (int i = 0; i < m; ++i) {
      basis_cols_.push_back(&Column(basis_[static_cast<size_t>(i)]));
    }
    ++factorizations_;
    if (!spare_.Factorize(m, basis_cols_)) return false;
    std::swap(fact_, spare_);
    ++refactorizations_;
    return true;
  }

  /// xb := B⁻¹(b − N·x_N), recomputed from scratch (used after every
  /// refactorization to shed incremental drift).
  void ComputeXb() {
    std::vector<double> r = *rhs_;
    for (int j = 0; j < NumCols(); ++j) {
      if (status_[static_cast<size_t>(j)] == VarStatus::kBasic) continue;
      const double bv = BoundValue(j);
      if (bv == 0.0) continue;
      const SparseColumn& col = Column(j);
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
      const SparseColumn& col = Column(j);
      double acc = 0.0;
      for (size_t k = 0; k < col.rows.size(); ++k) {
        const double yi = y[static_cast<size_t>(col.rows[k])];
        if (yi != 0.0) acc += col.vals[k] * yi;
      }
      d_[static_cast<size_t>(j)] -= acc;
    }
    y_ = std::move(y);
  }

  /// Fills rowvals_ with row `slot` of B⁻¹A: ρ = e_slotᵀB⁻¹ by BTRAN,
  /// then ρᵀA from the system's rows, visiting ρ's nonzero rows in
  /// ascending order. Each column thus sums the same products in the same
  /// order as a dot product down its own entries, bit for bit: a row the
  /// cold crash negated contributes v·(−ρ_i) = (−v)·ρ_i, and a crash
  /// artificial its unit entry. pivot_cols_ lists the columns touched;
  /// every other entry of rowvals_ is zero, so it stays a valid dense row.
  void ComputePivotRow(int slot) {
    const int m = NumRows();
    rho_.assign(static_cast<size_t>(m), 0.0);
    rho_[static_cast<size_t>(slot)] = 1.0;
    fact_.Btran(&rho_);
    for (const int j : pivot_cols_) {
      rowvals_[static_cast<size_t>(j)] = 0.0;
      in_pivot_row_[static_cast<size_t>(j)] = 0;
    }
    pivot_cols_.clear();
    rowvals_.resize(static_cast<size_t>(NumCols()), 0.0);
    in_pivot_row_.resize(static_cast<size_t>(NumCols()), 0);
    const auto add = [this](int j, double v) {
      if (!in_pivot_row_[static_cast<size_t>(j)]) {
        in_pivot_row_[static_cast<size_t>(j)] = 1;
        pivot_cols_.push_back(j);
      }
      rowvals_[static_cast<size_t>(j)] += v;
    };
    const std::vector<CsrRow>& rows = system_.rows();
    for (int i = 0; i < m; ++i) {
      const double ri = rho_[static_cast<size_t>(i)];
      if (ri == 0.0) continue;
      const double signed_ri = row_sign_[static_cast<size_t>(i)] * ri;
      const CsrRow& row = rows[static_cast<size_t>(i)];
      for (size_t k = 0; k < row.idx.size(); ++k) {
        add(row.idx[k], row.val[k] * signed_ri);
      }
      const int art = row_artificial_[static_cast<size_t>(i)];
      if (art >= 0) add(art, ri);
    }
  }

  /// alpha_ := B⁻¹·a_j, the FTRAN image of column j, and alpha_rows_ :=
  /// its nonzero slots in ascending order.
  void FtranColumn(int j) {
    const int m = NumRows();
    alpha_.assign(static_cast<size_t>(m), 0.0);
    const SparseColumn& col = Column(j);
    for (size_t k = 0; k < col.rows.size(); ++k) {
      alpha_[static_cast<size_t>(col.rows[k])] = col.vals[k];
    }
    fact_.Ftran(&alpha_);
    alpha_rows_.clear();
    for (int i = 0; i < m; ++i) {
      if (alpha_[static_cast<size_t>(i)] != 0.0) alpha_rows_.push_back(i);
    }
  }

  /// Replaces the basis column in `slot` with the entering column in the
  /// factorization: product-form eta when stable, otherwise a
  /// refactorization (which also re-syncs xb_ and d_ against `phase_cost`
  /// to shed drift). basis_ / status_ must already reflect the new basis,
  /// and alpha_ / alpha_rows_ hold the entering column's FTRAN image under
  /// the OLD basis.
  void UpdateFactors(int slot, const std::vector<double>& phase_cost) {
    const bool appended = fact_.Update(slot, alpha_, alpha_rows_);
    if (appended) ++ft_updates_;
    if (!appended || fact_.NeedsRefactorization()) {
      if (FactorizeBasis()) {
        ComputeXb();
        ComputeReducedCosts(phase_cost);
      } else if (!appended) {
        // Refactorization failed numerically; the old factors plus a
        // forced eta still represent the new basis exactly.
        fact_.ForceUpdate(slot, alpha_, alpha_rows_);
        ++ft_updates_;
      }
    }
  }

  /// Loads a caller-provided basis: factorize, compute xb, and — when a
  /// bound change left basic variables outside their bounds — run the
  /// dual-simplex repair. kFeasible: the basis is loaded and primal
  /// feasible, phase 2 continues from it. kInfeasible: the repair proved
  /// the LP infeasible (see DualRepair); Run returns that verdict without
  /// a phase 1. kRejected: the basis cannot be used (wrong shape, singular,
  /// or the repair gave up without a proof); the cold path then rebuilds
  /// every piece of state from scratch and its phase 1 decides.
  HotLoad TryLoadBasis(const LpBasis& basis, int* iterations_used);

  /// Bounded-variable dual simplex on the loaded basis: picks the most
  /// violated basic, prices its BTRAN row, and pivots by the dual ratio
  /// test until primal feasible (kFeasible). When the ratio test finds no
  /// eligible entering column the dual is unbounded along the pivot row,
  /// which suggests primal infeasibility; the verdict is returned as
  /// kInfeasible only if PivotRowProvesInfeasible() confirms it. An
  /// unconfirmed verdict, an iteration cap, the deadline, or a pivot the
  /// FTRAN disagrees with all return kRejected for the cold fallback.
  HotLoad DualRepair(int* iterations_used);

  /// Farkas check on the pivot row the repair just priced: rho_ = e_rᵀB⁻¹
  /// and rowvals_ = rho_ᵀA. Every x with Ax = b satisfies
  /// rowvals_·x = rho_ᵀb, so the LP is infeasible when rho_ᵀb lies outside
  /// [Σ min(a_j·l_j, a_j·u_j), Σ max(…)] over the column boxes by more
  /// than kPhase1Tol·max(1, ‖rho_‖∞) — the most a point the cold phase 1
  /// accepts can miss the aggregated row by — plus 1e-9 of the summed
  /// term magnitudes for rounding in the sums. Slack columns use their
  /// implied boxes (ImpliedBoxes) instead of [0, ∞): rounding-level
  /// entries on unbounded slacks would otherwise make both ends infinite.
  /// Any vector rho_ gives a valid aggregate, so the check is sound however
  /// inexact the factorization is.
  bool PivotRowProvesInfeasible() const;

  /// Column boxes for the Farkas check: lb_/ub_, except that each slack's
  /// [0, ∞) is tightened to the range its own row implies from the
  /// structural boxes. Row i reads a_i·x + σ·s_i = b_i, so every exactly
  /// feasible point has s_i = σ·(b_i − a_i·x) with a_i·x inside the row's
  /// activity range.
  void ImpliedBoxes(std::vector<double>* box_lb,
                    std::vector<double>* box_ub) const;

  /// Runs primal simplex iterations until optimality/unboundedness/limit
  /// for the current phase. Returns the LP status for this phase.
  LpStatus Iterate(int max_iterations, int* iterations_used,
                   const std::vector<double>& phase_cost);

  double deadline_seconds_ = 0.0;
  Stopwatch watch_;

  const LpWorkingSystem& system_;
  int n_;  // structural variable count (prefix of the columns)
  std::vector<double> lb_, ub_, cost_;
  /// Right-hand sides and columns in use: the system's, or after a cold
  /// crash the copies below (rows negated, artificial columns appended).
  const std::vector<double>* rhs_;
  const std::vector<SparseColumn>* cols_;
  std::vector<double> crash_rhs_;
  std::vector<SparseColumn> crash_cols_;
  std::vector<double> row_sign_;
  std::vector<int> row_artificial_;  // row -> its crash artificial, or -1
  std::vector<VarStatus> status_;
  std::vector<int> basis_;  // slot -> basic column
  std::vector<double> xb_;  // slot -> value of the basic variable
  std::vector<double> d_;
  std::vector<double> y_;  // row duals from the last ComputeReducedCosts
  std::vector<double> devex_;
  std::vector<double> alpha_;    // FTRAN scratch (entering column)
  std::vector<int> alpha_rows_;  // alpha_'s nonzero slots, ascending
  std::vector<double> rho_;      // BTRAN scratch (pivot row)
  std::vector<double> rowvals_;  // pivot row over all columns
  std::vector<int> pivot_cols_;  // columns the pivot row touched
  std::vector<char> in_pivot_row_;  // column -> listed in pivot_cols_
  BasisFactorization fact_;
  BasisFactorization spare_;  // refactorization target, swapped in on success
  std::vector<const SparseColumn*> basis_cols_;
  int first_artificial_ = 0;
  int degenerate_streak_ = 0;
  int refactorizations_ = 0;
  int factorizations_ = 0;
  int ft_updates_ = 0;
  bool farkas_infeasible_ = false;
  LpSolveStats* stats_ = nullptr;
};

LpStatus FactorizedSimplex::Iterate(int max_iterations, int* iterations_used,
                                    const std::vector<double>& phase_cost) {
  const int ncols = NumCols();
  const int base_iter = *iterations_used;  // cumulative across phases
  int iter = 0;
  degenerate_streak_ = 0;
  devex_.assign(static_cast<size_t>(ncols), 1.0);
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
    FtranColumn(enter);

    // --- Ratio test over the column's nonzeros only. ---
    double t_best = ub_[static_cast<size_t>(enter)] - lb_[static_cast<size_t>(enter)];
    int leave_pos = -1;   // position in alpha_rows_; -1 => bound flip
    bool leave_at_upper = false;
    double best_pivot_mag = 0.0;
    for (size_t p = 0; p < alpha_rows_.size(); ++p) {
      const int i = alpha_rows_[p];
      const double alpha = alpha_[static_cast<size_t>(i)];
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
                        basis_[static_cast<size_t>(alpha_rows_[
                            static_cast<size_t>(leave_pos)])]
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
      for (const int i : alpha_rows_) {
        xb_[static_cast<size_t>(i)] -=
            dir * alpha_[static_cast<size_t>(i)] * t_best;
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
    const int leave_row = alpha_rows_[static_cast<size_t>(leave_pos)];
    const int leave_col = basis_[static_cast<size_t>(leave_row)];
    const double pivot = alpha_[static_cast<size_t>(leave_row)];
    assert(std::abs(pivot) > kPivotTol);

    // Pivot row of B⁻¹A under the OUTGOING basis, for the reduced-cost and
    // devex updates (a tableau engine reads it off the stored row). Both
    // visit only the columns it touched.
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
      for (const int j : pivot_cols_) {
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
    for (const int j : pivot_cols_) {
      const double a = rowvals_[static_cast<size_t>(j)];
      if (a == 0.0) continue;
      const double an = a * inv;
      double& w = devex_[static_cast<size_t>(j)];
      const double candidate = std::min(kDevexMax, an * an * w_enter);
      if (candidate > w) w = candidate;
    }
    devex_[static_cast<size_t>(leave_col)] = std::min(
        kDevexMax, std::max(1.0, w_enter / std::max(pivot * pivot, 1e-12)));

    UpdateFactors(leave_row, phase_cost);
  }
  *iterations_used += iter;
  return LpStatus::kIterationLimit;
}

HotLoad FactorizedSimplex::DualRepair(int* iterations_used) {
  const int m = NumRows();
  // The repair runs before any artificials exist, so the phase-2 cost is
  // just cost_ — and because only bounds changed since the basis was
  // optimal, d_ starts dual feasible (within tolerances).
  ComputeReducedCosts(cost_);
  const int limit = 2 * m + 100;
  for (int iter = 0; iter < limit; ++iter) {
    if (deadline_seconds_ > 0.0 && (iter & 31) == 0 &&
        watch_.ElapsedSeconds() > deadline_seconds_) {
      return HotLoad::kRejected;
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
    if (leave_row < 0) return HotLoad::kFeasible;

    const int leave_col = basis_[static_cast<size_t>(leave_row)];
    ComputePivotRow(leave_row);

    // --- Dual ratio test: entering column whose sign moves the leaving
    // basic toward its violated bound, minimizing |d_j| / |a_rj| so the
    // remaining reduced costs keep their optimality signs. Near-ties go to
    // the lowest column, so the touched columns are visited ascending.
    std::sort(pivot_cols_.begin(), pivot_cols_.end());
    int enter = -1;
    double best_ratio = 0.0;
    double best_mag = 0.0;
    for (const int j : pivot_cols_) {
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
      // Dual unbounded along this row — the subproblem looks primal
      // infeasible. Report it only with a checked certificate; otherwise
      // the cold phase 1 delivers the verdict.
      return PivotRowProvesInfeasible() ? HotLoad::kInfeasible
                                        : HotLoad::kRejected;
    }

    // --- Pivot. ---
    FtranColumn(enter);
    const double pivot = alpha_[static_cast<size_t>(leave_row)];
    if (std::abs(pivot) <= kPivotTol) return HotLoad::kRejected;

    const double bound_k = to_upper ? ub_[static_cast<size_t>(leave_col)]
                                    : lb_[static_cast<size_t>(leave_col)];
    const double dx = (xb_[static_cast<size_t>(leave_row)] - bound_k) / pivot;
    for (const int i : alpha_rows_) {
      xb_[static_cast<size_t>(i)] -= alpha_[static_cast<size_t>(i)] * dx;
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
      for (const int j : pivot_cols_) {
        const double a = rowvals_[static_cast<size_t>(j)];
        if (a != 0.0) d_[static_cast<size_t>(j)] -= theta * a;
      }
    }
    d_[static_cast<size_t>(leave_col)] = -theta;
    d_[static_cast<size_t>(enter)] = 0.0;

    UpdateFactors(leave_row, cost_);
    ++(*iterations_used);
  }
  return HotLoad::kRejected;  // repair did not converge; cold start decides
}

void FactorizedSimplex::ImpliedBoxes(std::vector<double>* box_lb,
                                     std::vector<double>* box_ub) const {
  *box_lb = lb_;
  *box_ub = ub_;
  for (int i = 0; i < NumRows(); ++i) {
    const int slack = system_.slack_col()[static_cast<size_t>(i)];
    if (slack < 0) continue;
    // On the hot path rows are unnegated and carry no artificial, so the
    // slack is the last entry and every other entry is structural.
    const CsrRow& row = system_.rows()[static_cast<size_t>(i)];
    assert(row.idx.back() == slack);
    double act_lo = 0.0;
    double act_hi = 0.0;
    for (size_t k = 0; k + 1 < row.idx.size(); ++k) {
      const double a = row.val[k];
      if (a == 0.0) continue;
      const double t1 = a * lb_[static_cast<size_t>(row.idx[k])];
      const double t2 = a * ub_[static_cast<size_t>(row.idx[k])];
      act_lo += std::min(t1, t2);
      act_hi += std::max(t1, t2);
    }
    // σ·s = b − a·x, with σ = ±1.
    const double b = (*rhs_)[static_cast<size_t>(i)];
    const double lo = row.val.back() > 0.0 ? b - act_hi : act_lo - b;
    const double hi = row.val.back() > 0.0 ? b - act_lo : act_hi - b;
    double& s_lb = (*box_lb)[static_cast<size_t>(slack)];
    double& s_ub = (*box_ub)[static_cast<size_t>(slack)];
    s_lb = std::max(s_lb, lo);
    // A row the box cannot satisfy leaves hi below lo; the LP is then
    // infeasible anyway, and an empty box would only invert terms.
    s_ub = std::max(s_lb, std::min(s_ub, hi));
  }
}

bool FactorizedSimplex::PivotRowProvesInfeasible() const {
  std::vector<double> box_lb;
  std::vector<double> box_ub;
  ImpliedBoxes(&box_lb, &box_ub);
  double rho_b = 0.0;
  double magnitude = 0.0;
  double rho_max = 0.0;
  for (int i = 0; i < NumRows(); ++i) {
    const double term =
        rho_[static_cast<size_t>(i)] * (*rhs_)[static_cast<size_t>(i)];
    rho_b += term;
    magnitude += std::abs(term);
    rho_max = std::max(rho_max, std::abs(rho_[static_cast<size_t>(i)]));
  }
  double lo = 0.0;
  double hi = 0.0;
  for (int j = 0; j < NumCols(); ++j) {
    const double a = rowvals_[static_cast<size_t>(j)];
    if (a == 0.0) continue;
    const double t1 = a * box_lb[static_cast<size_t>(j)];
    const double t2 = a * box_ub[static_cast<size_t>(j)];
    lo += std::min(t1, t2);
    hi += std::max(t1, t2);
    if (std::isfinite(t1)) magnitude += std::abs(t1);
    if (std::isfinite(t2)) magnitude += std::abs(t2);
  }
  const double margin =
      kPhase1Tol * std::max(1.0, rho_max) + 1e-9 * magnitude;
  return rho_b > hi + margin || rho_b < lo - margin;
}

HotLoad FactorizedSimplex::TryLoadBasis(const LpBasis& basis,
                                        int* iterations_used) {
  const int m = NumRows();
  const int ncols = NumCols();
  if (static_cast<int>(basis.status.size()) != ncols) return HotLoad::kRejected;
  std::vector<int> basic_cols;
  basic_cols.reserve(static_cast<size_t>(m));
  for (int j = 0; j < ncols; ++j) {
    const uint8_t st = basis.status[static_cast<size_t>(j)];
    if (st == static_cast<uint8_t>(VarStatus::kBasic)) {
      basic_cols.push_back(j);
    } else if (st == static_cast<uint8_t>(VarStatus::kAtLower)) {
      if (lb_[static_cast<size_t>(j)] == -LpProblem::kInfinity) {
        return HotLoad::kRejected;
      }
    } else if (st == static_cast<uint8_t>(VarStatus::kAtUpper)) {
      if (ub_[static_cast<size_t>(j)] == LpProblem::kInfinity) {
        return HotLoad::kRejected;
      }
    } else {
      return HotLoad::kRejected;
    }
  }
  if (static_cast<int>(basic_cols.size()) != m) return HotLoad::kRejected;

  status_.assign(static_cast<size_t>(ncols), VarStatus::kAtLower);
  for (int j = 0; j < ncols; ++j) {
    status_[static_cast<size_t>(j)] =
        static_cast<VarStatus>(basis.status[static_cast<size_t>(j)]);
  }
  basis_ = std::move(basic_cols);
  if (!FactorizeBasis()) return HotLoad::kRejected;  // singular here
  ComputeXb();

  HotLoad load = HotLoad::kFeasible;
  for (int i = 0; i < m; ++i) {
    const size_t k = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    const double v = xb_[static_cast<size_t>(i)];
    if (v < lb_[k] - kPhase1Tol || v > ub_[k] + kPhase1Tol) {
      load = DualRepair(iterations_used);
      break;
    }
  }
  if (load != HotLoad::kFeasible) return load;

  for (int i = 0; i < m; ++i) {
    const size_t k = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    xb_[static_cast<size_t>(i)] =
        std::min(std::max(xb_[static_cast<size_t>(i)], lb_[k]), ub_[k]);
  }
  return HotLoad::kFeasible;
}

LpResult FactorizedSimplex::Run(int max_iterations, double deadline_seconds,
                                const LpBasis* start_basis,
                                LpBasis* final_basis, bool want_duals,
                                const std::vector<double>* start_point) {
  deadline_seconds_ = deadline_seconds;
  watch_.Reset();
  const int m = NumRows();
  LpResult result;
  if (final_basis != nullptr) final_basis->clear();
  result.iterations = 0;

  first_artificial_ = NumCols();
  row_sign_.assign(static_cast<size_t>(m), 1.0);
  row_artificial_.assign(static_cast<size_t>(m), -1);
  HotLoad load = HotLoad::kRejected;
  if (start_basis != nullptr && !start_basis->empty()) {
    load = TryLoadBasis(*start_basis, &result.iterations);
  }
  const bool hot = load != HotLoad::kRejected;
  result.hot_started = hot;
  if (stats_ != nullptr && hot) stats_->fill_start = fact_.stored_entries();
  if (load == HotLoad::kInfeasible) {
    farkas_infeasible_ = true;
    result.status = LpStatus::kInfeasible;
    return result;
  }

  if (!hot) {
    // Initial point: every column rests at a finite bound. A structural
    // column the start point holds at its upper bound starts there; every
    // other column starts at its lower bound (at its upper when it has no
    // lower). With no usable point this is the all-at-lower slack crash.
    // From a feasible point whose values sit on bounds (the optimizer's
    // 0/1 warm starts), every residual below is the point's own slack, so
    // the crash starts at zero infeasibility and phase 1 only drives the
    // zero-valued artificials out of the basis — which it must, for the
    // optimal basis to be exportable (see the end of Run).
    const bool from_point =
        start_point != nullptr &&
        start_point->size() == static_cast<size_t>(n_);
    result.point_crash = from_point;
    status_.assign(static_cast<size_t>(NumCols()), VarStatus::kAtLower);
    for (int j = 0; j < NumCols(); ++j) {
      const double lb = lb_[static_cast<size_t>(j)];
      const double ub = ub_[static_cast<size_t>(j)];
      if (lb == -LpProblem::kInfinity) {
        assert(ub != LpProblem::kInfinity &&
               "free variables are not supported");
        status_[static_cast<size_t>(j)] = VarStatus::kAtUpper;
      } else if (from_point && j < n_ && ub > lb &&
                 (*start_point)[static_cast<size_t>(j)] == ub) {
        status_[static_cast<size_t>(j)] = VarStatus::kAtUpper;
      }
    }

    // Residual per row given the initial nonbasic values.
    std::vector<double> residual(static_cast<size_t>(m), 0.0);
    const std::vector<CsrRow>& rows = system_.rows();
    for (int i = 0; i < m; ++i) {
      double r = (*rhs_)[static_cast<size_t>(i)];
      const CsrRow& row = rows[static_cast<size_t>(i)];
      for (size_t k = 0; k < row.idx.size(); ++k) {
        const double v = BoundValue(row.idx[k]);
        if (v != 0.0) r -= row.val[k] * v;
      }
      residual[static_cast<size_t>(i)] = r;
    }

    // Negate rows with negative residual so every artificial can enter
    // with coefficient +1 and the crash basis matrix is the identity. The
    // shared system stays untouched: the crash works on copies of its
    // right-hand sides and columns.
    crash_rhs_ = system_.rhs();
    for (int i = 0; i < m; ++i) {
      if (residual[static_cast<size_t>(i)] < 0.0) {
        double& b = crash_rhs_[static_cast<size_t>(i)];
        b = -b;
        residual[static_cast<size_t>(i)] = -residual[static_cast<size_t>(i)];
        row_sign_[static_cast<size_t>(i)] = -1.0;
      }
    }
    crash_cols_ = system_.columns();
    for (SparseColumn& col : crash_cols_) {
      for (size_t k = 0; k < col.rows.size(); ++k) {
        if (row_sign_[static_cast<size_t>(col.rows[k])] < 0.0) {
          col.vals[k] = -col.vals[k];
        }
      }
    }
    rhs_ = &crash_rhs_;
    cols_ = &crash_cols_;

    // Crash basis: a row whose own slack carries coefficient +1 after the
    // sign normalization can start with that slack basic at the residual
    // (slacks live in [0, ∞), and the residual is now nonnegative) — no
    // artificial, no phase-1 work. NoSE's BIPs are dominated by ≤ linking
    // rows (x_e ≤ δ), whose residual is nonnegative at the all-lower start
    // and at any feasible point, so this removes the bulk of phase 1;
    // artificials remain only for equality rows and for inequalities
    // pointing away from their slack — from a feasible start point those
    // artificials all start at (near) zero.
    // The slack is the last entry of its row (its index exceeds every
    // structural one).
    first_artificial_ = NumCols();
    basis_.assign(static_cast<size_t>(m), -1);
    xb_.assign(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      const int slack = system_.slack_col()[static_cast<size_t>(i)];
      const CsrRow& row = rows[static_cast<size_t>(i)];
      const double sign = row_sign_[static_cast<size_t>(i)];
      if (slack >= 0 && sign * row.val.back() == 1.0) {
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
      crash_cols_.push_back(SparseColumn{{i}, {1.0}});
      row_artificial_[static_cast<size_t>(i)] = art;
      basis_[static_cast<size_t>(i)] = art;
      xb_[static_cast<size_t>(i)] = residual[static_cast<size_t>(i)];
    }
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

}  // namespace

int DefaultIterationLimit(const LpProblem& problem) {
  return 20000 + 50 * (problem.num_rows() + problem.num_variables());
}

double MaxMagnitude(const LpRow& row) {
  double max_mag = 0.0;
  for (double v : row.values) max_mag = std::max(max_mag, std::abs(v));
  return max_mag;
}

double EquilibrationScale(double max_mag) {
  return max_mag > 1e-12 ? 1.0 / max_mag : 1.0;
}

LpWorkingSystem::LpWorkingSystem(const LpProblem& problem)
    : problem_(&problem) {
  const size_t m = static_cast<size_t>(problem.num_rows());
  // Slack columns: one per inequality row, so every row becomes equality.
  num_columns_ = problem.num_variables();
  slack_col_.assign(m, -1);
  for (size_t i = 0; i < m; ++i) {
    if (problem.row(static_cast<int>(i)).type != RowType::kEq) {
      slack_col_[i] = num_columns_++;
    }
  }
  // Equilibration conditioning estimate: spread of the per-row magnitudes
  // the scaling divides out (max/min over nontrivial rows).
  double equil_min = LpProblem::kInfinity;
  double equil_max = 0.0;
  rows_.resize(m);
  rhs_.resize(m);
  row_scale_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const LpRow& src = problem.row(static_cast<int>(i));
    const double max_mag = MaxMagnitude(src);
    const double scale = EquilibrationScale(max_mag);
    row_scale_[i] = scale;
    if (max_mag > 1e-12) {
      equil_min = std::min(equil_min, max_mag);
      equil_max = std::max(equil_max, max_mag);
    }
    Row& row = rows_[i];
    row.idx = src.indices;
    row.val = src.values;
    if (scale != 1.0) {
      for (double& v : row.val) v *= scale;
    }
    if (src.type == RowType::kLe) {
      row.idx.push_back(slack_col_[i]);
      row.val.push_back(1.0);
    } else if (src.type == RowType::kGe) {
      row.idx.push_back(slack_col_[i]);
      row.val.push_back(-1.0);
    }
    rhs_[i] = src.rhs * scale;
  }
  equilibration_cond_ =
      (equil_max > 0.0 && equil_min > 0.0) ? equil_max / equil_min : 1.0;
  // The same matrix by column, entries in row order.
  cols_.assign(static_cast<size_t>(num_columns_), SparseColumn{});
  for (size_t i = 0; i < m; ++i) {
    const Row& row = rows_[i];
    for (size_t k = 0; k < row.idx.size(); ++k) {
      SparseColumn& col = cols_[static_cast<size_t>(row.idx[k])];
      col.rows.push_back(static_cast<int>(i));
      col.vals.push_back(row.val[k]);
    }
  }
}

LpResult LpProblem::Solve(
    const std::vector<std::tuple<int, double, double>>& bound_overrides,
    int max_iterations, double deadline_seconds, const LpBasis* start_basis,
    LpBasis* final_basis, std::vector<double>* duals, LpSolveStats* stats,
    const std::vector<double>* start_point) const {
  return LpWorkingSystem(*this).Solve(bound_overrides, max_iterations,
                                      deadline_seconds, start_basis,
                                      final_basis, duals, stats, start_point);
}

LpResult LpWorkingSystem::Solve(
    const std::vector<std::tuple<int, double, double>>& bound_overrides,
    int max_iterations, double deadline_seconds, const LpBasis* start_basis,
    LpBasis* final_basis, std::vector<double>* duals, LpSolveStats* stats,
    const std::vector<double>* start_point) const {
  const LpProblem& problem = *problem_;
  // Structural bounds and costs as of this call, then the slacks' [0, ∞)
  // at zero cost.
  std::vector<double> lb = problem.lb_;
  std::vector<double> ub = problem.ub_;
  std::vector<double> cost = problem.cost_;
  for (const auto& [var, olb, oub] : bound_overrides) {
    lb[static_cast<size_t>(var)] = olb;
    ub[static_cast<size_t>(var)] = oub;
  }
  lb.resize(static_cast<size_t>(num_columns_), 0.0);
  ub.resize(static_cast<size_t>(num_columns_), LpProblem::kInfinity);
  cost.resize(static_cast<size_t>(num_columns_), 0.0);
  if (max_iterations <= 0) max_iterations = DefaultIterationLimit(problem);

  Stopwatch solve_watch;
  FactorizedSimplex simplex(*this, std::move(lb), std::move(ub),
                            std::move(cost));
  simplex.set_stats(stats);
  LpResult result = simplex.Run(max_iterations, deadline_seconds, start_basis,
                                final_basis, duals != nullptr, start_point);

  // Undo row equilibration on the duals: the engine solved
  // scale_i·(a_i·x) = scale_i·b_i, so the multiplier of the original row is
  // scale_i times the engine's.
  if (duals != nullptr) {
    if (result.status == LpStatus::kOptimal &&
        result.duals.size() == rows_.size()) {
      for (size_t i = 0; i < rows_.size(); ++i) {
        result.duals[i] *= row_scale_[i];
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
  static obs::Counter& factorizations =
      obs::MetricsRegistry::Global().GetCounter("solver.lu_factorizations");
  solves.Increment();
  factorizations.Add(static_cast<uint64_t>(simplex.factorizations()));
  iterations.Add(static_cast<uint64_t>(result.iterations));
  nonzeros.Add(problem.num_nonzeros());
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
    if (simplex.farkas_infeasible()) {
      static obs::Counter& farkas = obs::MetricsRegistry::Global().GetCounter(
          "solver.lp_farkas_infeasible");
      farkas.Increment();
    }
  }
  if (stats != nullptr) {
    stats->status = LpStatusName(result.status);
    stats->rows = problem.num_rows();
    stats->tableau_cols = simplex.NumColumns();
    stats->iterations = result.iterations;
    stats->fill_end = simplex.StoredEntries();
    stats->refactorizations = simplex.refactorizations();
    stats->ft_updates = simplex.ft_updates();
    stats->factor_fill = simplex.FactorFill();
    stats->hot_start_attempted = hot_start_attempted;
    stats->hot_started = result.hot_started;
    stats->farkas = simplex.farkas_infeasible();
    stats->equilibration_cond = equilibration_cond_;
    stats->solve_ms = solve_watch.ElapsedMillis();
  }
  return result;
}

}  // namespace nose
