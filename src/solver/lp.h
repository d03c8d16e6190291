#ifndef NOSE_SOLVER_LP_H_
#define NOSE_SOLVER_LP_H_

#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "solver/factorization.h"

namespace nose {

struct LpSolveStats;

/// Sense of a linear constraint row.
enum class RowType { kLe, kGe, kEq };

/// Termination status of an LP solve.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusName(LpStatus status);

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< variable values at the optimum (if kOptimal)
  int iterations = 0;
  /// True if the starting basis was used: the solve continued from it, or
  /// ended on the Farkas verdict of its dual repair (then kInfeasible).
  /// False when there was none or it was rejected for the cold start.
  bool hot_started = false;
  /// True if the cold crash started from the caller's start point (see
  /// LpProblem::Solve); false after a hot start or with no usable point.
  bool point_crash = false;
  /// Dual value per original constraint row, filled only when the caller
  /// asked for duals (Solve's `duals` out-parameter) and the solve ended
  /// kOptimal. Recovered with one BTRAN against the optimal basis,
  /// hot-started or not. Sign convention: y_i ≥ 0 certifies a binding ≥
  /// row, y_i ≤ 0 a binding ≤ row, free for =. The values are
  /// floating-point candidates — the certificate checker (analysis/
  /// certify.h) re-derives an exact safe bound from them rather than
  /// trusting their feasibility.
  std::vector<double> duals;
};

/// A simplex basis snapshot: one status per column (structural variables
/// first, then one slack per inequality row in row order). 0 = at lower
/// bound, 1 = at upper bound, 2 = basic. Captured from an optimal solve and
/// fed back to a later solve of a problem with the SAME rows (only costs
/// and bounds may differ) to skip phase 1 entirely. A basis that does not
/// fit — wrong size, wrong basic count, singular, or primal infeasible
/// under the new bounds — is rejected and the solve falls back to the cold
/// crash start, so stale bases cost a failed load, never a wrong answer.
/// Before giving up on a primal-infeasible load the solver tries one
/// repair: branch-and-bound children differ from their parent only in
/// bounds, which keeps the parent basis dual feasible, so a short
/// bounded-variable dual-simplex run drives the violated basics back
/// inside their bounds in a handful of pivots. When the repair stalls
/// because the child is infeasible, the stalled row is checked as an
/// infeasibility certificate; a checked one ends the solve kInfeasible
/// without a cold phase 1, an unchecked one falls back to the cold start.
struct LpBasis {
  std::vector<uint8_t> status;

  bool empty() const { return status.empty(); }
  void clear() { status.clear(); }
};

/// One constraint row in CSR style: parallel index/value arrays with
/// strictly increasing indices. The schema optimizer's BIPs are >95%
/// structural zeros, so rows never materialize dense coefficient vectors.
struct LpRow {
  RowType type = RowType::kEq;
  double rhs = 0.0;
  std::vector<int> indices;
  std::vector<double> values;
};

/// Sorts and merges naive (variable, coefficient) terms into an LpRow.
/// Duplicate variable entries are summed; exact-zero sums are kept (the
/// caller asked for the variable to appear in the row).
LpRow MakeLpRow(RowType type, double rhs,
                std::vector<std::pair<int, double>> coeffs);

class LpProblem;

/// Rows staged outside an LpProblem — e.g. built per plan space on worker
/// threads — and appended later with LpProblem::AppendRows() in a
/// deterministic order. The sort/merge work of AddRow happens here, off
/// the critical serial path.
class LpRowBuffer {
 public:
  /// Equivalent to LpProblem::AddRow, staged.
  void Add(RowType type, double rhs,
           std::vector<std::pair<int, double>> coeffs);

  size_t size() const { return rows_.size(); }
  size_t num_nonzeros() const { return num_nonzeros_; }

 private:
  friend class LpProblem;
  std::vector<LpRow> rows_;
  size_t num_nonzeros_ = 0;
};

/// A linear program: minimize cᵀx subject to row constraints and variable
/// bounds l ≤ x ≤ u. Build incrementally, then Solve(). The solver is an
/// LU-factorized two-phase revised primal simplex with bounded
/// variables (nonbasic variables rest at either bound; bound flips are
/// handled without pivots): the basis inverse is held as a Markowitz
/// sparse LU plus product-form updates, the entering column and pivot row
/// come from FTRAN/BTRAN against the factors, pricing runs on
/// incrementally maintained dense reduced costs, and the crash basis
/// skips phase-1 work for every inequality row that starts feasible: each
/// structural column starts at the bound a caller's start point holds (all
/// at lower without one), and each row whose slack can absorb the residual
/// starts with that slack basic.
/// Designed for the sparse flow-structured instances NoSE's schema
/// optimizer emits; replaces the paper's use of Gurobi.
class LpProblem {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Adds a variable with bounds [lb, ub] and objective coefficient `cost`.
  /// Returns its index.
  int AddVariable(double lb, double ub, double cost);

  /// Adds a constraint  Σ coeff·x  (≤ | ≥ | =)  rhs. Duplicate variable
  /// entries in `coeffs` are summed.
  void AddRow(RowType type, double rhs,
              std::vector<std::pair<int, double>> coeffs);

  /// Appends pre-staged rows in buffer order. Every referenced variable
  /// must already exist.
  void AppendRows(LpRowBuffer&& buffer);

  int num_variables() const { return static_cast<int>(cost_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  /// Read access to a constraint row (introspection: reference solvers,
  /// lint, benchmarks).
  const LpRow& row(int i) const { return rows_[static_cast<size_t>(i)]; }
  /// Structural nonzero count across all rows (after duplicate merging) —
  /// the BIP density statistic the optimizer reports.
  size_t num_nonzeros() const { return num_nonzeros_; }

  double cost(int var) const { return cost_[static_cast<size_t>(var)]; }
  double lower_bound(int var) const { return lb_[static_cast<size_t>(var)]; }
  double upper_bound(int var) const { return ub_[static_cast<size_t>(var)]; }
  void SetBounds(int var, double lb, double ub);
  void SetCost(int var, double cost);

  /// Solves the LP. `bound_overrides` optionally tightens per-variable
  /// bounds for this solve only (used by branch-and-bound nodes);
  /// entries are (var, lb, ub). `deadline_seconds` (0 = none) aborts an
  /// overlong solve with kIterationLimit so callers stay responsive.
  /// ReferenceLpSolve (tests/reference_lp.h) returns the same optima to
  /// solver tolerances (tests and solver_micro --json check the agreement).
  ///
  /// `start_basis` hot-starts the solve from a basis captured by an
  /// earlier solve of the same constraint rows; on a successful load
  /// phase 1 is skipped, and bound-change infeasibility is repaired with
  /// dual simplex pivots — or, when no pivot can repair it, proven
  /// (counter `solver.lp_farkas_infeasible`). `final_basis` receives the
  /// optimal basis of this solve, or is cleared when none is available
  /// (non-optimal exit or an artificial still basic).
  ///
  /// `duals`, when non-null, receives one multiplier per constraint row at
  /// the optimum (see LpResult::duals); cleared when the solve was not
  /// cleanly optimal.
  ///
  /// `stats`, when non-null, receives this solve's telemetry (see
  /// solver/solve_log.h); the caller stamps and records it. Null costs
  /// nothing per iteration.
  ///
  /// `start_point`, when non-null with one value per variable, places the
  /// cold crash: a variable it holds at its upper bound starts nonbasic
  /// there, every other at its lower bound. From a feasible point the
  /// crash starts at (near) zero infeasibility, so phase 1 is short; an
  /// infeasible point is still resolved by phase 1, and a point of the
  /// wrong size is ignored. Only the start moves: the optimal value is
  /// the same (among tied optima the vertex may differ), and the optimal
  /// basis is exported as usual.
  ///
  /// Each call builds the solver's working system of the rows
  /// (LpWorkingSystem) and solves against it; a caller that solves the
  /// same rows many times — branch and bound — builds one LpWorkingSystem
  /// and calls its Solve instead, with identical results.
  LpResult Solve(
      const std::vector<std::tuple<int, double, double>>& bound_overrides = {},
      int max_iterations = 0, double deadline_seconds = 0.0,
      const LpBasis* start_basis = nullptr,
      LpBasis* final_basis = nullptr,
      std::vector<double>* duals = nullptr,
      LpSolveStats* stats = nullptr,
      const std::vector<double>* start_point = nullptr) const;

 private:
  friend class LpWorkingSystem;

  std::vector<double> cost_;
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<LpRow> rows_;
  size_t num_nonzeros_ = 0;
};

/// The solver's working system of an LpProblem's rows, built once and
/// shared read-only by every solve against them — all branch-and-bound
/// nodes of one SolveBip, on any worker thread. Each inequality row gets
/// a slack column (numbered after every structural column, in row
/// order), each row is divided by its largest coefficient magnitude
/// (equilibration) and closed by its slack, and the same matrix is kept
/// by column for pricing and basis factorization. Costs and bounds are
/// read from the problem at each Solve, so the problem must outlive the
/// system and keep its rows; its bounds and costs may change between
/// solves.
class LpWorkingSystem {
 public:
  /// One equilibrated equality row in CSR form: the original row, then its
  /// slack. Indices stay strictly increasing because slack columns are
  /// numbered after every structural column.
  struct Row {
    std::vector<int> idx;
    std::vector<double> val;
  };

  explicit LpWorkingSystem(const LpProblem& problem);

  /// LpProblem::Solve against this system (same arguments and results).
  /// Safe to call concurrently: each call keeps its own solver state.
  LpResult Solve(
      const std::vector<std::tuple<int, double, double>>& bound_overrides = {},
      int max_iterations = 0, double deadline_seconds = 0.0,
      const LpBasis* start_basis = nullptr,
      LpBasis* final_basis = nullptr,
      std::vector<double>* duals = nullptr,
      LpSolveStats* stats = nullptr,
      const std::vector<double>* start_point = nullptr) const;

  const LpProblem& problem() const { return *problem_; }
  const std::vector<Row>& rows() const { return rows_; }
  /// Equilibrated right-hand sides, one per row.
  const std::vector<double>& rhs() const { return rhs_; }
  /// Per row, its slack column, or -1 for an equality row.
  const std::vector<int>& slack_col() const { return slack_col_; }
  /// Structural then slack columns, entries in row order.
  const std::vector<SparseColumn>& columns() const { return cols_; }

 private:
  const LpProblem* problem_;
  int num_columns_ = 0;  // structural + slack
  std::vector<Row> rows_;
  std::vector<double> rhs_;
  std::vector<int> slack_col_;
  std::vector<double> row_scale_;  // equilibration factor per row
  std::vector<SparseColumn> cols_;
  /// Spread of the row magnitudes equilibration divided out (max/min).
  double equilibration_cond_ = 1.0;
};

/// Default simplex iteration cap when the caller passes none.
int DefaultIterationLimit(const LpProblem& problem);

/// Largest coefficient magnitude of a row. Each row is divided by it (row
/// equilibration, factor EquilibrationScale(MaxMagnitude(row))) so rows
/// mixing byte-scale and unit-scale coefficients — e.g. storage
/// constraints — stay within the solver's absolute tolerances. Shared with
/// the reference tableau in tests/reference_lp.h.
double MaxMagnitude(const LpRow& row);
double EquilibrationScale(double max_mag);

}  // namespace nose

#endif  // NOSE_SOLVER_LP_H_
