#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nose {

/// One sparse column of the constraint matrix: parallel (row, value)
/// arrays. Rows need not be sorted; duplicates are not allowed.
struct SparseColumn {
  std::vector<int> rows;
  std::vector<double> vals;
};

/// LU factorization of a simplex basis with product-form updates — the
/// machinery behind LpProblem::Solve's revised simplex.
///
/// `Factorize` runs Markowitz-pivoted sparse Gaussian elimination on the
/// basis matrix B (columns supplied in slot order): at each step it picks
/// the admissible entry minimizing (row_count-1)·(col_count-1) among
/// entries within kMarkowitzTau of their column's magnitude, which keeps
/// the L/U fill near the basis' own nonzero count for the near-triangular
/// bases NoSE's LPs produce. Ties go to the lowest column, then the
/// largest magnitude, then the lowest row. A step costs what its pivot
/// touches: zero-cost pivots (column singletons, entries alone in their
/// row) come from a set of armed columns, and only a step with none left
/// scans the active columns. `Update` appends a product-form eta per basis
/// change (the eta column is the FTRAN image of the entering column, which
/// the simplex ratio test already computed), reading only the image's
/// nonzero slots, and refuses pivots too small to apply stably so the
/// caller can refactorize instead. `Ftran`/`Btran`
/// solve B·z = b and Bᵀ·y = c against L, U, and the eta file.
///
/// Index spaces: `Ftran` maps a row-indexed vector to a slot-indexed one
/// (slot = basis position), `Btran` the reverse. Storage is kept across
/// calls, so refactorizing a basis of the same size allocates nothing.
/// Not thread-safe: solves share internal scratch.
class BasisFactorization {
 public:
  /// Factorizes the m×m matrix whose k-th column is *cols[k]. Returns
  /// false (leaving the object unfactorized) when the matrix is singular
  /// within the pivot tolerance. Resets the eta file.
  bool Factorize(int m, const std::vector<const SparseColumn*>& cols);

  bool factorized() const { return m_ >= 0; }
  int dim() const { return m_; }

  /// v := B⁻¹·v. Input indexed by row, output indexed by slot.
  void Ftran(std::vector<double>* v) const;
  /// v := B⁻ᵀ·v. Input indexed by slot, output indexed by row.
  void Btran(std::vector<double>* v) const;

  /// Replaces the basis column at `slot` with the column whose FTRAN image
  /// is `ftran_column` (dense, slot-indexed), by appending a product-form
  /// eta. `nonzeros` lists, ascending, every slot where the image is
  /// nonzero (it may name zeros too); only those are read. Returns false —
  /// with the factorization unchanged — when the eta pivot
  /// `ftran_column[slot]` is too small to apply stably; the caller should
  /// refactorize with the new basis instead.
  bool Update(int slot, const std::vector<double>& ftran_column,
              const std::vector<int>& nonzeros);
  /// Last-resort variant of `Update` that always appends, for when a
  /// refactorization of the new basis failed numerically.
  void ForceUpdate(int slot, const std::vector<double>& ftran_column,
                   const std::vector<int>& nonzeros);

  /// True once the eta file is long or filled-in enough that collapsing it
  /// into a fresh factorization is worth the cost.
  bool NeedsRefactorization() const;

  int num_updates() const { return static_cast<int>(eta_slot_.size()); }
  /// L + U nonzeros (including U's diagonal) of the base factorization.
  uint64_t lu_entries() const { return lu_nnz_; }
  /// Nonzeros across the appended eta columns.
  uint64_t eta_entries() const { return eta_.size() + eta_slot_.size(); }
  /// Total stored factor entries — the fill measure telemetry samples.
  uint64_t stored_entries() const { return lu_nnz_ + eta_entries(); }

 private:
  /// The pivot the Markowitz rule has picked so far in a scan.
  struct Pivot {
    int row = -1;
    int col = -1;
    double val = 0.0;
    double mag = 0.0;
    int64_t cost = -1;
  };

  /// Offers column j's admissible entries to `best` under the pivot rule.
  void ScanColumn(int j, Pivot* best) const;
  /// Appends column j to row i's list.
  void AddToRow(int i, int j);
  /// Picks the step's pivot: the lowest armed column holding a zero-cost
  /// entry, else a scan of every active column. False when none is left.
  bool ChoosePivot(Pivot* best);
  void Arm(int j) {
    armed_[static_cast<size_t>(j) / 64] |= uint64_t{1} << (j % 64);
  }
  void AppendEta(int slot, const std::vector<double>& ftran_column,
                 const std::vector<int>& nonzeros);

  int m_ = -1;
  std::vector<int> prow_;      // step -> pivot row id
  std::vector<int> pcol_;      // step -> pivot column (slot) id
  std::vector<int> col_step_;  // slot id -> elimination step
  /// L by elimination step: entries [l_start_[k], l_start_[k+1]) are step
  /// k's unit-diagonal multiplier column over original row ids.
  std::vector<int> l_start_;
  std::vector<std::pair<int, double>> l_;
  /// U by elimination step: entries [u_start_[k], u_start_[k+1]) are step
  /// k's off-diagonal row as (slot id, value); the pivot lives in udiag_.
  std::vector<int> u_start_;
  std::vector<std::pair<int, double>> u_;
  std::vector<double> udiag_;
  /// Eta file, oldest first: eta e pivots on eta_slot_[e] with value
  /// eta_pivot_[e] and carries entries [eta_start_[e], eta_start_[e+1]).
  std::vector<int> eta_slot_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_{0};
  std::vector<std::pair<int, double>> eta_;
  uint64_t lu_nnz_ = 0;
  mutable std::vector<double> scratch_;

  // Working state of Factorize, kept for its storage. Columns and row
  // lists live in two flat files; a list that outgrows its slot moves to
  // the end of its file.
  struct Slot {
    int start = 0;
    int len = 0;
    int cap = 0;
  };
  /// Active submatrix by column: unsorted (row, value) entries.
  std::vector<Slot> col_slot_;
  std::vector<std::pair<int, double>> col_file_;
  /// Columns per row; may name columns that have since lost the row.
  std::vector<Slot> row_slot_;
  std::vector<int> row_file_;
  std::vector<int> row_count_;  // active entries per row
  std::vector<char> col_active_;
  /// The active columns, ascending. Compacted lazily: only a nucleus step
  /// drops the columns pivoted since the previous one.
  std::vector<int> active_cols_;
  /// Bitset of columns that may hold a zero-cost pivot. Every active
  /// column that does is armed; an armed one that does not is disarmed
  /// when the pivot search reaches it.
  std::vector<uint64_t> armed_;
  std::vector<double> buf_;
  std::vector<char> mark_;
  std::vector<int> touched_;
};

}  // namespace nose
