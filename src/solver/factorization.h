#pragma once

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
/// bases NoSE's LPs produce. `Update` appends a product-form eta per basis
/// change (the eta column is the FTRAN image of the entering column, which
/// the simplex ratio test already computed), refusing pivots too small to
/// apply stably so the caller can refactorize instead. `Ftran`/`Btran`
/// solve B·z = b and Bᵀ·y = c against L, U, and the eta file.
///
/// Index spaces: `Ftran` maps a row-indexed vector to a slot-indexed one
/// (slot = basis position), `Btran` the reverse. Not thread-safe: solves
/// share internal scratch.
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
  /// eta. Returns false — with the factorization unchanged — when the eta
  /// pivot `ftran_column[slot]` is too small to apply stably; the caller
  /// should refactorize with the new basis instead.
  bool Update(int slot, const std::vector<double>& ftran_column);
  /// Last-resort variant of `Update` that always appends, for when a
  /// refactorization of the new basis failed numerically.
  void ForceUpdate(int slot, const std::vector<double>& ftran_column);

  /// True once the eta file is long or filled-in enough that collapsing it
  /// into a fresh factorization is worth the cost.
  bool NeedsRefactorization() const;

  int num_updates() const { return static_cast<int>(etas_.size()); }
  /// L + U nonzeros (including U's diagonal) of the base factorization.
  uint64_t lu_entries() const { return lu_nnz_; }
  /// Nonzeros across the appended eta columns.
  uint64_t eta_entries() const { return eta_nnz_; }
  /// Total stored factor entries — the fill measure telemetry samples.
  uint64_t stored_entries() const { return lu_nnz_ + eta_nnz_; }

 private:
  struct Eta {
    int slot = -1;
    double pivot = 0.0;
    std::vector<std::pair<int, double>> other;  // (slot, value), slot ≠ pivot
  };

  void AppendEta(int slot, const std::vector<double>& ftran_column);

  int m_ = -1;
  std::vector<int> prow_;      // step -> pivot row id
  std::vector<int> pcol_;      // step -> pivot column (slot) id
  std::vector<int> col_step_;  // slot id -> elimination step
  /// L stored by elimination step: unit-diagonal multiplier columns over
  /// original row ids.
  std::vector<std::vector<std::pair<int, double>>> lcols_;
  /// U stored by elimination step: off-diagonal entries (slot id, value);
  /// the diagonal pivot lives in udiag_.
  std::vector<std::vector<std::pair<int, double>>> urows_;
  std::vector<double> udiag_;
  std::vector<Eta> etas_;
  uint64_t lu_nnz_ = 0;
  uint64_t eta_nnz_ = 0;
  mutable std::vector<double> scratch_;
};

}  // namespace nose
