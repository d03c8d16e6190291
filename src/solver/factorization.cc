#include "solver/factorization.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>

namespace nose {
namespace {

/// Relative stability threshold for Markowitz pivots: an entry is
/// admissible only within this factor of its column's largest magnitude,
/// bounding element growth while leaving the fill heuristic room to pick.
constexpr double kMarkowitzTau = 0.1;
/// Absolute floor below which an entry never pivots (treated as noise).
constexpr double kAbsPivotTol = 1e-11;
/// Eta pivots smaller than this (relative to the eta column's magnitude)
/// refuse to append — the caller refactorizes instead.
constexpr double kEtaRelTol = 1e-6;
constexpr double kEtaAbsTol = 1e-9;
/// Refactorization triggers: eta count, and eta fill relative to the base
/// factorization (a long eta file makes every FTRAN/BTRAN pay for it).
constexpr int kMaxEtas = 64;

}  // namespace

void BasisFactorization::ScanColumn(int j, Pivot* best) const {
  const Slot& slot = col_slot_[static_cast<size_t>(j)];
  const auto col = std::span(col_file_).subspan(
      static_cast<size_t>(slot.start), static_cast<size_t>(slot.len));
  double colmax = 0.0;
  for (const auto& [i, v] : col) colmax = std::max(colmax, std::abs(v));
  if (colmax <= kAbsPivotTol) return;
  const int64_t cn = static_cast<int64_t>(col.size()) - 1;
  for (const auto& [i, v] : col) {
    const double mag = std::abs(v);
    if (mag < kMarkowitzTau * colmax || mag <= kAbsPivotTol) continue;
    const int64_t cost =
        (static_cast<int64_t>(row_count_[static_cast<size_t>(i)]) - 1) * cn;
    // Deterministic preference: lowest Markowitz cost, then largest
    // magnitude, then lowest row id (callers offer columns ascending).
    const bool better =
        best->cost < 0 || cost < best->cost ||
        (cost == best->cost && best->col == j &&
         (mag > best->mag || (mag == best->mag && i < best->row)));
    if (better) {
      *best = Pivot{i, j, v, mag, cost};
      if (cost == 0 && mag == colmax) break;
    }
  }
}

void BasisFactorization::AddToRow(int i, int j) {
  Slot& slot = row_slot_[static_cast<size_t>(i)];
  if (slot.len == slot.cap) {
    const int start = static_cast<int>(row_file_.size());
    row_file_.resize(row_file_.size() + 2 * static_cast<size_t>(slot.cap) + 4);
    std::copy_n(row_file_.begin() + slot.start, slot.len,
                row_file_.begin() + start);
    slot.start = start;
    slot.cap = 2 * slot.cap + 4;
  }
  row_file_[static_cast<size_t>(slot.start + slot.len++)] = j;
}

bool BasisFactorization::ChoosePivot(Pivot* best) {
  // A zero-cost pivot ends the full scan at the lowest column holding
  // one, so that column's own scan picks the same entry. Every such
  // column is armed; disarm the ones passed over on the way.
  for (size_t w = 0; w < armed_.size(); ++w) {
    while (armed_[w] != 0) {
      const int j = static_cast<int>(w * 64) + std::countr_zero(armed_[w]);
      armed_[w] &= armed_[w] - 1;
      if (!col_active_[static_cast<size_t>(j)]) continue;
      Pivot candidate;
      ScanColumn(j, &candidate);
      if (candidate.cost == 0) {
        *best = candidate;
        return true;
      }
    }
  }
  // Nucleus step: every remaining pivot fills in, so scan the active
  // columns. An admissible entry now sits in a row of count ≥ 2 and costs
  // at least its column's count − 1, so a column that cannot undercut the
  // best cost so far is skipped unread.
  std::erase_if(active_cols_, [this](int j) {
    return !col_active_[static_cast<size_t>(j)];
  });
  for (const int j : active_cols_) {
    if (best->cost == 0) break;
    const int64_t cn = col_slot_[static_cast<size_t>(j)].len - 1;
    if (best->cost >= 0 && cn >= best->cost) continue;
    ScanColumn(j, best);
  }
  return best->col >= 0;
}

bool BasisFactorization::Factorize(
    int m, const std::vector<const SparseColumn*>& cols) {
  assert(static_cast<int>(cols.size()) == m);
  const size_t n = static_cast<size_t>(m);
  m_ = -1;
  eta_slot_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_.clear();
  lu_nnz_ = 0;
  prow_.assign(n, -1);
  pcol_.assign(n, -1);
  col_step_.assign(n, -1);
  l_start_.assign(1, 0);
  l_.clear();
  u_start_.assign(1, 0);
  u_.clear();
  udiag_.assign(n, 0.0);

  // Working matrix: unsorted (row, value) entries per column, the columns
  // of each row, and the active-row nonzero counts the Markowitz rule
  // needs. Every column starts armed.
  col_slot_.assign(n, Slot{});
  col_file_.clear();
  row_count_.assign(n, 0);
  col_active_.assign(n, 1);
  active_cols_.resize(n);
  std::iota(active_cols_.begin(), active_cols_.end(), 0);
  armed_.assign((n + 63) / 64, 0);
  for (int j = 0; j < m; ++j) {
    const SparseColumn& src = *cols[static_cast<size_t>(j)];
    Slot& slot = col_slot_[static_cast<size_t>(j)];
    slot.start = static_cast<int>(col_file_.size());
    for (size_t k = 0; k < src.rows.size(); ++k) {
      if (src.vals[k] == 0.0) continue;
      const int i = src.rows[k];
      assert(i >= 0 && i < m);
      col_file_.emplace_back(i, src.vals[k]);
      ++row_count_[static_cast<size_t>(i)];
    }
    slot.len = static_cast<int>(col_file_.size()) - slot.start;
    slot.cap = slot.len;
    Arm(j);
  }
  row_slot_.assign(n, Slot{});
  int row_start = 0;
  for (size_t i = 0; i < n; ++i) {
    row_slot_[i].start = row_start;
    row_slot_[i].cap = row_count_[i] + 2;
    row_start += row_slot_[i].cap;
  }
  row_file_.resize(static_cast<size_t>(row_start));
  for (int j = 0; j < m; ++j) {
    const Slot& slot = col_slot_[static_cast<size_t>(j)];
    for (int e = slot.start; e < slot.start + slot.len; ++e) {
      AddToRow(col_file_[static_cast<size_t>(e)].first, j);
    }
  }

  // Dense scatter buffer for the column updates.
  buf_.assign(n, 0.0);
  mark_.assign(n, 0);

  for (int step = 0; step < m; ++step) {
    Pivot best;
    if (!ChoosePivot(&best)) return false;  // singular within tolerance

    const int pr = best.row;
    const int pc = best.col;
    const double pivot = best.val;
    prow_[static_cast<size_t>(step)] = pr;
    pcol_[static_cast<size_t>(step)] = pc;
    col_step_[static_cast<size_t>(pc)] = step;
    udiag_[static_cast<size_t>(step)] = pivot;
    col_active_[static_cast<size_t>(pc)] = 0;

    // L multipliers from the pivot column's remaining active rows.
    const size_t l_begin = l_.size();
    const double inv = 1.0 / pivot;
    Slot& pivot_slot = col_slot_[static_cast<size_t>(pc)];
    for (int e = pivot_slot.start; e < pivot_slot.start + pivot_slot.len;
         ++e) {
      const auto [i, v] = col_file_[static_cast<size_t>(e)];
      if (i == pr) continue;
      l_.emplace_back(i, v * inv);
      --row_count_[static_cast<size_t>(i)];
    }
    pivot_slot.len = 0;
    const size_t l_end = l_.size();
    l_start_.push_back(static_cast<int>(l_end));

    // Eliminate the pivot row from every remaining column that carries it,
    // in ascending column order; the removed entries form U's row for
    // this step. Zeros are never stored, so a carried entry is nonzero.
    // Fill appends to other rows' lists, which may move them but never
    // this one, so it is walked by index.
    Slot& carriers = row_slot_[static_cast<size_t>(pr)];
    {
      const auto first = row_file_.begin() + carriers.start;
      std::sort(first, first + carriers.len);
      carriers.len =
          static_cast<int>(std::unique(first, first + carriers.len) - first);
    }
    for (int p = carriers.start; p < carriers.start + carriers.len; ++p) {
      const int j = row_file_[static_cast<size_t>(p)];
      if (!col_active_[static_cast<size_t>(j)]) continue;
      Slot& slot = col_slot_[static_cast<size_t>(j)];
      double u = 0.0;
      bool has = false;
      for (int e = slot.start; e < slot.start + slot.len; ++e) {
        if (col_file_[static_cast<size_t>(e)].first == pr) {
          u = col_file_[static_cast<size_t>(e)].second;
          has = true;
          break;
        }
      }
      if (!has) continue;  // the entry cancelled in an earlier step
      assert(u != 0.0);
      u_.emplace_back(j, u);
      // Scatter, update, gather: col := col − u · lcol, minus the pivot row.
      touched_.clear();
      for (int e = slot.start; e < slot.start + slot.len; ++e) {
        const auto [i, v] = col_file_[static_cast<size_t>(e)];
        if (i == pr) continue;
        buf_[static_cast<size_t>(i)] = v;
        mark_[static_cast<size_t>(i)] = 1;
        touched_.push_back(i);
      }
      for (size_t k = l_begin; k < l_end; ++k) {
        const auto [i, mult] = l_[k];
        if (!mark_[static_cast<size_t>(i)]) {
          buf_[static_cast<size_t>(i)] = 0.0;
          mark_[static_cast<size_t>(i)] = 1;
          touched_.push_back(i);
          ++row_count_[static_cast<size_t>(i)];  // fill-in (may cancel below)
          AddToRow(i, j);
        }
        buf_[static_cast<size_t>(i)] -= mult * u;
      }
      // The updated column stays in its slot when it fits, else moves to
      // the end of the file.
      if (static_cast<int>(touched_.size()) > slot.cap) {
        slot.start = static_cast<int>(col_file_.size());
        slot.cap = static_cast<int>(touched_.size());
        col_file_.resize(col_file_.size() + touched_.size());
      }
      slot.len = 0;
      for (const int i : touched_) {
        mark_[static_cast<size_t>(i)] = 0;
        const double v = buf_[static_cast<size_t>(i)];
        if (v == 0.0) {  // exact cancellation only — no drop tolerance
          --row_count_[static_cast<size_t>(i)];
          continue;
        }
        col_file_[static_cast<size_t>(slot.start + slot.len++)] = {i, v};
      }
      --row_count_[static_cast<size_t>(pr)];
      Arm(j);  // its entries changed
    }
    u_start_.push_back(static_cast<int>(u_.size()));

    // Only the pivot column's rows changed count. One left with a single
    // active entry makes that entry a zero-cost pivot: arm its column.
    for (size_t k = l_begin; k < l_end; ++k) {
      const int i = l_[k].first;
      if (row_count_[static_cast<size_t>(i)] != 1) continue;
      const Slot& row = row_slot_[static_cast<size_t>(i)];
      for (int p = row.start; p < row.start + row.len; ++p) {
        const int j = row_file_[static_cast<size_t>(p)];
        if (col_active_[static_cast<size_t>(j)]) Arm(j);
      }
    }
  }

  lu_nnz_ = static_cast<uint64_t>(m) + l_.size() + u_.size();
  m_ = m;
  scratch_.assign(n, 0.0);
  return true;
}

void BasisFactorization::Ftran(std::vector<double>* v) const {
  assert(m_ >= 0 && static_cast<int>(v->size()) == m_);
  std::vector<double>& work = *v;
  // L solve (forward, unit diagonal): y_k lives at work[prow_[k]] once step
  // k has run; later steps never touch already-pivoted rows.
  for (int k = 0; k < m_; ++k) {
    const double yk = work[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
    if (yk == 0.0) continue;
    for (int e = l_start_[static_cast<size_t>(k)];
         e < l_start_[static_cast<size_t>(k) + 1]; ++e) {
      const auto [i, mult] = l_[static_cast<size_t>(e)];
      work[static_cast<size_t>(i)] -= mult * yk;
    }
  }
  // U solve (backward) into slot space.
  std::vector<double>& x = scratch_;
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = work[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
    for (int e = u_start_[static_cast<size_t>(k)];
         e < u_start_[static_cast<size_t>(k) + 1]; ++e) {
      const auto [slot, u] = u_[static_cast<size_t>(e)];
      const double xs = x[static_cast<size_t>(slot)];
      if (xs != 0.0) acc -= u * xs;
    }
    x[static_cast<size_t>(pcol_[static_cast<size_t>(k)])] =
        acc / udiag_[static_cast<size_t>(k)];
  }
  work.swap(x);
  // Product-form etas, oldest first.
  for (size_t q = 0; q < eta_slot_.size(); ++q) {
    const int slot = eta_slot_[q];
    const double t = work[static_cast<size_t>(slot)] / eta_pivot_[q];
    work[static_cast<size_t>(slot)] = t;
    if (t == 0.0) continue;
    for (int e = eta_start_[q]; e < eta_start_[q + 1]; ++e) {
      const auto [other, val] = eta_[static_cast<size_t>(e)];
      work[static_cast<size_t>(other)] -= val * t;
    }
  }
}

void BasisFactorization::Btran(std::vector<double>* v) const {
  assert(m_ >= 0 && static_cast<int>(v->size()) == m_);
  std::vector<double>& work = *v;
  // Eta transposes, newest first: z = E⁻ᵀ y touches only the pivot slot.
  for (size_t q = eta_slot_.size(); q-- > 0;) {
    const int slot = eta_slot_[q];
    double acc = work[static_cast<size_t>(slot)];
    for (int e = eta_start_[q]; e < eta_start_[q + 1]; ++e) {
      const auto [other, val] = eta_[static_cast<size_t>(e)];
      const double y = work[static_cast<size_t>(other)];
      if (y != 0.0) acc -= val * y;
    }
    work[static_cast<size_t>(slot)] = acc / eta_pivot_[q];
  }
  // Uᵀ solve (forward in step order, saxpy form over U's rows).
  std::vector<double>& acc = scratch_;
  for (int k = 0; k < m_; ++k) {
    acc[static_cast<size_t>(k)] =
        work[static_cast<size_t>(pcol_[static_cast<size_t>(k)])];
  }
  for (int k = 0; k < m_; ++k) {
    const double vk =
        acc[static_cast<size_t>(k)] / udiag_[static_cast<size_t>(k)];
    acc[static_cast<size_t>(k)] = vk;
    if (vk == 0.0) continue;
    for (int e = u_start_[static_cast<size_t>(k)];
         e < u_start_[static_cast<size_t>(k) + 1]; ++e) {
      const auto [slot, u] = u_[static_cast<size_t>(e)];
      acc[static_cast<size_t>(col_step_[static_cast<size_t>(slot)])] -=
          u * vk;
    }
  }
  // Lᵀ solve (backward): w[prow_[k]] = v_k − l_kᵀ·w.
  for (int k = m_ - 1; k >= 0; --k) {
    double wk = acc[static_cast<size_t>(k)];
    for (int e = l_start_[static_cast<size_t>(k)];
         e < l_start_[static_cast<size_t>(k) + 1]; ++e) {
      const auto [i, mult] = l_[static_cast<size_t>(e)];
      const double wi = work[static_cast<size_t>(i)];
      if (wi != 0.0) wk -= mult * wi;
    }
    work[static_cast<size_t>(prow_[static_cast<size_t>(k)])] = wk;
  }
}

void BasisFactorization::AppendEta(int slot,
                                   const std::vector<double>& ftran_column,
                                   const std::vector<int>& nonzeros) {
  eta_slot_.push_back(slot);
  eta_pivot_.push_back(ftran_column[static_cast<size_t>(slot)]);
  for (const int i : nonzeros) {
    if (i == slot) continue;
    const double v = ftran_column[static_cast<size_t>(i)];
    if (v != 0.0) eta_.emplace_back(i, v);
  }
  eta_start_.push_back(static_cast<int>(eta_.size()));
}

bool BasisFactorization::Update(int slot,
                                const std::vector<double>& ftran_column,
                                const std::vector<int>& nonzeros) {
  assert(m_ >= 0 && static_cast<int>(ftran_column.size()) == m_);
  const double pivot = ftran_column[static_cast<size_t>(slot)];
  double maxabs = 0.0;
  for (const int i : nonzeros) {
    maxabs = std::max(maxabs, std::abs(ftran_column[static_cast<size_t>(i)]));
  }
  if (std::abs(pivot) <= kEtaAbsTol ||
      std::abs(pivot) < kEtaRelTol * maxabs) {
    return false;
  }
  AppendEta(slot, ftran_column, nonzeros);
  return true;
}

void BasisFactorization::ForceUpdate(int slot,
                                     const std::vector<double>& ftran_column,
                                     const std::vector<int>& nonzeros) {
  assert(m_ >= 0 &&
         ftran_column[static_cast<size_t>(slot)] != 0.0);
  AppendEta(slot, ftran_column, nonzeros);
}

bool BasisFactorization::NeedsRefactorization() const {
  if (num_updates() >= kMaxEtas) return true;
  const uint64_t eta_nnz = eta_entries();
  return eta_nnz > 1024 && eta_nnz > 2 * lu_nnz_;
}

}  // namespace nose
