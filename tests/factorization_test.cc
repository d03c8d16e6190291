#include "solver/factorization.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/certify.h"
#include "solver/bip.h"
#include "solver/certificate.h"
#include "solver/lp.h"
#include "tests/reference_lp.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nose {
namespace {

/// Dense Gaussian elimination with partial pivoting: the slow, obviously
/// correct reference the sparse LU is checked against. `a` is row-major.
bool DenseSolve(std::vector<std::vector<double>> a, std::vector<double> b,
                std::vector<double>* x) {
  const int m = static_cast<int>(b.size());
  for (int k = 0; k < m; ++k) {
    int piv = k;
    for (int r = k + 1; r < m; ++r) {
      if (std::fabs(a[static_cast<size_t>(r)][static_cast<size_t>(k)]) >
          std::fabs(a[static_cast<size_t>(piv)][static_cast<size_t>(k)])) {
        piv = r;
      }
    }
    if (std::fabs(a[static_cast<size_t>(piv)][static_cast<size_t>(k)]) <
        1e-12) {
      return false;
    }
    std::swap(a[static_cast<size_t>(k)], a[static_cast<size_t>(piv)]);
    std::swap(b[static_cast<size_t>(k)], b[static_cast<size_t>(piv)]);
    for (int r = k + 1; r < m; ++r) {
      const double f = a[static_cast<size_t>(r)][static_cast<size_t>(k)] /
                       a[static_cast<size_t>(k)][static_cast<size_t>(k)];
      if (f == 0.0) continue;
      for (int c = k; c < m; ++c) {
        a[static_cast<size_t>(r)][static_cast<size_t>(c)] -=
            f * a[static_cast<size_t>(k)][static_cast<size_t>(c)];
      }
      b[static_cast<size_t>(r)] -= f * b[static_cast<size_t>(k)];
    }
  }
  x->assign(static_cast<size_t>(m), 0.0);
  for (int k = m - 1; k >= 0; --k) {
    double s = b[static_cast<size_t>(k)];
    for (int c = k + 1; c < m; ++c) {
      s -= a[static_cast<size_t>(k)][static_cast<size_t>(c)] *
           (*x)[static_cast<size_t>(c)];
    }
    (*x)[static_cast<size_t>(k)] =
        s / a[static_cast<size_t>(k)][static_cast<size_t>(k)];
  }
  return true;
}

/// Random column-diagonally-dominant sparse columns: never singular, with
/// enough off-diagonal structure to exercise Markowitz pivoting and fill.
std::vector<SparseColumn> RandomDominantColumns(Rng* rng, int m) {
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    double off = 0.0;
    for (int r = 0; r < m; ++r) {
      if (r == k || !rng->Chance(0.3)) continue;
      double v = 2.0 * rng->NextDouble() - 1.0;
      if (v == 0.0) v = 0.5;
      cols[static_cast<size_t>(k)].rows.push_back(r);
      cols[static_cast<size_t>(k)].vals.push_back(v);
      off += std::fabs(v);
    }
    cols[static_cast<size_t>(k)].rows.push_back(k);
    cols[static_cast<size_t>(k)].vals.push_back(off + 1.0 + rng->NextDouble());
  }
  return cols;
}

std::vector<std::vector<double>> Densify(const std::vector<SparseColumn>& cols,
                                         int m) {
  std::vector<std::vector<double>> a(
      static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(m), 0.0));
  for (int k = 0; k < m; ++k) {
    const SparseColumn& col = cols[static_cast<size_t>(k)];
    for (size_t e = 0; e < col.rows.size(); ++e) {
      a[static_cast<size_t>(col.rows[e])][static_cast<size_t>(k)] = col.vals[e];
    }
  }
  return a;
}

std::vector<const SparseColumn*> Pointers(
    const std::vector<SparseColumn>& cols) {
  std::vector<const SparseColumn*> ptrs;
  ptrs.reserve(cols.size());
  for (const SparseColumn& c : cols) ptrs.push_back(&c);
  return ptrs;
}

TEST(FactorizationTest, FtranAndBtranMatchDenseSolve) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 2654435761ull + 17);
    const int m = 3 + static_cast<int>(rng.Uniform(25));
    std::vector<SparseColumn> cols = RandomDominantColumns(&rng, m);
    BasisFactorization fact;
    ASSERT_TRUE(fact.Factorize(m, Pointers(cols))) << "seed " << seed;
    EXPECT_TRUE(fact.factorized());
    EXPECT_EQ(fact.dim(), m);
    EXPECT_GE(fact.lu_entries(), static_cast<uint64_t>(m));

    const std::vector<std::vector<double>> dense = Densify(cols, m);
    std::vector<double> b(static_cast<size_t>(m));
    for (double& v : b) v = 2.0 * rng.NextDouble() - 1.0;

    // FTRAN solves B x = b; the reference solves the same dense system.
    std::vector<double> x = b;
    fact.Ftran(&x);
    std::vector<double> x_ref;
    ASSERT_TRUE(DenseSolve(dense, b, &x_ref));
    for (int k = 0; k < m; ++k) {
      EXPECT_NEAR(x[static_cast<size_t>(k)], x_ref[static_cast<size_t>(k)],
                  1e-8)
          << "seed " << seed << " slot " << k;
    }

    // BTRAN solves Bᵀ y = c: reference solves against the transpose.
    std::vector<double> c(static_cast<size_t>(m));
    for (double& v : c) v = 2.0 * rng.NextDouble() - 1.0;
    std::vector<double> y = c;
    fact.Btran(&y);
    std::vector<std::vector<double>> dense_t(
        static_cast<size_t>(m),
        std::vector<double>(static_cast<size_t>(m), 0.0));
    for (int r = 0; r < m; ++r) {
      for (int k = 0; k < m; ++k) {
        dense_t[static_cast<size_t>(k)][static_cast<size_t>(r)] =
            dense[static_cast<size_t>(r)][static_cast<size_t>(k)];
      }
    }
    std::vector<double> y_ref;
    ASSERT_TRUE(DenseSolve(dense_t, c, &y_ref));
    for (int r = 0; r < m; ++r) {
      EXPECT_NEAR(y[static_cast<size_t>(r)], y_ref[static_cast<size_t>(r)],
                  1e-8)
          << "seed " << seed << " row " << r;
    }
  }
}

/// The slots where an FTRAN image is nonzero, ascending — what Update
/// reads the image through.
std::vector<int> NonzeroSlots(const std::vector<double>& image) {
  std::vector<int> slots;
  for (size_t i = 0; i < image.size(); ++i) {
    if (image[i] != 0.0) slots.push_back(static_cast<int>(i));
  }
  return slots;
}

TEST(FactorizationTest, ProductFormUpdatesTrackReplacedColumns) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 6364136223846793005ull + 29);
    const int m = 8 + static_cast<int>(rng.Uniform(10));
    std::vector<SparseColumn> cols = RandomDominantColumns(&rng, m);
    BasisFactorization fact;
    ASSERT_TRUE(fact.Factorize(m, Pointers(cols)));
    std::vector<std::vector<double>> dense = Densify(cols, m);

    int applied = 0;
    for (int t = 0; t < 10; ++t) {
      const int s = static_cast<int>(rng.Uniform(static_cast<uint64_t>(m)));
      const int o = (s + 1 + static_cast<int>(rng.Uniform(
                                 static_cast<uint64_t>(m - 1)))) %
                    m;
      // Replacement column: a well-pivoted mix of two current columns, so
      // its FTRAN image is 2·e_s + 0.25·e_o and the eta pivot is 2.
      std::vector<double> replacement(static_cast<size_t>(m));
      for (int r = 0; r < m; ++r) {
        replacement[static_cast<size_t>(r)] =
            2.0 * dense[static_cast<size_t>(r)][static_cast<size_t>(s)] +
            0.25 * dense[static_cast<size_t>(r)][static_cast<size_t>(o)];
      }
      std::vector<double> image = replacement;
      fact.Ftran(&image);
      if (!fact.Update(s, image, NonzeroSlots(image))) continue;
      ++applied;
      for (int r = 0; r < m; ++r) {
        dense[static_cast<size_t>(r)][static_cast<size_t>(s)] =
            replacement[static_cast<size_t>(r)];
      }
    }
    ASSERT_GT(applied, 0) << "seed " << seed;
    EXPECT_EQ(fact.num_updates(), applied);
    EXPECT_GT(fact.eta_entries(), 0u);

    std::vector<double> b(static_cast<size_t>(m));
    for (double& v : b) v = 2.0 * rng.NextDouble() - 1.0;
    std::vector<double> x = b;
    fact.Ftran(&x);
    std::vector<double> x_ref;
    ASSERT_TRUE(DenseSolve(dense, b, &x_ref));
    for (int k = 0; k < m; ++k) {
      EXPECT_NEAR(x[static_cast<size_t>(k)], x_ref[static_cast<size_t>(k)],
                  1e-7)
          << "seed " << seed << " slot " << k;
    }
  }
}

TEST(FactorizationTest, RefusesUpdateWithTinyPivot) {
  // Replacing slot 0 with (a copy of) slot 1's column makes the basis
  // singular: the FTRAN image is e_1, whose slot-0 pivot is 0. Update must
  // refuse and leave the factorization untouched.
  const int m = 4;
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    cols[static_cast<size_t>(k)].rows = {k};
    cols[static_cast<size_t>(k)].vals = {1.0 + 0.5 * k};
  }
  BasisFactorization fact;
  ASSERT_TRUE(fact.Factorize(m, Pointers(cols)));

  std::vector<double> image(static_cast<size_t>(m), 0.0);
  image[1] = 1.0;  // e_1: zero pivot at slot 0
  EXPECT_FALSE(fact.Update(0, image, NonzeroSlots(image)));
  EXPECT_EQ(fact.num_updates(), 0);

  // The old system still solves exactly: diag(1, 1.5, 2, 2.5).
  std::vector<double> b = {1.0, 3.0, 4.0, 5.0};
  fact.Ftran(&b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
  EXPECT_NEAR(b[2], 2.0, 1e-12);
  EXPECT_NEAR(b[3], 2.0, 1e-12);
}

TEST(FactorizationTest, SignalsRefactorizationAfterManyUpdates) {
  const int m = 5;
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    cols[static_cast<size_t>(k)].rows = {k};
    cols[static_cast<size_t>(k)].vals = {1.0};
  }
  BasisFactorization fact;
  ASSERT_TRUE(fact.Factorize(m, Pointers(cols)));

  std::vector<double> image(static_cast<size_t>(m), 0.0);
  image[0] = 1.0;  // re-enter the same column: pivot 1, always stable
  for (int t = 0; t < 64; ++t) {
    EXPECT_FALSE(fact.NeedsRefactorization()) << "update " << t;
    ASSERT_TRUE(fact.Update(0, image, NonzeroSlots(image)));
  }
  EXPECT_TRUE(fact.NeedsRefactorization());
  EXPECT_EQ(fact.num_updates(), 64);
}

TEST(FactorizationTest, RejectsSingularBasis) {
  // Two identical columns.
  std::vector<SparseColumn> cols(3);
  cols[0].rows = {0, 1};
  cols[0].vals = {1.0, 2.0};
  cols[1].rows = {0, 1};
  cols[1].vals = {1.0, 2.0};
  cols[2].rows = {2};
  cols[2].vals = {1.0};
  BasisFactorization fact;
  EXPECT_FALSE(fact.Factorize(3, Pointers(cols)));
  EXPECT_FALSE(fact.factorized());

  // A structurally empty column.
  std::vector<SparseColumn> with_zero(2);
  with_zero[0].rows = {0};
  with_zero[0].vals = {1.0};
  BasisFactorization fact2;
  EXPECT_FALSE(fact2.Factorize(2, Pointers(with_zero)));
  EXPECT_FALSE(fact2.factorized());
}

/// The pivot-rule oracle: the original Markowitz elimination, which scans
/// every active column twice per step — once to pick the pivot, once to
/// eliminate — for O(m·nnz) per factorization. BasisFactorization must
/// pick exactly its pivots in exactly its order of operations, so the
/// factors and every FTRAN/BTRAN image agree bit for bit. Kept here, the
/// way ReferenceLpSolve is kept for the simplex, together with counters of
/// the events the differential test must cover.
class ScanFactorization {
 public:
  bool Factorize(int m, const std::vector<const SparseColumn*>& cols) {
    m_ = -1;
    lu_nnz_ = 0;
    singular_step_ = -1;
    prow_.assign(static_cast<size_t>(m), -1);
    pcol_.assign(static_cast<size_t>(m), -1);
    col_step_.assign(static_cast<size_t>(m), -1);
    lcols_.assign(static_cast<size_t>(m), {});
    urows_.assign(static_cast<size_t>(m), {});
    udiag_.assign(static_cast<size_t>(m), 0.0);
    // Positions created by fill-in, to tell cancelled fill from cancelled
    // original entries.
    std::vector<char> filled(static_cast<size_t>(m) * static_cast<size_t>(m),
                             0);
    auto fill_at = [&](int i, int j) -> char& {
      return filled[static_cast<size_t>(i) * static_cast<size_t>(m) +
                    static_cast<size_t>(j)];
    };

    std::vector<std::vector<std::pair<int, double>>> w(static_cast<size_t>(m));
    std::vector<int> row_count(static_cast<size_t>(m), 0);
    std::vector<char> col_active(static_cast<size_t>(m), 1);
    for (int j = 0; j < m; ++j) {
      const SparseColumn& src = *cols[static_cast<size_t>(j)];
      for (size_t k = 0; k < src.rows.size(); ++k) {
        if (src.vals[k] == 0.0) continue;
        w[static_cast<size_t>(j)].emplace_back(src.rows[k], src.vals[k]);
        ++row_count[static_cast<size_t>(src.rows[k])];
      }
    }

    std::vector<double> buf(static_cast<size_t>(m), 0.0);
    std::vector<char> mark(static_cast<size_t>(m), 0);
    std::vector<int> touched;
    touched.reserve(static_cast<size_t>(m));
    for (int step = 0; step < m; ++step) {
      // --- Markowitz pivot selection: scan every active entry once. ---
      int best_row = -1;
      int best_col = -1;
      double best_val = 0.0;
      int64_t best_cost = -1;
      double best_mag = 0.0;
      for (int j = 0; j < m && best_cost != 0; ++j) {
        if (!col_active[static_cast<size_t>(j)]) continue;
        const auto& col = w[static_cast<size_t>(j)];
        double colmax = 0.0;
        for (const auto& [i, v] : col) colmax = std::max(colmax, std::fabs(v));
        if (colmax <= 1e-11) continue;
        const int64_t cn = static_cast<int64_t>(col.size()) - 1;
        for (const auto& [i, v] : col) {
          const double mag = std::fabs(v);
          if (mag < 0.1 * colmax || mag <= 1e-11) continue;
          const int64_t cost =
              (static_cast<int64_t>(row_count[static_cast<size_t>(i)]) - 1) *
              cn;
          if (cost == best_cost && best_col == j && mag == best_mag) {
            ++magnitude_ties_;
          }
          const bool better =
              best_cost < 0 || cost < best_cost ||
              (cost == best_cost && best_col == j &&
               (mag > best_mag || (mag == best_mag && i < best_row)));
          if (better) {
            best_cost = cost;
            best_mag = mag;
            best_row = i;
            best_col = j;
            best_val = v;
            if (cost == 0 && mag == colmax) break;
          }
        }
      }
      if (best_col < 0) {
        singular_step_ = step;
        return false;
      }
      if (best_cost > 0) ++nucleus_steps_;

      const int pr = best_row;
      const int pc = best_col;
      const double pivot = best_val;
      prow_[static_cast<size_t>(step)] = pr;
      pcol_[static_cast<size_t>(step)] = pc;
      col_step_[static_cast<size_t>(pc)] = step;
      udiag_[static_cast<size_t>(step)] = pivot;
      col_active[static_cast<size_t>(pc)] = 0;

      auto& lcol = lcols_[static_cast<size_t>(step)];
      const double inv = 1.0 / pivot;
      for (const auto& [i, v] : w[static_cast<size_t>(pc)]) {
        if (i == pr) continue;
        lcol.emplace_back(i, v * inv);
        --row_count[static_cast<size_t>(i)];
      }
      w[static_cast<size_t>(pc)].clear();

      // Eliminate the pivot row from every remaining column that carries it.
      auto& urow = urows_[static_cast<size_t>(step)];
      for (int j = 0; j < m; ++j) {
        if (!col_active[static_cast<size_t>(j)]) continue;
        auto& col = w[static_cast<size_t>(j)];
        double u = 0.0;
        bool has = false;
        for (const auto& [i, v] : col) {
          if (i == pr) {
            u = v;
            has = true;
            break;
          }
        }
        if (!has) continue;
        urow.emplace_back(j, u);
        touched.clear();
        for (const auto& [i, v] : col) {
          if (i == pr) continue;
          buf[static_cast<size_t>(i)] = v;
          mark[static_cast<size_t>(i)] = 1;
          touched.push_back(i);
        }
        for (const auto& [i, mult] : lcol) {
          if (!mark[static_cast<size_t>(i)]) {
            buf[static_cast<size_t>(i)] = 0.0;
            mark[static_cast<size_t>(i)] = 1;
            touched.push_back(i);
            ++row_count[static_cast<size_t>(i)];
            fill_at(i, j) = 1;
          }
          buf[static_cast<size_t>(i)] -= mult * u;
        }
        col.clear();
        for (const int i : touched) {
          mark[static_cast<size_t>(i)] = 0;
          const double v = buf[static_cast<size_t>(i)];
          if (v == 0.0) {
            ++(fill_at(i, j) ? cancelled_fill_ : cancelled_original_);
            --row_count[static_cast<size_t>(i)];
            continue;
          }
          col.emplace_back(i, v);
        }
        --row_count[static_cast<size_t>(pr)];
      }
    }

    lu_nnz_ = static_cast<uint64_t>(m);
    for (const auto& lcol : lcols_) lu_nnz_ += lcol.size();
    for (const auto& urow : urows_) lu_nnz_ += urow.size();
    m_ = m;
    return true;
  }

  void Ftran(std::vector<double>* v) const {
    std::vector<double>& work = *v;
    for (int k = 0; k < m_; ++k) {
      const double yk =
          work[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
      if (yk == 0.0) continue;
      for (const auto& [i, mult] : lcols_[static_cast<size_t>(k)]) {
        work[static_cast<size_t>(i)] -= mult * yk;
      }
    }
    std::vector<double> x(static_cast<size_t>(m_), 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = work[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
      for (const auto& [slot, u] : urows_[static_cast<size_t>(k)]) {
        const double xs = x[static_cast<size_t>(slot)];
        if (xs != 0.0) acc -= u * xs;
      }
      x[static_cast<size_t>(pcol_[static_cast<size_t>(k)])] =
          acc / udiag_[static_cast<size_t>(k)];
    }
    work.swap(x);
  }

  void Btran(std::vector<double>* v) const {
    std::vector<double>& work = *v;
    std::vector<double> acc(static_cast<size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      acc[static_cast<size_t>(k)] =
          work[static_cast<size_t>(pcol_[static_cast<size_t>(k)])];
    }
    for (int k = 0; k < m_; ++k) {
      const double vk =
          acc[static_cast<size_t>(k)] / udiag_[static_cast<size_t>(k)];
      acc[static_cast<size_t>(k)] = vk;
      if (vk == 0.0) continue;
      for (const auto& [slot, u] : urows_[static_cast<size_t>(k)]) {
        acc[static_cast<size_t>(col_step_[static_cast<size_t>(slot)])] -=
            u * vk;
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      double wk = acc[static_cast<size_t>(k)];
      for (const auto& [i, mult] : lcols_[static_cast<size_t>(k)]) {
        const double wi = work[static_cast<size_t>(i)];
        if (wi != 0.0) wk -= mult * wi;
      }
      work[static_cast<size_t>(prow_[static_cast<size_t>(k)])] = wk;
    }
  }

  uint64_t lu_entries() const { return lu_nnz_; }
  /// Step at which the last Factorize found no pivot, or -1.
  int singular_step() const { return singular_step_; }
  /// Running event counts across every Factorize call.
  int nucleus_steps() const { return nucleus_steps_; }
  int magnitude_ties() const { return magnitude_ties_; }
  int cancelled_fill() const { return cancelled_fill_; }
  int cancelled_original() const { return cancelled_original_; }

 private:
  int m_ = -1;
  uint64_t lu_nnz_ = 0;
  int singular_step_ = -1;
  std::vector<int> prow_;
  std::vector<int> pcol_;
  std::vector<int> col_step_;
  std::vector<std::vector<std::pair<int, double>>> lcols_;
  std::vector<std::vector<std::pair<int, double>>> urows_;
  std::vector<double> udiag_;
  int nucleus_steps_ = 0;
  int magnitude_ties_ = 0;
  int cancelled_fill_ = 0;
  int cancelled_original_ = 0;
};

/// Entry value for the differential bases: mostly ±1/±2/±0.5, so
/// magnitudes tie and updates cancel exactly, sometimes a random double,
/// now and then an entry below the pivot tolerance.
double DifferentialValue(Rng* rng) {
  const uint64_t kind = rng->Uniform(10);
  const double sign = rng->Chance(0.5) ? 1.0 : -1.0;
  if (kind < 6) {
    static constexpr double kSmall[] = {1.0, 2.0, 0.5};
    return sign * kSmall[rng->Uniform(3)];
  }
  if (kind < 9) return sign * (0.05 + rng->NextDouble());
  return sign * 1e-13;
}

/// A random basis in one of three shapes: a permuted block triangle
/// around a dense nucleus, a sparse matrix over a dominant-ish diagonal,
/// or the first shape with two nucleus columns made proportional, which
/// is singular only once the triangular parts are peeled. Entry order
/// inside each column is shuffled (it matters to the pivot rule's
/// tie-breaks), and explicit zeros are sprinkled in.
std::vector<SparseColumn> DifferentialBasis(Rng* rng, int shape, int m) {
  std::vector<std::vector<double>> a(
      static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(m), 0.0));
  auto at = [&](int r, int c) -> double& {
    return a[static_cast<size_t>(r)][static_cast<size_t>(c)];
  };
  if (shape == 1) {
    for (int c = 0; c < m; ++c) {
      at(c, c) = rng->Chance(0.5) ? 4.0 : -2.0;
      for (int r = 0; r < m; ++r) {
        if (r != c && rng->Chance(0.15)) at(r, c) = DifferentialValue(rng);
      }
    }
  } else {
    // Rows/columns [0, lo) and [hi, m) are lower triangular; [lo, hi) is
    // the dense nucleus.
    const int k = 2 + static_cast<int>(rng->Uniform(
                          static_cast<uint64_t>(std::min(m - 1, 8))));
    const int lo =
        static_cast<int>(rng->Uniform(static_cast<uint64_t>(m - k + 1)));
    const int hi = lo + k;
    for (int c = 0; c < m; ++c) {
      for (int r = 0; r < m; ++r) {
        const bool nucleus = r >= lo && r < hi && c >= lo && c < hi;
        if (nucleus) {
          if (rng->Chance(0.85)) at(r, c) = DifferentialValue(rng);
        } else if (r == c) {
          at(r, c) = rng->Chance(0.5) ? -1.0 : 2.0;
        } else if (r > c && rng->Chance(0.2)) {
          at(r, c) = DifferentialValue(rng);
        }
      }
    }
    if (shape == 2) {
      const int c1 = lo;
      const int c2 = lo + 1 + static_cast<int>(rng->Uniform(
                                  static_cast<uint64_t>(k - 1)));
      const double factor = rng->Chance(0.5) ? 2.0 : -1.0;
      for (int r = 0; r < m; ++r) at(r, c2) = factor * at(r, c1);
      if (at(lo, c1) == 0.0) {
        at(lo, c1) = 1.0;
        at(lo, c2) = factor;
      }
    }
  }
  // Random row and column permutations hide the triangular structure.
  std::vector<int> rperm(static_cast<size_t>(m));
  std::vector<int> cperm(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    rperm[static_cast<size_t>(i)] = i;
    cperm[static_cast<size_t>(i)] = i;
  }
  for (int i = m - 1; i > 0; --i) {
    std::swap(rperm[static_cast<size_t>(i)],
              rperm[rng->Uniform(static_cast<uint64_t>(i) + 1)]);
    std::swap(cperm[static_cast<size_t>(i)],
              cperm[rng->Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int c = 0; c < m; ++c) {
    SparseColumn& col =
        cols[static_cast<size_t>(cperm[static_cast<size_t>(c)])];
    for (int r = 0; r < m; ++r) {
      const double v = at(r, c);
      if (v != 0.0 || rng->Chance(0.02)) {
        col.rows.push_back(rperm[static_cast<size_t>(r)]);
        col.vals.push_back(v);
      }
    }
    for (size_t e = col.rows.size(); e > 1; --e) {
      const size_t o = rng->Uniform(e);
      std::swap(col.rows[e - 1], col.rows[o]);
      std::swap(col.vals[e - 1], col.vals[o]);
    }
  }
  return cols;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(FactorizationTest, PivotsMatchTheScanOracleBitForBit) {
  // One long-lived factorization across every basis and size, so storage
  // reused from a previous (or a failed, or an updated) factorization is
  // exercised too.
  BasisFactorization warm;
  ScanFactorization oracle;
  int factorized = 0;
  int singular = 0;
  int singular_after_peeling = 0;
  for (int seed = 0; seed < 240; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9E3779B97F4A7C15ull + 3);
    const int shape = seed % 3;
    const int m = 3 + static_cast<int>(rng.Uniform(38));
    const std::vector<SparseColumn> cols = DifferentialBasis(&rng, shape, m);
    const std::vector<const SparseColumn*> ptrs = Pointers(cols);

    const bool expect_ok = oracle.Factorize(m, ptrs);
    BasisFactorization fresh;
    ASSERT_EQ(fresh.Factorize(m, ptrs), expect_ok) << "seed " << seed;
    ASSERT_EQ(warm.Factorize(m, ptrs), expect_ok) << "seed " << seed;
    if (!expect_ok) {
      ++singular;
      if (oracle.singular_step() > 0) ++singular_after_peeling;
      EXPECT_FALSE(warm.factorized());
      continue;
    }
    ++factorized;
    EXPECT_EQ(warm.num_updates(), 0);
    EXPECT_EQ(warm.lu_entries(), oracle.lu_entries()) << "seed " << seed;
    EXPECT_EQ(fresh.lu_entries(), oracle.lu_entries()) << "seed " << seed;
    for (int rhs = 0; rhs < 4; ++rhs) {
      std::vector<double> b(static_cast<size_t>(m), 0.0);
      for (double& v : b) {
        if (rhs == 0 || rng.Chance(0.5)) v = DifferentialValue(&rng);
      }
      std::vector<double> want = b;
      oracle.Ftran(&want);
      std::vector<double> got = b;
      warm.Ftran(&got);
      EXPECT_TRUE(BitwiseEqual(got, want)) << "ftran seed " << seed;
      got = b;
      fresh.Ftran(&got);
      EXPECT_TRUE(BitwiseEqual(got, want)) << "ftran seed " << seed;
      want = b;
      oracle.Btran(&want);
      got = b;
      warm.Btran(&got);
      EXPECT_TRUE(BitwiseEqual(got, want)) << "btran seed " << seed;
    }
    // Leave an eta behind; the next Factorize must discard it.
    std::vector<double> image(static_cast<size_t>(m), 0.0);
    image[0] = 1.0;
    ASSERT_TRUE(warm.Update(0, image, NonzeroSlots(image)));
  }
  EXPECT_GE(factorized, 140);
  EXPECT_GE(singular_after_peeling, 70);
  EXPECT_GE(singular, singular_after_peeling);
  // The families reach every case the fast pivot search must get right.
  EXPECT_GT(oracle.nucleus_steps(), 1000);
  EXPECT_GT(oracle.magnitude_ties(), 250);
  EXPECT_GT(oracle.cancelled_fill(), 10);
  EXPECT_GT(oracle.cancelled_original(), 100);
}

/// Random weighted set-cover instances shared by the parity tests below:
/// cover rows, an always-satisfiable capacity row, and singleton forcings.
LpProblem MakeRandomCover(Rng* rng, std::vector<int>* binaries) {
  LpProblem lp;
  const int num_sets = 6 + static_cast<int>(rng->Uniform(8));
  const int num_items = 4 + static_cast<int>(rng->Uniform(6));
  for (int s = 0; s < num_sets; ++s) {
    const int v =
        lp.AddVariable(0.0, 1.0, 1.0 + static_cast<double>(rng->Uniform(9)));
    if (binaries != nullptr) binaries->push_back(v);
  }
  for (int i = 0; i < num_items; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int s = 0; s < num_sets; ++s) {
      if (rng->Chance(0.4)) coeffs.emplace_back(s, 1.0);
    }
    if (coeffs.empty()) {
      coeffs.emplace_back(static_cast<int>(rng->Uniform(
                              static_cast<uint64_t>(num_sets))),
                          1.0);
    }
    lp.AddRow(RowType::kGe, 1.0, coeffs);
  }
  // All-ones capacity at num_sets: satisfied even by the all-selected point,
  // so the instance stays feasible while the ≤ machinery gets exercised.
  std::vector<std::pair<int, double>> cap;
  for (int s = 0; s < num_sets; ++s) cap.emplace_back(s, 1.0);
  lp.AddRow(RowType::kLe, static_cast<double>(num_sets), cap);
  for (int s = 0; s < num_sets; ++s) {
    if (rng->Chance(0.1)) lp.AddRow(RowType::kGe, 1.0, {{s, 1.0}});
  }
  return lp;
}

TEST(EngineParityTest, RandomLpOptimaMatchReferenceSolve) {
  // The production simplex against the dense full-tableau oracle: same
  // status, same optimum to solver tolerance.
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 9176 + 7);
    LpProblem lp = MakeRandomCover(&rng, nullptr);

    const LpResult reference = ReferenceLpSolve(lp);
    const LpResult fact = lp.Solve();
    ASSERT_EQ(fact.status, reference.status) << "seed " << seed;
    if (fact.status != LpStatus::kOptimal) continue;
    const double scale = 1.0 + std::fabs(reference.objective);
    EXPECT_NEAR(fact.objective, reference.objective, 1e-7 * scale)
        << "seed " << seed;
  }
}

/// Random boxed LPs built around a known feasible point, with the row kinds
/// MakeRandomCover never produces: inequalities whose residual at the
/// all-lower start is negative (the cold crash negates them), and equality
/// rows (which start on artificials). Coefficients and costs take both
/// signs. `negated_rows` counts the rows the crash must negate.
LpProblem MakeSignedEqualityLp(Rng* rng, int* negated_rows) {
  LpProblem lp;
  const int n = 5 + static_cast<int>(rng->Uniform(8));
  std::vector<double> lb(static_cast<size_t>(n));
  std::vector<double> point(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double lo = rng->Chance(0.3) ? -1.0 : 0.0;
    const double hi = lo + 1.0 + static_cast<double>(rng->Uniform(3));
    lb[static_cast<size_t>(j)] = lo;
    point[static_cast<size_t>(j)] = lo + (hi - lo) * rng->NextDouble();
    lp.AddVariable(lo, hi, static_cast<double>(rng->UniformRange(-4, 6)));
  }
  const int m = 4 + static_cast<int>(rng->Uniform(7));
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    double at_point = 0.0;
    double at_lower = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng->Chance(0.45)) continue;
      const double a = static_cast<double>(rng->UniformRange(-3, 3)) +
                       (rng->Chance(0.5) ? 0.5 : 0.0);
      if (a == 0.0) continue;
      coeffs.emplace_back(j, a);
      at_point += a * point[static_cast<size_t>(j)];
      at_lower += a * lb[static_cast<size_t>(j)];
    }
    if (coeffs.empty()) continue;
    const uint64_t kind = rng->Uniform(3);
    const double margin = rng->NextDouble();
    RowType type = RowType::kEq;
    double rhs = at_point;
    if (kind == 1) {
      type = RowType::kLe;
      rhs = at_point + margin;
    } else if (kind == 2) {
      type = RowType::kGe;
      rhs = at_point - margin;
    }
    // Residual rhs − a·x at the all-lower start.
    if (type != RowType::kEq && rhs - at_lower < 0.0) ++*negated_rows;
    lp.AddRow(type, rhs, coeffs);
  }
  return lp;
}

TEST(EngineParityTest, NegatedAndEqualityRowsMatchReferenceSolve) {
  // Cold solves run the crash's row negation and artificials; hot solves
  // from the root basis under random fixings run the dual repair (and,
  // when it gives up, the cold crash behind it). Each must agree with the
  // dense oracle on the same bounds.
  int negated = 0;
  int hot_started = 0;
  int infeasible = 0;
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 3);
    LpProblem lp = MakeSignedEqualityLp(&rng, &negated);
    const LpResult reference = ReferenceLpSolve(lp);
    LpBasis basis;
    const LpResult cold = lp.Solve({}, 0, 0.0, nullptr, &basis);
    ASSERT_EQ(cold.status, reference.status) << "seed " << seed;
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(cold.objective, reference.objective,
                1e-7 * (1.0 + std::fabs(reference.objective)))
        << "seed " << seed;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::tuple<int, double, double>> fixings;
      LpProblem fixed = lp;
      for (int j = 0; j < lp.num_variables(); ++j) {
        if (!rng.Chance(0.3)) continue;
        // Fix to the cold optimum's floor or ceiling: off the vertex, so
        // the loaded basis usually needs the repair.
        const double v = rng.Chance(0.5)
                             ? std::floor(cold.x[static_cast<size_t>(j)])
                             : std::ceil(cold.x[static_cast<size_t>(j)]);
        fixings.emplace_back(j, v, v);
        fixed.SetBounds(j, v, v);
      }
      const LpResult want = ReferenceLpSolve(fixed);
      const LpResult got = lp.Solve(fixings, 0, 0.0, &basis, nullptr);
      ASSERT_EQ(got.status, want.status)
          << "seed " << seed << " trial " << trial;
      if (got.hot_started) ++hot_started;
      if (got.status != LpStatus::kOptimal) {
        ++infeasible;
        continue;
      }
      EXPECT_NEAR(got.objective, want.objective,
                  1e-7 * (1.0 + std::fabs(want.objective)))
          << "seed " << seed << " trial " << trial;
    }
  }
  // The instances reach the branches this test exists for.
  EXPECT_GT(negated, 60);
  EXPECT_GT(hot_started, 60);
  EXPECT_GT(infeasible, 10);
}

TEST(EngineParityTest, CertificateDualsVerify) {
  // The duals harvested for `nose check` certificates come from the
  // production simplex: the exact-arithmetic checker must verify them.
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 50021 + 13);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    SolveCertificate cert;
    BipOptions options;
    options.capture_certificate = &cert;
    const BipResult result = SolveBip(lp, binaries, options);
    ASSERT_EQ(result.status, BipStatus::kOptimal) << "seed " << seed;

    const CertificateReport report = CheckCertificate(cert);
    EXPECT_TRUE(report.verified) << "seed " << seed;
    EXPECT_TRUE(cert.root_available) << "seed " << seed;
    EXPECT_TRUE(report.bound_available) << "seed " << seed;
    EXPECT_GE(report.certified_gap, -1e-9) << "seed " << seed;
  }
}

TEST(BipDeterminismTest, ResultsBitwiseIdenticalAcrossThreadCounts) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 78901 + 5);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    BipOptions options;
    const BipResult serial = SolveBip(lp, binaries, options);

    for (const size_t nthreads : {size_t{1}, size_t{2}, size_t{8}}) {
      util::ThreadPool pool(nthreads);
      BipOptions pooled = options;
      pooled.threads = &pool;
      const BipResult parallel = SolveBip(lp, binaries, pooled);
      ASSERT_EQ(parallel.status, serial.status)
          << "seed " << seed << " threads " << nthreads;
      // Bitwise: the batch-selection rule fixes the trajectory, so every
      // statistic — not just the objective — must be thread-count
      // invariant.
      EXPECT_EQ(parallel.objective, serial.objective)
          << "seed " << seed << " threads " << nthreads;
      EXPECT_EQ(parallel.nodes_explored, serial.nodes_explored)
          << "seed " << seed << " threads " << nthreads;
      EXPECT_EQ(parallel.lp_iterations, serial.lp_iterations)
          << "seed " << seed << " threads " << nthreads;
      ASSERT_EQ(parallel.x.size(), serial.x.size());
      for (size_t v = 0; v < serial.x.size(); ++v) {
        EXPECT_EQ(parallel.x[v], serial.x[v])
            << "seed " << seed << " threads " << nthreads << " var " << v;
      }
    }
  }
}

}  // namespace
}  // namespace nose
