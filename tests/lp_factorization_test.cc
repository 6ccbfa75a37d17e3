// Unit suite for the sparse LU basis factorization (lp/factorization.h):
// FTRAN/BTRAN parity against a dense inverse on randomized bases,
// hyper-sparse solves with complete nonzero lists, singular/ill-conditioned
// rejection and recovery, Forrest–Tomlin update correctness under forced
// growth, the running nonzero count, and the refactorization triggers.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lp/factorization.h"
#include "util/rng.h"

namespace vpart {
namespace {

/// Column-major sparse matrix builder producing the CSC triplet the
/// factorization consumes (mirrors SimplexSolver's layout).
struct Csc {
  std::vector<int> col_start{0};
  std::vector<int> row_index;
  std::vector<double> value;

  void AddColumn(const std::vector<std::pair<int, double>>& entries) {
    for (const auto& [i, v] : entries) {
      row_index.push_back(i);
      value.push_back(v);
    }
    col_start.push_back(static_cast<int>(row_index.size()));
  }
  int num_cols() const { return static_cast<int>(col_start.size()) - 1; }
};

/// Dense Gaussian elimination with partial pivoting; the ground truth the
/// sparse factorization is checked against.
class DenseSolver {
 public:
  /// Builds the dense m x m basis matrix from CSC columns. Returns false
  /// when dense elimination deems it singular: some pivot below
  /// `min_pivot` in magnitude (raise it to reject ill-conditioned draws).
  bool Factorize(const Csc& csc, const std::vector<int>& basis, int m,
                 double min_pivot = 1e-12) {
    m_ = m;
    a_.assign(m * m, 0.0);
    perm_.resize(m);
    for (int k = 0; k < m; ++k) {
      const int j = basis[k];
      for (int idx = csc.col_start[j]; idx < csc.col_start[j + 1]; ++idx) {
        a_[csc.row_index[idx] * m + k] = csc.value[idx];
      }
    }
    for (int i = 0; i < m; ++i) perm_[i] = i;
    for (int col = 0; col < m; ++col) {
      int pivot = col;
      for (int i = col + 1; i < m; ++i) {
        if (std::abs(a_[perm_[i] * m_ + col]) >
            std::abs(a_[perm_[pivot] * m_ + col])) {
          pivot = i;
        }
      }
      std::swap(perm_[col], perm_[pivot]);
      const double p = a_[perm_[col] * m_ + col];
      if (std::abs(p) < min_pivot) return false;
      for (int i = col + 1; i < m; ++i) {
        const double f = a_[perm_[i] * m_ + col] / p;
        a_[perm_[i] * m_ + col] = f;  // store the multiplier in place
        for (int j = col + 1; j < m; ++j) {
          a_[perm_[i] * m_ + j] -= f * a_[perm_[col] * m_ + j];
        }
      }
    }
    return true;
  }

  /// x := A^{-1} b (row-space input, position-space output).
  std::vector<double> Solve(const std::vector<double>& b) const {
    std::vector<double> y(m_);
    for (int i = 0; i < m_; ++i) {
      double acc = b[perm_[i]];
      for (int j = 0; j < i; ++j) acc -= a_[perm_[i] * m_ + j] * y[j];
      y[i] = acc;
    }
    std::vector<double> x(m_);
    for (int i = m_ - 1; i >= 0; --i) {
      double acc = y[i];
      for (int j = i + 1; j < m_; ++j) acc -= a_[perm_[i] * m_ + j] * x[j];
      x[i] = acc / a_[perm_[i] * m_ + i];
    }
    return x;
  }

  /// x := A^{-T} c (position-space input, row-space output), via solving
  /// with the explicit transpose (rebuilt densely — test-only code).
  std::vector<double> SolveTranspose(const Csc& csc,
                                     const std::vector<int>& basis,
                                     const std::vector<double>& c) const {
    // Build B^T densely and eliminate it from scratch.
    DenseSolver t;
    t.m_ = m_;
    t.a_.assign(m_ * m_, 0.0);
    t.perm_.resize(m_);
    for (int k = 0; k < m_; ++k) {
      const int j = basis[k];
      for (int idx = csc.col_start[j]; idx < csc.col_start[j + 1]; ++idx) {
        t.a_[k * m_ + csc.row_index[idx]] = csc.value[idx];
      }
    }
    for (int i = 0; i < m_; ++i) t.perm_[i] = i;
    for (int col = 0; col < m_; ++col) {
      int pivot = col;
      for (int i = col + 1; i < m_; ++i) {
        if (std::abs(t.a_[t.perm_[i] * m_ + col]) >
            std::abs(t.a_[t.perm_[pivot] * m_ + col])) {
          pivot = i;
        }
      }
      std::swap(t.perm_[col], t.perm_[pivot]);
      const double p = t.a_[t.perm_[col] * m_ + col];
      for (int i = col + 1; i < m_; ++i) {
        const double f = t.a_[t.perm_[i] * m_ + col] / p;
        t.a_[t.perm_[i] * m_ + col] = f;
        for (int j = col + 1; j < m_; ++j) {
          t.a_[t.perm_[i] * m_ + j] -= f * t.a_[t.perm_[col] * m_ + j];
        }
      }
    }
    return t.Solve(c);
  }

 private:
  int m_ = 0;
  std::vector<double> a_;
  std::vector<int> perm_;
};

/// Random sparse m x m-ish CSC pool with `cols` columns; diagonal-ish
/// structure plus noise (each off-anchor entry present with probability
/// `density`) keeps random bases mostly nonsingular.
Csc RandomPool(Rng& rng, int m, int cols, double density = 0.25) {
  Csc csc;
  for (int j = 0; j < cols; ++j) {
    std::vector<std::pair<int, double>> entries;
    const int anchor = static_cast<int>(rng.NextBounded(m));
    entries.emplace_back(anchor, 1.0 + rng.NextDouble() * 3);
    for (int i = 0; i < m; ++i) {
      if (i != anchor && rng.NextBool(density)) {
        entries.emplace_back(i, rng.NextDouble() * 4 - 2);
      }
    }
    csc.AddColumn(entries);
  }
  return csc;
}

std::vector<double> RandomVector(Rng& rng, int m) {
  std::vector<double> v(m);
  for (double& x : v) x = rng.NextDouble() * 10 - 5;
  return v;
}

/// Column j of the pool as a dense row-space vector.
std::vector<double> Column(const Csc& csc, int j, int m) {
  std::vector<double> a(m, 0.0);
  for (int idx = csc.col_start[j]; idx < csc.col_start[j + 1]; ++idx) {
    a[csc.row_index[idx]] = csc.value[idx];
  }
  return a;
}

/// Asserts the SparseVector contract on a solve result: the index list has
/// no repeats and lists every nonzero, so nothing outside it is nonzero.
void ExpectIndexComplete(const SparseVector& x, const std::string& where) {
  std::vector<char> listed(x.value.size(), 0);
  for (int i : x.index) {
    ASSERT_GE(i, 0) << where;
    ASSERT_LT(i, static_cast<int>(x.value.size())) << where;
    EXPECT_FALSE(listed[i]) << where << ": index " << i << " listed twice";
    listed[i] = 1;
  }
  for (size_t i = 0; i < x.value.size(); ++i) {
    if (!listed[i]) {
      EXPECT_EQ(x.value[i], 0.0) << where << ": unlisted nonzero at " << i;
    }
  }
}

/// x := B⁻¹b through the sparse interface, checking the result's index list.
std::vector<double> Ftran(const LuFactorization& lu,
                          const std::vector<double>& b,
                          const std::string& where) {
  SparseVector x;
  x.value = b;
  lu.Ftran(x);
  ExpectIndexComplete(x, "ftran " + where);
  return x.value;
}

/// π := B⁻ᵀc through the sparse interface, checking the result's index list.
std::vector<double> Btran(const LuFactorization& lu,
                          const std::vector<double>& c,
                          const std::string& where) {
  SparseVector pi;
  pi.value = c;
  lu.Btran(pi);
  ExpectIndexComplete(pi, "btran " + where);
  return pi.value;
}

void ExpectVectorNear(const std::vector<double>& got,
                      const std::vector<double>& want, double tol,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol * (1.0 + std::abs(want[i])))
        << where << " [" << i << "]";
  }
}

TEST(LuFactorizationTest, FtranBtranMatchDenseInverseOnRandomBases) {
  Rng rng(4242);
  int factored = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(30));
    Csc csc = RandomPool(rng, m, m);
    std::vector<int> basis(m);
    for (int k = 0; k < m; ++k) basis[k] = k;

    DenseSolver dense;
    if (!dense.Factorize(csc, basis, m)) continue;  // singular draw
    LuFactorization lu;
    ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value, basis,
                             m))
        << "trial " << trial;
    ++factored;

    for (int probe = 0; probe < 3; ++probe) {
      const std::string where = "trial " + std::to_string(trial);
      std::vector<double> b = RandomVector(rng, m);
      ExpectVectorNear(Ftran(lu, b, where), dense.Solve(b), 1e-8,
                       "ftran " + where);

      std::vector<double> c = RandomVector(rng, m);
      ExpectVectorNear(Btran(lu, c, where),
                       dense.SolveTranspose(csc, basis, c), 1e-8,
                       "btran " + where);
    }
  }
  EXPECT_GT(factored, 40);  // singular draws must stay the exception
}

TEST(LuFactorizationTest, SingularBasisIsRejected) {
  // Two identical columns: structurally singular.
  Csc csc;
  csc.AddColumn({{0, 1.0}, {1, 2.0}});
  csc.AddColumn({{0, 1.0}, {1, 2.0}});
  LuFactorization lu;
  EXPECT_FALSE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, {0, 1}, 2));
  EXPECT_FALSE(lu.valid());

  // An empty column is structurally singular too.
  Csc empty_col;
  empty_col.AddColumn({{0, 1.0}});
  empty_col.AddColumn({});
  EXPECT_FALSE(lu.Factorize(empty_col.col_start, empty_col.row_index,
                            empty_col.value, {0, 1}, 2));
}

TEST(LuFactorizationTest, NearSingularBasisIsRejectedNotGarbage) {
  // Second column nearly parallel to the first: the elimination leaves a
  // residual below pivot_tol, which must be reported as singular rather
  // than divided by.
  Csc csc;
  csc.AddColumn({{0, 1.0}, {1, 1.0}});
  csc.AddColumn({{0, 1.0}, {1, 1.0 + 1e-12}});
  LuFactorization lu;
  EXPECT_FALSE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, {0, 1}, 2));
  EXPECT_FALSE(lu.valid());

  // Recovery: the same object factorizes a well-conditioned basis next.
  Csc good;
  good.AddColumn({{0, 1.0}});
  good.AddColumn({{1, 1.0}});
  EXPECT_TRUE(
      lu.Factorize(good.col_start, good.row_index, good.value, {0, 1}, 2));
  EXPECT_TRUE(lu.valid());
}

// Forrest–Tomlin updates against a freshly factorized (and dense) ground
// truth after every column replacement, across enough updates to force
// row-eta growth and pivot-order churn.
TEST(LuFactorizationTest, ForrestTomlinUpdatesTrackColumnReplacements) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 4 + static_cast<int>(rng.NextBounded(20));
    Csc csc = RandomPool(rng, m, 3 * m);
    std::vector<int> basis(m);
    for (int k = 0; k < m; ++k) basis[k] = k;

    DenseSolver dense;
    if (!dense.Factorize(csc, basis, m)) continue;
    LuFactorization::Options options;
    options.refactor_interval = 1 << 20;  // never trigger on count here
    options.fill_ratio = 1e9;
    LuFactorization lu(options);
    ASSERT_TRUE(
        lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));

    int applied = 0;
    for (int change = 0; change < 2 * m; ++change) {
      const int pos = static_cast<int>(rng.NextBounded(m));
      const int entering =
          m + static_cast<int>(rng.NextBounded(csc.num_cols() - m));
      std::vector<int> new_basis = basis;
      new_basis[pos] = entering;
      DenseSolver new_dense;
      if (!new_dense.Factorize(csc, new_basis, m)) continue;  // singular
      if (!lu.Update(csc.col_start, csc.row_index, csc.value, entering,
                     pos)) {
        // Stability rejection: refactorize and continue, like the solver.
        ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value,
                                 new_basis, m));
      } else {
        ++applied;
      }
      EXPECT_EQ(lu.nonzeros(), lu.factor_nonzeros());
      basis = new_basis;
      dense = new_dense;

      const std::string where =
          "t" + std::to_string(trial) + " c" + std::to_string(change);
      std::vector<double> b = RandomVector(rng, m);
      ExpectVectorNear(Ftran(lu, b, where), dense.Solve(b), 1e-6,
                       "ftran " + where);
      std::vector<double> c = RandomVector(rng, m);
      ExpectVectorNear(Btran(lu, c, where),
                       dense.SolveTranspose(csc, basis, c), 1e-6,
                       "btran " + where);
    }
    EXPECT_GT(applied, 0) << "trial " << trial;
    EXPECT_EQ(lu.stats().ft_updates, applied) << "trial " << trial;
  }
}

// The simplex's hyper-sparse shapes: BTRAN of unit vectors e_r (a dual
// pivot row) and FTRAN of single matrix columns (an entering column,
// through FtranColumn(), whose kept spike the update then reuses) on
// sparse random bases, checked against the dense reference after every
// one of at least 2m Forrest–Tomlin updates. As in the solver, the pool
// starts with m unit (logical) columns, the first basis is all logicals,
// and the updates swap structural columns in and out. The factor
// is rebuilt only when the fill trigger fires (the update-count trigger
// is off). Every result's index list must be complete, and the running
// nonzero count must match a recount after every Factorize() and Update().
TEST(LuFactorizationTest, HyperSparseSolvesTrackDenseThroughUpdates) {
  Rng rng(2005);
  for (int trial = 0; trial < 12; ++trial) {
    const int m = 8 + static_cast<int>(rng.NextBounded(40));
    Csc csc;
    for (int i = 0; i < m; ++i) csc.AddColumn({{i, 1.0}});
    const Csc structurals = RandomPool(rng, m, 3 * m, 2.0 / m);
    for (int j = 0; j < structurals.num_cols(); ++j) {
      std::vector<std::pair<int, double>> entries;
      for (int idx = structurals.col_start[j];
           idx < structurals.col_start[j + 1]; ++idx) {
        entries.emplace_back(structurals.row_index[idx],
                             structurals.value[idx]);
      }
      csc.AddColumn(entries);
    }
    std::vector<int> basis(m);
    for (int k = 0; k < m; ++k) basis[k] = k;
    DenseSolver dense;
    ASSERT_TRUE(dense.Factorize(csc, basis, m));

    LuFactorization::Options options;
    options.refactor_interval = 1 << 20;  // no update-count trigger
    LuFactorization lu(options);
    ASSERT_TRUE(
        lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
    EXPECT_EQ(lu.nonzeros(), lu.factor_nonzeros()) << "trial " << trial;

    int applied = 0;
    for (int change = 0; applied < 2 * m && change < 40 * m; ++change) {
      const int pos = static_cast<int>(rng.NextBounded(m));
      const int entering =
          m + static_cast<int>(rng.NextBounded(csc.num_cols() - m));
      std::vector<int> new_basis = basis;
      new_basis[pos] = entering;
      // Ill-conditioned draws are skipped: at a small dense pivot the
      // reference itself is too inaccurate to compare against.
      DenseSolver new_dense;
      if (!new_dense.Factorize(csc, new_basis, m, 1e-2)) continue;
      const std::string where =
          "t" + std::to_string(trial) + " c" + std::to_string(change);

      // The entering column's FTRAN, as the simplex runs it before the
      // update. Every third change FTRANs another column in between, so
      // Update() must see that the kept spike is not the entering
      // column's and recompute it.
      SparseVector w;
      w.Reset(m);
      lu.FtranColumn(csc.col_start, csc.row_index, csc.value, entering, w);
      ExpectIndexComplete(w, "entering ftran " + where);
      ExpectVectorNear(w.value, dense.Solve(Column(csc, entering, m)), 1e-6,
                       "entering ftran " + where);
      if (change % 3 == 0) {
        const int other = static_cast<int>(rng.NextBounded(csc.num_cols()));
        lu.FtranColumn(csc.col_start, csc.row_index, csc.value, other, w);
        ExpectVectorNear(w.value, dense.Solve(Column(csc, other, m)), 1e-6,
                         "other ftran " + where);
      }
      if (lu.Update(csc.col_start, csc.row_index, csc.value, entering,
                    pos)) {
        ++applied;
        EXPECT_EQ(lu.nonzeros(), lu.factor_nonzeros()) << where;
      }
      if (lu.NeedsRefactorization()) {
        ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value,
                                 new_basis, m))
            << where;
        EXPECT_EQ(lu.nonzeros(), lu.factor_nonzeros()) << where;
      }
      basis = new_basis;
      dense = new_dense;

      // Unit-vector BTRAN: row r of B⁻¹.
      const int r = static_cast<int>(rng.NextBounded(m));
      std::vector<double> e(m, 0.0);
      e[r] = 1.0;
      ExpectVectorNear(Btran(lu, e, where),
                       dense.SolveTranspose(csc, basis, e), 1e-6,
                       "unit btran " + where);

      // Single-column FTRAN: B⁻¹a_j for a random column of the pool.
      const int j = static_cast<int>(rng.NextBounded(csc.num_cols()));
      const std::vector<double> a = Column(csc, j, m);
      ExpectVectorNear(Ftran(lu, a, where), dense.Solve(a), 1e-6,
                       "column ftran " + where);
    }
    EXPECT_GE(applied, 2 * m) << "trial " << trial;
  }
}

TEST(LuFactorizationTest, RefactorizationTriggersFireAndAreCounted) {
  Rng rng(31);
  const int m = 12;
  Csc csc = RandomPool(rng, m, 4 * m);
  std::vector<int> basis(m);
  for (int k = 0; k < m; ++k) basis[k] = k;
  DenseSolver dense;
  ASSERT_TRUE(dense.Factorize(csc, basis, m));

  LuFactorization::Options options;
  options.refactor_interval = 4;
  LuFactorization lu(options);
  ASSERT_TRUE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  EXPECT_FALSE(lu.NeedsRefactorization());

  int applied = 0;
  for (int change = 0; applied < 4 && change < 200; ++change) {
    const int pos = static_cast<int>(rng.NextBounded(m));
    const int entering =
        m + static_cast<int>(rng.NextBounded(csc.num_cols() - m));
    std::vector<int> new_basis = basis;
    new_basis[pos] = entering;
    DenseSolver probe;
    if (!probe.Factorize(csc, new_basis, m)) continue;
    if (lu.Update(csc.col_start, csc.row_index, csc.value, entering, pos)) {
      basis = new_basis;
      ++applied;
    } else {
      ASSERT_TRUE(lu.Factorize(csc.col_start, csc.row_index, csc.value,
                               basis, m));
    }
  }
  ASSERT_EQ(applied, 4);
  EXPECT_TRUE(lu.NeedsRefactorization());
  EXPECT_GE(lu.stats().refactor_updates, 1);
  ASSERT_TRUE(
      lu.Factorize(csc.col_start, csc.row_index, csc.value, basis, m));
  EXPECT_EQ(lu.updates_since_factorize(), 0);
  EXPECT_FALSE(lu.NeedsRefactorization());
}

}  // namespace
}  // namespace vpart
