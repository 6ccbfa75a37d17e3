#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "util/rng.h"

namespace vpart {
namespace {

MipOptions ExactOptions() {
  MipOptions options;
  options.relative_gap = 0;
  return options;
}

/// Vertex-enumeration oracle that shares no code with the simplex. The
/// LP's feasible set, cut down to |x_j| <= `box` on each column's infinite
/// sides, is a polytope, so its minimum lies on a vertex: some n of the
/// hyperplanes (rows as equalities, each column's two sides) meet there.
/// Every n-subset is solved by Gaussian elimination and kept if feasible.
/// Returns false when no vertex is feasible (the LP is infeasible).
bool EnumerateVertices(const LpModel& model, double box, double& best) {
  const int n = model.num_variables();
  std::vector<std::vector<double>> planes;  // a_0..a_{n-1}, b
  for (int i = 0; i < model.num_constraints(); ++i) {
    std::vector<double> plane(n + 1, 0.0);
    for (const auto& [j, a] : model.constraint(i).terms) plane[j] = a;
    plane[n] = model.constraint(i).rhs;
    planes.push_back(std::move(plane));
  }
  for (int j = 0; j < n; ++j) {
    const double lo = model.variable(j).lower;
    const double hi = model.variable(j).upper;
    for (double side : {std::isfinite(lo) ? lo : -box,
                        std::isfinite(hi) ? hi : box}) {
      std::vector<double> plane(n + 1, 0.0);
      plane[j] = 1.0;
      plane[n] = side;
      planes.push_back(std::move(plane));
    }
  }

  auto feasible = [&](const std::vector<double>& x) {
    double scale = 1.0;
    for (double v : x) scale = std::max(scale, std::abs(v));
    const double tol = 1e-7 * scale;
    for (int j = 0; j < n; ++j) {
      const double lo = model.variable(j).lower;
      const double hi = model.variable(j).upper;
      if (x[j] < (std::isfinite(lo) ? lo : -box) - tol) return false;
      if (x[j] > (std::isfinite(hi) ? hi : box) + tol) return false;
    }
    for (int i = 0; i < model.num_constraints(); ++i) {
      const LpModel::Constraint& row = model.constraint(i);
      double activity = 0.0;
      for (const auto& [j, a] : row.terms) activity += a * x[j];
      const double excess = activity - row.rhs;
      if (row.sense != ConstraintSense::kGreaterEqual && excess > tol) {
        return false;
      }
      if (row.sense != ConstraintSense::kLessEqual && excess < -tol) {
        return false;
      }
    }
    return true;
  };

  // Solves the n picked hyperplanes as equalities (partial pivoting);
  // false when they are not linearly independent.
  auto intersect = [&](const std::vector<int>& pick, std::vector<double>& x) {
    std::vector<std::vector<double>> m;
    for (int k : pick) m.push_back(planes[k]);
    for (int col = 0; col < n; ++col) {
      int pivot = col;
      for (int r = col + 1; r < n; ++r) {
        if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
      }
      if (std::abs(m[pivot][col]) < 1e-9) return false;
      std::swap(m[col], m[pivot]);
      for (int r = 0; r < n; ++r) {
        if (r == col) continue;
        const double f = m[r][col] / m[col][col];
        for (int c = col; c <= n; ++c) m[r][c] -= f * m[col][c];
      }
    }
    for (int j = 0; j < n; ++j) x[j] = m[j][n] / m[j][j];
    return true;
  };

  bool found = false;
  const int num_planes = static_cast<int>(planes.size());
  std::vector<int> pick(n);
  std::vector<double> x(n);
  // Lexicographic walk over the n-subsets of the hyperplanes.
  for (int k = 0; k < n; ++k) pick[k] = k;
  while (true) {
    if (intersect(pick, x) && feasible(x)) {
      const double objective = model.EvaluateObjective(x);
      if (!found || objective < best) best = objective;
      found = true;
    }
    int k = n - 1;
    while (k >= 0 && pick[k] == num_planes - n + k) --k;
    if (k < 0) break;
    ++pick[k];
    for (int r = k + 1; r < n; ++r) pick[r] = pick[r - 1] + 1;
  }
  return found;
}

// 2-variable boxed LPs with <= rows, checked against vertex enumeration.
TEST(SimplexStressTest, TwoVariableVertexEnumeration) {
  Rng rng(314);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LpModel model;
    const double lo0 = 0, hi0 = 1 + rng.NextDouble() * 9;
    const double lo1 = 0, hi1 = 1 + rng.NextDouble() * 9;
    const double c0 = rng.NextDouble() * 4 - 2;
    const double c1 = rng.NextDouble() * 4 - 2;
    model.AddVariable(lo0, hi0, c0);
    model.AddVariable(lo1, hi1, c1);
    const int m = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < m; ++i) {
      const double a0 = rng.NextDouble() * 2 - 0.5;
      const double a1 = rng.NextDouble() * 2 - 0.5;
      const double b = rng.NextDouble() * 8;
      model.AddConstraint(ConstraintSense::kLessEqual, b,
                          {{0, a0}, {1, a1}});
    }

    double best = 0.0;
    const bool feasible = EnumerateVertices(model, /*box=*/0.0, best);
    LpResult result = SolveLp(model);
    if (!feasible) {
      // No feasible vertex found by enumeration: the LP must agree.
      EXPECT_EQ(result.status, LpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(result.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(result.objective, best, 1e-5 * (1 + std::abs(best)))
        << "trial " << trial;
    ++solved;
  }
  EXPECT_GT(solved, 150);  // the vast majority must be feasible + checked
}

// General LPs with 2-4 columns against the same oracle: boxed, fixed,
// lower-only, upper-only and free columns with costs of either sign (so
// unboxed columns are often wrong-signed for their one bound), and <=, >=
// and = rows. Integer data keep every vertex of the LP itself within
// |x_j| < 1e4, so a bounded LP has the same enumerated optimum inside the
// boxes 1e5 and 2e5, and an unbounded one is strictly better inside the
// larger. Every status must match, and an optimal answer must be feasible
// and worth the objective it reports.
TEST(SimplexStressTest, MixedBoundVertexEnumeration) {
  constexpr double kBox = 1e5;
  Rng rng(1994);
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    LpModel model;
    const int n = 2 + static_cast<int>(rng.NextBounded(3));
    for (int j = 0; j < n; ++j) {
      const double cost = static_cast<double>(rng.UniformInt(-3, 3));
      const double lo = static_cast<double>(rng.UniformInt(-3, 3));
      switch (rng.NextBounded(5)) {
        case 0:  // boxed
          model.AddVariable(lo, lo + static_cast<double>(rng.UniformInt(1, 4)),
                            cost);
          break;
        case 1:
          model.AddVariable(lo, kLpInfinity, cost);
          break;
        case 2:
          model.AddVariable(-kLpInfinity, lo, cost);
          break;
        case 3:
          model.AddVariable(-kLpInfinity, kLpInfinity, cost);
          break;
        default:  // fixed
          model.AddVariable(lo, lo, cost);
          break;
      }
    }
    const int m = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) {
        const double a = static_cast<double>(rng.UniformInt(-3, 3));
        if (a != 0.0) terms.emplace_back(j, a);
      }
      if (terms.empty()) terms.emplace_back(0, 1.0);
      const ConstraintSense sense =
          static_cast<ConstraintSense>(rng.NextBounded(3));
      model.AddConstraint(sense, static_cast<double>(rng.UniformInt(-6, 6)),
                          std::move(terms));
    }

    const std::string where = "trial " + std::to_string(trial);
    double best = 0.0;
    double best_wider = 0.0;
    const bool feasible = EnumerateVertices(model, kBox, best);
    LpResult result = SolveLp(model);
    if (!feasible) {
      EXPECT_EQ(result.status, LpStatus::kInfeasible) << where;
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(EnumerateVertices(model, 2 * kBox, best_wider)) << where;
    if (best_wider < best - 1e-6 * (1 + std::abs(best))) {
      EXPECT_EQ(result.status, LpStatus::kUnbounded) << where;
      ++unbounded;
      continue;
    }
    ASSERT_EQ(result.status, LpStatus::kOptimal) << where;
    EXPECT_NEAR(result.objective, best, 1e-6 * (1 + std::abs(best))) << where;
    EXPECT_TRUE(model.CheckFeasible(result.values, 1e-6).ok()) << where;
    EXPECT_NEAR(model.EvaluateObjective(result.values), result.objective,
                1e-6 * (1 + std::abs(best)))
        << where;
    ++optimal;
  }
  // Each verdict must be exercised, not just the common one.
  EXPECT_GE(optimal, 80);
  EXPECT_GE(infeasible, 100);
  EXPECT_GE(unbounded, 50);
}

// Equality-heavy systems: random nonsingular triangular systems have a
// unique solution; the simplex must find exactly it.
TEST(SimplexStressTest, TriangularEqualitySystems) {
  Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(6));
    LpModel model;
    std::vector<double> solution(n);
    for (int j = 0; j < n; ++j) {
      solution[j] = rng.NextDouble() * 4;  // target point, within bounds
      model.AddVariable(-10, 20, rng.NextDouble() - 0.5);
    }
    // Lower-triangular rows with unit diagonal evaluated at `solution`.
    for (int i = 0; i < n; ++i) {
      std::vector<std::pair<int, double>> terms;
      double rhs = 0;
      for (int j = 0; j <= i; ++j) {
        const double a = (j == i) ? 1.0 : rng.NextDouble() * 2 - 1;
        terms.emplace_back(j, a);
        rhs += a * solution[j];
      }
      model.AddConstraint(ConstraintSense::kEqual, rhs, std::move(terms));
    }
    LpResult result = SolveLp(model);
    ASSERT_EQ(result.status, LpStatus::kOptimal) << "trial " << trial;
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(result.values[j], solution[j], 1e-6) << trial << "/" << j;
    }
  }
}

// A pure-continuous model must give identical answers through SolveLp and
// SolveMip (the MIP layer should be a no-op).
TEST(MipStressTest, ContinuousModelsPassThrough) {
  Rng rng(999);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel model;
    const int n = 2 + static_cast<int>(rng.NextBounded(4));
    for (int j = 0; j < n; ++j) {
      model.AddVariable(0, 1 + rng.NextDouble() * 3,
                        rng.NextDouble() * 2 - 1);
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) terms.emplace_back(j, rng.NextDouble());
      model.AddConstraint(ConstraintSense::kLessEqual,
                          1 + rng.NextDouble() * 4, std::move(terms));
    }
    LpResult lp = SolveLp(model);
    MipResult mip = SolveMip(model, ExactOptions());
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    ASSERT_EQ(mip.status, MipStatus::kOptimal);
    EXPECT_NEAR(lp.objective, mip.objective,
                1e-7 * (1 + std::abs(lp.objective)));
    EXPECT_EQ(mip.nodes, 1);
  }
}

// Set partitioning with known optimum: cover {1..4} by subsets.
TEST(MipStressTest, SetPartitioning) {
  // Subsets: {1,2}:3, {3,4}:3, {1,3}:4, {2,4}:4, {1,2,3,4}:7, {1}:2,
  // {2}:2, {3}:2, {4}:2. Optimal exact cover cost: {1,2}+{3,4} = 6.
  struct Sub {
    std::vector<int> members;
    double cost;
  };
  const std::vector<Sub> subs = {
      {{0, 1}, 3}, {{2, 3}, 3}, {{0, 2}, 4}, {{1, 3}, 4},
      {{0, 1, 2, 3}, 7}, {{0}, 2}, {{1}, 2}, {{2}, 2}, {{3}, 2}};
  LpModel model;
  for (const Sub& sub : subs) model.AddBinaryVariable(sub.cost);
  for (int element = 0; element < 4; ++element) {
    std::vector<std::pair<int, double>> terms;
    for (size_t j = 0; j < subs.size(); ++j) {
      for (int member : subs[j].members) {
        if (member == element) terms.emplace_back(static_cast<int>(j), 1.0);
      }
    }
    model.AddConstraint(ConstraintSense::kEqual, 1.0, std::move(terms));
  }
  MipResult result = SolveMip(model, ExactOptions());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 6, 1e-6);
}

// Many equal-cost symmetric solutions: B&B must still terminate and prove.
TEST(MipStressTest, SymmetricEqualityTerminates) {
  LpModel model;
  const int n = 10;
  for (int j = 0; j < n; ++j) model.AddBinaryVariable(1.0);
  std::vector<std::pair<int, double>> terms;
  for (int j = 0; j < n; ++j) terms.emplace_back(j, 1.0);
  model.AddConstraint(ConstraintSense::kEqual, 5.0, std::move(terms));
  MipResult result = SolveMip(model, ExactOptions());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 5, 1e-6);
}

}  // namespace
}  // namespace vpart
