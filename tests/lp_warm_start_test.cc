// Warm-start equivalence suite for the reusable SimplexSolver: dual-simplex
// reoptimization after bound changes must agree (status + objective) with a
// cold solve from the slack basis on the same bounds — across textbook
// models, randomized LPs, eq.-(7) models of random_instance workloads with
// B&B-style binary fixings, degenerate/stall cases exercising the Bland
// fallback, and every combination of the dual's pricing upgrades (dual
// steepest edge, the long-step bound-flipping ratio test). Warm and cold
// both run the dual simplex, so this suite checks the warm start, not the
// algorithm; lp_stress_test's vertex enumeration is the independent
// oracle. The
// eq.-(7) suites run with every runtime audit on and require zero audit
// failures, and one case fixes and unfixes boxed columns between
// reoptimizations of one solver, which the row-wise pivot-row PRICE must
// skip while fixed and price again once free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "instances/random_instance.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "solver/formulation.h"
#include "util/rng.h"

namespace vpart {
namespace {

constexpr double kTol = 1e-6;

LpModel TextbookModel() {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 as minimization; opt -36.
  LpModel model;
  int x = model.AddVariable(0, kLpInfinity, -3, "x");
  int y = model.AddVariable(0, kLpInfinity, -5, "y");
  model.AddConstraint(ConstraintSense::kLessEqual, 4, {{x, 1}});
  model.AddConstraint(ConstraintSense::kLessEqual, 12, {{y, 2}});
  model.AddConstraint(ConstraintSense::kLessEqual, 18, {{x, 3}, {y, 2}});
  return model;
}

TEST(WarmStartTest, ReoptimizeAfterBoundTighteningMatchesCold) {
  LpModel model = TextbookModel();
  SimplexSolver solver(model);
  LpResult base = solver.Solve();
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  EXPECT_FALSE(base.warm_started);
  Basis basis = solver.SaveBasis();
  ASSERT_TRUE(basis.valid());

  // B&B-style tightening: force x <= 1.
  std::vector<std::pair<double, double>> bounds = {{0, 1}, {0, kLpInfinity}};
  solver.SetBounds(&bounds);
  ASSERT_TRUE(solver.LoadBasis(basis));
  LpResult warm = solver.Reoptimize();
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GT(warm.iterations, 0);

  LpResult cold = SolveLp(model, {}, &bounds);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, kTol);
  // x=1, y=6 -> -33.
  EXPECT_NEAR(warm.objective, -33, kTol);
}

TEST(WarmStartTest, BasisSnapshotLoadsIntoAnotherSolver) {
  LpModel model = TextbookModel();
  SimplexSolver parent(model);
  ASSERT_EQ(parent.Solve().status, LpStatus::kOptimal);
  Basis basis = parent.SaveBasis();

  // A sibling worker's engine over the same model accepts the snapshot.
  SimplexSolver child(model);
  std::vector<std::pair<double, double>> bounds = {{0, 2}, {0, 5}};
  child.SetBounds(&bounds);
  ASSERT_TRUE(child.LoadBasis(basis));
  LpResult warm = child.Reoptimize();
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  LpResult cold = SolveLp(model, {}, &bounds);
  EXPECT_NEAR(warm.objective, cold.objective, kTol);
}

TEST(WarmStartTest, ReoptimizeProvesInfeasibility) {
  // x + y >= 2 with both variables squeezed to [0, 0.5] is infeasible.
  LpModel model;
  int x = model.AddVariable(0, 10, 1, "x");
  int y = model.AddVariable(0, 10, 1, "y");
  model.AddConstraint(ConstraintSense::kGreaterEqual, 2, {{x, 1}, {y, 1}});
  SimplexSolver solver(model);
  ASSERT_EQ(solver.Solve().status, LpStatus::kOptimal);
  Basis basis = solver.SaveBasis();

  std::vector<std::pair<double, double>> bounds = {{0, 0.5}, {0, 0.5}};
  solver.SetBounds(&bounds);
  ASSERT_TRUE(solver.LoadBasis(basis));
  LpResult warm = solver.Reoptimize();
  EXPECT_EQ(warm.status, LpStatus::kInfeasible);
  LpResult cold = SolveLp(model, {}, &bounds);
  EXPECT_EQ(cold.status, LpStatus::kInfeasible);
}

TEST(WarmStartTest, MismatchedBasisIsRejected) {
  LpModel model = TextbookModel();
  SimplexSolver solver(model);
  ASSERT_EQ(solver.Solve().status, LpStatus::kOptimal);

  LpModel other;
  other.AddVariable(0, 1, 1, "z");
  other.AddConstraint(ConstraintSense::kLessEqual, 1, {{0, 1}});
  SimplexSolver other_solver(other);
  ASSERT_EQ(other_solver.Solve().status, LpStatus::kOptimal);

  EXPECT_FALSE(solver.LoadBasis(other_solver.SaveBasis()));
  EXPECT_FALSE(other_solver.LoadBasis(Basis()));  // default: invalid
}

TEST(WarmStartTest, ReoptimizeWithoutBasisFailsGracefully) {
  LpModel model = TextbookModel();
  SimplexSolver solver(model);
  LpResult result = solver.Reoptimize();
  EXPECT_EQ(result.status, LpStatus::kNumericalFailure);
}

/// A warm reoptimization's result must agree with a cold solve on the same
/// bounds, and neither may fail a runtime audit. Returns true when the warm
/// path answered (didn't fall back), so callers can assert the fallback
/// stays rare.
bool WarmAgreesWithCold(const LpResult& warm, const LpModel& model,
                        const std::vector<std::pair<double, double>>& bounds,
                        const SimplexOptions& options,
                        const std::string& where) {
  EXPECT_EQ(warm.audit_failures, 0) << where;
  if (warm.status == LpStatus::kNumericalFailure) return false;  // ladder
  LpResult cold = SolveLp(model, options, &bounds);
  EXPECT_EQ(cold.audit_failures, 0) << where;
  EXPECT_EQ(warm.status, cold.status) << where;
  if (warm.status == LpStatus::kOptimal &&
      cold.status == LpStatus::kOptimal) {
    const double scale = 1.0 + std::abs(cold.objective);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-5 * scale) << where;
  }
  return true;
}

/// Shared property check: a fresh solver loading `basis` and reoptimizing
/// under `bounds` must agree with a cold solve (see WarmAgreesWithCold).
bool CheckWarmAgainstCold(const LpModel& model, const Basis& basis,
                          const std::vector<std::pair<double, double>>& bounds,
                          const SimplexOptions& options,
                          const std::string& where) {
  SimplexSolver solver(model, options);
  solver.SetBounds(&bounds);
  EXPECT_TRUE(solver.LoadBasis(basis)) << where;
  return WarmAgreesWithCold(solver.Reoptimize(), model, bounds, options,
                            where);
}

/// The eq.-(7) model of a small random workload at 2 sites.
IlpFormulation RandomFormulation(int num_transactions, uint64_t seed,
                                 const std::string& name) {
  RandomInstanceParams params;
  params.num_transactions = num_transactions;
  params.num_tables = 3;
  params.max_attributes_per_table = 6;
  params.seed = seed;
  params.name = name;
  Instance instance = MakeRandomInstance(params);
  CostModel cost_model(&instance, {.p = 8, .lambda = 0.1});
  FormulationOptions options;
  options.num_sites = 2;
  return BuildIlpFormulation(cost_model, options);
}

// Randomized LPs (the lp_simplex_test family) under random bound
// tightenings: dual-reoptimize-after-change == cold primal, status and
// objective, every time; the cold fallback must stay the exception.
TEST(WarmStartTest, RandomLpsAgreeAfterRandomTightenings) {
  Rng rng(2026);
  int warm_answers = 0;
  int attempts = 0;
  for (int trial = 0; trial < 40; ++trial) {
    LpModel model;
    const int n = 3 + static_cast<int>(rng.NextBounded(6));
    const int m = 2 + static_cast<int>(rng.NextBounded(5));
    for (int j = 0; j < n; ++j) {
      model.AddVariable(0, 1 + rng.NextDouble() * 4,
                        rng.NextDouble() * 4 - 2);
    }
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.NextBool(0.6)) {
          terms.emplace_back(j, rng.NextDouble() * 2 - 0.5);
        }
      }
      if (terms.empty()) terms.emplace_back(0, 1.0);
      model.AddConstraint(ConstraintSense::kLessEqual,
                          rng.NextDouble() * 5, std::move(terms));
    }
    SimplexSolver solver(model);
    LpResult base = solver.Solve();
    ASSERT_EQ(base.status, LpStatus::kOptimal) << "trial " << trial;
    Basis basis = solver.SaveBasis();
    ASSERT_TRUE(basis.valid()) << "trial " << trial;

    for (int change = 0; change < 5; ++change) {
      std::vector<std::pair<double, double>> bounds;
      for (int j = 0; j < n; ++j) {
        bounds.emplace_back(model.variable(j).lower,
                            model.variable(j).upper);
      }
      // Tighten 1-2 variables: raise a lower bound, cut an upper bound, or
      // fix outright — the moves a branch & bound makes.
      const int tweaks = 1 + static_cast<int>(rng.NextBounded(2));
      for (int k = 0; k < tweaks; ++k) {
        const int j = static_cast<int>(rng.NextBounded(n));
        const double span = bounds[j].second - bounds[j].first;
        switch (rng.NextBounded(3)) {
          case 0:
            bounds[j].second = bounds[j].first + span * rng.NextDouble();
            break;
          case 1:
            bounds[j].first = bounds[j].first + span * rng.NextDouble();
            break;
          default: {
            const double fix =
                bounds[j].first + span * rng.NextDouble();
            bounds[j] = {fix, fix};
            break;
          }
        }
      }
      ++attempts;
      if (CheckWarmAgainstCold(model, basis, bounds, {},
                               "trial " + std::to_string(trial))) {
        ++warm_answers;
      }
    }
  }
  // The warm path must answer the overwhelming majority of reoptimizations
  // (the cold fallback exists for numerical corner cases, not as the norm).
  EXPECT_GT(attempts, 100);
  EXPECT_GE(warm_answers * 10, attempts * 9);
}

// The production shape: eq.-(7) models of random_instance workloads, with
// the exact bound changes branch & bound performs (binary fixings), under
// every runtime audit.
TEST(WarmStartTest, RandomInstanceFormulationsAgreeAfterBinaryFixings) {
  Rng rng(7);
  SimplexOptions audited;
  audited.audit_level = AuditLevel::kFull;
  long audits_run = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const int num_transactions = 6 + static_cast<int>(rng.NextBounded(4));
    IlpFormulation f =
        RandomFormulation(num_transactions, 100 + trial, "warmstart");

    SimplexSolver solver(f.model, audited);
    LpResult base = solver.Solve();
    ASSERT_EQ(base.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_EQ(base.audit_failures, 0) << "trial " << trial;
    audits_run += base.audits_run;
    Basis basis = solver.SaveBasis();
    ASSERT_TRUE(basis.valid()) << "trial " << trial;

    std::vector<int> binaries;
    for (int j = 0; j < f.model.num_variables(); ++j) {
      if (f.model.variable(j).is_integer) binaries.push_back(j);
    }
    for (int change = 0; change < 8; ++change) {
      std::vector<std::pair<double, double>> bounds;
      for (int j = 0; j < f.model.num_variables(); ++j) {
        bounds.emplace_back(f.model.variable(j).lower,
                            f.model.variable(j).upper);
      }
      const int fixes = 1 + static_cast<int>(rng.NextBounded(3));
      for (int k = 0; k < fixes; ++k) {
        const int j = binaries[rng.NextBounded(binaries.size())];
        const double v = rng.NextBool(0.5) ? 1.0 : 0.0;
        bounds[j] = {v, v};
      }
      CheckWarmAgainstCold(f.model, basis, bounds, audited,
                           "trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(audits_run, 0);
}

// Degenerate/stall coverage: duplicated rows through one vertex force
// zero-progress dual pivots; with stall_threshold = 0 the very first
// non-improving pivot flips the dual onto Bland's rule, which must still
// land on the cold answer.
TEST(WarmStartTest, DegenerateReoptimizationSurvivesBlandFallback) {
  LpModel model;
  int x = model.AddVariable(0, 10, -1, "x");
  int y = model.AddVariable(0, 10, -1, "y");
  // One binding row, repeated: a maximally degenerate optimal vertex.
  for (int k = 0; k < 6; ++k) {
    model.AddConstraint(ConstraintSense::kLessEqual, 2, {{x, 1}, {y, 1}});
  }
  model.AddConstraint(ConstraintSense::kLessEqual, 8,
                      {{x, 4}, {y, 1}});  // redundant at the optimum

  for (long stall_threshold : {0L, 2000L}) {
    SimplexOptions options;
    options.stall_threshold = stall_threshold;
    SimplexSolver solver(model, options);
    LpResult base = solver.Solve();
    ASSERT_EQ(base.status, LpStatus::kOptimal);
    EXPECT_NEAR(base.objective, -2, kTol);
    Basis basis = solver.SaveBasis();
    ASSERT_TRUE(basis.valid());

    Rng rng(11 + stall_threshold);
    for (int change = 0; change < 12; ++change) {
      std::vector<std::pair<double, double>> bounds = {{0, 10}, {0, 10}};
      const int j = static_cast<int>(rng.NextBounded(2));
      const double fix = rng.NextBounded(3) * 0.5;  // 0, 0.5, or 1
      bounds[j] = {fix, fix};
      CheckWarmAgainstCold(model, basis, bounds, options,
                           stall_threshold == 0 ? "bland" : "dantzig");
    }
  }
}

// The dual's pricing/ratio-test upgrades must not change what is proven:
// warm==cold across the 2^2 combinations of dual steepest edge and bound
// flips on the production-shaped eq.-(7) models.
TEST(WarmStartTest, PricingAndRatioTestVariantsAgreeWarmAndCold) {
  Rng rng(99);
  IlpFormulation f = RandomFormulation(8, 1234, "pricing_variants");

  std::vector<int> binaries;
  for (int j = 0; j < f.model.num_variables(); ++j) {
    if (f.model.variable(j).is_integer) binaries.push_back(j);
  }

  for (int variant = 0; variant < 4; ++variant) {
    SimplexOptions options;
    options.use_steepest_edge = (variant & 1) != 0;
    options.use_bound_flips = (variant & 2) != 0;
    options.audit_level = AuditLevel::kFull;
    const std::string where = "variant " + std::to_string(variant);

    SimplexSolver solver(f.model, options);
    LpResult base = solver.Solve();
    ASSERT_EQ(base.status, LpStatus::kOptimal) << where;
    EXPECT_EQ(base.audit_failures, 0) << where;
    Basis basis = solver.SaveBasis();
    ASSERT_TRUE(basis.valid()) << where;

    for (int change = 0; change < 6; ++change) {
      std::vector<std::pair<double, double>> bounds;
      for (int j = 0; j < f.model.num_variables(); ++j) {
        bounds.emplace_back(f.model.variable(j).lower,
                            f.model.variable(j).upper);
      }
      const int fixes = 1 + static_cast<int>(rng.NextBounded(4));
      for (int k = 0; k < fixes; ++k) {
        const int j = binaries[rng.NextBounded(binaries.size())];
        const double v = rng.NextBool(0.5) ? 1.0 : 0.0;
        bounds[j] = {v, v};
      }
      CheckWarmAgainstCold(f.model, basis, bounds, options, where);
    }
  }
}

// One solver reoptimizes through a sequence of bound sets in which boxed
// binaries become fixed and later free again: PRICE must skip a column
// while it is fixed (and while it is basic) and price it again once its
// box reopens. A fixed nonbasic column therefore never enters the basis,
// with the long-step ratio test or the short one. Every warm answer must
// match a cold solve, under every runtime audit, and the warm path must
// answer most of them.
TEST(WarmStartTest, BoxedColumnsFixedThenUnfixedBetweenReoptimizations) {
  IlpFormulation f = RandomFormulation(8, 77, "fix_unfix");
  const LpModel& model = f.model;

  std::vector<int> boxed;
  std::vector<std::pair<double, double>> free_bounds;
  for (int j = 0; j < model.num_variables(); ++j) {
    const double lo = model.variable(j).lower;
    const double hi = model.variable(j).upper;
    if (std::isfinite(lo) && std::isfinite(hi) && lo < hi) boxed.push_back(j);
    free_bounds.emplace_back(lo, hi);
  }
  auto is_basic = [](const Basis& basis, int j) {
    const std::vector<int>& rows = basis.basic_of_row();
    return std::find(rows.begin(), rows.end(), j) != rows.end();
  };

  for (bool bound_flips : {true, false}) {
    Rng rng(4242);
    SimplexOptions options;
    options.audit_level = AuditLevel::kFull;
    options.use_bound_flips = bound_flips;
    SimplexSolver solver(model, options);
    ASSERT_EQ(solver.Solve().status, LpStatus::kOptimal);
    int attempts = 0;
    int warm_answers = 0;
    int fixed_nonbasic = 0;
    for (int round = 0; round < 24; ++round) {
      const std::string where = std::string(bound_flips ? "long" : "short") +
                                " step, round " + std::to_string(round);
      const Basis basis = solver.SaveBasis();
      if (!basis.valid()) {
        // The last bound set was infeasible: restart from a cold optimum.
        solver.SetBounds(nullptr);
        ASSERT_EQ(solver.Solve().status, LpStatus::kOptimal) << where;
        continue;
      }
      // Even rounds fix a few boxed columns, nonbasic ones and one basic
      // one, each at a random end of its box (so some nonbasics jump to the
      // other bound); odd rounds release them all again.
      std::vector<int> fixed;
      std::vector<std::pair<double, double>> bounds = free_bounds;
      if (round % 2 == 0) {
        int nonbasic_wanted = 1 + static_cast<int>(rng.NextBounded(3));
        bool basic_wanted = true;
        for (int tries = 0; tries < 200; ++tries) {
          const int j = boxed[rng.NextBounded(boxed.size())];
          if (std::find(fixed.begin(), fixed.end(), j) != fixed.end()) continue;
          if (is_basic(basis, j)) {
            if (!basic_wanted) continue;
            basic_wanted = false;
          } else {
            if (nonbasic_wanted == 0) continue;
            --nonbasic_wanted;
          }
          fixed.push_back(j);
          const double v =
              rng.NextBool(0.5) ? free_bounds[j].first : free_bounds[j].second;
          bounds[j] = {v, v};
        }
      }
      solver.SetBounds(&bounds);
      ASSERT_TRUE(solver.LoadBasis(basis)) << where;
      ++attempts;
      const LpResult warm = solver.Reoptimize();
      if (warm.status == LpStatus::kOptimal) {
        const Basis solved = solver.SaveBasis();
        for (int j : fixed) {
          if (is_basic(basis, j)) continue;  // basic when fixed: may stay
          ++fixed_nonbasic;
          EXPECT_FALSE(is_basic(solved, j))
              << where << ": fixed column " << j << " entered the basis";
        }
      }
      if (WarmAgreesWithCold(warm, model, bounds, options, where)) {
        ++warm_answers;
      } else {
        // The ladder's next rung, as branch & bound takes it.
        ASSERT_NE(solver.Solve().status, LpStatus::kNumericalFailure) << where;
      }
    }
    EXPECT_GE(attempts, 12);
    EXPECT_GE(warm_answers * 2, attempts);
    EXPECT_GT(fixed_nonbasic, 0);
  }
}

// A box-heavy model engineered so the dual's long step can harvest many
// flips per pivot: the reoptimization must agree with a cold solve, and
// with the bound-flip ratio test disabled, while actually flipping bounds
// (the telemetry proves the path was exercised).
TEST(WarmStartTest, BoundFlipHarvestMatchesShortStepAndCold) {
  // min -sum x_j  s.t.  sum x_j - z = 0, x_j in [0, 1], z in [0, 20]:
  // at the optimum every x_j sits at its upper bound and z = n is basic.
  // Tightening z's upper bound (the "capacity") violates the basic z, and
  // every x_j becomes a breakpoint of the same dual ratio — the long step
  // must pull floor(excess) of them off their bounds in one pivot.
  LpModel model;
  const int n = 14;
  std::vector<std::pair<int, double>> terms;
  for (int j = 0; j < n; ++j) {
    model.AddVariable(0, 1, -1, "x" + std::to_string(j));
    terms.emplace_back(j, 1.0);
  }
  const int y = model.AddVariable(0, 20, 0, "z");
  terms.emplace_back(y, -1.0);
  model.AddConstraint(ConstraintSense::kEqual, 0, std::move(terms));

  SimplexOptions long_step;
  long_step.use_bound_flips = true;
  SimplexOptions short_step;
  short_step.use_bound_flips = false;

  SimplexSolver solver(model, long_step);
  ASSERT_EQ(solver.Solve().status, LpStatus::kOptimal);
  Basis basis = solver.SaveBasis();
  ASSERT_TRUE(basis.valid());

  // Shrink the capacity hard: the optimal basis stays dual feasible and
  // the dual must pull many x_j off their upper bounds at once.
  Rng rng(5);
  long total_flips = 0;
  for (int change = 0; change < 10; ++change) {
    std::vector<std::pair<double, double>> bounds;
    for (int j = 0; j < model.num_variables(); ++j) {
      bounds.emplace_back(model.variable(j).lower, model.variable(j).upper);
    }
    bounds[y] = {0.0, rng.NextDouble() * 4};  // capacity relief shrinks

    SimplexSolver warm_solver(model, long_step);
    warm_solver.SetBounds(&bounds);
    ASSERT_TRUE(warm_solver.LoadBasis(basis));
    LpResult warm = warm_solver.Reoptimize();
    if (warm.status == LpStatus::kNumericalFailure) continue;  // ladder
    total_flips += warm.bound_flips;

    SimplexSolver short_solver(model, short_step);
    short_solver.SetBounds(&bounds);
    ASSERT_TRUE(short_solver.LoadBasis(basis));
    LpResult short_warm = short_solver.Reoptimize();

    LpResult cold = SolveLp(model, long_step, &bounds);
    ASSERT_EQ(warm.status, cold.status) << "change " << change;
    if (warm.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, kTol) << "change " << change;
      if (short_warm.status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm.objective, short_warm.objective, kTol)
            << "change " << change;
      }
    }
  }
  EXPECT_GT(total_flips, 0) << "long-step dual never flipped a bound";
}

TEST(WarmStartTest, TelemetryDistinguishesWarmFromCold) {
  LpModel model = TextbookModel();
  SimplexSolver solver(model);
  LpResult cold = solver.Solve();
  EXPECT_FALSE(cold.warm_started);
  EXPECT_GT(cold.iterations, 0);
  // Negative costs on columns with no upper bound: the slack start is not
  // dual feasible, so the cold solve spends part of its pivots in phase 1.
  EXPECT_GT(cold.phase1_iterations, 0);
  EXPECT_LT(cold.phase1_iterations, cold.iterations);

  Basis basis = solver.SaveBasis();
  std::vector<std::pair<double, double>> bounds = {{0, 1}, {0, 2}};
  solver.SetBounds(&bounds);
  ASSERT_TRUE(solver.LoadBasis(basis));
  LpResult warm = solver.Reoptimize();
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GT(warm.iterations, 0);
  EXPECT_EQ(warm.phase1_iterations, 0);
  // Reloading the basis this solver just solved keeps the live LU: the
  // reoptimization must not have paid a single refactorization.
  EXPECT_EQ(warm.factorizations, 0);
}

}  // namespace
}  // namespace vpart
