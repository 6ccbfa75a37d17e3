#ifndef VPART_LP_SIMPLEX_H_
#define VPART_LP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/audit.h"
#include "lp/factorization.h"
#include "lp/model.h"
#include "lp/pricing.h"
#include "lp/solve_stats.h"
#include "util/deadline.h"

namespace vpart {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  kNumericalFailure,
};

const char* LpStatusName(LpStatus status);

/// Knobs of the simplex core. The numerical-tolerance table in
/// src/lp/README.md documents how these interact; the defaults are tuned
/// for the eq.-(7) partitioning models and rarely need changing.
struct SimplexOptions {
  /// Bound/row feasibility tolerance.
  double feasibility_tol = 1e-7;
  /// Reduced-cost optimality tolerance.
  double optimality_tol = 1e-7;
  /// Smallest usable pivot element.
  double pivot_tol = 1e-8;
  /// Hard iteration cap; <= 0 selects an automatic cap of
  /// 200·(rows+cols) + 20000.
  long max_iterations = -1;
  /// Wall-clock cap in seconds; <= 0 means none. A timed-out solve reports
  /// kTimeLimit.
  double time_limit_seconds = 0.0;
  /// Forrest–Tomlin updates accepted before the basis LU is rebuilt from
  /// scratch (the update-count refactorization trigger).
  int refactor_interval = 100;
  /// Markowitz threshold partial pivoting: a factorization pivot must be
  /// within this factor of its column's largest active entry.
  double markowitz_threshold = 0.1;
  /// Fill-growth refactorization trigger: rebuild when the factor's
  /// nonzeros exceed this multiple of the fresh factorization's.
  double fill_ratio = 6.0;
  /// Dual steepest-edge row pricing (off = most-infeasible row selection).
  bool use_steepest_edge = true;
  /// Long-step (bound-flipping) dual ratio test: harvest nonbasic bound
  /// flips along the dual ray so box-constrained variables move in bulk
  /// per pivot (off = one basis change per dual pivot).
  bool use_bound_flips = true;
  /// After this many consecutive non-improving (degenerate) iterations the
  /// pricing switches to Bland's rule, which guarantees termination.
  long stall_threshold = 2000;
  /// Self-check level (check/audit.h): kOff (default) runs no audits; kCheap
  /// checks ‖A·x − b‖∞ after each refactorization and basis-header
  /// consistency on LoadBasis; kFull adds a residual check every
  /// audit_ft_interval Forrest–Tomlin updates, pricing-weight positivity
  /// at solve end, and the dual's cached row infeasibilities at optimality.
  /// Failures are counted (LpResult::audit_failures), never acted on.
  AuditLevel audit_level = AuditLevel::kOff;
  /// Forrest–Tomlin updates between residual audits at AuditLevel::kFull.
  int audit_ft_interval = 25;
};

struct LpResult {
  LpStatus status = LpStatus::kNumericalFailure;
  double objective = 0.0;
  /// Structural variable values; populated for kOptimal only. Every other
  /// stop leaves a dual simplex iterate, which is primal infeasible and
  /// never exposed.
  std::vector<double> values;
  /// Dual simplex pivots of this call (every pivot is a dual pivot).
  long iterations = 0;
  /// The dual phase-1 share of `iterations`: the auxiliary problem and the
  /// zero-cost run of a cold solve that did not start dual feasible.
  long phase1_iterations = 0;
  /// Fresh LU factorizations of the basis during this call.
  long factorizations = 0;
  /// Forrest–Tomlin updates applied during this call.
  long ft_updates = 0;
  /// Nonbasic bound flips harvested by the long-step dual ratio test.
  long bound_flips = 0;
  /// Dual-steepest-edge reference-framework resets.
  long se_resets = 0;
  /// Refactorization triggers of this call, by reason (update-count cap,
  /// fill growth, numerical distrust); see LpSolveStats for semantics.
  long refactor_updates = 0;
  long refactor_fill = 0;
  long refactor_stability = 0;
  /// Invariant audits executed / failed during this call (plus any audits
  /// run by LoadBasis since the previous call, so the ledger stays closed).
  /// Both 0 unless SimplexOptions::audit_level enables them.
  long audits_run = 0;
  long audit_failures = 0;
  /// True when this result came from a dual reoptimization of a loaded
  /// basis rather than a cold solve from the slack basis.
  bool warm_started = false;

  /// Folds this call's pivot, factorization and pricing counters into an
  /// aggregate — the one place that knows the LpResult <-> LpSolveStats
  /// counter mapping (the warm/cold start counters stay caller-assigned:
  /// they depend on the ladder rung that answered).
  void AddCountersTo(LpSolveStats& stats) const {
    stats.dual_iterations += iterations;
    stats.phase1_iterations += phase1_iterations;
    stats.factorizations += factorizations;
    stats.ft_updates += ft_updates;
    stats.bound_flips += bound_flips;
    stats.se_resets += se_resets;
    stats.refactor_updates += refactor_updates;
    stats.refactor_fill += refactor_fill;
    stats.refactor_stability += refactor_stability;
    stats.audits_run += audits_run;
    stats.audit_failures += audit_failures;
  }
};

/// Snapshot of a simplex basis: which column is basic in each row and the
/// at-lower/at-upper state of every nonbasic column (structurals and
/// logicals). Cheap to copy, safe to share across threads once saved, and
/// valid for any SimplexSolver built over the *same* LpModel — the point is
/// to carry a parent B&B node's optimal basis into its children. Only a
/// basis left by an optimal solve is valid().
class Basis {
 public:
  bool valid() const { return valid_; }
  int num_rows() const { return static_cast<int>(basic_of_row_.size()); }

  /// The column basic in each row. Read-only; the encoding is an
  /// implementation detail of the simplex.
  const std::vector<int>& basic_of_row() const { return basic_of_row_; }

 private:
  friend class SimplexSolver;
  std::vector<int> basic_of_row_;    // row -> column
  std::vector<uint8_t> state_;       // column -> VarState (struct + logical)
  bool valid_ = false;
};

/// Reusable bounded-variable simplex over one LpModel. The constraint
/// matrix is built once (CSC over structural + logical columns, plus a
/// row-wise copy for PRICE); bounds,
/// time budgets, and the basis are replaceable between solves, so a branch
/// & bound pays the matrix build once per tree and each node solve is
///
///   solver.SetBounds(&node_bounds);
///   if (solver.LoadBasis(parent_basis)) result = solver.Reoptimize();
///   if (result.status needs it)         result = solver.Solve();   // cold
///
/// The linear algebra runs on a sparse LU factorization of the basis
/// (Markowitz pivoting, lp/factorization.h) kept current across pivots by
/// Forrest–Tomlin updates; the basis is refactorized only when the update
/// count, factor fill, or a stability check says so — including across
/// Reoptimize() calls, so reloading the basis the solver already holds
/// (the plunging child of a just-solved B&B node) skips the rebuild
/// entirely.
///
/// Both entry points run the one algorithm, a bounded-variable dual simplex
/// (dual steepest-edge row selection, a long-step bound-flipping ratio
/// test, reduced costs maintained incrementally across pivots, Bland's
/// rule under stalls). Reoptimize() starts it from the loaded basis, so
/// after a bound tightening the parent's optimal basis reoptimizes in a
/// handful of pivots. Solve() starts it from the slack basis with each
/// structural on the bound its cost sign picks — dual feasible for every
/// vpart formulation; other LPs first run a dual phase 1 over a boxed
/// auxiliary problem. See src/lp/README.md for the full internals
/// contract.
///
/// Not thread-safe; use one SimplexSolver per worker. The model must
/// outlive the solver.
class SimplexSolver {
 public:
  explicit SimplexSolver(const LpModel& model,
                         const SimplexOptions& options = {});

  /// Replaces the structural variable bounds used by subsequent solves.
  /// `bound_overrides`, when non-null, supplies per-variable (lower, upper)
  /// pairs replacing the model bounds — used by branch & bound to explore
  /// nodes without copying the model. Null restores the model's own bounds.
  void SetBounds(
      const std::vector<std::pair<double, double>>* bound_overrides);

  /// Per-call wall-clock budget; <= 0 means none.
  void SetTimeLimit(double seconds) { options_.time_limit_seconds = seconds; }

  const SimplexOptions& options() const { return options_; }
  void set_options(const SimplexOptions& options) { options_ = options; }

  /// Cold solve: the dual simplex from the slack basis (after a dual
  /// phase 1 when that start is not dual feasible). Reports kUnbounded
  /// for a feasible LP whose dual is infeasible.
  LpResult Solve();

  /// Solve() with the historical numerical-failure retry: one more cold
  /// attempt under a tighter refactorization schedule before giving up.
  LpResult SolveWithRetry();

  /// Dual-simplex reoptimization from the current basis (set by LoadBasis,
  /// or left by a previous optimal solve). Returns kOptimal/kInfeasible on
  /// a completed proof; kNumericalFailure when the basis is unusable
  /// (singular, or dual infeasible beyond tolerance) — the caller's ladder
  /// then falls back to a cold Solve().
  LpResult Reoptimize();

  /// Snapshot of the current basis (see Basis). Call after an optimal
  /// Solve()/Reoptimize().
  Basis SaveBasis() const;

  /// Installs a snapshot taken from a solver over the same model. Returns
  /// false (leaving the solver needing a cold Solve()) on an invalid or
  /// shape-mismatched snapshot. Loading the basis the solver already
  /// holds keeps the live factorization (no rebuild on the next
  /// Reoptimize()).
  bool LoadBasis(const Basis& basis);

  const LpModel& model() const { return model_; }

 private:
  enum class VarState : uint8_t { kBasic, kAtLower, kAtUpper };

  // --- setup -------------------------------------------------------------
  void BuildMatrix();
  /// Makes every logical basic and every structural nonbasic (unplaced:
  /// PlaceNonbasics picks their bounds).
  void SetSlackBasis();
  /// Puts each nonbasic column on the bound its reduced cost d_j picks: a
  /// finite lower bound when d_j >= 0 or there is no upper one, else a
  /// finite upper bound; a free column parks at 0. Returns whether every
  /// placement is dual feasible within `tol`.
  bool PlaceNonbasics(const std::vector<double>& d, double tol);
  void ResetCallCounters();
  LpResult FinishResult(LpStatus status, bool warm);

  // --- linear algebra over the LU factorization --------------------------
  bool Refactorize();
  /// x_B := B⁻¹(b − A_N x_N), then rebuilds row_infeasibility_.
  void RecomputeBasicValues();
  /// Forrest–Tomlin update for "entering replaces position `row`", with
  /// the trigger-driven refactorization fallback. False = unrecoverable;
  /// `refactorized` reports whether a fresh LU replaced the update (the
  /// caller must then re-price from scratch).
  bool UpdateFactorization(int entering, int row, bool& refactorized);

  // --- invariant audits (SimplexOptions::audit_level) ---------------------
  /// ‖A·x − b‖∞ over the current iterate; counts one audit, and a failure
  /// when the residual exceeds the audit tolerance. `where` labels the log.
  void AuditResidual(const char* where);
  /// kFull-level pricing-weight positivity check at solve end.
  void AuditPricingWeights();
  /// kFull-level check, before the dual claims optimality, that the cached
  /// row infeasibilities CHUZR read equal a recomputation.
  void AuditRowInfeasibility();

  // --- pricing -----------------------------------------------------------
  void ComputeReducedCosts(std::vector<double>& d);
  /// Row-wise PRICE: alpha_ := ρᵀA over the nonbasic, non-fixed columns,
  /// walking only ρ's nonzero rows of the row-wise copy; alpha_.index
  /// lists the columns touched.
  void PricePivotRow(const SparseVector& rho);
  /// Primal infeasibility of the basic variable in row i (0 when within
  /// its bounds).
  double RowInfeasibility(int i) const;

  // --- iteration loops ---------------------------------------------------
  /// Dual simplex from a dual-feasible basis; `d` holds its verified
  /// reduced costs and is maintained in place.
  LpStatus RunDual(long max_iterations, std::vector<double>& d);
  /// Dual phase 1 of a cold solve whose slack start is not dual feasible
  /// (free or wrong-signed unboxed columns). kOptimal leaves a dual
  /// feasible basis with `d` its reduced costs, ready for RunDual; a
  /// dual-infeasible LP ends kUnbounded or kInfeasible instead.
  LpStatus RunDualPhase1(std::vector<double>& d);

  long MaxIterations() const;

  // --- problem data ------------------------------------------------------
  const LpModel& model_;
  SimplexOptions options_;
  Deadline deadline_{0.0};

  int num_rows_ = 0;
  int num_struct_ = 0;
  int num_cols_ = 0;  // struct + logicals

  // CSC matrix over all columns.
  std::vector<int> col_start_;
  std::vector<int> row_index_;
  std::vector<double> value_;
  // Row-wise copy of the same columns, built once with the CSC matrix: row
  // i spans (row_col_, row_value_)[row_start_[i] .. row_start_[i+1]).
  std::vector<int> row_start_;
  std::vector<int> row_col_;
  std::vector<double> row_value_;

  std::vector<double> lower_, upper_;
  std::vector<double> cost_;
  std::vector<double> rhs_;

  // --- simplex state -----------------------------------------------------
  std::vector<int> basis_;       // row -> column
  std::vector<VarState> state_;  // column -> state
  std::vector<double> xval_;     // column -> current value
  LuFactorization factor_;
  /// The live factorization matches basis_ (kept true across pivots by the
  /// Forrest–Tomlin updates; false after a slack reset or loading a
  /// different basis). When true, Reoptimize() skips the rebuild.
  bool factor_synced_ = false;
  DualSteepestEdgePricing dse_;
  // Iteration workspaces, reused across pivots and solves: ρ = B⁻ᵀe_r, the
  // FTRANed entering column, the FTRANed bound-flip column, the cost
  // vector's BTRAN, and the pivot row α_r = ρᵀA (sized to the columns, with
  // alpha_mark_ flagging the listed ones).
  SparseVector rho_;
  SparseVector column_;
  SparseVector flip_column_;
  SparseVector duals_;
  SparseVector alpha_;
  std::vector<uint8_t> alpha_mark_;
  /// RowInfeasibility(i) for every row, kept current through RunDual's
  /// pivots (only the rows a step or a flip touched change) and rebuilt by
  /// RecomputeBasicValues.
  std::vector<double> row_infeasibility_;
  bool basis_ready_ = false;  // a loaded/left basis is available
  long iterations_ = 0;
  long phase1_iterations_ = 0;
  long factorizations_ = 0;
  long bound_flips_ = 0;
  LuFactorization::Stats factor_stats_base_;
  long pricing_resets_base_ = 0;
  long stall_count_ = 0;
  bool use_bland_ = false;
  // Audit counters are cumulative for the solver's lifetime; FinishResult
  // reports (total - reported) and advances the watermark, so LoadBasis
  // audits — which land between calls, before the next ResetCallCounters —
  // are attributed to the next solve and the ledger stays closed.
  long audits_run_total_ = 0;
  long audit_failures_total_ = 0;
  long audits_run_reported_ = 0;
  long audit_failures_reported_ = 0;
  int ft_updates_since_audit_ = 0;
};

/// Solves the LP relaxation of `model` (integrality flags ignored) with a
/// cold dual simplex — the one-shot convenience wrapper over
/// SimplexSolver, kept for callers that solve each model once.
LpResult SolveLp(const LpModel& model, const SimplexOptions& options = {},
                 const std::vector<std::pair<double, double>>*
                     bound_overrides = nullptr);

}  // namespace vpart

#endif  // VPART_LP_SIMPLEX_H_
