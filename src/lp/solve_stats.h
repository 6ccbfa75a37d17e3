#ifndef VPART_LP_SOLVE_STATS_H_
#define VPART_LP_SOLVE_STATS_H_

namespace vpart {

/// Aggregated telemetry of a sequence of LP solves — one branch & bound
/// search, one portfolio ILP lane, one advise request. Produced per call by
/// SimplexSolver (lp/simplex.h), accumulated by mip/, and threaded through
/// solver/ -> engine/ -> api/ so a service can see how warm starting and
/// the factorized simplex core are doing (warm_starts vs cold_starts,
/// pivots, Forrest–Tomlin updates vs refactorizations) without
/// attaching a profiler. Field-by-field consumer documentation lives in
/// README.md § "Solve statistics in the response".
struct LpSolveStats {
  /// LP relaxations solved (every B&B node, dive step, and retry target).
  long lp_solves = 0;
  /// Solves answered by dual-simplex reoptimization from a parent basis —
  /// including reoptimizations stopped by the node's wall-clock budget
  /// (they are not retried cold, so the ledger stays closed:
  /// warm_starts + cold_starts == lp_solves).
  long warm_starts = 0;
  /// Solves answered by a cold dual simplex from the slack basis.
  long cold_starts = 0;
  /// Warm attempts that had to fall back to a cold solve (numerical
  /// failure, a stale or dual-infeasible basis, or an iteration cap hit
  /// mid-reoptimization).
  long warm_start_failures = 0;
  /// Kept for the telemetry.mip schema: the LP core has no primal simplex,
  /// so this reads 0.
  long primal_iterations = 0;
  /// Dual phase-1 share of dual_iterations (cold solves of LPs whose slack
  /// start is not dual feasible; 0 on every vpart formulation).
  long phase1_iterations = 0;
  /// Dual simplex pivots across all solves, warm and cold.
  long dual_iterations = 0;
  /// Fresh LU factorizations of the basis (cold-start slack bases, stale
  /// warm-start loads, and trigger-driven rebuilds; see the refactor_*
  /// counters for why the triggered ones fired).
  long factorizations = 0;
  /// Forrest–Tomlin updates applied in place of a refactorization — the
  /// healthy steady state is many ft_updates per factorization.
  long ft_updates = 0;
  /// Nonbasic bound flips harvested by the long-step (bound-flipping) dual
  /// ratio test: variables moved across their box without a basis change.
  long bound_flips = 0;
  /// Dual-steepest-edge reference-framework resets (weights grew
  /// past the trust threshold and restarted from 1). A handful per solve
  /// is normal; a flood signals a numerically hostile model.
  long se_resets = 0;
  /// Refactorizations triggered by the update-count cap
  /// (SimplexOptions::refactor_interval Forrest–Tomlin updates applied).
  long refactor_updates = 0;
  /// Refactorizations triggered by factor fill growth past
  /// SimplexOptions::fill_ratio times the fresh factorization's nonzeros.
  long refactor_fill = 0;
  /// Refactorizations forced by numerical distrust: a rejected (unstable)
  /// Forrest–Tomlin update or an FTRAN/BTRAN disagreement on the pivot.
  long refactor_stability = 0;
  /// Invariant audits executed (SimplexOptions::audit_level, check/audit.h):
  /// residual checks after refactorizations / FT-update batches,
  /// basis-header checks on LoadBasis, pricing-weight positivity checks.
  /// Zero when auditing is off.
  long audits_run = 0;
  /// Audits that failed. Always 0 on a healthy solve; non-zero means the
  /// factorization drifted, a basis snapshot was corrupt, or a pricing
  /// weight went non-positive — treat the optimality claim with suspicion.
  long audit_failures = 0;
  /// Wall clock spent inside LP solves.
  double lp_seconds = 0.0;

  long total_iterations() const { return primal_iterations + dual_iterations; }

  void Add(const LpSolveStats& other) {
    lp_solves += other.lp_solves;
    warm_starts += other.warm_starts;
    cold_starts += other.cold_starts;
    warm_start_failures += other.warm_start_failures;
    primal_iterations += other.primal_iterations;
    phase1_iterations += other.phase1_iterations;
    dual_iterations += other.dual_iterations;
    factorizations += other.factorizations;
    ft_updates += other.ft_updates;
    bound_flips += other.bound_flips;
    se_resets += other.se_resets;
    refactor_updates += other.refactor_updates;
    refactor_fill += other.refactor_fill;
    refactor_stability += other.refactor_stability;
    audits_run += other.audits_run;
    audit_failures += other.audit_failures;
    lp_seconds += other.lp_seconds;
  }
};

}  // namespace vpart

#endif  // VPART_LP_SOLVE_STATS_H_
