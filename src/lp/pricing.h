#ifndef VPART_LP_PRICING_H_
#define VPART_LP_PRICING_H_

#include <vector>

#include "lp/factorization.h"

namespace vpart {

// ---------------------------------------------------------------------------
// Pricing rules for the simplex core.
//
// [pricing-rule:overview] A pricing rule owns *weights*, not eligibility:
// the solver (lp/simplex.cc) decides which columns/rows may enter or leave
// (variable states, bounds, Bland mode) and asks the rule to score the
// eligible ones; after each pivot it feeds the rule the pivot row/column so
// the weights can be updated incrementally. This split keeps the rules
// free of solver state and makes them swappable — see
// CONTRIBUTING.md § "How to add a pricing rule" for the recipe, and the
// [pricing-rule:*] anchors below for the seams it references.
// ---------------------------------------------------------------------------

/// Dual steepest-edge pricing for the dual simplex (the Forrest–Goldfarb
/// "reference weights" flavor, sometimes called dual devex): each basis
/// position i carries gamma_i approximating ‖B⁻ᵀe_i‖², the squared norm of
/// row i of the basis inverse. The solver picks the primal-infeasible row
/// maximizing violation_i² / gamma_i — steepest ascent in the dual — which
/// typically halves dual pivot counts against most-infeasible selection.
///
/// [pricing-rule:dse-update] After a dual pivot with FTRANed entering
/// column w and pivot element alpha_r = w[r]:
///   gamma_i <- max(gamma_i, (w_i / alpha_r)² · gamma_r)   for i ≠ r
///   gamma_r <- max(gamma_r / alpha_r², 1)
/// w arrives as a SparseVector (FTRAN's value array plus its nonzero
/// index list), so the update visits only w's nonzeros, not all m rows.
/// Exact steepest edge would FTRAN one extra vector per pivot to update
/// the norms exactly; the reference-weight form needs no extra solves and
/// restarts from 1.0 when weights outgrow `kResetThreshold` (counted in
/// se_resets).
class DualSteepestEdgePricing {
 public:
  static constexpr double kResetThreshold = 1e7;

  /// Starts a fresh reference framework over `num_rows` basis positions.
  void Reset(int num_rows);

  double weight(int i) const { return weights_[i]; }

  double Score(int i, double violation) const {
    return violation * violation / weights_[i];
  }

  /// Weight update after a dual pivot: `w` is the FTRANed entering column
  /// (basis-position space; only its listed entries are visited), `r` the
  /// leaving position, `alpha_r` = w[r].
  void UpdateOnPivot(const SparseVector& w, int r, double alpha_r);

  long resets() const { return resets_; }

  /// All weights of the current framework (empty before the first Reset).
  /// Read-only view for the invariant auditor: every entry must stay finite
  /// and strictly positive between resets.
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  long resets_ = 0;
};

}  // namespace vpart

#endif  // VPART_LP_PRICING_H_
