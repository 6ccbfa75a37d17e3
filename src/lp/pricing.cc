#include "lp/pricing.h"

#include <algorithm>
#include <cmath>

namespace vpart {

void DualSteepestEdgePricing::Reset(int num_rows) {
  weights_.assign(num_rows, 1.0);
}

void DualSteepestEdgePricing::UpdateOnPivot(const SparseVector& w, int r,
                                            double alpha_r) {
  if (alpha_r == 0.0) return;
  const double gr = weights_[r];
  const double inv_sq = 1.0 / (alpha_r * alpha_r);
  double max_weight = 0.0;
  for (int i : w.index) {
    const double wi = w.value[i];
    if (i == r || wi == 0.0) continue;
    const double candidate = wi * wi * inv_sq * gr;
    if (candidate > weights_[i]) weights_[i] = candidate;
    max_weight = std::max(max_weight, weights_[i]);
  }
  weights_[r] = std::max(gr * inv_sq, 1.0);
  if (std::max(max_weight, weights_[r]) > kResetThreshold) {
    ++resets_;
    std::fill(weights_.begin(), weights_.end(), 1.0);
  }
}

}  // namespace vpart
