#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "check/invariants.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vpart {

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "OPTIMAL";
    case LpStatus::kInfeasible:
      return "INFEASIBLE";
    case LpStatus::kUnbounded:
      return "UNBOUNDED";
    case LpStatus::kIterationLimit:
      return "ITERATION_LIMIT";
    case LpStatus::kTimeLimit:
      return "TIME_LIMIT";
    case LpStatus::kNumericalFailure:
      return "NUMERICAL_FAILURE";
  }
  return "UNKNOWN";
}

SimplexSolver::SimplexSolver(const LpModel& model,
                             const SimplexOptions& options)
    : model_(model), options_(options) {
  BuildMatrix();
}

void SimplexSolver::BuildMatrix() {
  num_rows_ = model_.num_constraints();
  num_struct_ = model_.num_variables();
  const int num_logicals = num_rows_;

  // Structural columns. AddConstraint canonicalizes rows (sorted, merged,
  // zero-free), so the transpose below needs no duplicate handling.
  std::vector<std::vector<std::pair<int, double>>> cols(num_struct_);
  for (int i = 0; i < num_rows_; ++i) {
    for (const auto& [j, v] : model_.constraint(i).terms) {
      cols[j].emplace_back(i, v);
    }
  }

  col_start_.clear();
  row_index_.clear();
  value_.clear();
  lower_.clear();
  upper_.clear();
  cost_.clear();
  rhs_.resize(num_rows_);
  for (int i = 0; i < num_rows_; ++i) rhs_[i] = model_.constraint(i).rhs;

  auto push_column = [&](const std::vector<std::pair<int, double>>& entries,
                         double lo, double hi, double c) {
    col_start_.push_back(static_cast<int>(row_index_.size()));
    for (const auto& [i, v] : entries) {
      if (v != 0.0) {
        row_index_.push_back(i);
        value_.push_back(v);
      }
    }
    lower_.push_back(lo);
    upper_.push_back(hi);
    cost_.push_back(c);
  };

  for (int j = 0; j < num_struct_; ++j) {
    push_column(cols[j], model_.variable(j).lower, model_.variable(j).upper,
                model_.variable(j).objective);
  }

  // Logical column per row: a·x + s = b with sense-dependent bounds.
  for (int i = 0; i < num_rows_; ++i) {
    double lo = 0, hi = 0;
    switch (model_.constraint(i).sense) {
      case ConstraintSense::kLessEqual:
        lo = 0;
        hi = kLpInfinity;
        break;
      case ConstraintSense::kGreaterEqual:
        lo = -kLpInfinity;
        hi = 0;
        break;
      case ConstraintSense::kEqual:
        lo = hi = 0;
        break;
    }
    push_column({{i, 1.0}}, lo, hi, 0.0);
  }
  col_start_.push_back(static_cast<int>(row_index_.size()));

  num_cols_ = num_struct_ + num_logicals;
  state_.assign(num_cols_, VarState::kAtLower);
  xval_.assign(num_cols_, 0.0);
  basis_.assign(num_rows_, -1);

  // Row-wise copy of the same columns for PRICE (a counting sort, so each
  // row lists its columns in ascending order).
  const int nnz = col_start_[num_cols_];
  row_start_.assign(num_rows_ + 1, 0);
  for (int k = 0; k < nnz; ++k) ++row_start_[row_index_[k] + 1];
  for (int i = 0; i < num_rows_; ++i) row_start_[i + 1] += row_start_[i];
  row_col_.resize(nnz);
  row_value_.resize(nnz);
  std::vector<int> next(row_start_.begin(), row_start_.end() - 1);
  for (int j = 0; j < num_cols_; ++j) {
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      const int slot = next[row_index_[k]]++;
      row_col_[slot] = j;
      row_value_[slot] = value_[k];
    }
  }

  rho_.Reset(num_rows_);
  column_.Reset(num_rows_);
  flip_column_.Reset(num_rows_);
  duals_.Reset(num_rows_);
  alpha_.Reset(num_cols_);
  alpha_mark_.assign(num_cols_, 0);
  row_infeasibility_.assign(num_rows_, 0.0);
}

void SimplexSolver::SetBounds(
    const std::vector<std::pair<double, double>>* bound_overrides) {
  for (int j = 0; j < num_struct_; ++j) {
    if (bound_overrides != nullptr) {
      lower_[j] = (*bound_overrides)[j].first;
      upper_[j] = (*bound_overrides)[j].second;
    } else {
      lower_[j] = model_.variable(j).lower;
      upper_[j] = model_.variable(j).upper;
    }
  }
}

void SimplexSolver::SetSlackBasis() {
  factor_synced_ = false;  // the basis changes wholesale below
  state_.assign(num_cols_, VarState::kAtLower);
  for (int i = 0; i < num_rows_; ++i) {
    basis_[i] = num_struct_ + i;
    state_[num_struct_ + i] = VarState::kBasic;
  }
}

bool SimplexSolver::PlaceNonbasics(const std::vector<double>& d, double tol) {
  bool dual_feasible = true;
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    const bool has_lower = std::isfinite(lower_[j]);
    const bool has_upper = std::isfinite(upper_[j]);
    if (has_lower && (d[j] >= 0.0 || !has_upper)) {
      state_[j] = VarState::kAtLower;
      xval_[j] = lower_[j];
      dual_feasible &= d[j] >= -tol;
    } else if (has_upper) {
      state_[j] = VarState::kAtUpper;
      xval_[j] = upper_[j];
      dual_feasible &= d[j] <= tol;
    } else {  // free: parked at 0, where any move is a ratio-test entry
      state_[j] = VarState::kAtLower;
      xval_[j] = 0.0;
      dual_feasible &= std::abs(d[j]) <= tol;
    }
  }
  return dual_feasible;
}

void SimplexSolver::ResetCallCounters() {
  iterations_ = 0;
  phase1_iterations_ = 0;
  factorizations_ = 0;
  bound_flips_ = 0;
  stall_count_ = 0;
  use_bland_ = false;
  deadline_ = Deadline(options_.time_limit_seconds);
  factor_stats_base_ = factor_.stats();
  pricing_resets_base_ = dse_.resets();
  // Propagate the solver tolerances into the factorization.
  LuFactorization::Options factor_options = factor_.options();
  factor_options.pivot_tol = options_.pivot_tol;
  factor_options.markowitz_threshold = options_.markowitz_threshold;
  factor_options.refactor_interval = options_.refactor_interval;
  factor_options.fill_ratio = options_.fill_ratio;
  factor_.set_options(factor_options);
}

long SimplexSolver::MaxIterations() const {
  return options_.max_iterations > 0
             ? options_.max_iterations
             : 200L * (num_rows_ + num_cols_) + 20000L;
}

bool SimplexSolver::Refactorize() {
  // kFull-gated: refactorizations happen mid-pivot-loop; only deep traces
  // pay for the span (one relaxed atomic load otherwise).
  Span span("lp_refactorize", "lp", ObsLevel::kFull);
  if (!factor_.Factorize(col_start_, row_index_, value_, basis_, num_rows_)) {
    factor_synced_ = false;
    return false;
  }
  ++factorizations_;
  factor_synced_ = true;
  RecomputeBasicValues();
  ft_updates_since_audit_ = 0;
  if (options_.audit_level != AuditLevel::kOff) AuditResidual("refactorize");
  return true;
}

bool SimplexSolver::UpdateFactorization(int entering, int row,
                                        bool& refactorized) {
  refactorized = false;
  // The Forrest–Tomlin update keeps the factorization current in O(touched
  // entries); a rejected (unstable) update or a fired trigger collapses
  // everything into a fresh LU instead.
  if (factor_.Update(col_start_, row_index_, value_, entering, row) &&
      !factor_.NeedsRefactorization()) {
    // The pivot's incremental updates to xval_ are complete here (the
    // iteration loops update the iterate before the factorization), so the
    // periodic kFull residual audit sees a consistent state.
    if (options_.audit_level == AuditLevel::kFull &&
        ++ft_updates_since_audit_ >= options_.audit_ft_interval) {
      ft_updates_since_audit_ = 0;
      AuditResidual("ft_update");
    }
    return true;
  }
  refactorized = true;
  return Refactorize();
}

void SimplexSolver::RecomputeBasicValues() {
  SparseVector r;
  r.value = rhs_;
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic || xval_[j] == 0.0) continue;
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      r.value[row_index_[k]] -= value_[k] * xval_[j];
    }
  }
  factor_.Ftran(r);
  for (int i = 0; i < num_rows_; ++i) xval_[basis_[i]] = r.value[i];
  for (int i = 0; i < num_rows_; ++i) {
    row_infeasibility_[i] = RowInfeasibility(i);
  }
}

double SimplexSolver::RowInfeasibility(int i) const {
  const int b = basis_[i];
  if (std::isfinite(lower_[b]) && xval_[b] < lower_[b]) {
    return lower_[b] - xval_[b];
  }
  if (std::isfinite(upper_[b]) && xval_[b] > upper_[b]) {
    return xval_[b] - upper_[b];
  }
  return 0.0;
}

void SimplexSolver::AuditResidual(const char* where) {
  ++audits_run_total_;
  double rhs_norm = 0.0;
  for (double b : rhs_) rhs_norm = std::max(rhs_norm, std::abs(b));
  const double residual = RowActivityResidualInf(
      num_rows_, col_start_, row_index_, value_, xval_, rhs_);
  // Well above the incremental-drift level of a healthy solve (the basic
  // values go through a fresh FTRAN at every refactorization) but far below
  // anything a genuinely wrong factorization produces.
  const double tolerance =
      std::max(1e-6, 10.0 * options_.feasibility_tol) * (1.0 + rhs_norm);
  if (!(residual <= tolerance)) {
    ++audit_failures_total_;
    VPART_LOG(Warning) << "lp audit: row-activity residual " << residual
                       << " exceeds " << tolerance << " after " << where;
  }
}

void SimplexSolver::AuditRowInfeasibility() {
  ++audits_run_total_;
  for (int i = 0; i < num_rows_; ++i) {
    if (row_infeasibility_[i] != RowInfeasibility(i)) {
      ++audit_failures_total_;
      VPART_LOG(Warning) << "lp audit: cached infeasibility of row " << i
                         << " is stale";
      return;
    }
  }
}

void SimplexSolver::AuditPricingWeights() {
  if (options_.use_steepest_edge && !dse_.weights().empty()) {
    ++audits_run_total_;
    if (!AllFinitePositive(dse_.weights())) {
      ++audit_failures_total_;
      VPART_LOG(Warning)
          << "lp audit: dual-steepest-edge weight non-positive or non-finite";
    }
  }
}

void SimplexSolver::ComputeReducedCosts(std::vector<double>& d) {
  // π = B⁻ᵀc_B; every entry of duals_ is written, so no Clear() first.
  std::vector<double>& pi = duals_.value;
  for (int i = 0; i < num_rows_; ++i) pi[i] = cost_[basis_[i]];
  factor_.Btran(duals_);
  d.assign(num_cols_, 0.0);
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    double dj = cost_[j];
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      dj -= pi[row_index_[k]] * value_[k];
    }
    d[j] = dj;
  }
}

void SimplexSolver::PricePivotRow(const SparseVector& rho) {
  for (int j : alpha_.index) alpha_mark_[j] = 0;
  alpha_.Clear();
  for (int i : rho.index) {
    const double rho_i = rho.value[i];
    if (rho_i == 0.0) continue;
    for (int idx = row_start_[i]; idx < row_start_[i + 1]; ++idx) {
      const int j = row_col_[idx];
      if (state_[j] == VarState::kBasic || lower_[j] == upper_[j]) continue;
      if (!alpha_mark_[j]) {
        alpha_mark_[j] = 1;
        alpha_.index.push_back(j);
      }
      alpha_.value[j] += rho_i * row_value_[idx];
    }
  }
}

LpResult SimplexSolver::FinishResult(LpStatus status, bool warm) {
  if (options_.audit_level == AuditLevel::kFull) AuditPricingWeights();
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = phase1_iterations_;
  result.factorizations = factorizations_;
  const LuFactorization::Stats& fs = factor_.stats();
  result.ft_updates = fs.ft_updates - factor_stats_base_.ft_updates;
  result.refactor_updates =
      fs.refactor_updates - factor_stats_base_.refactor_updates;
  result.refactor_fill = fs.refactor_fill - factor_stats_base_.refactor_fill;
  result.refactor_stability =
      fs.refactor_stability - factor_stats_base_.refactor_stability;
  result.bound_flips = bound_flips_;
  result.se_resets = dse_.resets() - pricing_resets_base_;
  result.audits_run = audits_run_total_ - audits_run_reported_;
  result.audit_failures = audit_failures_total_ - audit_failures_reported_;
  audits_run_reported_ = audits_run_total_;
  audit_failures_reported_ = audit_failures_total_;
  result.warm_started = warm;
  // Any other stop leaves a primal-infeasible dual iterate, which must
  // never look like an answer.
  if (status == LpStatus::kOptimal) {
    result.values.assign(xval_.begin(), xval_.begin() + num_struct_);
    result.objective = model_.EvaluateObjective(result.values);
  }
  basis_ready_ = status == LpStatus::kOptimal;
  return result;
}

LpResult SimplexSolver::Solve() {
  ResetCallCounters();
  SetSlackBasis();
  // The slack basis prices with π = 0 (its columns are cost-free
  // logicals), so the reduced costs are the costs themselves.
  std::vector<double> d = cost_;
  const bool dual_feasible = PlaceNonbasics(d, options_.optimality_tol);
  if (!Refactorize()) {
    return FinishResult(LpStatus::kNumericalFailure, /*warm=*/false);
  }
  LpStatus status = dual_feasible ? LpStatus::kOptimal : RunDualPhase1(d);
  if (status == LpStatus::kOptimal) status = RunDual(MaxIterations(), d);
  return FinishResult(status, /*warm=*/false);
}

LpStatus SimplexSolver::RunDualPhase1(std::vector<double>& d) {
  // The subproblem approach (Fourer 1994; Koberstein & Suhl 2007): minimize
  // cᵀx over Ax = 0 with each column boxed by its bound pattern — free to
  // [-1, 1], lower-only to [0, 1], upper-only to [-1, 0], boxed and fixed
  // to [0, 0]. Every column is boxed, so every basis is dual feasible and
  // RunDual solves it as it stands. Since cᵀx = dᵀx on Ax = 0, the optimum
  // is minus the least total dual infeasibility over all bases.
  std::vector<double> lower(num_cols_), upper(num_cols_);
  for (int j = 0; j < num_cols_; ++j) {
    lower[j] = std::isfinite(lower_[j]) ? 0.0 : -1.0;
    upper[j] = std::isfinite(upper_[j]) ? 0.0 : 1.0;
  }
  std::vector<double> rhs(num_rows_, 0.0);
  lower_.swap(lower);
  upper_.swap(upper);
  rhs_.swap(rhs);
  PlaceNonbasics(d, options_.optimality_tol);
  RecomputeBasicValues();
  LpStatus status = RunDual(MaxIterations(), d);
  lower_.swap(lower);
  upper_.swap(upper);
  rhs_.swap(rhs);
  phase1_iterations_ = iterations_;
  // x = 0 is feasible for the subproblem, so its dual never proves
  // infeasibility except through numerical trouble.
  if (status == LpStatus::kInfeasible) return LpStatus::kNumericalFailure;
  if (status != LpStatus::kOptimal) return status;

  // Optimum 0: the final basis is dual feasible for the real bounds, within
  // the loosened tolerance Reoptimize() also accepts.
  ComputeReducedCosts(d);
  if (PlaceNonbasics(d, 10.0 * options_.optimality_tol)) {
    RecomputeBasicValues();
    return LpStatus::kOptimal;
  }

  // Optimum < 0: the LP is dual infeasible, so it is unbounded if it is
  // feasible at all. A zero-cost run decides; its slack start is trivially
  // dual feasible.
  std::vector<double> cost(num_cols_, 0.0);
  cost_.swap(cost);
  SetSlackBasis();
  std::fill(d.begin(), d.end(), 0.0);
  PlaceNonbasics(d, 0.0);
  status = Refactorize() ? RunDual(MaxIterations(), d)
                         : LpStatus::kNumericalFailure;
  cost_.swap(cost);
  phase1_iterations_ = iterations_;
  return status == LpStatus::kOptimal ? LpStatus::kUnbounded : status;
}

LpResult SimplexSolver::SolveWithRetry() {
  Span span("lp_solve", "lp", ObsLevel::kFull);
  LpResult result = Solve();
  if (result.status == LpStatus::kNumericalFailure) {
    // One retry with tighter tolerances: a short Forrest–Tomlin update
    // window and a stricter pivot floor keep the factorization accurate
    // when the default schedule drifted.
    const SimplexOptions saved = options_;
    options_.refactor_interval = 20;
    options_.pivot_tol = 1e-10;
    result = Solve();
    options_ = saved;
  }
  return result;
}

Basis SimplexSolver::SaveBasis() const {
  Basis basis;
  basis.basic_of_row_ = basis_;
  basis.state_.resize(num_cols_);
  for (int j = 0; j < num_cols_; ++j) {
    basis.state_[j] = static_cast<uint8_t>(state_[j]);
  }
  basis.valid_ = basis_ready_;
  return basis;
}

bool SimplexSolver::LoadBasis(const Basis& basis) {
  if (!basis.valid_ || basis.num_rows() != num_rows_ ||
      static_cast<int>(basis.state_.size()) != num_cols_) {
    return false;
  }
  if (options_.audit_level != AuditLevel::kOff) {
    // Basis-header audit: each row's basic column in range and unique, and
    // the snapshot's state vector agreeing with the header. A corrupt
    // snapshot is counted as an audit failure and rejected — the caller's
    // ladder falls back to a cold solve instead of factorizing garbage.
    ++audits_run_total_;
    bool consistent =
        BasisHeaderConsistent(basis.basic_of_row_, num_cols_);
    if (consistent) {
      for (int col : basis.basic_of_row_) {
        if (basis.state_[col] != static_cast<uint8_t>(VarState::kBasic)) {
          consistent = false;
          break;
        }
      }
    }
    if (!consistent) {
      ++audit_failures_total_;
      VPART_LOG(Warning) << "lp audit: rejected inconsistent basis snapshot";
      return false;
    }
  }
  // Loading the basis the solver already holds (the common plunge case:
  // a child reoptimizes right after its parent solved) keeps the live
  // factorization; anything else forces a rebuild on the next Reoptimize.
  factor_synced_ = factor_synced_ && basis.basic_of_row_ == basis_;
  basis_ = basis.basic_of_row_;
  for (int j = 0; j < num_cols_; ++j) {
    state_[j] = static_cast<VarState>(basis.state_[j]);
  }
  basis_ready_ = true;
  return true;
}

LpStatus SimplexSolver::RunDual(long max_iterations, std::vector<double>& d) {
  const std::vector<double>& w = column_.value;
  const std::vector<double>& alpha = alpha_.value;
  struct Candidate {
    int j;
    double ratio;
    double abs_alpha;
  };
  std::vector<Candidate> cands;
  std::vector<int> flips;
  double last_infeasibility = kLpInfinity;
  int consecutive_repairs = 0;

  // Reduced costs arrive verified and are updated incrementally per pivot
  // (d'_j = d_j - (d_q/alpha_q)*alpha_j over the already-computed alpha
  // row); every refactorization recomputes them from scratch, which bounds
  // the incremental drift at refactor_interval pivots.
  if (options_.use_steepest_edge) dse_.Reset(num_rows_);

  while (true) {
    if (iterations_ >= max_iterations) return LpStatus::kIterationLimit;
    if ((iterations_ & 63) == 0 && deadline_.Expired()) {
      return LpStatus::kTimeLimit;
    }

    // Leaving row: dual steepest edge scores violation²/gamma (steepest
    // ascent in the dual); plain mode takes the most infeasible row, and
    // Bland mode the infeasible row with the smallest basic column index.
    int r = -1;
    double best_score = 0.0;
    double total_infeasibility = 0.0;
    for (int i = 0; i < num_rows_; ++i) {
      const double violation = row_infeasibility_[i];
      total_infeasibility += violation;
      if (violation <= options_.feasibility_tol) continue;
      if (use_bland_) {
        if (r < 0 || basis_[i] < basis_[r]) r = i;
      } else {
        const double score = options_.use_steepest_edge
                                 ? dse_.Score(i, violation)
                                 : violation;
        if (score > best_score) {
          best_score = score;
          r = i;
        }
      }
    }
    if (r < 0) {  // primal + dual feasible
      if (options_.audit_level == AuditLevel::kFull) AuditRowInfeasibility();
      return LpStatus::kOptimal;
    }

    // Degeneracy watch: no strict progress for stall_threshold pivots
    // switches both selection rules to Bland's. The isfinite guard seeds
    // the baseline on the first pivot (inf - inf is NaN, which would
    // otherwise make this branch unreachable).
    if (!std::isfinite(last_infeasibility) ||
        total_infeasibility <
            last_infeasibility - 1e-12 * (1.0 + last_infeasibility)) {
      stall_count_ = 0;
      last_infeasibility = total_infeasibility;
    } else if (++stall_count_ > options_.stall_threshold) {
      use_bland_ = true;
    }

    const int leaving = basis_[r];
    const bool below =
        std::isfinite(lower_[leaving]) && xval_[leaving] < lower_[leaving];
    // infeas > 0 when the basic variable sits above its upper bound.
    double infeas = below ? xval_[leaving] - lower_[leaving]
                          : xval_[leaving] - upper_[leaving];

    // Row r of B^{-1}A: alpha_j = rho·a_j with rho = B^{-T} e_r, priced
    // row-wise over rho's nonzeros. The full row (not just the eligible
    // candidates) feeds the post-pivot update.
    rho_.Clear();
    rho_.value[r] = 1.0;
    rho_.index.push_back(r);
    factor_.Btran(rho_);
    PricePivotRow(rho_);

    // Dual ratio test over the touched columns. Short step (Bland, or
    // bound flips disabled): the entering column minimizes |d_j|/|alpha_j|
    // among the sign-eligible nonbasics, near-ties going to the lowest
    // column index. Long step: collect every eligible breakpoint instead
    // and walk them below.
    const bool long_step = options_.use_bound_flips && !use_bland_;
    if (!long_step) std::sort(alpha_.index.begin(), alpha_.index.end());
    cands.clear();
    int entering = -1;
    double best_ratio = kLpInfinity;
    double best_alpha = 0.0;
    double entering_alpha = 0.0;
    for (int j : alpha_.index) {
      const double a = alpha[j];
      if (std::abs(a) <= options_.pivot_tol) continue;
      // The entering step is theta = infeas / alpha; its sign must move the
      // entering variable off its bound in a feasible direction.
      const bool at_lower = state_[j] == VarState::kAtLower;
      const bool free_var =
          !std::isfinite(lower_[j]) && !std::isfinite(upper_[j]);
      const double theta_sign = infeas / a;
      if (!free_var) {
        if (at_lower && theta_sign <= 0) continue;
        if (!at_lower && theta_sign >= 0) continue;
      }
      double numerator;
      if (free_var) {
        numerator = std::abs(d[j]);
      } else if (at_lower) {
        numerator = std::max(d[j], 0.0);  // clamp tolerance-level noise
      } else {
        numerator = std::max(-d[j], 0.0);
      }
      const double ratio = numerator / std::abs(a);
      if (long_step) {
        cands.push_back({j, ratio, std::abs(a)});
        continue;
      }
      const bool better =
          use_bland_
              ? ratio < best_ratio - 1e-12
              : (ratio < best_ratio - 1e-12 ||
                 (ratio < best_ratio + 1e-12 &&
                  std::abs(a) > std::abs(best_alpha)));
      if (better) {
        best_ratio = ratio;
        best_alpha = a;
        entering = j;
        entering_alpha = a;
      }
    }

    // Long-step (bound-flipping) walk: passing a boxed breakpoint flips
    // that variable across its box and reduces the dual slope by
    // |alpha|·span; the first breakpoint the remaining slope cannot pass
    // enters the basis. The entering ratio bounds every flipped ratio, so
    // all flipped reduced costs change sign consistently with their new
    // bound once the pivot's dual step is applied.
    // Breakpoints are taken in (ratio, -|alpha|, j) order from a heap: the
    // walk usually stops after a few, so sorting them all would be waste.
    flips.clear();
    if (long_step) {
      const auto after = [](const Candidate& a, const Candidate& b) {
        if (a.ratio != b.ratio) return a.ratio > b.ratio;
        if (a.abs_alpha != b.abs_alpha) return a.abs_alpha < b.abs_alpha;
        return a.j > b.j;
      };
      std::make_heap(cands.begin(), cands.end(), after);
      double slope = std::abs(infeas);
      while (!cands.empty()) {
        std::pop_heap(cands.begin(), cands.end(), after);
        const Candidate cand = cands.back();
        cands.pop_back();
        const int j = cand.j;
        const bool boxed =
            std::isfinite(lower_[j]) && std::isfinite(upper_[j]);
        const double gain =
            boxed ? (upper_[j] - lower_[j]) * cand.abs_alpha : kLpInfinity;
        if (!boxed || slope - gain <= options_.feasibility_tol) {
          entering = j;
          entering_alpha = alpha[j];
          break;
        }
        flips.push_back(j);
        slope -= gain;
      }
    }
    if (entering < 0) {
      // Dual unbounded: no eligible entering column, or (long step) every
      // breakpoint flipped with slope to spare — either way the violated
      // row cannot be repaired, proving the LP primal infeasible (sound
      // because the start basis was verified dual feasible). Walked flips
      // were never applied; they only existed on the walk.
      return LpStatus::kInfeasible;
    }

    // FTRAN the entering column and cross-check the pivot against the
    // BTRAN row *before* any state changes, so a repair retries cleanly.
    factor_.FtranColumn(col_start_, row_index_, value_, entering, column_);
    if (std::abs(w[r]) <= options_.pivot_tol ||
        std::abs(w[r] - entering_alpha) >
            0.5 * std::abs(w[r]) + options_.feasibility_tol) {
      // FTRAN and BTRAN disagree about the pivot: the factorization has
      // drifted beyond trust.
      factor_.MarkUnstable();
      if (++consecutive_repairs > 2 || !Refactorize()) {
        return LpStatus::kNumericalFailure;
      }
      ComputeReducedCosts(d);  // fresh factorization: re-price from scratch
      continue;
    }
    consecutive_repairs = 0;

    // Apply the harvested bound flips: nonbasics jump across their box in
    // bulk, the basics absorb the combined column delta via one FTRAN.
    if (!flips.empty()) {
      flip_column_.Clear();
      std::vector<double>& flip_col = flip_column_.value;
      for (int j : flips) {
        const bool to_upper = state_[j] == VarState::kAtLower;
        const double delta =
            to_upper ? upper_[j] - lower_[j] : lower_[j] - upper_[j];
        state_[j] = to_upper ? VarState::kAtUpper : VarState::kAtLower;
        xval_[j] = to_upper ? upper_[j] : lower_[j];
        for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
          const int i = row_index_[k];
          if (flip_col[i] == 0.0) flip_column_.index.push_back(i);
          flip_col[i] += value_[k] * delta;
        }
        ++bound_flips_;
      }
      factor_.Ftran(flip_column_);
      for (int i : flip_column_.index) {
        if (flip_col[i] != 0.0) xval_[basis_[i]] -= flip_col[i];
        row_infeasibility_[i] = RowInfeasibility(i);
      }
      // The leaving variable's violation shrank by the flipped mass; a
      // numerically crossed sign degrades to a degenerate pivot.
      infeas = below ? xval_[leaving] - lower_[leaving]
                     : xval_[leaving] - upper_[leaving];
      if (below ? infeas > 0 : infeas < 0) infeas = 0;
    }

    // The step moves only w's rows; their infeasibilities follow (row r's
    // is redone below, once its new basic variable is in place).
    const double theta = infeas / w[r];
    for (int i : column_.index) {
      if (w[i] != 0.0) xval_[basis_[i]] -= theta * w[i];
      row_infeasibility_[i] = RowInfeasibility(i);
    }
    xval_[entering] += theta;
    xval_[leaving] = below ? lower_[leaving] : upper_[leaving];
    state_[leaving] = below ? VarState::kAtLower : VarState::kAtUpper;

    // Incremental dual update over the alpha row, before the basis flips:
    // the entering column's reduced cost zeroes out, the leaving variable
    // picks up -dual_step, everything else shifts by dual_step * alpha_j.
    const double dual_step = d[entering] / entering_alpha;
    if (dual_step != 0.0) {
      for (int j : alpha_.index) {
        if (alpha[j] != 0.0) d[j] -= dual_step * alpha[j];
      }
    }
    d[entering] = 0.0;
    d[leaving] = -dual_step;

    if (options_.use_steepest_edge && !use_bland_) {
      dse_.UpdateOnPivot(column_, r, w[r]);
    }

    state_[entering] = VarState::kBasic;
    basis_[r] = entering;
    row_infeasibility_[r] = RowInfeasibility(r);

    bool refactorized = false;
    if (!UpdateFactorization(entering, r, refactorized)) {
      return LpStatus::kNumericalFailure;
    }
    if (refactorized) ComputeReducedCosts(d);
    ++iterations_;
  }
}

LpResult SimplexSolver::Reoptimize() {
  Span span("lp_reoptimize", "lp", ObsLevel::kFull);
  ResetCallCounters();
  // Every bail-out below reports the same "warm path unusable" result;
  // the caller's ladder then falls back to a cold Solve().
  auto fail = [this]() {
    return FinishResult(LpStatus::kNumericalFailure, /*warm=*/true);
  };
  if (!basis_ready_) return fail();

  // Snap nonbasic variables onto the (possibly changed) bounds. States that
  // no longer make sense (at-upper with the bound gone) degrade to the
  // nearest finite bound, or 0 for free variables.
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (state_[j] == VarState::kAtUpper && !std::isfinite(upper_[j])) {
      state_[j] = VarState::kAtLower;
    }
    if (state_[j] == VarState::kAtLower && !std::isfinite(lower_[j]) &&
        std::isfinite(upper_[j])) {
      // Keep the free-at-zero convention only for doubly-infinite bounds.
      state_[j] = VarState::kAtUpper;
    }
    xval_[j] = state_[j] == VarState::kAtUpper
                   ? upper_[j]
                   : (std::isfinite(lower_[j]) ? lower_[j] : 0.0);
  }

  // Reuse the live factorization when the loaded basis is the one the
  // solver already factorized (the plunging-child fast path); only the
  // basic values need recomputing under the new bounds. A stale, invalid,
  // or trigger-due factorization is rebuilt instead.
  if (!factor_synced_ || !factor_.valid() || factor_.NeedsRefactorization()) {
    if (!Refactorize()) return fail();
  } else {
    RecomputeBasicValues();
  }

  // The dual simplex needs a dual-feasible start; the parent's optimal
  // basis is one (bound changes leave reduced costs untouched), but verify
  // within a loosened tolerance so a drifted snapshot falls back cold
  // instead of "proving" a wrong infeasibility.
  std::vector<double> d;
  ComputeReducedCosts(d);
  const double dual_tol = 10.0 * options_.optimality_tol;
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;
    const bool free_var =
        !std::isfinite(lower_[j]) && !std::isfinite(upper_[j]);
    if (free_var) {
      if (std::abs(d[j]) > dual_tol) return fail();
    } else if (state_[j] == VarState::kAtLower ? d[j] < -dual_tol
                                               : d[j] > dual_tol) {
      return fail();
    }
  }

  // The verified reduced costs seed the dual loop as they are.
  return FinishResult(RunDual(MaxIterations(), d), /*warm=*/true);
}

LpResult SolveLp(const LpModel& model, const SimplexOptions& options,
                 const std::vector<std::pair<double, double>>*
                     bound_overrides) {
  SimplexSolver solver(model, options);
  solver.SetBounds(bound_overrides);
  return solver.SolveWithRetry();
}

}  // namespace vpart
