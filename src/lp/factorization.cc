#include "lp/factorization.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

namespace vpart {

namespace {

/// Entries whose magnitude falls below this after an elimination update are
/// treated as exact cancellations and dropped from the sparse structures.
constexpr double kDropTol = 1e-14;

/// Empties every inner vector, keeping its capacity for the next use.
template <typename T>
void ClearEach(std::vector<std::vector<T>>& lists, int n) {
  lists.resize(n);
  for (auto& list : lists) list.clear();
}

}  // namespace

void LuFactorization::Clear() {
  valid_ = false;
  updates_ = 0;
  nonzeros_ = 0;
  eta_row_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_index_.clear();
  eta_value_.clear();
  active_column_etas_.clear();
  order_.clear();
  pivot_row_.assign(num_rows_, -1);
  pos_of_.assign(num_rows_, -1);
  diag_.assign(num_rows_, 0.0);
  ClearEach(ucols_, num_rows_);
  ClearEach(urows_, num_rows_);
  workspace_.assign(num_rows_, 0.0);
  support_.clear();
  spike_column_ = -1;
  solve_.assign(num_rows_, 0.0);
  rowwork_.assign(num_rows_, 0.0);
  if (static_cast<int>(live_pos_.size()) != num_rows_) {
    live_pos_.assign(num_rows_, 0u);
    live_row_.assign(num_rows_, 0u);
    epoch_ = 0;
  }
  row_bits_.assign((num_rows_ + 63) / 64, 0);
}

long LuFactorization::factor_nonzeros() const {
  long nnz = num_rows_;  // diagonals
  nnz += static_cast<long>(eta_row_.size() + eta_index_.size());
  for (const auto& col : ucols_) nnz += static_cast<long>(col.size());
  return nnz;
}

void LuFactorization::Refile(int k) {
  if (pivoted_col_[k]) return;
  const int c = col_count_[k];
  if (c >= 0 && c <= num_rows_ && filed_count_[k] != c) {
    buckets_[c].push_back(k);
    filed_count_[k] = c;
  }
}

bool LuFactorization::SelectPivot(int& row, int& col) {
  // Threshold partial pivoting within the sparsest candidate columns, best
  // Markowitz score (r-1)(c-1) among them. Bucket 1 holds the column
  // singletons (basic logicals, and columns whose other rows are already
  // pivoted): the first usable one scores 0 and is taken at once, so they
  // are all eliminated before any longer column is examined.
  const int m = num_rows_;
  int best_row = -1, best_col = -1;
  long best_score = -1;
  double best_abs = 0.0;
  int examined = 0;
  for (int c = 1; c <= m && best_score != 0; ++c) {
    auto& bucket = buckets_[c];
    for (size_t idx = bucket.size(); idx-- > 0;) {
      const int k = bucket[idx];
      if (pivoted_col_[k] || col_count_[k] != c) {
        // Stale entry (the count moved on): drop it and refile.
        bucket[idx] = bucket.back();
        bucket.pop_back();
        Refile(k);
        continue;
      }
      double colmax = 0.0;
      for (const auto& [i, v] : acols_[k]) {
        colmax = std::max(colmax, std::abs(v));
      }
      if (colmax < options_.pivot_tol) continue;  // revisit once updated
      const double eligible = std::max(options_.pivot_tol,
                                       options_.markowitz_threshold * colmax);
      int krow = -1;
      double kabs = 0.0;
      long kscore = -1;
      for (const auto& [i, v] : acols_[k]) {
        const double a = std::abs(v);
        if (a + 1e-300 < eligible) continue;
        const long score = static_cast<long>(row_count_[i] - 1) * (c - 1);
        if (kscore < 0 || score < kscore || (score == kscore && a > kabs)) {
          kscore = score;
          krow = i;
          kabs = a;
        }
      }
      if (krow < 0) continue;
      if (best_score < 0 || kscore < best_score ||
          (kscore == best_score && kabs > best_abs)) {
        best_score = kscore;
        best_row = krow;
        best_col = k;
        best_abs = kabs;
      }
      if (++examined >= options_.candidate_limit || best_score == 0) break;
    }
    if (best_col >= 0 &&
        (examined >= options_.candidate_limit || best_score == 0)) {
      break;
    }
  }
  row = best_row;
  col = best_col;
  return best_col >= 0;
}

bool LuFactorization::Factorize(const std::vector<int>& col_start,
                                const std::vector<int>& row_index,
                                const std::vector<double>& value,
                                const std::vector<int>& basis, int num_rows) {
  num_rows_ = num_rows;
  Clear();
  const int m = num_rows;
  if (static_cast<int>(basis.size()) != m) return false;

  // Active submatrix, column-wise over basis positions. Entries only ever
  // reference active (unpivoted) rows: a pivoted row's entries are removed
  // from every affected column during its elimination step. row_cols_ is a
  // superset of the positions whose column touches each row (append-only;
  // entries are validated against acols_ on use).
  ClearEach(acols_, m);
  ClearEach(row_cols_, m);
  col_count_.assign(m, 0);
  row_count_.assign(m, 0);
  for (int k = 0; k < m; ++k) {
    const int j = basis[k];
    if (j < 0) return false;
    for (int idx = col_start[j]; idx < col_start[j + 1]; ++idx) {
      const double v = value[idx];
      if (v == 0.0) continue;
      const int i = row_index[idx];
      acols_[k].emplace_back(i, v);
      row_cols_[i].push_back(k);
      ++row_count_[i];
    }
    col_count_[k] = static_cast<int>(acols_[k].size());
    if (col_count_[k] == 0) return false;  // structurally singular
  }

  pivoted_row_.assign(m, 0);
  pivoted_col_.assign(m, 0);
  // Markowitz candidate buckets keyed by active column count. Entries can
  // be stale (the count moved on); they are validated and refiled on scan.
  ClearEach(buckets_, m + 1);
  filed_count_.assign(m, -1);
  for (int k = 0; k < m; ++k) Refile(k);

  // Presence map for the scatter/gather column updates.
  present_.assign(m, 0);

  nonzeros_ = m;  // diagonals
  for (int step = 0; step < m; ++step) {
    int pr = -1, pk = -1;
    if (!SelectPivot(pr, pk)) {
      // No bucket produced a candidate above pivot_tol: numerically
      // singular basis.
      Clear();
      return false;
    }
    double piv = 0.0;
    for (const auto& [i, v] : acols_[pk]) {
      if (i == pr) piv = v;
    }
    assert(piv != 0.0);

    // L eta: the pivot column's other active entries.
    const int eta_begin = static_cast<int>(eta_index_.size());
    for (const auto& [i, v] : acols_[pk]) {
      if (i != pr) {
        eta_index_.push_back(i);
        eta_value_.push_back(v);
        --row_count_[i];  // column pk leaves the active matrix
      }
    }
    const int eta_end = static_cast<int>(eta_index_.size());
    eta_row_.push_back(pr);
    eta_pivot_.push_back(piv);
    eta_start_.push_back(eta_end);
    nonzeros_ += eta_end - eta_begin + 1;

    pivoted_row_[pr] = 1;
    pivoted_col_[pk] = 1;
    pivot_row_[pk] = pr;
    pos_of_[pk] = step;
    order_.push_back(pk);
    diag_[pk] = 1.0;

    // Eliminate row pr from every active column it touches, recording the
    // U row (values divided by the pivot) as it freezes. present_[] tags
    // each touched row: 1 = existing member of the column, 2 = fill.
    for (int k : row_cols_[pr]) {
      if (pivoted_col_[k]) continue;
      auto& col = acols_[k];
      double v = 0.0;
      bool found = false;
      for (const auto& [i, val] : col) {
        if (i == pr) {
          v = val;
          found = true;
          break;
        }
      }
      if (!found) continue;  // stale membership
      const double mult = v / piv;
      ucols_[k].emplace_back(pr, mult);
      urows_[pr].emplace_back(k, mult);
      ++nonzeros_;

      if (eta_begin == eta_end) {
        // Singleton pivot column: there is nothing to subtract, so the
        // update just drops row pr, in place and in order (and, like the
        // general path, any entry at drop-tolerance level).
        size_t kept = 0;
        for (const auto& entry : col) {
          if (entry.first == pr) continue;
          if (std::abs(entry.second) > kDropTol) {
            col[kept++] = entry;
          } else {
            --row_count_[entry.first];
          }
        }
        col.erase(col.begin() + static_cast<long>(kept), col.end());
      } else {
        // Column update: drop row pr, subtract mult * pivot column.
        touched_.clear();
        for (const auto& [i, val] : col) {
          if (i == pr) continue;
          workspace_[i] = val;
          present_[i] = 1;
          touched_.push_back(i);
        }
        for (int idx = eta_begin; idx < eta_end; ++idx) {
          const int i = eta_index_[idx];
          if (!present_[i]) {
            present_[i] = 2;  // fill candidate
            touched_.push_back(i);
            workspace_[i] = 0.0;
          }
          workspace_[i] -= eta_value_[idx] * mult;
        }
        col.clear();
        for (int i : touched_) {
          const double w = workspace_[i];
          if (std::abs(w) > kDropTol) {
            col.emplace_back(i, w);
            if (present_[i] == 2) {  // realized fill
              ++row_count_[i];
              row_cols_[i].push_back(k);
            }
          } else if (present_[i] == 1) {  // exact cancellation
            --row_count_[i];
          }
          workspace_[i] = 0.0;
          present_[i] = 0;
        }
      }
      col_count_[k] = static_cast<int>(col.size());
      Refile(k);
    }
  }

  BuildLeftRows();
  fresh_nonzeros_ = nonzeros_;
  valid_ = true;
  ++stats_.factorizations;
  return true;
}

void LuFactorization::BuildLeftRows() {
  // A column eta with no entries and a unit pivot (a basic logical's) maps
  // every vector to itself, exactly: FTRAN skips it.
  const int m = num_rows_;
  active_column_etas_.clear();
  for (int e = 0; e < m; ++e) {
    if (eta_start_[e + 1] > eta_start_[e] || eta_pivot_[e] != 1.0) {
      active_column_etas_.push_back(e);
    }
  }
  // Counting sort of the column etas' entries by row.
  const int end = eta_start_[m];
  lrow_start_.assign(m + 1, 0);
  for (int idx = 0; idx < end; ++idx) ++lrow_start_[eta_index_[idx] + 1];
  for (int i = 0; i < m; ++i) lrow_start_[i + 1] += lrow_start_[i];
  lrow_target_.resize(end);
  touched_.assign(lrow_start_.begin(), lrow_start_.end() - 1);  // cursors
  for (int e = 0; e < m; ++e) {
    for (int idx = eta_start_[e]; idx < eta_start_[e + 1]; ++idx) {
      lrow_target_[touched_[eta_index_[idx]]++] = eta_row_[e];
    }
  }
}

template <bool kTrackSupport>
void LuFactorization::ApplyLeftFactor(std::vector<double>& w,
                                      std::vector<int>* support) const {
  const int num_etas = static_cast<int>(eta_row_.size());
  for (int e : active_column_etas_) {
    const int row = eta_row_[e];
    const double wr = w[row];
    if (wr == 0.0) continue;
    const double piv = wr / eta_pivot_[e];
    w[row] = piv;
    for (int idx = eta_start_[e]; idx < eta_start_[e + 1]; ++idx) {
      const int i = eta_index_[idx];
      const double delta = eta_value_[idx] * piv;
      if (kTrackSupport && w[i] == 0.0 && delta != 0.0) support->push_back(i);
      w[i] -= delta;
    }
  }
  for (int e = num_rows_; e < num_etas; ++e) {  // row etas
    double dot = 0.0;
    for (int idx = eta_start_[e]; idx < eta_start_[e + 1]; ++idx) {
      dot += eta_value_[idx] * w[eta_index_[idx]];
    }
    const int row = eta_row_[e];
    if (kTrackSupport && dot != 0.0 && w[row] == 0.0) support->push_back(row);
    w[row] -= dot;
  }
}

void LuFactorization::Ftran(SparseVector& rhs) const {
  if (!valid_) return;
  ApplyLeftFactor<false>(rhs.value, nullptr);
  SolveUpper(rhs);
}

void LuFactorization::FtranColumn(const std::vector<int>& col_start,
                                  const std::vector<int>& row_index,
                                  const std::vector<double>& value, int j,
                                  SparseVector& out) {
  out.Clear();
  if (!valid_) {
    for (int idx = col_start[j]; idx < col_start[j + 1]; ++idx) {
      out.value[row_index[idx]] = value[idx];
      out.index.push_back(row_index[idx]);
    }
    return;
  }
  // The partial FTRAN applies the left factor exactly as Ftran() does.
  PartialFtran(col_start, row_index, value, j);
  for (int i : support_) out.value[i] = workspace_[i];
  SolveUpper(out);
}

void LuFactorization::SolveUpper(SparseVector& rhs) const {
  // Reverse pivot order, scatter form (unit or explicit diagonals): a zero
  // skips its column. The solution is indexed by basis position; every
  // position is written, so it is zero off the index list.
  std::vector<double>& w = rhs.value;
  rhs.index.clear();
  for (int t = num_rows_ - 1; t >= 0; --t) {
    const int k = order_[t];
    const double wr = w[pivot_row_[k]];
    if (wr == 0.0) {
      solve_[k] = 0.0;
      continue;
    }
    const double xk = wr / diag_[k];
    solve_[k] = xk;
    rhs.index.push_back(k);
    for (const auto& [i, v] : ucols_[k]) w[i] -= v * xk;
  }
  w.swap(solve_);
}

void LuFactorization::Btran(SparseVector& rhs) const {
  if (!valid_) return;
  std::vector<double>& v = rhs.value;
  // Each entry of the solution is the same dot product as in a dense
  // triangular solve, summed in the same order, so results do not depend
  // on sparsity. What is sparse is which entries get computed: a nonzero
  // result marks, through the row-wise copies, the entries that read it,
  // and an entry nothing marked is zero (U) or unchanged (L) without
  // touching its factor column.
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: no stale mark may equal the new epoch
    std::fill(live_pos_.begin(), live_pos_.end(), 0u);
    std::fill(live_row_.begin(), live_row_.end(), 0u);
    epoch_ = 1;
  }
  // Uᵀ in pivot order; z lives in row space and every row is written.
  for (int t = 0; t < num_rows_; ++t) {
    const int k = order_[t];
    const int r = pivot_row_[k];
    if (v[k] == 0.0 && live_pos_[k] != epoch_) {
      solve_[r] = 0.0;
      continue;
    }
    double acc = v[k];
    for (const auto& [i, val] : ucols_[k]) acc -= val * solve_[i];
    const double zr = acc / diag_[k];
    solve_[r] = zr;
    if (zr == 0.0) continue;
    for (const auto& entry : urows_[r]) live_pos_[entry.first] = epoch_;
  }
  // Transposed left factor in reverse: the row etas (scatters), then the
  // column etas. Every row is the pivot row of exactly one column eta and
  // is final once that eta is reached, so the nonzero pattern is collected
  // there, in a bitmap that yields it in ascending row order.
  for (int e = static_cast<int>(eta_row_.size()) - 1; e >= num_rows_; --e) {
    const double vr = solve_[eta_row_[e]];
    if (vr == 0.0) continue;
    for (int idx = eta_start_[e]; idx < eta_start_[e + 1]; ++idx) {
      solve_[eta_index_[idx]] -= eta_value_[idx] * vr;
    }
  }
  for (int e = num_rows_ - 1; e >= 0; --e) {
    const int row = eta_row_[e];
    if (live_row_[row] == epoch_) {
      double dot = 0.0;
      for (int idx = eta_start_[e]; idx < eta_start_[e + 1]; ++idx) {
        dot += eta_value_[idx] * solve_[eta_index_[idx]];
      }
      solve_[row] = (solve_[row] - dot) / eta_pivot_[e];
    } else if (solve_[row] != 0.0) {
      solve_[row] /= eta_pivot_[e];
    }
    if (solve_[row] == 0.0) continue;
    row_bits_[row >> 6] |= uint64_t{1} << (row & 63);
    for (int idx = lrow_start_[row]; idx < lrow_start_[row + 1]; ++idx) {
      live_row_[lrow_target_[idx]] = epoch_;
    }
  }
  v.swap(solve_);
  rhs.index.clear();
  for (size_t word = 0; word < row_bits_.size(); ++word) {
    for (uint64_t bits = row_bits_[word]; bits != 0; bits &= bits - 1) {
      rhs.index.push_back(static_cast<int>(word * 64) +
                          __builtin_ctzll(bits));
    }
    row_bits_[word] = 0;
  }
}

void LuFactorization::PartialFtran(const std::vector<int>& col_start,
                                   const std::vector<int>& row_index,
                                   const std::vector<double>& value, int j) {
  DiscardSpike();
  for (int idx = col_start[j]; idx < col_start[j + 1]; ++idx) {
    if (value[idx] == 0.0) continue;
    if (workspace_[row_index[idx]] == 0.0) support_.push_back(row_index[idx]);
    workspace_[row_index[idx]] += value[idx];
  }
  ApplyLeftFactor<true>(workspace_, &support_);
  spike_column_ = j;
}

void LuFactorization::DiscardSpike() {
  for (int i : support_) workspace_[i] = 0.0;
  support_.clear();
  spike_column_ = -1;
}

void LuFactorization::RemoveRowEntry(int row, int pos) {
  auto& entries = urows_[row];
  for (size_t idx = 0; idx < entries.size(); ++idx) {
    if (entries[idx].first == pos) {
      entries[idx] = entries.back();
      entries.pop_back();
      return;
    }
  }
}

void LuFactorization::RemoveColEntry(int pos, int row) {
  auto& entries = ucols_[pos];
  for (size_t idx = 0; idx < entries.size(); ++idx) {
    if (entries[idx].first == row) {
      entries[idx] = entries.back();
      entries.pop_back();
      return;
    }
  }
}

bool LuFactorization::Update(const std::vector<int>& col_start,
                             const std::vector<int>& row_index,
                             const std::vector<double>& value, int entering,
                             int pos) {
  if (!valid_) return false;
  const int t0 = pos_of_[pos];
  const int r0 = pivot_row_[pos];

  // Spike = L⁻¹ a_entering (partial FTRAN through the left factor only),
  // usually kept from the entering column's FtranColumn(). Either way it is
  // consumed below: installed into U, or zeroed on rejection.
  if (spike_column_ != entering) {
    PartialFtran(col_start, row_index, value, entering);
  }
  spike_column_ = -1;
  double spike_max = 0.0;
  for (int i : support_) {
    spike_max = std::max(spike_max, std::abs(workspace_[i]));
  }

  // Remove the leaving column of U.
  for (const auto& [i, v] : ucols_[pos]) {
    (void)v;
    RemoveRowEntry(i, pos);
  }
  nonzeros_ -= static_cast<long>(ucols_[pos].size());
  ucols_[pos].clear();
  diag_[pos] = 0.0;

  // Detach row r0's off-diagonal entries (all at later pivot positions);
  // they seed the Forrest–Tomlin row elimination.
  row_entries_.clear();
  row_entries_.swap(urows_[r0]);
  nonzeros_ -= static_cast<long>(row_entries_.size());
  for (const auto& [k, v] : row_entries_) {
    (void)v;
    RemoveColEntry(k, r0);
  }

  // Eliminate row r0 against the later pivot rows, in pivot order (a
  // min-heap on the order index); fill lands at still-later positions and
  // is eliminated in turn. rowwork_ is the dense row workspace
  // (position-indexed). The multipliers are appended to the eta arrays
  // tentatively and become a row eta only if the update is accepted.
  const auto later = std::greater<std::pair<int, int>>();
  heap_.clear();
  for (const auto& [k, v] : row_entries_) {
    rowwork_[k] = v;
    heap_.emplace_back(pos_of_[k], k);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  double dval = workspace_[r0];  // spike's diagonal seed
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const int k = heap_.back().second;
    heap_.pop_back();
    const double val = rowwork_[k];
    rowwork_[k] = 0.0;
    if (std::abs(val) <= kDropTol) continue;
    const int rj = pivot_row_[k];
    const double mu = val / diag_[k];
    eta_index_.push_back(rj);
    eta_value_.push_back(mu);
    for (const auto& [k2, v2] : urows_[rj]) {
      if (rowwork_[k2] == 0.0) {
        heap_.emplace_back(pos_of_[k2], k2);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
      rowwork_[k2] -= mu * v2;
    }
    // The row operation also folds the spike's rj entry into the diagonal.
    dval -= mu * workspace_[rj];
  }
  const int eta_begin = eta_start_.back();
  const int eta_end = static_cast<int>(eta_index_.size());

  // Stability gate: a vanishing new diagonal means the update cannot be
  // trusted — reject and force a refactorization.
  if (std::abs(dval) <
      std::max(options_.pivot_tol, options_.stability_tol * spike_max)) {
    for (int i : support_) workspace_[i] = 0.0;
    eta_index_.resize(eta_begin);
    eta_value_.resize(eta_begin);
    ++stats_.refactor_stability;
    valid_ = false;
    return false;
  }

  // Install the spike as column `pos`, diagonal dval at row r0. Entries
  // are zeroed as they are consumed so a row that appears twice in
  // `support_` (cancelled and refilled during the partial FTRAN) cannot be
  // installed twice.
  diag_[pos] = dval;
  for (int i : support_) {
    const double v = workspace_[i];
    workspace_[i] = 0.0;
    if (i == r0 || std::abs(v) <= kDropTol) continue;
    ucols_[pos].emplace_back(i, v);
    urows_[i].emplace_back(pos, v);
  }
  nonzeros_ += static_cast<long>(ucols_[pos].size());

  // Move `pos` to the end of the pivot order.
  order_.erase(order_.begin() + t0);
  order_.push_back(pos);
  for (int t = t0; t < num_rows_; ++t) pos_of_[order_[t]] = t;

  if (eta_end > eta_begin) {
    eta_row_.push_back(r0);
    eta_start_.push_back(eta_end);
    nonzeros_ += eta_end - eta_begin + 1;
  }

  ++updates_;
  ++stats_.ft_updates;
  return true;
}

bool LuFactorization::NeedsRefactorization() {
  if (!valid_) return true;
  if (updates_ >= options_.refactor_interval) {
    ++stats_.refactor_updates;
    return true;
  }
  if (updates_ > 0 &&
      nonzeros_ > static_cast<long>(options_.fill_ratio *
                                    static_cast<double>(fresh_nonzeros_)) +
                      num_rows_) {
    ++stats_.refactor_fill;
    return true;
  }
  return false;
}

}  // namespace vpart
