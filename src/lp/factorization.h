#ifndef VPART_LP_FACTORIZATION_H_
#define VPART_LP_FACTORIZATION_H_

#include <cstdint>
#include <vector>

namespace vpart {

/// A dense value array with an explicit nonzero pattern: every entry of
/// `value` not listed in `index` is exactly zero. Listed entries may still
/// be zero (a cancellation), and only solver outputs promise a list
/// without repeats. Kernels loop over `index` instead of the full length,
/// so their cost follows the vector's nonzeros.
struct SparseVector {
  std::vector<double> value;
  std::vector<int> index;

  /// Resizes to n entries, all zero.
  void Reset(int n) {
    value.assign(n, 0.0);
    index.clear();
  }
  /// Zeroes the listed entries: O(listed), not O(n).
  void Clear() {
    for (int i : index) value[i] = 0.0;
    index.clear();
  }
};

/// Sparse LU factorization of a simplex basis with Forrest–Tomlin updates.
///
/// `Factorize()` computes B = L·U by right-looking Gaussian elimination with
/// Markowitz pivoting (pick the entry minimizing the fill bound
/// (row_count-1)·(col_count-1)) under threshold partial pivoting (only
/// entries within `markowitz_threshold` of their column's largest active
/// entry are pivot-eligible, so sparsity never buys instability). The basis
/// is addressed as columns of the caller's CSC matrix; basis *positions*
/// (indices into the caller's row -> column map) are preserved — unlike a
/// product-form rebuild, factorizing never permutes the caller's basis
/// order, which keeps Basis snapshots and steepest-edge weights stable.
///
/// `Update()` applies a Forrest–Tomlin modification when one basis column
/// is replaced: the spike L⁻¹a_q substitutes the leaving column of U, the
/// leaving pivot row is eliminated against the later pivot rows (recorded
/// as one row-transformation eta), and the pivot moves to the end of the
/// elimination order. U stays triangular in the pivot order, so FTRAN and
/// BTRAN keep their two-triangular-solve shape; cost per update is
/// proportional to the entries touched rather than to the pivot count
/// since the last rebuild (the failure mode of the old eta file).
///
/// `NeedsRefactorization()` reports when the accumulated updates should be
/// collapsed into a fresh factorization: after `refactor_interval` updates,
/// or when fill (L + row etas + U) outgrows `fill_ratio` times the fresh
/// factorization's nonzeros. A FALSE return from Update() is the stability
/// trigger: the new diagonal came out too small to trust and the caller
/// must refactorize instead. The three triggers are counted separately
/// (see Stats) and surface in telemetry.mip as refactor_updates /
/// refactor_fill / refactor_stability.
///
/// Index spaces (matching SimplexSolver): FTRAN maps a row-space vector b
/// to the position-space solution x of Bx = b (x[k] belongs to the basic
/// variable at position k); BTRAN maps a position-space cost vector to the
/// row-space multipliers pi of Bᵀpi = c. See src/lp/README.md for a worked
/// example.
///
/// Both solves skip zeros and return their result's nonzero pattern
/// (SparseVector), so their cost follows the nonzeros they touch. FTRAN
/// runs the column etas and U in scatter form. BTRAN follows the nonzeros
/// through the row-wise copy of U (urows_) and a row-wise copy of the
/// column etas built by Factorize(), and evaluates only the entries they
/// reach, each as the dot product a dense solve would form, in the same
/// order: the result is bit-identical to a dense BTRAN, and a unit-vector
/// BTRAN (a dual pivot row) stays hyper-sparse. Factorize() keeps its
/// workspaces as members and allocates nothing once warmed up; Update()
/// allocates only when a factor list outgrows its capacity.
///
/// Not thread-safe; one instance per SimplexSolver.
class LuFactorization {
 public:
  struct Options {
    /// Entries below this absolute magnitude are never pivots.
    double pivot_tol = 1e-8;
    /// Threshold partial pivoting: a pivot candidate must satisfy
    /// |a_ij| >= markowitz_threshold * max_i'|a_i'j| within its column.
    double markowitz_threshold = 0.1;
    /// Forrest–Tomlin updates accepted before NeedsRefactorization().
    int refactor_interval = 100;
    /// Refactorize when factor nonzeros exceed this multiple of the fresh
    /// factorization's nonzeros.
    double fill_ratio = 6.0;
    /// An update whose new diagonal is below
    /// max(pivot_tol, stability_tol * |spike|_inf) is rejected.
    double stability_tol = 1e-10;
    /// Markowitz candidate columns inspected per pivot beyond the first
    /// eligible one (more = sparser factors, slower factorize).
    int candidate_limit = 4;
  };

  struct Stats {
    long factorizations = 0;       ///< Fresh Factorize() calls that succeeded.
    long ft_updates = 0;           ///< Forrest–Tomlin updates applied.
    long refactor_updates = 0;     ///< Triggers: update-count cap reached.
    long refactor_fill = 0;        ///< Triggers: fill-ratio cap exceeded.
    long refactor_stability = 0;   ///< Triggers: rejected (unstable) update.
    void Reset() { *this = Stats(); }
  };

  LuFactorization() = default;
  explicit LuFactorization(const Options& options) : options_(options) {}

  const Options& options() const { return options_; }
  void set_options(const Options& options) { options_ = options; }

  /// Factorizes the basis given as columns of a CSC matrix:
  /// column j spans row_index/value[col_start[j] .. col_start[j+1]).
  /// `basis[k]` is the CSC column at basis position k; `num_rows` is m.
  /// Returns false (leaving the factorization invalid) on a singular or
  /// numerically unusable basis.
  bool Factorize(const std::vector<int>& col_start,
                 const std::vector<int>& row_index,
                 const std::vector<double>& value,
                 const std::vector<int>& basis, int num_rows);

  /// Forrest–Tomlin update after the basis change "column `entering` (a CSC
  /// column index) replaces the basic variable at position `pos`". Returns
  /// false when the update would be unstable — the factorization is then
  /// stale and the caller must Refactorize before the next solve.
  bool Update(const std::vector<int>& col_start,
              const std::vector<int>& row_index,
              const std::vector<double>& value, int entering, int pos);

  /// Solves Bx = b. On entry `rhs.value` holds b (row space, size m; the
  /// index list is ignored); on return it holds x (position space) and
  /// `rhs.index` lists x's nonzeros. No-op when !valid().
  void Ftran(SparseVector& rhs) const;

  /// Ftran() of CSC column `j` (the entering column of a pivot): `out`
  /// receives B⁻¹a_j and its index list. The spike L⁻¹a_j is kept, and the
  /// next Update() with entering column j uses it instead of recomputing
  /// it. With !valid(), `out` receives a_j itself (row space).
  void FtranColumn(const std::vector<int>& col_start,
                   const std::vector<int>& row_index,
                   const std::vector<double>& value, int j,
                   SparseVector& out);

  /// Solves Bᵀπ = c. On entry `rhs.value` holds c (position space, size m;
  /// the index list is ignored); on return it holds π (row space) and
  /// `rhs.index` lists π's nonzeros. No-op when !valid().
  void Btran(SparseVector& rhs) const;

  /// True between a successful Factorize() and the first rejected Update().
  bool valid() const { return valid_; }

  /// Caller-observed numerical distrust (e.g. an FTRAN/BTRAN disagreement
  /// on a pivot): invalidates the factorization and counts a stability
  /// trigger, so the forced rebuild shows up in telemetry like a rejected
  /// update would.
  void MarkUnstable() {
    valid_ = false;
    ++stats_.refactor_stability;
  }

  /// Update-count / fill triggers (stability is signalled by Update()
  /// returning false). Also counts the firing trigger into stats().
  bool NeedsRefactorization();

  int num_rows() const { return num_rows_; }
  /// Nonzeros currently held across L, the update etas, and U (diagonals
  /// included): a running count kept by Factorize() and Update(), O(1).
  long nonzeros() const { return nonzeros_; }
  /// The same count recomputed by walking every factor structure,
  /// O(nonzeros); checks nonzeros().
  long factor_nonzeros() const;
  int updates_since_factorize() const { return updates_; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  void Clear();
  /// Picks the Markowitz pivot of the active submatrix (see Factorize()).
  /// Returns false when no entry qualifies (numerically singular).
  bool SelectPivot(int& row, int& col);
  /// Files active position k in the bucket of its current column count.
  void Refile(int k);
  /// Applies the left factor (column etas, then row etas) to the row-space
  /// vector w in place. With kTrackSupport, appends every entry that turns
  /// nonzero to `support` (a superset of the result's pattern, repeats
  /// possible).
  template <bool kTrackSupport>
  void ApplyLeftFactor(std::vector<double>& w,
                       std::vector<int>* support) const;
  /// Back substitution on U: turns the row-space vector L⁻¹b in
  /// `rhs.value` into x = B⁻¹b (position space) and lists x's nonzeros.
  void SolveUpper(SparseVector& rhs) const;
  /// Scatters CSC column `j` into workspace_ and applies the left factor
  /// (partial FTRAN); the result is the spike L⁻¹a_j, its support in
  /// support_, and spike_column_ = j.
  void PartialFtran(const std::vector<int>& col_start,
                    const std::vector<int>& row_index,
                    const std::vector<double>& value, int j);
  /// Zeroes a kept spike so workspace_ is all-zero again.
  void DiscardSpike();
  /// Builds active_column_etas_ and the row-wise copy of the column etas
  /// used by Btran().
  void BuildLeftRows();
  void RemoveRowEntry(int row, int pos);
  void RemoveColEntry(int pos, int row);

  Options options_;
  int num_rows_ = 0;
  bool valid_ = false;
  int updates_ = 0;
  long nonzeros_ = 0;        // running count, see nonzeros()
  long fresh_nonzeros_ = 0;  // L + U nnz right after Factorize()
  Stats stats_;

  // Left factor: etas in application order, flat. Eta e has pivot row
  // eta_row_[e] and entries (eta_index_, eta_value_)[eta_start_[e] ..
  // eta_start_[e+1]). Etas [0, m) are the column etas of Factorize():
  //   w[row] /= eta_pivot_[e]; w[i] -= v_i * w[row]
  // (the classic Gauss column elimination, pivot kept explicit). Etas from
  // m on are the row etas appended by Update():
  //   w[row] -= sum_i v_i * w[i]
  // (the Forrest–Tomlin row elimination folded into the left factor).
  std::vector<int> eta_row_;
  std::vector<double> eta_pivot_;  // column etas only
  std::vector<int> eta_start_;
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;
  // The column etas FTRAN must apply (see BuildLeftRows()), in order.
  std::vector<int> active_column_etas_;
  // Row-wise copy of the column etas' pattern, for BTRAN: row r lists in
  // lrow_target_[lrow_start_[r] .. lrow_start_[r+1]) the pivot row of every
  // column eta with an entry at row r.
  std::vector<int> lrow_start_;
  std::vector<int> lrow_target_;

  // U, triangular in the elimination order `order_`:
  //  order_[t]   = basis position pivoted at step t
  //  pivot_row_[k] / pos_of_[k] = pivot row / order index of position k
  //  diag_[k]    = diagonal value of column k (1.0 from Factorize; real
  //                values after FT updates)
  //  ucols_[k]   = off-diagonal entries (row, value) of U column k
  //  urows_[r]   = off-diagonal entries (position k, value) of U row r
  std::vector<int> order_;
  std::vector<int> pivot_row_;
  std::vector<int> pos_of_;
  std::vector<double> diag_;
  std::vector<std::vector<std::pair<int, double>>> ucols_;
  std::vector<std::vector<std::pair<int, double>>> urows_;

  // Scratch, sized to num_rows_. workspace_ (row space) and rowwork_
  // (position space) are kept all-zero between uses; solve_ is swapped
  // with the caller's vector by FTRAN/BTRAN and must never be assumed
  // clean.
  mutable std::vector<double> workspace_;
  mutable std::vector<double> solve_;
  std::vector<double> rowwork_;
  std::vector<int> support_;
  int spike_column_ = -1;  // column whose spike workspace_ holds, or -1
  // BTRAN's sparsity marks: an entry is live in the current solve when its
  // mark equals epoch_ (bumped per solve, so marks never need clearing);
  // live_pos_ is indexed by basis position (Uᵀ), live_row_ by row (Lᵀ).
  // row_bits_ collects the result's nonzero rows.
  mutable std::vector<uint32_t> live_pos_;
  mutable std::vector<uint32_t> live_row_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<uint64_t> row_bits_;
  std::vector<std::pair<int, double>> row_entries_;
  std::vector<std::pair<int, int>> heap_;  // (order index, position)

  // Factorize() workspaces: the active submatrix column-wise over basis
  // positions, a superset of the positions touching each row, active
  // counts, pivot marks and the Markowitz count buckets. Cleared, never
  // reallocated, between calls.
  std::vector<std::vector<std::pair<int, double>>> acols_;
  std::vector<std::vector<int>> row_cols_;
  std::vector<int> col_count_;
  std::vector<int> row_count_;
  std::vector<uint8_t> pivoted_row_;
  std::vector<uint8_t> pivoted_col_;
  std::vector<std::vector<int>> buckets_;
  std::vector<int> filed_count_;
  std::vector<uint8_t> present_;
  std::vector<int> touched_;
};

}  // namespace vpart

#endif  // VPART_LP_FACTORIZATION_H_
