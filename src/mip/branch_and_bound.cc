#include "mip/branch_and_bound.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>

#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/deadline.h"
#include "util/stopwatch.h"

namespace vpart {
namespace {

/// Function-local statics keep the registry lookup off the per-node path.
Counter& BnbNodesTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "vpart_bnb_nodes_total", "Branch & bound nodes processed");
  return counter;
}

Histogram& NodeLpSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "vpart_node_lp_seconds", DefaultLatencyBounds(),
      "Wall seconds per node-LP solve (warm or cold)");
  return histogram;
}

}  // namespace

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "OPTIMAL";
    case MipStatus::kFeasible:
      return "FEASIBLE";
    case MipStatus::kInfeasible:
      return "INFEASIBLE";
    case MipStatus::kNoSolution:
      return "NO_SOLUTION";
  }
  return "UNKNOWN";
}

double MipResult::GapPercent() const {
  if (!has_incumbent()) return 100.0;
  if (!std::isfinite(best_bound)) return 100.0;
  const double denom = std::max(std::abs(objective), 1e-9);
  return 100.0 * std::max(0.0, (objective - best_bound)) / denom;
}

namespace {

double ExternalBound(const MipOptions& options) {
  if (options.external_upper_bound == nullptr) return kLpInfinity;
  return options.external_upper_bound->load(std::memory_order_relaxed);
}

bool Cancelled(const MipOptions& options) {
  return options.cancel_flag != nullptr &&
         options.cancel_flag->load(std::memory_order_relaxed);
}

/// (ub - bound)/|ub| <= gap: no open node below `bound` can improve on `ub`
/// by more than the relative gap.
bool WithinGap(double ub, double bound, double gap) {
  if (!std::isfinite(ub)) return false;
  const double denom = std::max(std::abs(ub), 1e-9);
  return (ub - bound) / denom <= gap;
}

/// Most fractional integer variable of `x`, or -1 when integral.
int MostFractionalVariable(const LpModel& model, double integrality_tol,
                           const std::vector<double>& x) {
  int best = -1;
  double best_score = integrality_tol;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    const double frac = x[j] - std::floor(x[j]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_score) {
      best_score = dist;
      best = j;
    }
  }
  return best;
}

/// Per-worker LP engine: one reusable SimplexSolver (the constraint matrix
/// is built once per tree, not once per node) plus the warm/cold fallback
/// ladder — warm dual from the parent basis, then cold dual from the slack
/// basis, then the cold dual again under tight refactorization.
class NodeLpSolver {
 public:
  NodeLpSolver(const LpModel& model, const MipOptions& options)
      : solver_(model, options.lp_options),
        use_warm_(options.use_warm_start) {}

  /// Solves the node LP under `bounds`, trying `warm` (the parent node's
  /// optimal basis) first when warm starting is on. `delta` receives the
  /// telemetry of exactly this call, so callers can merge it wherever
  /// their locking discipline wants.
  LpResult Solve(const std::vector<std::pair<double, double>>& bounds,
                 const Basis* warm, double time_limit, LpSolveStats& delta) {
    delta = LpSolveStats();
    Stopwatch watch;
    solver_.SetBounds(&bounds);
    solver_.SetTimeLimit(time_limit);
    LpResult lp;
    bool answered = false;
    if (use_warm_ && warm != nullptr && solver_.LoadBasis(*warm)) {
      lp = solver_.Reoptimize();
      lp.AddCountersTo(delta);
      if (lp.status == LpStatus::kOptimal ||
          lp.status == LpStatus::kInfeasible) {
        ++delta.warm_starts;
        answered = true;
      } else if (lp.status == LpStatus::kTimeLimit) {
        // The node budget ran out mid-reoptimization; a cold start would
        // only spend more of a budget that is already gone. The dual path
        // answered (with a deadline), so the warm/cold ledger stays
        // closed: warm_starts + cold_starts == lp_solves.
        ++delta.warm_starts;
        answered = true;
      } else {
        ++delta.warm_start_failures;
      }
    }
    if (!answered) {
      lp = solver_.SolveWithRetry();
      ++delta.cold_starts;
      lp.AddCountersTo(delta);
    }
    ++delta.lp_solves;
    delta.lp_seconds = watch.ElapsedSeconds();
    NodeLpSeconds().Observe(delta.lp_seconds);
    return lp;
  }

  /// Snapshot of the last optimal basis; the returned basis reports
  /// !valid() when no reusable basis exists.
  Basis SaveBasis() const { return solver_.SaveBasis(); }

  /// The same snapshot, shareable with child nodes; null when warm starting
  /// is off or no reusable basis exists.
  std::shared_ptr<const Basis> ShareBasis() const {
    if (!use_warm_) return nullptr;
    Basis saved = solver_.SaveBasis();
    if (!saved.valid()) return nullptr;
    return std::make_shared<const Basis>(std::move(saved));
  }

  bool warm_enabled() const { return use_warm_; }

 private:
  SimplexSolver solver_;
  bool use_warm_;
};

// ---------------------------------------------------------------------------
// The search core. One loop serves both modes; the thread count fixes the
// pop order and the executor:
//  * num_threads == 1: LIFO plunging (the LP-preferred child is explored
//    next), run inline on the caller's thread;
//  * num_threads > 1: best-first on (bound, id), the same loop run by a pool
//    of workers.
// Every member from mu_ down is guarded by it (diving_ is atomic); workers
// solve node LPs on their own engines outside the lock.
// ---------------------------------------------------------------------------

/// A search node: one single-variable bound tightening over its parent.
/// Chains are immutable shared_ptr links, so any worker can materialize a
/// node's bounds without touching shared containers.
struct SearchNode {
  std::shared_ptr<const SearchNode> parent;
  int var = -1;
  double lower = 0.0;
  double upper = 0.0;
  double bound = -kLpInfinity;  // LP bound inherited from the parent
  long id = 0;                  // creation order; orders the open set
  /// The parent's optimal basis, which any worker's engine can load (children
  /// of one parent share the snapshot). mutable: exactly one worker pops a
  /// node, and it clears the snapshot after the node LP — ancestors live on
  /// in their descendants' chains, and without the reset so would every
  /// basis ever saved.
  mutable std::shared_ptr<const Basis> warm;
};
using NodePtr = std::shared_ptr<const SearchNode>;

/// Open-set order; the first element pops next. Plunging: newest node first.
/// Best-first: lowest bound, ties in creation order.
struct PopOrder {
  bool best_first;
  bool operator()(const NodePtr& a, const NodePtr& b) const {
    if (!best_first) return a->id > b->id;
    if (a->bound != b->bound) return a->bound < b->bound;
    return a->id < b->id;
  }
};

/// Model bounds intersected with every tightening on `node`'s chain (each
/// variable is only tightened monotonically, so intersecting is exact).
void MaterializeBounds(const LpModel& model, const SearchNode& node,
                       std::vector<std::pair<double, double>>& bounds) {
  for (int j = 0; j < model.num_variables(); ++j) {
    bounds[j] = {model.variable(j).lower, model.variable(j).upper};
  }
  for (const SearchNode* n = &node; n != nullptr; n = n->parent.get()) {
    if (n->var < 0) continue;
    bounds[n->var].first = std::max(bounds[n->var].first, n->lower);
    bounds[n->var].second = std::min(bounds[n->var].second, n->upper);
  }
}

class Search {
 public:
  /// The search plunges on one thread and pops best-first on several.
  Search(const LpModel& model, const MipOptions& options, int num_threads)
      : model_(model),
        options_(options),
        num_threads_(std::max(num_threads, 1)),
        deadline_(options.time_limit_seconds),
        open_(PopOrder{num_threads > 1}) {}

  MipResult Run();

 private:
  void Worker();
  void ProcessNode(const NodePtr& node, long number,
                   std::vector<std::pair<double, double>>& bounds,
                   NodeLpSolver& lp_solver);
  /// Locks internally; the objective is recomputed after rounding.
  void OfferIncumbent(const std::vector<double>& x);
  /// Snapshots progress under mu_ and fires the callback unlocked.
  void EmitProgressLocked(std::unique_lock<std::mutex>& lock,
                          bool announce_incumbent);
  /// Rounding dive from (bounds, lp): repeatedly fixes the fractional
  /// integer closest to integrality at its rounding and re-solves — each
  /// step warm-starting off the previous one's basis.
  void Dive(std::vector<std::pair<double, double>> bounds, LpResult lp,
            NodeLpSolver& lp_solver);
  /// Prunes `bound` against min(own incumbent, external bound) within the
  /// gap; notes when the external bound was the deciding reason.
  bool PruneBoundLocked(double bound);
  bool GapClosedLocked();
  void PushLocked(std::shared_ptr<SearchNode> node);
  void EraseOpenBoundLocked(double bound) {
    auto it = open_bounds_.find(bound);
    assert(it != open_bounds_.end());
    open_bounds_.erase(it);
  }
  /// Per-LP wall budget: whatever remains of the MIP clock, or the raw LP
  /// option when the search is unbounded. An expired deadline reports an
  /// epsilon, not 0 — SimplexOptions reads <= 0 as "no limit", which would
  /// let one node LP run unbudgeted past the MIP wall clock.
  double NodeBudget() const {
    if (!deadline_.HasLimit()) return options_.lp_options.time_limit_seconds;
    return std::max(deadline_.RemainingSeconds(), 1e-9);
  }
  MipResult Finish();

  const LpModel& model_;
  const MipOptions& options_;
  const int num_threads_;
  Deadline deadline_;
  Stopwatch watch_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::set<NodePtr, PopOrder> open_;
  std::multiset<double> open_bounds_;  // open + in-flight node bounds
  long next_id_ = 0;
  int active_ = 0;
  bool stop_ = false;
  bool limit_hit_ = false;
  bool closed_ = false;
  bool any_lp_failure_ = false;
  bool pruned_by_external_ = false;
  bool have_incumbent_ = false;
  double incumbent_obj_ = kLpInfinity;
  std::vector<double> incumbent_;
  double root_bound_ = -kLpInfinity;
  std::shared_ptr<const Basis> root_basis_;
  long nodes_processed_ = 0;
  LpSolveStats lp_stats_;
  std::atomic<bool> diving_{false};
};

void Search::OfferIncumbent(const std::vector<double>& x) {
  std::vector<double> rounded = x;
  for (int j = 0; j < model_.num_variables(); ++j) {
    if (model_.variable(j).is_integer) rounded[j] = std::round(rounded[j]);
  }
  // Defense in depth: never accept an incumbent the model itself rejects
  // (protects against LP tolerance drift after rounding). The check runs
  // outside the lock; the model is immutable.
  if (!model_.CheckFeasible(rounded, 1e-5).ok()) {
    VPART_LOG(Warning) << "rejecting infeasible rounded incumbent";
    return;
  }
  const double objective = model_.EvaluateObjective(rounded);
  std::unique_lock<std::mutex> lock(mu_);
  if (have_incumbent_ && objective >= incumbent_obj_) return;
  have_incumbent_ = true;
  incumbent_obj_ = objective;
  incumbent_ = std::move(rounded);
  EmitProgressLocked(lock, /*announce_incumbent=*/true);
}

void Search::EmitProgressLocked(std::unique_lock<std::mutex>& lock,
                                bool announce_incumbent) {
  assert(lock.owns_lock());
  if (!options_.progress) return;
  MipProgress snapshot;
  snapshot.nodes = nodes_processed_;
  snapshot.has_incumbent = have_incumbent_;
  snapshot.incumbent_objective = incumbent_obj_;
  snapshot.best_bound = open_bounds_.empty()
                            ? (have_incumbent_ ? incumbent_obj_ : -kLpInfinity)
                            : *open_bounds_.begin();
  snapshot.seconds = watch_.ElapsedSeconds();
  snapshot.lp_stats = lp_stats_;
  if (announce_incumbent) snapshot.incumbent_values = incumbent_;
  // Fire without the search lock so a slow handler never stalls siblings
  // (and a handler that queries this solver cannot self-deadlock).
  lock.unlock();
  options_.progress(snapshot);
  lock.lock();
}

bool Search::PruneBoundLocked(double bound) {
  const double own = have_incumbent_ ? incumbent_obj_ : kLpInfinity;
  const double effective = std::min(own, ExternalBound(options_));
  if (!WithinGap(effective, bound, options_.relative_gap)) return false;
  if (!WithinGap(own, bound, options_.relative_gap)) {
    pruned_by_external_ = true;  // only the shared bound justified this cut
  }
  return true;
}

bool Search::GapClosedLocked() {
  // An LP failure silently dropped a subtree: its bound is missing from
  // open_bounds_, so no closure claim based on the open set is sound.
  if (any_lp_failure_) return false;
  const double own = have_incumbent_ ? incumbent_obj_ : kLpInfinity;
  const double effective = std::min(own, ExternalBound(options_));
  if (!std::isfinite(effective)) return false;
  const double bound =
      open_bounds_.empty() ? effective : *open_bounds_.begin();
  if (!WithinGap(effective, bound, options_.relative_gap + 1e-12)) {
    return false;
  }
  if (effective < own) pruned_by_external_ = true;
  return true;
}

void Search::PushLocked(std::shared_ptr<SearchNode> node) {
  node->id = next_id_++;
  open_bounds_.insert(node->bound);
  open_.insert(std::move(node));
}

void Search::Dive(std::vector<std::pair<double, double>> bounds, LpResult lp,
                  NodeLpSolver& lp_solver) {
  // Bounded number of re-solves; each dive step fixes one variable, so the
  // trail of optimal bases makes every step a single-bound-change dual
  // reoptimization.
  Span dive_span("bnb_dive", "mip", ObsLevel::kFull);
  const int max_depth = model_.num_variables() + 8;
  Basis trail = lp_solver.warm_enabled() ? lp_solver.SaveBasis() : Basis();
  for (int depth = 0; depth < max_depth; ++depth) {
    if (deadline_.Expired() || Cancelled(options_)) return;
    // Find the fractional integer variable closest to an integer value.
    int best = -1;
    double best_dist = 0.5 + 1e-9;
    for (int j = 0; j < model_.num_variables(); ++j) {
      if (!model_.variable(j).is_integer) continue;
      const double frac = lp.values[j] - std::floor(lp.values[j]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > 1e-6 && dist < best_dist) {
        best_dist = dist;
        best = j;
      }
    }
    if (best < 0) {
      OfferIncumbent(lp.values);  // integral: candidate incumbent
      return;
    }
    const double rounded = std::round(lp.values[best]);
    bounds[best] = {rounded, rounded};
    LpSolveStats delta;
    lp = lp_solver.Solve(bounds, trail.valid() ? &trail : nullptr,
                         NodeBudget(), delta);
    {
      std::lock_guard<std::mutex> lock(mu_);
      lp_stats_.Add(delta);
      if (lp.status != LpStatus::kOptimal) return;  // dead end; give up
      if (have_incumbent_ && lp.objective >= incumbent_obj_) return;
    }
    if (lp_solver.warm_enabled()) trail = lp_solver.SaveBasis();
  }
}

void Search::ProcessNode(const NodePtr& node, long number,
                         std::vector<std::pair<double, double>>& bounds,
                         NodeLpSolver& lp_solver) {
  BnbNodesTotal().Increment();
  // Hot-path span: only recorded under full tracing (kFull gates the
  // per-node cost to requests that asked for flame-chart depth).
  Span node_span("bnb_node", "mip", ObsLevel::kFull);
  node_span.AddArg("node", number);
  node_span.AddArg("bound", node->bound);
  MaterializeBounds(model_, *node, bounds);
  LpSolveStats delta;
  LpResult lp =
      lp_solver.Solve(bounds, node->warm.get(), NodeBudget(), delta);
  node->warm.reset();  // single consumer (this worker); see SearchNode::warm

  bool want_dive = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lp_stats_.Add(delta);
    if (lp.status == LpStatus::kUnbounded) {
      // A bounded-variable MIP cannot be unbounded unless the model has
      // unbounded continuous directions; drop the node like an infeasible
      // one.
      VPART_LOG(Warning) << "LP relaxation unbounded at node";
    } else if (lp.status != LpStatus::kOptimal &&
               lp.status != LpStatus::kInfeasible) {
      // Conservative: drop the node; the bound stays valid via the others,
      // but no closure claim may rest on the open set any more.
      any_lp_failure_ = true;
    }
    if (lp.status != LpStatus::kOptimal) {
      EraseOpenBoundLocked(node->bound);
      return;
    }
    if (node->id == 0) {
      root_bound_ = lp.objective;
      // Export the root relaxation's optimal basis before any dive reuses
      // the engine; a future same-shaped solve seeds its root with it.
      root_basis_ = lp_solver.ShareBasis();
    }
    if (PruneBoundLocked(lp.objective)) {
      EraseOpenBoundLocked(node->bound);
      return;
    }
    // Primal heuristic: dive from the root, and periodically while no
    // incumbent has been found yet.
    want_dive = options_.enable_dive &&
                (node->id == 0 || (!have_incumbent_ && number % 50 == 0));
  }

  const int branch_var =
      MostFractionalVariable(model_, options_.integrality_tol, lp.values);
  if (branch_var < 0) {
    OfferIncumbent(lp.values);
    std::lock_guard<std::mutex> lock(mu_);
    EraseOpenBoundLocked(node->bound);
    return;
  }

  // Children warm-start from this node's basis; snapshot before the dive
  // reuses (and overwrites) the worker's simplex engine.
  std::shared_ptr<const Basis> child_warm = lp_solver.ShareBasis();

  // One dive at a time across the workers is plenty.
  if (want_dive && !diving_.exchange(true)) {
    Dive(bounds, lp, lp_solver);
    diving_.store(false);
  }

  const double value = lp.values[branch_var];
  const double floor_value = std::floor(value);
  auto down = std::make_shared<SearchNode>();
  down->parent = node;
  down->var = branch_var;
  down->lower = bounds[branch_var].first;
  down->upper = floor_value;
  down->bound = lp.objective;
  down->warm = child_warm;
  auto up = std::make_shared<SearchNode>(*down);
  up->lower = floor_value + 1.0;
  up->upper = bounds[branch_var].second;

  // Plunge toward the side the LP leans to. Ids follow push order, so under
  // LIFO the child pushed last pops next, while best-first breaks equal
  // bounds by the smaller id: either way the preferred child goes first.
  const bool prefer_up = (value - floor_value) > 0.5;
  std::shared_ptr<SearchNode> preferred = prefer_up ? up : down;
  std::shared_ptr<SearchNode> other = prefer_up ? down : up;
  std::lock_guard<std::mutex> lock(mu_);
  const bool lifo = !open_.key_comp().best_first;
  PushLocked(lifo ? other : preferred);
  PushLocked(lifo ? preferred : other);
  EraseOpenBoundLocked(node->bound);
  cv_.notify_all();
}

void Search::Worker() {
  std::vector<std::pair<double, double>> bounds(model_.num_variables());
  // Each worker owns a simplex engine; the constraint matrix build is paid
  // once per worker, and any published Basis snapshot loads into it.
  NodeLpSolver lp_solver(model_, options_);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (open_.empty() && active_ == 0) break;  // tree exhausted
    if (deadline_.Expired() || Cancelled(options_) ||
        (options_.max_nodes > 0 && nodes_processed_ >= options_.max_nodes)) {
      limit_hit_ = true;
      break;
    }
    if (GapClosedLocked()) {
      closed_ = true;
      break;
    }
    if (open_.empty()) {
      // Siblings are still expanding nodes. Timed wait so deadlines and
      // cancellation are noticed while idle.
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      continue;
    }
    NodePtr node = *open_.begin();
    open_.erase(open_.begin());
    if (PruneBoundLocked(node->bound)) {
      EraseOpenBoundLocked(node->bound);
      continue;
    }
    const long number = ++nodes_processed_;
    // active_ must count this worker BEFORE the progress emission drops
    // the lock: a sibling seeing open_ empty and active_ == 0 would
    // declare the search exhausted while this node still has children.
    ++active_;
    if (options_.progress_node_interval > 0 &&
        number % options_.progress_node_interval == 0) {
      EmitProgressLocked(lock, /*announce_incumbent=*/false);
    }
    lock.unlock();
    ProcessNode(node, number, bounds, lp_solver);
    lock.lock();
    --active_;
  }
  stop_ = true;
  cv_.notify_all();
}

MipResult Search::Run() {
  watch_.Reset();
  if (options_.initial_solution != nullptr) {
    const std::vector<double>& x0 = *options_.initial_solution;
    if (model_.CheckFeasible(x0, 1e-6).ok()) {
      OfferIncumbent(x0);
    } else {
      VPART_LOG(Warning) << "warm-start solution rejected as infeasible";
    }
  }

  // Cross-request seed: the root reoptimizes from a prior solve's terminal
  // root basis instead of a cold two-phase primal. Mismatches fall back
  // cold inside NodeLpSolver.
  auto root = std::make_shared<SearchNode>();
  root->warm = options_.root_basis;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PushLocked(std::move(root));
  }

  if (num_threads_ == 1) {
    Worker();
  } else {
    ThreadPool pool(num_threads_);
    std::vector<std::future<void>> workers;
    workers.reserve(pool.size());
    for (int i = 0; i < pool.size(); ++i) {
      workers.push_back(pool.Submit([this]() { Worker(); }));
    }
    for (auto& worker : workers) worker.get();
  }
  return Finish();
}

MipResult Search::Finish() {
  // Workers are joined; the lock only keeps the *Locked helpers honest.
  std::lock_guard<std::mutex> lock(mu_);
  MipResult result;
  result.seconds = watch_.ElapsedSeconds();
  result.nodes = nodes_processed_;
  result.lp_stats = lp_stats_;
  result.lp_iterations = lp_stats_.total_iterations();
  result.root_basis = root_basis_;

  // `clean`: the tree emptied with no limit stop and no dropped LP node.
  // Best bound: min over still-open nodes; a clean tree -> the incumbent,
  // capped by the external bound where it provided cuts (nodes pruned
  // against it were only proven >= the external value, not >= ours).
  const bool clean = open_.empty() && !limit_hit_ && !any_lp_failure_;
  const double external = ExternalBound(options_);
  if (clean) {
    double proven = have_incumbent_ ? incumbent_obj_ : kLpInfinity;
    if (pruned_by_external_) proven = std::min(proven, external);
    result.best_bound = proven;
  } else {
    const double open_min =
        open_bounds_.empty() ? kLpInfinity : *open_bounds_.begin();
    result.best_bound = std::isfinite(open_min) ? open_min : root_bound_;
  }
  if (have_incumbent_) {
    result.objective = incumbent_obj_;
    result.values = incumbent_;
  }

  // Re-check closure: the loop may have ended with the gap closed without
  // passing the top-of-loop test again. `closed` means the remaining open
  // bound is within the gap of the effective incumbent min(own, external).
  closed_ = closed_ || GapClosedLocked();
  const bool proved = clean || closed_;
  result.search_exhausted = proved;
  result.pruned_by_external_bound = pruned_by_external_;
  if (have_incumbent_) {
    // Our incumbent is itself proven optimal only if it is the effective
    // incumbent; otherwise the external bound holder owns the proof.
    const bool own_effective = incumbent_obj_ <= external;
    result.status = (proved && (own_effective || !pruned_by_external_))
                        ? MipStatus::kOptimal
                        : MipStatus::kFeasible;
  } else if (proved) {
    // With external pruning this means "nothing beats the external bound",
    // which the caller distinguishes via pruned_by_external_bound.
    result.status = MipStatus::kInfeasible;
  } else {
    result.status = MipStatus::kNoSolution;
  }
  return result;
}

}  // namespace

MipResult SolveMip(const LpModel& model, const MipOptions& options) {
  return Search(model, options, options.num_threads).Run();
}

}  // namespace vpart
