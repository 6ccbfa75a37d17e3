#ifndef VPART_DIST_LEDGER_H_
#define VPART_DIST_LEDGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace vpart {

/// Tracks every outstanding work unit of a distributed batch so nothing is
/// lost when a worker dies. Units move pending -> assigned -> done; when a
/// worker's connection drops (or its heartbeat lapses), Requeue() moves its
/// assigned units back to the *front* of the pending queue, so the oldest
/// outstanding work runs next. The coordinator merges a batch only once
/// AllDone() holds.
///
/// Thread-safe; reader threads, the dispatcher, and the heartbeat monitor
/// all touch it concurrently.
class WorkLedger {
 public:
  /// Registers a unit as pending. Ids must be unique over the ledger's life.
  void Add(long id);

  /// Pops the next pending unit and records it as assigned to `worker`.
  /// Empty optional when nothing is pending (units may still be assigned).
  std::optional<long> Acquire(int worker);

  /// Marks an assigned unit done. Returns false for ids this ledger never
  /// assigned (or that were already requeued to another worker — a stale
  /// result from a worker presumed dead, which the caller must discard).
  bool Complete(int worker, long id);

  /// Returns `worker`'s assigned units to the head of the pending queue and
  /// reports them, oldest first. Called when a worker dies or goes silent.
  std::vector<long> Requeue(int worker);

  /// True once every added unit is done.
  bool AllDone() const;

  /// Blocks until AllDone() or Cancel().  Returns AllDone().
  bool Wait();

  /// As Wait(), but gives up after `seconds`. Returns AllDone().
  bool WaitFor(double seconds);

  /// Unblocks Wait() without completing the remaining units.
  void Cancel();

  bool pending_empty() const;
  long requeued_total() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<long> pending_;
  std::map<long, int> assigned_;  // unit id -> worker
  long added_ = 0;
  long done_ = 0;
  long requeued_total_ = 0;
  bool cancelled_ = false;
};

}  // namespace vpart

#endif  // VPART_DIST_LEDGER_H_
