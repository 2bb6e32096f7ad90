#ifndef PITREE_TXN_LOCK_MANAGER_H_
#define PITREE_TXN_LOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace pitree {

/// Returns true if a lock in `a` may be held concurrently with one in `b`.
/// The matrix realizes §4.1.1 (S/U/X) and §4.2.2 (move locks):
///   - U is compatible with S but not with U/X (promotion safety);
///   - M (move) is compatible with readers (S, IS) but conflicts with
///     updaters (IU, U, X) and other moves.
bool LockModesCompatible(LockMode a, LockMode b);

/// Least mode at least as strong as both (for conversions, e.g. S -> X).
LockMode LockModeSupremum(LockMode a, LockMode b);

/// Database lock manager with FIFO-ish queuing, lock conversion, no-wait
/// acquisition, and waits-for-graph deadlock detection.
///
/// Latches never enter this table (paper §4.1: "latches do not involve the
/// database lock manager"); the No-Wait Rule is realized by callers using
/// `wait=false` while they hold conflicting latches.
///
/// The table is split into kPartitions hash partitions (DESIGN.md §17).
/// A resource lives in exactly one partition, so a grant or release takes
/// one partition mutex and transactions on different resources rarely
/// meet. Only a request that must wait looks across partitions: deadlock
/// detection locks every partition in index order and searches the
/// waits-for graph on that consistent view.
class LockManager {
 public:
  /// Number of hash partitions of the lock table.
  static constexpr size_t kPartitions = 16;

  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or converts to) `mode` on `resource` for `txn`.
  ///  - wait=true: blocks until granted; returns Deadlock if the wait would
  ///    close a cycle (the requester is the victim and must roll back).
  ///  - wait=false: returns Busy instead of blocking.
  /// Granted locks are recorded in txn->held_locks.
  Status Lock(Transaction* txn, const std::string& resource, LockMode mode,
              bool wait = true);

  /// Releases one lock (used by atomic actions releasing early).
  void Unlock(Transaction* txn, const std::string& resource);

  /// Releases everything `txn` holds (commit/abort).
  void ReleaseAll(Transaction* txn);

  /// True if some other transaction currently holds `resource` in a mode
  /// incompatible with `mode` (used for the move-lock visibility test:
  /// traversals that see a move lock must not schedule index postings).
  bool WouldConflict(TxnId self, const std::string& resource,
                     LockMode mode) const;

  /// Number of waits that ended in deadlock victimization (stats).
  uint64_t deadlock_count() const {
    return deadlocks_.load(std::memory_order_relaxed);
  }

  /// Number of grants (fresh acquisitions + strengthening conversions).
  /// The MVCC tests assert this stays flat across snapshot reads: a
  /// snapshot reader never touches the lock manager at all.
  uint64_t grant_count() const {
    return grants_.load(std::memory_order_relaxed);
  }

  /// The partition `resource` hashes to (exposed for tests).
  static size_t PartitionOf(const std::string& resource);

 private:
  struct Request {
    TxnId txn;
    LockMode mode;
    bool granted;
  };
  using Queue = std::list<Request>;

  /// One hash partition of the lock table. Cache-line aligned so partitions
  /// taken by different threads do not share a line.
  struct alignas(64) Partition {
    mutable Mutex mu;
    CondVar cv;
    std::unordered_map<std::string, Queue> table GUARDED_BY(mu);
    /// txn -> resource of this partition it is blocked on (one at a time).
    std::unordered_map<TxnId, std::string> waiting_on GUARDED_BY(mu);
    /// Threads parked on cv: grants and releases notify only when nonzero.
    int waiters GUARDED_BY(mu) = 0;
  };

  static bool Grantable(const Queue& q, TxnId txn, LockMode mode);
  static bool ConversionGrantable(const Queue& q, TxnId txn, LockMode mode);

  /// Exact deadlock test for `waiter`, which is queued in `held` and holds
  /// its mutex: drops it, locks every partition in index order, searches
  /// the waits-for graph, and returns holding `held` alone again.
  bool WaitWouldDeadlock(TxnId waiter, Partition& held) REQUIRES(held.mu);

  /// Removes `txn`'s ungranted request on `resource` (dropping the queue
  /// if it empties) and wakes the partition's waiters.
  static void DropUngranted(Partition& p, const std::string& resource,
                            TxnId txn) REQUIRES(p.mu);

  /// Releases `txn`'s granted lock on `resource` and wakes the waiters.
  static void Release(Partition& p, const std::string& resource, TxnId txn)
      REQUIRES(p.mu);

  static void WakeWaiters(Partition& p) REQUIRES(p.mu) {
    if (p.waiters > 0) p.cv.NotifyAll();
  }

  std::array<Partition, kPartitions> parts_;
  std::atomic<uint64_t> deadlocks_{0};
  std::atomic<uint64_t> grants_{0};
};

}  // namespace pitree

#endif  // PITREE_TXN_LOCK_MANAGER_H_
