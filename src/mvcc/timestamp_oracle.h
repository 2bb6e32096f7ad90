#ifndef PITREE_MVCC_TIMESTAMP_ORACLE_H_
#define PITREE_MVCC_TIMESTAMP_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <set>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace pitree {

/// Logical timestamps. The oracle issues them from one clock for every
/// purpose — version times of TSB-tree writes, time-split times, and commit
/// timestamps — so "version v is visible at snapshot s" reduces to integer
/// comparison on a single timeline. TsbTime (tsb/tsb_tree.h) is the same
/// 64-bit logical time.
using Timestamp = uint64_t;

/// The MVCC timestamp authority.
///
/// Snapshot rule: a snapshot reads at
///     snap = min(visible, min(active writer ts) - 1)
/// where `visible` is the largest commit timestamp whose transaction is
/// durable (published after its WAL force). Every version a writer produces
/// carries a timestamp >= the writer's registration timestamp and < its
/// commit timestamp (both drawn later from the same clock), so a snapshot
/// below every active writer can never observe an uncommitted version, and
/// a snapshot at or below `visible` observes exactly the commits with
/// commit_ts <= snap — visibility order equals WAL durability order.
///
/// Recovery: commit timestamps ride in kCommit WAL records and checkpoints
/// carry the clock's high water; RecoverTo() restarts the clock strictly
/// above both, so a restarted oracle never re-issues a timestamp that any
/// durable version or commit already carries.
///
/// The low-watermark (minimum active snapshot timestamp) is the boundary
/// below which no reader exists: the TSB-tree prunes the versions
/// superseded at or before it and frees history chains split below it
/// (DESIGN.md §12).
class TimestampOracle {
 public:
  TimestampOracle() = default;
  TimestampOracle(const TimestampOracle&) = delete;
  TimestampOracle& operator=(const TimestampOracle&) = delete;

  /// Allocates the next timestamp (version writes, split times).
  Timestamp Next() { return clock_.fetch_add(1) + 1; }

  /// Largest timestamp issued so far (checkpoints stamp this so analysis
  /// scans that start past older commit records still recover the clock).
  Timestamp last_issued() const { return clock_.load(); }

  /// First write of a transaction: allocates its first version timestamp
  /// and registers the writer so snapshots stay below it until the commit
  /// is published. Idempotent per id (returns the original timestamp).
  Timestamp RegisterWriter(TxnId id);

  /// Removes the writer (commit after publish, abort, or discard); no-op
  /// when `id` never registered.
  void DeregisterWriter(TxnId id);

  /// Commit timestamp. Callers serialize this with the WAL append of the
  /// commit record (TxnManager's commit-order mutex) so commit-timestamp
  /// order equals LSN order.
  Timestamp AllocateCommitTs() { return Next(); }

  /// Marks every commit with timestamp <= `cts` visible to new snapshots.
  /// Called after the commit record is durable (user transactions) or
  /// appended (atomic actions, whose effects no snapshot depends on).
  void PublishCommit(Timestamp cts);

  /// Opens a snapshot: returns its read timestamp and tracks it for the
  /// low-watermark until EndSnapshot.
  Timestamp BeginSnapshot();
  void EndSnapshot(Timestamp ts);

  /// The timestamp a snapshot opened now would read at.
  Timestamp visible_ts() const;

  /// Minimum active snapshot timestamp (== visible_ts() when no snapshot
  /// is open): no reader exists below this, and no snapshot opened later
  /// reads below it; TsbTree prunes the versions superseded before it.
  Timestamp low_watermark() const;

  /// Restart: forces the clock and visibility horizon strictly above every
  /// recovered commit timestamp.
  void RecoverTo(Timestamp max_committed);

  size_t active_writers() const;
  size_t active_snapshots() const;

 private:
  Timestamp VisibleLocked() const REQUIRES(mu_);

  std::atomic<Timestamp> clock_{1};    // last issued
  std::atomic<Timestamp> visible_{0};  // all commits <= this are published

  mutable Mutex mu_;
  /// Active writer registrations.
  std::map<TxnId, Timestamp> writers_ GUARDED_BY(mu_);
  /// Their timestamps, ordered.
  std::multiset<Timestamp> writer_ts_ GUARDED_BY(mu_);
  /// Active snapshot timestamps.
  std::multiset<Timestamp> snapshots_ GUARDED_BY(mu_);
};

}  // namespace pitree

#endif  // PITREE_MVCC_TIMESTAMP_ORACLE_H_
