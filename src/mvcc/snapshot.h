#ifndef PITREE_MVCC_SNAPSHOT_H_
#define PITREE_MVCC_SNAPSHOT_H_

#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "mvcc/timestamp_oracle.h"
#include "tsb/tsb_tree.h"

namespace pitree {

/// A snapshot transaction: a read-only view of every TSB-tree as of one
/// oracle timestamp (Database::BeginSnapshot()).
///
/// Reads traverse with §4.1 latches only and take **zero** lock-manager
/// locks. That is safe, not just fast: the snapshot timestamp is below
/// every active writer's first version timestamp and at or below the
/// durable-commit horizon, so no version at or below it can ever be
/// uncommitted, change, or disappear — the lock manager has nothing left
/// to protect a reader from. Writers keep full 2PL; they never see the
/// snapshot and the snapshot never sees them.
///
/// The handle is registered with the oracle for its lifetime so the
/// low-watermark accounts for it: the TSB-tree keeps every version the
/// snapshot can read until it is destroyed (DESIGN.md §12). Destroy it
/// promptly when done, or history piles up behind it. Not thread-safe;
/// one thread drives a snapshot.
class SnapshotTxn {
 public:
  explicit SnapshotTxn(TimestampOracle* oracle)
      : oracle_(oracle), ts_(oracle->BeginSnapshot()) {}
  ~SnapshotTxn() {
    if (oracle_ != nullptr) oracle_->EndSnapshot(ts_);
  }
  SnapshotTxn(const SnapshotTxn&) = delete;
  SnapshotTxn& operator=(const SnapshotTxn&) = delete;

  /// The snapshot's read timestamp: this view contains exactly the writes
  /// of transactions with commit_ts <= ts().
  Timestamp ts() const { return ts_; }

  /// Point read as of the snapshot (NotFound if absent or tombstoned).
  Status Get(TsbTree* tree, const Slice& key, std::string* value) {
    return tree->SnapshotGet(key, ts_, value);
  }

  /// Bounded range scan over user keys in [start, end) as of the snapshot
  /// (empty `end` = unbounded); at most `limit` live results, key order.
  Status Scan(TsbTree* tree, const Slice& start, const Slice& end,
              size_t limit, std::vector<TsbScanEntry>* out) {
    return tree->ScanAsOf(start, end, ts_, limit, out);
  }

 private:
  TimestampOracle* const oracle_;
  const Timestamp ts_;
};

}  // namespace pitree

#endif  // PITREE_MVCC_SNAPSHOT_H_
