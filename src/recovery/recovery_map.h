#ifndef PITREE_RECOVERY_RECOVERY_MAP_H_
#define PITREE_RECOVERY_RECOVERY_MAP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace pitree {

class WalManager;

/// The lazy half of instant restore (DESIGN.md §13): analysis indexes every
/// page's redo range here instead of replaying it, and the buffer pool
/// replays a page's range the first time the page is fetched — before the
/// frame is published. A page is *pending* while its durable image may
/// predate logged updates; it leaves the map exactly once, after the pool
/// has the replayed image in a frame.
///
/// Concurrency contract:
///  - Install() runs single-threaded (recovery analysis, before traffic).
///  - ReplayOnto() takes no latches and no ranked mutexes; the internal
///    mutex guards only map lookups — never held across WAL reads or page
///    application. Per-page mutual exclusion comes from the pool's
///    io_in_progress frame claim: at most one fetcher materializes a page.
///  - Every indexed record lies below the durable horizon fixed at Open and
///    at or above its page's recLSN, which the checkpoint-derived
///    truncation floor never passes while the page is pending. So replay
///    reads only immutable bytes that still exist, through the slab reader
///    (WalManager::MakeDurableScanner), with no append mutex.
///  - MarkReplayed()/DiscardPending() may be called under a pool shard
///    mutex (rank kPoolShard); nothing is acquired under the map mutex, so
///    the order kPoolShard -> map mutex is acyclic.
///  - Replay is idempotent: every record is guarded by the LSN
///    state-identifier test (§5.2), so a crash during lazy redo simply
///    re-derives the same pending set from the unchanged log and replays
///    again onto whatever image survived.
class RecoveryMap {
 public:
  /// Where one redo record sits in the log: its frame is [lsn, end).
  struct RecordExtent {
    Lsn lsn = kInvalidLsn;
    Lsn end = kInvalidLsn;  // the next record's LSN
  };

  /// One page's outstanding redo work.
  struct PendingPage {
    /// The page's dirty-page-table recLSN — conservative lower bound on
    /// `records`; checkpoints taken while the page is pending report it.
    Lsn rec_lsn = kInvalidLsn;
    /// The page's kUpdate/kClr records in [recLSN, log end), ascending.
    /// Never empty for an installed entry.
    std::vector<RecordExtent> records;
  };

  explicit RecoveryMap(WalManager* wal) : wal_(wal) {}
  RecoveryMap(const RecoveryMap&) = delete;
  RecoveryMap& operator=(const RecoveryMap&) = delete;

  /// Installs the analysis pass's per-page redo index. Entries with empty
  /// record lists are dropped (a torn tail can cut a DPT page's records).
  void Install(std::map<PageId, PendingPage> pending);

  /// Applies `id`'s pending records to `page` (its current disk image) in
  /// LSN order, each guarded by the state-identifier test. Non-consuming —
  /// the entry stays pending until MarkReplayed — and therefore idempotent:
  /// a second call on the result applies nothing. `*had_entry` reports
  /// whether the page was pending at all; `*applied`/`*rec_lsn` whether any
  /// record changed bytes and the first applied LSN (the frame's dirty
  /// recLSN). Holds no mutex across WAL reads.
  ///
  /// Reads are coalesced: the records are split into runs, each the longest
  /// stretch whose extent (first LSN to last record's end) fits one
  /// WalManager::kScanReadAhead slab, and each run costs one read that ends
  /// at its last record. A page whose records are far apart still pays one
  /// read per record, not the two a header-then-payload read would.
  Status ReplayOnto(PageId id, char* page, bool* had_entry, bool* applied,
                    Lsn* rec_lsn) const;

  /// Retires `id`'s entry after the pool has the replayed image (and, if
  /// bytes changed, the frame marked dirty — that order keeps a concurrent
  /// checkpoint from missing the page in both tables).
  void MarkReplayed(PageId id);

  /// Drops `id`'s entry without replay. Only for pages being re-formatted
  /// from zero (FetchPageZeroed): the caller's format record supersedes the
  /// pending history, which belonged to a since-deallocated incarnation.
  void DiscardPending(PageId id);

  bool HasPending(PageId id) const;

  /// Smallest pending page id >= `floor`; the cursor walk of DrainRedo,
  /// the sweeper and WaitUntilRecovered. O(log pending).
  bool FirstPendingAtLeast(PageId floor, PageId* out) const;

  /// (page, recLSN) for every still-pending page. Checkpoints merge this
  /// into the pool's DPT: a pending page is dirty-in-spirit — its durable
  /// image predates its recLSN — and omitting it would let a second crash
  /// start redo past its records.
  std::vector<std::pair<PageId, Lsn>> PendingDpt() const;

  /// Pages still awaiting replay. Lock-free; the pool's fast path uses the
  /// zero check so a drained map costs one relaxed load per miss.
  size_t pending_pages() const {
    return pending_count_.load(std::memory_order_relaxed);
  }

  uint64_t records_indexed() const {
    return records_indexed_.load(std::memory_order_relaxed);
  }
  uint64_t records_replayed() const {
    return records_replayed_.load(std::memory_order_relaxed);
  }
  uint64_t pages_replayed() const {
    return pages_replayed_.load(std::memory_order_relaxed);
  }
  uint64_t pages_discarded() const {
    return pages_discarded_.load(std::memory_order_relaxed);
  }

 private:
  WalManager* const wal_;

  mutable Mutex mu_;
  /// Ordered by page id so the cursor walk is a lower_bound.
  std::map<PageId, PendingPage> pending_ GUARDED_BY(mu_);

  std::atomic<size_t> pending_count_{0};
  std::atomic<uint64_t> records_indexed_{0};
  mutable std::atomic<uint64_t> records_replayed_{0};
  std::atomic<uint64_t> pages_replayed_{0};
  std::atomic<uint64_t> pages_discarded_{0};
};

}  // namespace pitree

#endif  // PITREE_RECOVERY_RECOVERY_MAP_H_
