#ifndef PITREE_WAL_WAL_MANAGER_H_
#define PITREE_WAL_WAL_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "env/env.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/wal_segments.h"

namespace pitree {

/// Counters for the group-commit pipeline. Snapshots are taken with relaxed
/// atomics only — reading stats never touches the append mutex, so
/// monitoring cannot contend with the log's hot path.
struct WalStats {
  uint64_t appends = 0;         // records appended
  uint64_t appended_bytes = 0;  // framed bytes appended (header + payload)
  uint64_t batches = 0;         // group write+sync cycles that succeeded
  uint64_t sync_calls = 0;      // physical Sync() attempts (failures included)
  uint64_t sync_failures = 0;   // write or sync attempts that failed
  uint64_t synced_bytes = 0;    // bytes made durable by successful batches
  uint64_t waiter_wakeups = 0;  // parked force waiters released durable
  // Batch former (DESIGN.md §10): a commit-led batch short of the expected
  // number of commit forces is held open, up to a cap, for the rest.
  uint64_t holds = 0;         // batches a leader held open for more commits
  uint64_t holds_filled = 0;  // holds that reached the expected count in time
  uint64_t hold_us = 0;       // total time leaders spent holding
  uint64_t segments = 0;            // live segment files
  uint64_t truncated_segments = 0;  // segment files deleted by TruncateBelow
  uint64_t wal_disk_bytes = 0;      // sum of live segment file sizes
  /// synced_bytes / batches; > one frame means group commit is batching.
  double avg_batch_bytes = 0;
};

/// Write-ahead log appender with group commit.
///
/// The log is stored as numbered segment files (`<path>.000001`, ... — see
/// wal/wal_segments.h); LSNs stay global byte offsets of the record stream,
/// so segmentation is invisible above this class. Segments roll at durable
/// batch boundaries and TruncateBelow() deletes segments wholly below the
/// checkpoint-derived floor, which is what bounds the log's disk footprint
/// under continuous checkpointing (DESIGN.md §14).
///
/// The write path is
/// a two-stage pipeline that never holds the append mutex across file I/O:
///
///  1. *Append* encodes the record outside the mutex, then under a short
///     critical section reserves the next LSN and copies the framed bytes
///     into the in-memory active segment. Appenders never touch the file.
///  2. *Force* (Flush / FlushCommit / FlushAll) parks the caller until its
///     bytes are durable. The first waiter is elected leader: it swaps the
///     active segment into the flushing slot and performs Write+Sync with
///     the mutex dropped (debug builds assert this at the I/O sites).
///     Followers wait on a condition variable holding no latches or locks —
///     one sync releases every commit whose record made the batch.
///
/// *Batch former.* A leader that is a user commit (FlushCommit) may first
/// hold its batch open, mutex dropped, until the batch has as many commit
/// forces as the largest of the last kBatchHistory batches, or until a cap
/// of a quarter of the measured Write+Sync time passes. A batch's size is
/// the commit forces it carried, plus, for a batch of two or more, those
/// that parked behind it while it was on the device. A lone committer
/// therefore never holds. Closed-loop committers that once share a batch
/// keep sharing it, one sync per round, instead of alternating batches of
/// one. Every other force (WAL-before-data, FlushAll, checkpoints) leads at
/// once and ends a hold in progress; kTimedOutHoldsToReset timed-out holds
/// in a row reset the expectation.
///
/// While a leader's batch is in flight, appends keep filling the fresh
/// active segment (double buffering): the next leader picks them up without
/// waiting for quiescence. A failed Write/Sync leaves `durable_lsn()`
/// unadvanced, fails every parked waiter (error epoch), and keeps the
/// segment staged so a later force retries from the same offset — the
/// durable prefix stays contiguous.
///
/// The WAL protocol is unchanged from the paper's reading: the buffer pool
/// forces through a page's LSN before writing the page; transaction commit
/// forces through its commit record; atomic actions do NOT force at their
/// end — §4.3.1's "relative durability": their records ride to disk with
/// the next forced batch.
class WalManager {
 public:
  /// Slab size for buffered log reads (open-time end search, recovery
  /// analysis, redo's coalesced runs). Big enough that scan cost is
  /// sequential bandwidth, small enough to be irrelevant next to the
  /// buffer pool.
  static constexpr size_t kScanReadAhead = 256 << 10;

  WalManager() = default;
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Opens/creates the log's segment chain and positions the append point
  /// after the last complete record. `segment_bytes` is the roll threshold
  /// (0 = kDefaultWalSegmentBytes).
  Status Open(Env* env, const std::string& path, uint64_t segment_bytes = 0);

  /// Transaction-state publication performed *inside* Append's critical
  /// section, right after the LSN is assigned. Checkpointing depends on
  /// this placement: the checkpoint's own begin record goes through the
  /// same append mutex, so any record with an LSN below the begin has its
  /// publication ordered before the begin append — and therefore before
  /// the ATT snapshot that follows it. A store made *after* Append returns
  /// (the old idiom) can race the snapshot, producing an ATT entry whose
  /// undo-chain head predates records the analysis scan will never see.
  /// Conversely, any publication the snapshot can observe belongs to an
  /// append whose critical section preceded the checkpoint-end append, so
  /// its LSN is below the end LSN and forced durable with the master.
  struct AppendPublish {
    /// Receives the assigned LSN (undo chain head).
    std::atomic<Lsn>* last_lsn = nullptr;
    /// Receives `rec.undo_next` (CLR appends during rollback).
    std::atomic<Lsn>* undo_next = nullptr;
    /// Set to true (kCommit/kEnd appends done outside TxnManager::mu_):
    /// marks the transaction finished so SnapshotAtt skips it.
    std::atomic<bool>* ended = nullptr;
  };

  /// Appends a record, assigning and returning its LSN via `*lsn`. Does not
  /// block on I/O: the record lands in the active segment only. `pub`
  /// optionally publishes transaction state under the append mutex (see
  /// AppendPublish for why callers must not store these fields themselves
  /// after Append returns).
  Status Append(const LogRecord& rec, Lsn* lsn);
  Status Append(const LogRecord& rec, Lsn* lsn, const AppendPublish& pub);

  /// Append for a checkpoint's begin record: the record also becomes the
  /// first of a new segment. The flush leader ends the batch before it at
  /// its LSN and rolls there (a durable batch boundary, like every roll),
  /// so once the checkpoint's floor reaches the record, truncation can
  /// delete every segment before it.
  Status AppendSegmentStart(const LogRecord& rec, Lsn* lsn);

  /// Makes every record with LSN <= `lsn` durable. Parks the caller on the
  /// group-commit pipeline; the caller must hold no page latches (§4.1
  /// No-Wait Rule — commit waiters sleep lock-free).
  Status Flush(Lsn lsn);

  /// Flush for a user transaction's commit record. The only force that
  /// counts toward a batch's size or may hold a batch open (see the batch
  /// former above); the same No-Wait precondition applies.
  Status FlushCommit(Lsn lsn);

  /// Makes everything appended so far durable (same force path as Flush).
  Status FlushAll();

  /// Random-access read of the record at `lsn`, whether it has been flushed
  /// to the file or still sits in a segment. Undo walks chains through this
  /// (rollback may need records that were never forced). Reads below the
  /// durable horizon never touch the append mutex — the durable prefix is
  /// immutable. A buffered `lsn` that is not a frame boundary returns
  /// InvalidArgument, never garbage.
  Status ReadRecord(Lsn lsn, LogRecord* rec) const;

  /// Buffered reader over the immutable durable prefix, starting at
  /// `start` (a frame boundary < durable_lsn()). The reader pulls the file
  /// in kScanReadAhead slabs, so a full-log scan costs sequential bandwidth
  /// instead of two small reads per record. Open-time analysis streams the
  /// log through one; per-page redo fetches each run of a page's records
  /// through one (LogReader::set_limit bounds the read to the run) and
  /// seeks among the frames in the slab. Bypasses the append mutex for the
  /// same reason as ReadRecord's fast path (bytes below durable_ never
  /// change).
  /// The slab may prefetch past the durable horizon, but frames starting
  /// below it never extend past it (durability lands on frame boundaries),
  /// so no volatile byte is ever parsed while the caller stays below
  /// durable_lsn() — recovery-time scans additionally run before any new
  /// appends, where the file simply ends at the horizon.
  LogReader MakeDurableScanner(Lsn start) const;

  /// Deletes whole segments below `floor` (clamped to the durable horizon;
  /// the active segment always survives). The caller must have derived
  /// `floor` from a durable checkpoint (recovery/checkpoint.h computes it:
  /// min of checkpoint begin, DPT recLSNs and ATT first-LSNs), so nothing
  /// below it can ever be read again.
  Status TruncateBelow(Lsn floor);

  /// First LSN still backed by a segment file: reads below return NotFound
  /// and scans must start at or above it. Lock-free.
  Lsn floor_lsn() const { return floor_.load(std::memory_order_acquire); }

  /// First LSN that has NOT been made durable. Lock-free.
  Lsn durable_lsn() const {
    return durable_.load(std::memory_order_acquire);
  }

  /// LSN that the next Append() will assign. Lock-free; under concurrent
  /// appends the value is a lower bound on any subsequently assigned LSN
  /// (LSNs only grow), which is exactly what ReserveDirty needs.
  Lsn next_lsn() const { return next_.load(std::memory_order_acquire); }

  /// Number of successful group write+sync cycles (bench instrumentation).
  /// Lock-free; equals stats().batches.
  uint64_t flush_count() const {
    return n_batches_.load(std::memory_order_relaxed);
  }

  /// Snapshot of all pipeline counters. Never touches the append mutex
  /// (the disk-footprint fields query segment file sizes, which costs the
  /// env mutex only).
  WalStats stats() const;

 private:
  /// Batches whose sizes set the batch former's expected commit count.
  static constexpr int kBatchHistory = 16;
  /// Consecutive timed-out holds after which that expectation is dropped.
  /// Two already lose part of the gain on closed-loop writers whose rounds
  /// sometimes run past the cap (a split, a lock wait); never resetting
  /// lets a chance pairing of unrelated commits cost up to 16 futile holds.
  static constexpr int kTimedOutHoldsToReset = 4;

  /// The single force path: blocks until durable_ >= `upto` (clamped to the
  /// append point), electing this thread leader when no batch is in flight.
  /// `commit` marks a user commit's force (FlushCommit).
  Status WaitUntilDurable(Lsn upto, bool commit);

  /// Append and AppendSegmentStart: frames `rec` into the active segment
  /// under mu_, publishing `pub`; `segment_start` requests a roll at it.
  Status AppendFrame(const LogRecord& rec, Lsn* lsn, const AppendPublish& pub,
                     bool segment_start);

  /// Number of commit forces a commit-led batch should hold for, or 0 when
  /// it should sync at once: no sync timed yet, a non-commit force waiting,
  /// or as many commits already joined as recent batches had.
  uint32_t HoldTargetLocked() const REQUIRES(mu_);

  /// Spins, yielding, until `target` commit forces have joined the forming
  /// batch, a non-commit force waits on it, or `cap` passes. Reads only
  /// atomics: the caller has dropped the append mutex.
  void SpinForCommits(uint32_t target, std::chrono::nanoseconds cap) const;

  /// Leader only, at a durable batch boundary (nothing staged): starts a
  /// new segment there if a segment start was requested at it or the
  /// active segment is full. The I/O runs with mu_ dropped; mu_ held on
  /// entry and exit. A failed roll is retried at the next boundary.
  // lint:tsa-escape -- held-on-entry/exit with a mid-function drop through a
  // caller-owned ReleasableMutexLock (see FlushBatchLocked).
  void MaybeRollLocked(ReleasableMutexLock& lk) NO_THREAD_SAFETY_ANALYSIS;

  /// Leader body: swaps the active segment in if the flushing slot is empty,
  /// drops mu_, performs Write+Sync, re-locks, and publishes durability (or
  /// the failure). mu_ held on entry and exit.
  // lint:tsa-escape -- held-on-entry/exit with a mid-function drop through a
  // caller-owned ReleasableMutexLock; clang cannot track a scoped capability
  // passed by reference. Covered by the runtime checker's I/O rank asserts.
  Status FlushBatchLocked(ReleasableMutexLock& lk) NO_THREAD_SAFETY_ANALYSIS;

  // I/O wrappers: assert the append mutex is not held on this thread.
  Status DoWrite(Lsn offset, const std::string& buf);
  Status DoSync();

  WalSegmentSet segments_;
  uint64_t segment_bytes_ GUARDED_BY(mu_) = kDefaultWalSegmentBytes;
  /// LSN at which AppendSegmentStart asked for a new segment; kNoRoll when
  /// none is pending.
  static constexpr Lsn kNoRoll = ~Lsn{0};
  Lsn roll_at_ GUARDED_BY(mu_) = kNoRoll;

  /// The append mutex, ranked kWalMutex — the leaf of the whole acquisition
  /// order: legal to take while holding anything, nothing may be taken
  /// under it. The ranked Mutex registers with the §4.1 checker, so
  /// invariant builds assert it is never held across Write/Sync.
  mutable Mutex mu_{analysis::Rank::kWalMutex};
  /// Force waiters (and followers watching a leader) sleep here; the leader
  /// notifies after every publish, success or failure.
  CondVar cv_durable_;
  /// Frames appended but not yet staged for a batch. Base offset is
  /// durable_ + flushing_.size().
  std::string active_ GUARDED_BY(mu_);
  /// The staged batch: being written+synced by the leader, or retained for
  /// retry after a failed sync. Base offset is durable_ (the durable prefix
  /// always ends exactly where the staged batch begins). The leader reads
  /// it with the mutex dropped during the batch write — only the leader
  /// mutates it, and only under mu_ (see FlushBatchLocked's escape).
  std::string flushing_ GUARDED_BY(mu_);
  /// Start offsets of every buffered frame in [durable_, next_), for
  /// boundary-checked buffered reads. Trimmed as durability advances.
  std::deque<Lsn> frame_starts_ GUARDED_BY(mu_);
  /// A leader owns the flushing slot.
  bool flush_in_progress_ GUARDED_BY(mu_) = false;
  /// Bumped on every failed batch; a parked waiter that observes a bump
  /// while its bytes are still volatile fails with last_error_ instead of
  /// being silently marked durable.
  uint64_t error_epoch_ GUARDED_BY(mu_) = 0;
  Status last_error_ GUARDED_BY(mu_);

  // Batch former state. The forming batch is active_: commit forces whose
  // bytes lie in it enrol in forming_commits_, and a non-commit force sets
  // forming_urgent_; the swap into flushing_ moves the count to
  // batch_commits_ and clears both. Those two are atomics, written under
  // mu_, only so a holding leader can spin on them with mu_ dropped.
  std::atomic<uint32_t> forming_commits_{0};
  std::atomic<bool> forming_urgent_{false};
  uint32_t batch_commits_ GUARDED_BY(mu_) = 0;
  /// Ring of the commit-force counts of recent successful batches.
  uint32_t batch_sizes_[kBatchHistory] GUARDED_BY(mu_) = {};
  int batch_slot_ GUARDED_BY(mu_) = 0;
  int timed_out_holds_ GUARDED_BY(mu_) = 0;  // consecutive
  /// Moving average (1/8 weight) of successful Write+Sync time; the hold
  /// cap is a quarter of it.
  uint64_t sync_ns_avg_ GUARDED_BY(mu_) = 0;

  std::atomic<Lsn> durable_{0};  // all bytes below are synced
  std::atomic<Lsn> next_{0};     // LSN the next append assigns
  std::atomic<Lsn> floor_{0};    // first LSN still backed by a segment

  // WalStats counters (relaxed; mutated on the paths named above).
  std::atomic<uint64_t> n_appends_{0};
  std::atomic<uint64_t> n_appended_bytes_{0};
  std::atomic<uint64_t> n_batches_{0};
  std::atomic<uint64_t> n_sync_calls_{0};
  std::atomic<uint64_t> n_sync_failures_{0};
  std::atomic<uint64_t> n_synced_bytes_{0};
  std::atomic<uint64_t> n_waiter_wakeups_{0};
  std::atomic<uint64_t> n_holds_{0};
  std::atomic<uint64_t> n_holds_filled_{0};
  std::atomic<uint64_t> n_hold_ns_{0};
  std::atomic<uint64_t> n_truncated_segments_{0};
};

}  // namespace pitree

#endif  // PITREE_WAL_WAL_MANAGER_H_
