#ifndef PITREE_STORAGE_BUFFER_POOL_H_
#define PITREE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/epoch.h"
#include "storage/latch.h"
#include "storage/page.h"

namespace pitree {

class BufferPool;

/// A pinned buffer frame. The pin is released on destruction. Latching the
/// page is the caller's job via latch(); the handle does not latch.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }
  void Reset();  // unpins early

  char* data() const;
  PageId id() const;
  Latch& latch() const;
  Lsn page_lsn() const { return PageGetLsn(data()); }

  /// Enters the page into the dirty-page table *before* its log record is
  /// appended. `rec_lsn` is the WAL append position (WalManager::next_lsn),
  /// which is <= the record's eventual LSN. Without the reservation, a
  /// checkpoint DPT snapshot taken between the record's append and
  /// MarkDirty() would miss this page, and redo could start past the
  /// record. No-op if the page is already dirty (the older recLSN stands).
  void ReserveDirty(Lsn rec_lsn);

  /// Records that the caller modified the page under log record `lsn`.
  /// Updates the page LSN (state identifier) and the dirty-page table entry.
  void MarkDirty(Lsn lsn);

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame_idx)
      : pool_(pool), frame_idx_(frame_idx) {}

  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
};

/// Per-shard counter snapshot. Counters are maintained as relaxed atomics
/// (so the optimistic hit path can count without the shard mutex) and
/// copied out here; a snapshot is a momentary, not globally consistent,
/// view.
struct PoolShardStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;   // frames whose previous page was displaced
  uint64_t flushes = 0;     // dirty images written through to disk
  uint64_t io_waits = 0;    // fetchers that slept behind another's I/O
  uint64_t opt_hits = 0;       // optimistic copies that validated
  uint64_t opt_fallbacks = 0;  // optimistic resolution/validation failures
  uint64_t mutex_acquires = 0;  // shard-mutex lock operations
};

struct PoolStats {
  std::vector<PoolShardStats> shards;
  PoolShardStats total;  // element-wise sum over shards
};

/// An unpinned, unlatched reference to a resident frame believed to hold
/// one page, captured together with the frame's version word. Only usable
/// through BufferPool::ReadConsistent / Revalidate, and only while the
/// resolving thread is still inside the EpochGuard it resolved under: the
/// epoch keeps the frame's bytes from being recycled mid-copy; the version
/// word is what detects (at validate time) that the frame moved on.
class OptimisticPage {
 public:
  OptimisticPage() = default;

  bool valid() const { return frame_ != nullptr; }
  uint64_t version() const { return version_; }
  PageId id() const { return id_; }

 private:
  friend class BufferPool;
  const void* frame_ = nullptr;  // Frame*, opaque to callers
  uint64_t version_ = 0;
  PageId id_ = kInvalidPageId;
};

/// Fixed-capacity page cache, sharded for multicore scaling.
///
/// Frames are statically partitioned into N shards (N a power of two; page
/// id hashes pick the shard), each with its own mutex, hash table, and LRU
/// clock, so fetches of distinct pages proceed in parallel. No shard mutex
/// is ever held across disk I/O or a WAL force: a frame doing I/O is marked
/// `io_in_progress` and the lock is dropped; concurrent fetchers of the
/// same page wait on the shard's condition variable until the frame is
/// published. While a dirty victim's image drains to disk, its old table
/// entry stays in place, so a fetch of the evicted page cannot race the
/// write and read a torn image from disk.
///
/// Enforces write-ahead logging: before a dirty page goes to disk, the
/// `ensure_durable` callback is invoked with the page's LSN so the WAL can
/// be flushed at least that far. Every path that writes page bytes to disk
/// (eviction, FlushPage, FlushAll) snapshots them under the frame's page
/// latch in S, so a concurrent X-latch holder can never tear the on-disk
/// image relative to its stamped LSN (§4.1 ordering).
///
/// Capacity exhaustion (Status::Busy) is per shard: a fetch fails when its
/// page's shard has every frame pinned, even if other shards have room.
class BufferPool {
 public:
  using EnsureDurableFn = std::function<Status(Lsn)>;

  /// `shard_count` 0 picks a power of two near the hardware concurrency,
  /// bounded so each shard keeps a healthy number of frames; an explicit
  /// count is rounded down to a power of two and clamped to `capacity`.
  /// Explicit counts should keep capacity/shards >= 16 (the auto-sizing
  /// floor) — see Options::buffer_pool_shards for why; smaller ratios are
  /// for tests that target shard-local behavior.
  BufferPool(DiskManager* disk, size_t capacity, EnsureDurableFn ensure_durable,
             size_t shard_count = 0);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk if not resident.
  Status FetchPage(PageId id, PageHandle* handle);

  /// Resolves page→frame with no shard mutex and no pin: a lock-free probe
  /// of the shard's atomic index plus one version-word load. Requires the
  /// calling thread to be inside an active EpochGuard. Returns false (a
  /// counted fallback) when the page is not resident in the index, the
  /// frame is write-locked or mid-reclaim, or the thread has no epoch slot
  /// — the caller falls back to FetchPage.
  bool FetchOptimistic(PageId id, OptimisticPage* out);

  /// Copies the frame's kPageSize image into `dst` and validates the
  /// version word. True iff `dst` now holds a consistent snapshot of page
  /// `page.id()`; on false the bytes in `dst` are garbage and must be
  /// discarded (retry or fall back). Must run inside the same EpochGuard
  /// that resolved `page`.
  bool ReadConsistent(const OptimisticPage& page, char* dst);

  /// Ranged variant: copies only `[offset, offset+len)` of the page image.
  /// Same contract; callers that need a single record (not a parseable
  /// whole-page snapshot) should prefer this — the validate covers any
  /// range, so there is no reason to pay for bytes that will not be read.
  bool ReadConsistent(const OptimisticPage& page, char* dst, size_t offset,
                      size_t len);

  /// Re-checks that the frame still carries the captured version. Used for
  /// OLC version coupling during descents: revalidating a parent after
  /// resolving its child proves the child pointer was still current when
  /// the child was reached.
  bool Revalidate(const OptimisticPage& page) const;

  /// Pins page `id` with a zeroed in-memory image (for freshly allocated
  /// pages whose on-disk bytes are stale). The caller formats and logs it.
  Status FetchPageZeroed(PageId id, PageHandle* handle);

  /// Writes one page (if dirty) through to disk, honoring WAL order.
  Status FlushPage(PageId id);

  /// Writes all dirty pages through to disk, honoring WAL order. Pages
  /// dirtied while the sweep is in flight may or may not be included;
  /// callers wanting a clean image must quiesce writers first (shutdown
  /// does).
  Status FlushAll();

  /// Makes every completed page write durable (fsync of the data file).
  /// Checkpoints call this between snapshotting the dirty-page table and
  /// publishing the master: a page absent from the snapshot finished its
  /// write before the snapshot, so the sync covers it — and only then may
  /// the checkpoint (and the WAL truncation it justifies) stop vouching
  /// for that page's redo records.
  Status SyncDisk();

  /// Drops every frame without writing. Requires no outstanding pins.
  /// Used by tests to model loss of volatile state.
  void DiscardAll();

  /// Snapshot of (page id, recLSN) for every dirty page — the checkpoint
  /// DPT. Never under-reports: a page whose update was logged before this
  /// call is either in the snapshot or already durably flushed (see
  /// PageHandle::ReserveDirty for the append-side half of that guarantee).
  std::vector<std::pair<PageId, Lsn>> DirtyPageTable() const;

  size_t capacity() const { return frames_.size(); }
  size_t shard_count() const { return shards_.size(); }
  uint64_t miss_count() const;
  PoolStats Stats() const;

  /// Verifies the table<->frame bijection invariants of every shard
  /// (tests and the online auditor call this; it tolerates in-flight I/O).
  Status CheckConsistency() const;

 private:
  friend class PageHandle;

  struct Frame {
    Latch latch;
    char* data = nullptr;  // this frame's kPageSize bytes of arena_
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    /// Set while this frame's bytes are in transit with no shard lock held
    /// (read of a new page, or write-out of a dirty victim). The frame is
    /// claimed: not evictable, not fetchable; waiters sleep on the shard CV.
    bool io_in_progress = false;
    Lsn rec_lsn = kInvalidLsn;
    /// Bumped by every dirtying; a flush clears `dirty` only if the epoch
    /// did not move while its latch-consistent snapshot was being written.
    uint64_t dirty_epoch = 0;
    /// The page id optimistic readers may trust this frame to carry. Set
    /// (release) only once the frame's image is read in, and cleared
    /// before the bytes may change identity.
    /// Closes the stale-index race: an index entry can briefly point at a
    /// reassigned frame, but the frame itself then disavows the id.
    std::atomic<PageId> published{kInvalidPageId};
    /// Second-chance reference bit: set with a relaxed store on every hit
    /// (latched or optimistic), cleared by the clock sweep in FindVictim.
    /// Replaces the old per-hit LRU tick so hits never serialize on
    /// replacement bookkeeping.
    std::atomic<bool> ref{false};
    uint32_t shard = 0;  // immutable after construction
  };

  /// Internal per-shard counters; PoolShardStats is the plain snapshot.
  struct ShardCounters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> io_waits{0};
    std::atomic<uint64_t> opt_hits{0};
    std::atomic<uint64_t> opt_fallbacks{0};
    std::atomic<uint64_t> mutex_acquires{0};
    PoolShardStats Snapshot() const;
  };

  struct Shard {
    /// Ranked kPoolShard, so invariant builds order-check the shard mutex
    /// against page latches and the WAL mutex (§11 ranking). Frame fields
    /// (page_id, pin_count, dirty, io_in_progress, rec_lsn, dirty_epoch)
    /// are also guarded by the owning shard's mu; the frame→shard mapping
    /// is dynamic, so that guard is enforced by the runtime checker and
    /// tools/analyze rather than expressed to clang.
    mutable Mutex mu{analysis::Rank::kPoolShard};
    CondVar cv;  // io_in_progress completions
    std::unordered_map<PageId, size_t> table GUARDED_BY(mu);
    std::vector<size_t> frames;  // indices into frames_, fixed at startup
    size_t clock_hand GUARDED_BY(mu) = 0;  // second-chance sweep position
    /// Lock-free page→frame index for FetchOptimistic: open-addressed
    /// buckets of `(page_id + 1) << 32 | frame_idx` (0 = empty), mutated
    /// only under `mu` (publish/retire), probed with plain atomic loads.
    /// Approximate by design: a false negative just costs the latched
    /// path; a false positive is rejected by the frame's `published` check.
    std::vector<std::atomic<uint64_t>> opt_index;
    size_t opt_mask = 0;
    mutable ShardCounters stats;
  };

  /// Scoped shard-mutex guard. The ranked Mutex underneath registers with
  /// the §4.1 latch-protocol checker (try-then-block, so the checker can
  /// order-check and record the wait before the thread parks); this wrapper
  /// adds the mutex_acquires counter and the manual Unlock()/Lock() spans
  /// the drop-the-mutex-across-I/O paths need. CV waits via Shard::cv keep
  /// the recorded hold: the mutex is reacquired before Wait returns, and
  /// the sleeping thread runs no I/O.
  struct SCOPED_CAPABILITY ShardLock {
    explicit ShardLock(Shard& s) ACQUIRE(s.mu);
    ~ShardLock() RELEASE();
    void Unlock() RELEASE();
    void Lock() ACQUIRE();
    Shard* shard;  // for the mutex_acquires counter
    bool held = true;
  };

  size_t ShardOf(PageId id) const;
  Status FetchInternal(PageId id, bool zeroed, PageHandle* handle);

  // Lock-free index helpers. Lookup runs with no mutex and returns the
  // packed entry (0 = miss); insert/erase require the shard mutex.
  uint64_t OptIndexLookup(const Shard& shard, PageId id) const;
  void OptIndexInsert(Shard& shard, PageId id, size_t frame_idx);
  void OptIndexErase(Shard& shard, PageId id, size_t frame_idx);
  Status FindVictim(Shard& shard, size_t* out_idx) REQUIRES(shard.mu);
  /// Writes the frame's dirty image to disk, WAL-first. The shard lock is
  /// held on entry and re-held on return but dropped across the page-latch
  /// wait, the WAL force, and the disk write; the caller must have made the
  /// frame unreassignable meanwhile (pin or io_in_progress claim). With
  /// `latched`, the caller already holds the frame's page latch in S and
  /// this function releases it after the copy.
  // lint:tsa-escape -- held-on-entry/exit with a mid-function drop through a
  // caller-owned ShardLock; clang cannot track a scoped capability passed by
  // reference. Covered by the runtime checker's I/O rank asserts.
  Status FlushFrame(Shard& shard, ShardLock& lk, Frame& f, bool latched)
      NO_THREAD_SAFETY_ANALYSIS;

  // I/O wrappers: assert no shard mutex is held on this thread.
  Status DoRead(PageId id, char* buf);
  Status DoWrite(PageId id, const char* buf);
  Status DoEnsureDurable(Lsn lsn);

  void Unpin(size_t frame_idx);
  void MarkDirtyFrame(size_t frame_idx, Lsn lsn);

  DiskManager* const disk_;
  const EnsureDurableFn ensure_durable_;

  /// Every frame's page bytes in one allocation, frame i at i * kPageSize.
  std::unique_ptr<char[]> arena_;
  // unique_ptr because Frame contains a Latch and Shard a mutex; neither is
  // movable or copyable.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
};

}  // namespace pitree

#endif  // PITREE_STORAGE_BUFFER_POOL_H_
