// lint:allow-naked-latch -- eviction only probes victim latches with
// no-wait TryAcquireS (checker-exempt) and FlushFrame S-latches a frame
// it has pinned; audited with the protocol checker.
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "analysis/latch_checker.h"
#include "storage/space_map.h"

namespace pitree {

namespace {

// Floor on frames per shard when the count is chosen automatically: page->
// shard hashing is skewed over small pools, and too few frames per shard
// makes shard-local "all pinned" spuriously reachable.
constexpr size_t kMinFramesPerShardAuto = 16;

size_t LargestPow2AtMost(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

size_t PickShardCount(size_t capacity, size_t requested) {
  if (requested > 0) {
    return LargestPow2AtMost(std::min(requested, capacity));
  }
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  size_t bound = capacity / kMinFramesPerShardAuto;
  if (bound == 0) bound = 1;
  return LargestPow2AtMost(std::min(std::min(hw, size_t{64}), bound));
}

// Per-thread scratch page for latch-consistent flush snapshots. FlushFrame
// is not re-entered on a thread (ensure_durable_ never calls back into the
// pool), so one buffer per thread suffices.
char* FlushScratch() {
  static thread_local std::unique_ptr<char[]> buf(new char[kPageSize]);
  return buf.get();
}

// Probe window for the shard's open-addressed optimistic index. Beyond it
// an insert overwrites (a clobbered entry self-heals on that page's next
// latched hit) and a lookup gives up (false negative, latched path).
constexpr size_t kOptIndexMaxProbe = 8;

// TSan: the optimistic copy-out in ReadConsistent deliberately reads frame
// bytes that a concurrent X holder may be writing — seqlock discipline; a
// torn copy is discarded when the version-word validate fails. Suppress
// the (intentional) race report for exactly that memcpy.
#if defined(__SANITIZE_THREAD__)
#define PITREE_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PITREE_TSAN_ACTIVE 1
#endif
#endif

#if defined(PITREE_TSAN_ACTIVE)
extern "C" void AnnotateIgnoreReadsBegin(const char* file, int line);
extern "C" void AnnotateIgnoreReadsEnd(const char* file, int line);
inline void TsanIgnoreReadsBegin() {
  AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
}
inline void TsanIgnoreReadsEnd() { AnnotateIgnoreReadsEnd(__FILE__, __LINE__); }
#else
inline void TsanIgnoreReadsBegin() {}
inline void TsanIgnoreReadsEnd() {}
#endif

}  // namespace

// The §4.1 checker (src/analysis/) tracks shard-mutex ownership at rank
// kPoolShard via the ranked Mutex itself (common/mutex.h runs the
// try-then-block dance); the I/O wrappers below assert the rank is unheld.
// This guard only adds the mutex_acquires counter and the manual spans.

// analyze:allow-unbalanced -- guard implementation: leaving the shard
// mutex held is this constructor's contract; the destructor releases.
BufferPool::ShardLock::ShardLock(Shard& s) : shard(&s) {
  s.stats.mutex_acquires.fetch_add(1, std::memory_order_relaxed);
  s.mu.Lock();
}

BufferPool::ShardLock::~ShardLock() {
  if (held) shard->mu.Unlock();
}

void BufferPool::ShardLock::Unlock() {
  held = false;
  shard->mu.Unlock();
}

// analyze:allow-unbalanced -- guard implementation: re-arming the guard
// after a drop-for-I/O window leaves the mutex held by design.
void BufferPool::ShardLock::Lock() {
  shard->stats.mutex_acquires.fetch_add(1, std::memory_order_relaxed);
  shard->mu.Lock();
  held = true;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Reset();
    pool_ = other.pool_;
    frame_idx_ = other.frame_idx_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Reset(); }

void PageHandle::Reset() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_idx_);
    pool_ = nullptr;
  }
}

char* PageHandle::data() const {
  return pool_->frames_[frame_idx_]->data;
}

PageId PageHandle::id() const { return pool_->frames_[frame_idx_]->page_id; }

Latch& PageHandle::latch() const { return pool_->frames_[frame_idx_]->latch; }

void PageHandle::ReserveDirty(Lsn rec_lsn) {
  pool_->MarkDirtyFrame(frame_idx_, rec_lsn);
}

void PageHandle::MarkDirty(Lsn lsn) {
  PageSetLsn(data(), lsn);
  pool_->MarkDirtyFrame(frame_idx_, lsn);
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       EnsureDurableFn ensure_durable, size_t shard_count)
    : disk_(disk), ensure_durable_(std::move(ensure_durable)) {
  if (capacity == 0) capacity = 1;
  const size_t n = PickShardCount(capacity, shard_count);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Default-initialized: the constructor writes no frame byte, so the OS
  // maps each page of the arena on first touch, by the fetch that reads
  // into it, not here (DESIGN.md §9).
  arena_.reset(new char[capacity * kPageSize]);
  frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    Frame& f = *frames_.back();
    f.data = arena_.get() + i * kPageSize;
    f.shard = static_cast<uint32_t>(i & shard_mask_);
    shards_[f.shard]->frames.push_back(i);
  }
  for (auto& sp : shards_) {
    // ~4x frames per shard keeps the open-addressed probe chains short at
    // full residency (load factor <= 1/4).
    size_t buckets = 64;
    while (buckets < sp->frames.size() * 4) buckets *= 2;
    sp->opt_index = std::vector<std::atomic<uint64_t>>(buckets);
    sp->opt_mask = buckets - 1;
  }
}

size_t BufferPool::ShardOf(PageId id) const {
  // Fibonacci mix so sequentially allocated pages spread across shards.
  uint64_t h = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> 32) & shard_mask_;
}

namespace {
// Bucket hash for the optimistic index: low half of the same Fibonacci mix
// (ShardOf consumes the high half, so within one shard these bits still
// spread).
inline size_t OptBucketOf(PageId id, size_t mask) {
  return static_cast<size_t>(static_cast<uint64_t>(id) *
                             0x9E3779B97F4A7C15ull) &
         mask;
}
inline uint64_t OptPack(PageId id, size_t frame_idx) {
  return (static_cast<uint64_t>(id) + 1) << 32 |
         static_cast<uint64_t>(frame_idx);
}
}  // namespace

uint64_t BufferPool::OptIndexLookup(const Shard& shard, PageId id) const {
  size_t slot = OptBucketOf(id, shard.opt_mask);
  for (size_t probe = 0; probe < kOptIndexMaxProbe; ++probe) {
    const uint64_t e = shard.opt_index[slot].load(std::memory_order_acquire);
    if (e == 0) return 0;
    if ((e >> 32) == static_cast<uint64_t>(id) + 1) return e;
    slot = (slot + 1) & shard.opt_mask;
  }
  return 0;
}

void BufferPool::OptIndexInsert(Shard& shard, PageId id, size_t frame_idx) {
  const uint64_t packed = OptPack(id, frame_idx);
  size_t slot = OptBucketOf(id, shard.opt_mask);
  size_t first_empty = SIZE_MAX;
  size_t last = slot;
  for (size_t probe = 0; probe < kOptIndexMaxProbe; ++probe) {
    const uint64_t e = shard.opt_index[slot].load(std::memory_order_relaxed);
    if ((e >> 32) == static_cast<uint64_t>(id) + 1) {
      shard.opt_index[slot].store(packed, std::memory_order_release);
      return;
    }
    if (e == 0 && first_empty == SIZE_MAX) first_empty = slot;
    last = slot;
    slot = (slot + 1) & shard.opt_mask;
  }
  // Window full: prefer an empty slot; else overwrite the window's last
  // slot. The displaced page (if any) falls back to the latched path until
  // its next latched hit re-inserts it.
  shard.opt_index[first_empty != SIZE_MAX ? first_empty : last].store(
      packed, std::memory_order_release);
}

void BufferPool::OptIndexErase(Shard& shard, PageId id, size_t frame_idx) {
  const uint64_t packed = OptPack(id, frame_idx);
  size_t slot = OptBucketOf(id, shard.opt_mask);
  for (size_t probe = 0; probe < kOptIndexMaxProbe; ++probe) {
    if (shard.opt_index[slot].load(std::memory_order_relaxed) == packed) {
      shard.opt_index[slot].store(0, std::memory_order_release);
      return;
    }
    slot = (slot + 1) & shard.opt_mask;
  }
}

Status BufferPool::DoRead(PageId id, char* buf) {
  analysis::AssertRankNotHeld(analysis::Rank::kPoolShard, "ReadPage");
  return disk_->ReadPage(id, buf);
}

Status BufferPool::DoWrite(PageId id, const char* buf) {
  analysis::AssertRankNotHeld(analysis::Rank::kPoolShard, "WritePage");
  return disk_->WritePage(id, buf);
}

Status BufferPool::DoEnsureDurable(Lsn lsn) {
  analysis::AssertRankNotHeld(analysis::Rank::kPoolShard, "WAL force");
  return ensure_durable_(lsn);
}

Status BufferPool::FetchPage(PageId id, PageHandle* handle) {
  return FetchInternal(id, /*zeroed=*/false, handle);
}

Status BufferPool::FetchPageZeroed(PageId id, PageHandle* handle) {
  return FetchInternal(id, /*zeroed=*/true, handle);
}

bool BufferPool::FetchOptimistic(PageId id, OptimisticPage* out) {
  assert(id != kInvalidPageId);
  out->frame_ = nullptr;
  Shard& shard = *shards_[ShardOf(id)];
  if (!EpochManager::Global()->InEpoch()) {
    shard.stats.opt_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t entry = OptIndexLookup(shard, id);
  if (entry == 0) {
    shard.stats.opt_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const Frame& f = *frames_[static_cast<size_t>(entry & 0xFFFFFFFFu)];
  const uint64_t v = f.latch.OptimisticBegin();
  // Order matters: version word first, then `published`. If the frame is
  // mid-reassignment the word is locked (reject); if the index entry was
  // stale, `published` disavows the id (reject); if both pass, any
  // reassignment after this point bumps the word and the eventual Validate
  // catches it.
  if (Latch::IsLocked(v) ||
      f.published.load(std::memory_order_acquire) != id) {
    shard.stats.opt_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  out->frame_ = &f;
  out->version_ = v;
  out->id_ = id;
  return true;
}

bool BufferPool::ReadConsistent(const OptimisticPage& page, char* dst) {
  return ReadConsistent(page, dst, 0, kPageSize);
}

bool BufferPool::ReadConsistent(const OptimisticPage& page, char* dst,
                                size_t offset, size_t len) {
  assert(page.valid());
  assert(offset + len <= kPageSize);
  Frame& f = *const_cast<Frame*>(static_cast<const Frame*>(page.frame_));
  assert(EpochManager::Global()->InEpoch());
  analysis::OnOptimisticCopy();
  // Seqlock-style copy: may race an X-latched writer; the bytes are used
  // only if the validate below proves no writer span overlapped. The epoch
  // section guarantees the *frame* still holds some page (not recycled
  // storage), so the copy itself is well-defined loads of live memory.
  TsanIgnoreReadsBegin();
  // lint:olc-validated -- seqlock copy, checked by the Validate below
  memcpy(dst, f.data + offset, len);
  TsanIgnoreReadsEnd();
  const bool ok = f.latch.Validate(page.version_);
  ShardCounters& stats = shards_[f.shard]->stats;
  if (ok) {
    stats.opt_hits.fetch_add(1, std::memory_order_relaxed);
    // Second-chance bit, read-mostly: avoid the store (and the cacheline
    // invalidation) when it is already set.
    if (!f.ref.load(std::memory_order_relaxed)) {
      f.ref.store(true, std::memory_order_relaxed);
    }
  } else {
    stats.opt_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

bool BufferPool::Revalidate(const OptimisticPage& page) const {
  assert(page.valid());
  const Frame& f = *static_cast<const Frame*>(page.frame_);
  return f.latch.Validate(page.version_);
}

// lint:tsa-escape -- the no-wait victim probe's S hold is released by
// FlushFrame on its behalf; checked by the runtime checker and
// tools/analyze.
Status BufferPool::FetchInternal(PageId id, bool zeroed, PageHandle* handle)
    NO_THREAD_SAFETY_ANALYSIS {
  assert(id != kInvalidPageId);
  Shard& shard = *shards_[ShardOf(id)];
  ShardLock lk(shard);

  for (;;) {
    auto it = shard.table.find(id);
    if (it == shard.table.end()) break;
    Frame& f = *frames_[it->second];
    if (f.io_in_progress) {
      // Another thread is reading this page in, or draining the dirty image
      // of the page this frame is being stolen from. Sleep until the frame
      // is published (or the claim is unwound) and rescan: the table may
      // look entirely different by then.
      shard.stats.io_waits.fetch_add(1, std::memory_order_relaxed);
      shard.cv.Wait(shard.mu);
      continue;
    }
    assert(f.page_id == id);
    ++f.pin_count;
    if (!f.ref.load(std::memory_order_relaxed)) {
      f.ref.store(true, std::memory_order_relaxed);
    }
    shard.stats.hits.fetch_add(1, std::memory_order_relaxed);
    if (zeroed) {
      // Caller is re-formatting a re-allocated page that is still resident.
      // The in-place reformat runs the reclaim protocol like an eviction:
      // retire the optimistic identity, lock the version word, wait out
      // readers mid-copy, then wipe. TryBeginReclaim can fail only when a
      // concurrent X holder owns the span — then optimistic readers are
      // already fenced off by the locked word and the holder's release
      // bump, and no grace wait is needed (no reader can be mid-copy).
      OptIndexErase(shard, id, it->second);
      f.published.store(kInvalidPageId, std::memory_order_relaxed);
      const bool claimed = f.latch.TryBeginReclaim();
      if (claimed) EpochManager::Global()->WaitGracePeriod();
      memset(f.data, 0, kPageSize);
      if (claimed) f.latch.EndReclaim();
      f.published.store(id, std::memory_order_release);
      OptIndexInsert(shard, id, it->second);
    } else if (OptIndexLookup(shard, id) == 0) {
      // Self-heal the approximate index (entries can be displaced by probe
      // -window overflow or erase holes) while the mutex is held anyway.
      OptIndexInsert(shard, id, it->second);
    }
    *handle = PageHandle(this, it->second);
    return Status::OK();
  }

  shard.stats.misses.fetch_add(1, std::memory_order_relaxed);
  size_t idx;
  Frame* victim = nullptr;
  size_t latch_skips = 0;
  for (;;) {
    PITREE_RETURN_IF_ERROR(FindVictim(shard, &idx));
    victim = frames_[idx].get();
    if (!victim->dirty) break;
    // A dirty victim's image is snapshotted under its page latch (S). An
    // unpinned frame's latch cannot be held — latches are reached only
    // through pinned handles — so the try cannot fail; the No-Wait try (vs.
    // a blocking acquire) makes any future violation of that invariant show
    // up as a skipped victim instead of a deadlock.
    if (victim->latch.TryAcquireS()) break;
    assert(false && "unpinned victim frame latch held");
    // Release build: if the invariant is somehow broken, degrade to Busy
    // after one full pass over the shard rather than spinning forever
    // under the shard mutex.
    if (++latch_skips > shard.frames.size()) {
      return Status::Busy("buffer pool shard: no latch-free victim");
    }
    victim->ref.store(true, std::memory_order_relaxed);  // deprioritize
  }
  Frame& f = *victim;
  const PageId victim_id = f.page_id;

  // Claim the frame and the target id before any I/O. The victim's old
  // mapping (if any) stays until its dirty image is on disk, so a
  // concurrent fetch of the evicted page waits on the CV instead of racing
  // the disk write; a concurrent fetch of `id` waits instead of loading a
  // second copy.
  f.io_in_progress = true;
  shard.table[id] = idx;

  if (victim_id != kInvalidPageId) {
    shard.stats.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.dirty) {
    // The victim's bytes stay intact during the flush, so its optimistic
    // identity stays live meanwhile — readers of the evictee keep
    // validating until the bytes are actually about to change, below.
    // FlushFrame snapshots under the handed-off S latch, releases it, and
    // only then writes: the disk I/O itself is never under the latch.
    // analyze:allow-latch-io -- callee drops the handed-off latch pre-I/O
    Status fs = FlushFrame(shard, lk, f, /*latched=*/true);
    if (!fs.ok()) {
      // The victim keeps its identity and its dirty image (losing either
      // would drop a logged update); only the claim on `id` is unwound.
      shard.table.erase(id);
      f.io_in_progress = false;
      shard.cv.NotifyAll();
      return fs;
    }
  }

  // Retire the victim's optimistic identity before the frame's bytes can
  // change: drop the lock-free index entry, disavow `published`, and lock
  // the version word. The grace-period wait (after the mutex drops, before
  // the first byte lands) guarantees no unpinned reader is still mid-copy
  // out of this frame; the eventual EndReclaim bump makes every snapshot
  // of the old incarnation fail its Validate.
  if (victim_id != kInvalidPageId) OptIndexErase(shard, victim_id, idx);
  f.published.store(kInvalidPageId, std::memory_order_relaxed);
  const bool reclaim_claimed = f.latch.TryBeginReclaim();
  // An unpinned victim cannot have an X holder (latches are reached only
  // through pinned handles), so the claim cannot fail; if the invariant
  // ever breaks, proceed without the reclaim span — the foreign X holder's
  // own locked word already fences optimistic readers off the frame.
  assert(reclaim_claimed);

  // The old image (if any) is durable; retire the old identity *before* the
  // read, so an error below leaves the frame on the free list instead of a
  // phantom: a frame keeping a stale page_id while unmapped lets a later
  // fetch of that page load a second frame for the same id, and the stale
  // frame's eventual eviction then erases the live table entry.
  if (victim_id != kInvalidPageId) shard.table.erase(victim_id);
  f.page_id = id;
  f.dirty = false;
  f.rec_lsn = kInvalidLsn;
  // Rank the frame's latch for the §4.1 checker: the space map orders after
  // every tree latch; everything else is a tree page whose level descent
  // code refines (analysis::NoteTreeLevel) once the payload is readable.
  analysis::SetLatchIdentity(&f.latch,
                             id == kSpaceMapPage ? analysis::Rank::kSpaceMap
                                                 : analysis::Rank::kTreePage,
                             analysis::kLevelUnknown, id);

  Status s;
  if (zeroed) {
    if (reclaim_claimed) EpochManager::Global()->WaitGracePeriod();
    memset(f.data, 0, kPageSize);
  } else {
    lk.Unlock();
    // Quiesce unpinned readers of the old incarnation before its bytes are
    // overwritten by the read below (see the reclaim comment above).
    if (reclaim_claimed) EpochManager::Global()->WaitGracePeriod();
    // No latch is held here: the victim's S hold (if any) ended inside
    // FlushFrame; only the version-word reclaim claim spans this read.
    // analyze:allow-latch-io -- frame read under reclaim claim, no latch
    s = DoRead(id, f.data);
    lk.Lock();
  }

  if (!s.ok()) {
    // A failed read leaves the frame free; the next fetch of `id` retries
    // it. The reclaim span must still close (with its bump) or the version
    // word would stay locked forever.
    if (reclaim_claimed) f.latch.EndReclaim();
    shard.table.erase(id);
    f.page_id = kInvalidPageId;
    f.io_in_progress = false;
    shard.cv.NotifyAll();
    return s;
  }

  f.pin_count = 1;
  f.ref.store(true, std::memory_order_relaxed);
  // Publish for optimistic readers only now, when the image is read in:
  // close the reclaim span (version bump), then expose the id. A reader
  // that snapshots the word after the bump sees the finished bytes via its
  // seq_cst Begin load.
  if (reclaim_claimed) f.latch.EndReclaim();
  f.published.store(id, std::memory_order_release);
  OptIndexInsert(shard, id, idx);
  f.io_in_progress = false;
  shard.cv.NotifyAll();
  *handle = PageHandle(this, idx);
  return Status::OK();
}

Status BufferPool::FindVictim(Shard& shard, size_t* out_idx) {
  // Second-chance clock. Hits (latched or optimistic) set a per-frame
  // reference bit with a relaxed store instead of bumping a shared LRU
  // tick under the mutex; the sweep clears bits and takes the first
  // unpinned frame found unreferenced. Free frames are taken on sight.
  const size_t n = shard.frames.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& f = *frames_[shard.frames[shard.clock_hand]];
    const size_t idx = shard.frames[shard.clock_hand];
    shard.clock_hand = (shard.clock_hand + 1) % n;
    if (f.io_in_progress) continue;
    if (f.page_id == kInvalidPageId) {
      *out_idx = idx;
      return Status::OK();
    }
    if (f.pin_count > 0) continue;
    if (f.ref.load(std::memory_order_relaxed)) {
      f.ref.store(false, std::memory_order_relaxed);
      continue;
    }
    *out_idx = idx;
    return Status::OK();
  }
  // Two full sweeps found nothing unreferenced: optimistic readers can
  // re-set bits without the mutex faster than the clock clears them. Take
  // any unpinned frame rather than misreporting a full shard.
  for (size_t step = 0; step < n; ++step) {
    Frame& f = *frames_[shard.frames[shard.clock_hand]];
    const size_t idx = shard.frames[shard.clock_hand];
    shard.clock_hand = (shard.clock_hand + 1) % n;
    if (f.io_in_progress) continue;
    if (f.page_id == kInvalidPageId || f.pin_count == 0) {
      *out_idx = idx;
      return Status::OK();
    }
  }
  return Status::Busy("buffer pool shard exhausted: all pages pinned");
}

Status BufferPool::FlushFrame(Shard& shard, ShardLock& lk, Frame& f,
                              bool latched) {
  if (!f.dirty) {
    if (latched) f.latch.ReleaseS();
    return Status::OK();
  }
  const uint64_t epoch = f.dirty_epoch;
  const PageId pid = f.page_id;
  lk.Unlock();
  // Latch-consistent snapshot: with the page latch in S, no X holder is
  // mid-update, so the copied bytes are exactly the state the stamped page
  // LSN covers — the disk image can never be torn relative to the WAL.
  if (!latched) f.latch.AcquireS();
  char* snap = FlushScratch();
  memcpy(snap, f.data, kPageSize);
  f.latch.ReleaseS();
  // WAL protocol: the log must cover this page's last update before the
  // page overwrites its disk image.
  const Lsn lsn = PageGetLsn(snap);
  Status s;
  if (ensure_durable_ && lsn != kInvalidLsn) {
    s = DoEnsureDurable(lsn);
  }
  if (s.ok()) s = DoWrite(pid, snap);
  lk.Lock();
  if (s.ok()) {
    shard.stats.flushes.fetch_add(1, std::memory_order_relaxed);
    // A writer may have dirtied the page again between the snapshot and
    // here; clearing `dirty` then would shed a logged update from the DPT.
    if (f.dirty_epoch == epoch) {
      f.dirty = false;
      f.rec_lsn = kInvalidLsn;
    }
  }
  return s;
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = *shards_[ShardOf(id)];
  ShardLock lk(shard);
  for (;;) {
    auto it = shard.table.find(id);
    if (it == shard.table.end()) return Status::OK();
    Frame& f = *frames_[it->second];
    if (f.io_in_progress) {
      shard.cv.Wait(shard.mu);
      continue;
    }
    assert(f.page_id == id);
    // Pin so the frame cannot be evicted or reassigned while the lock is
    // dropped for the latch wait and the write.
    ++f.pin_count;
    Status s = FlushFrame(shard, lk, f, /*latched=*/false);
    --f.pin_count;
    return s;
  }
}

Status BufferPool::FlushAll() {
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    ShardLock lk(shard);
    for (size_t idx : shard.frames) {
      Frame& f = *frames_[idx];
      while (f.io_in_progress) shard.cv.Wait(shard.mu);
      if (f.page_id == kInvalidPageId || !f.dirty) continue;
      ++f.pin_count;
      Status s = FlushFrame(shard, lk, f, /*latched=*/false);
      --f.pin_count;
      PITREE_RETURN_IF_ERROR(s);
    }
  }
  return Status::OK();
}

Status BufferPool::SyncDisk() {
  analysis::AssertRankNotHeld(analysis::Rank::kPoolShard, "disk sync");
  return disk_->Sync();
}

void BufferPool::DiscardAll() {
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    ShardLock lk(shard);
    for (size_t idx : shard.frames) {
      Frame& f = *frames_[idx];
      while (f.io_in_progress) shard.cv.Wait(shard.mu);
      assert(f.pin_count == 0);
      if (f.page_id != kInvalidPageId) {
        // Bump the version word so any OptimisticPage captured before the
        // discard can never validate against a recycled frame. No grace
        // wait needed: the discard changes identity, not bytes.
        if (f.latch.TryBeginReclaim()) f.latch.EndReclaim();
      }
      f.published.store(kInvalidPageId, std::memory_order_relaxed);
      f.ref.store(false, std::memory_order_relaxed);
      f.page_id = kInvalidPageId;
      f.dirty = false;
      f.rec_lsn = kInvalidLsn;
    }
    shard.table.clear();
    for (auto& e : shard.opt_index) e.store(0, std::memory_order_relaxed);
  }
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() const {
  std::vector<std::pair<PageId, Lsn>> dpt;
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    ShardLock lk(shard);
    for (size_t idx : shard.frames) {
      const Frame& f = *frames_[idx];
      // A frame mid-eviction still reports: its dirty image is not yet
      // known durable (the flag clears only after the write succeeds).
      if (f.page_id != kInvalidPageId && f.dirty) {
        dpt.emplace_back(f.page_id, f.rec_lsn);
      }
    }
  }
  return dpt;
}

PoolShardStats BufferPool::ShardCounters::Snapshot() const {
  PoolShardStats s;
  s.hits = hits.load(std::memory_order_relaxed);
  s.misses = misses.load(std::memory_order_relaxed);
  s.evictions = evictions.load(std::memory_order_relaxed);
  s.flushes = flushes.load(std::memory_order_relaxed);
  s.io_waits = io_waits.load(std::memory_order_relaxed);
  s.opt_hits = opt_hits.load(std::memory_order_relaxed);
  s.opt_fallbacks = opt_fallbacks.load(std::memory_order_relaxed);
  s.mutex_acquires = mutex_acquires.load(std::memory_order_relaxed);
  return s;
}

// Counters are atomics now, so snapshots take no shard mutex — reading
// stats perturbs neither the latched nor the optimistic hot path.

uint64_t BufferPool::miss_count() const {
  uint64_t total = 0;
  for (const auto& sp : shards_) {
    total += sp->stats.misses.load(std::memory_order_relaxed);
  }
  return total;
}

PoolStats BufferPool::Stats() const {
  PoolStats out;
  out.shards.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const PoolShardStats s = sp->stats.Snapshot();
    out.shards.push_back(s);
    out.total.hits += s.hits;
    out.total.misses += s.misses;
    out.total.evictions += s.evictions;
    out.total.flushes += s.flushes;
    out.total.io_waits += s.io_waits;
    out.total.opt_hits += s.opt_hits;
    out.total.opt_fallbacks += s.opt_fallbacks;
    out.total.mutex_acquires += s.mutex_acquires;
  }
  return out;
}

Status BufferPool::CheckConsistency() const {
  for (size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = *shards_[si];
    ShardLock lk(shard);
    std::unordered_map<PageId, size_t> held;  // page -> frame, from frames
    for (size_t idx : shard.frames) {
      const Frame& f = *frames_[idx];
      if (f.shard != si) {
        return Status::Corruption("frame listed in wrong shard");
      }
      if (f.pin_count < 0) {
        return Status::Corruption("negative pin count");
      }
      if (f.page_id == kInvalidPageId) {
        if (f.dirty) return Status::Corruption("free frame marked dirty");
        continue;
      }
      if (ShardOf(f.page_id) != si) {
        return Status::Corruption("page resident in wrong shard");
      }
      if (!held.emplace(f.page_id, idx).second) {
        return Status::Corruption("two frames hold the same page");
      }
      if (!f.io_in_progress) {
        auto it = shard.table.find(f.page_id);
        if (it == shard.table.end() || it->second != idx) {
          return Status::Corruption("resident page missing from table");
        }
        if (f.published.load(std::memory_order_relaxed) != f.page_id) {
          return Status::Corruption(
              "settled frame not published under its own id");
        }
      }
    }
    for (const auto& e : shard.opt_index) {
      const uint64_t packed = e.load(std::memory_order_relaxed);
      if (packed == 0) continue;
      const size_t idx = static_cast<size_t>(packed & 0xFFFFFFFFu);
      if (idx >= frames_.size() || frames_[idx]->shard != si) {
        return Status::Corruption("optimistic index entry crosses shards");
      }
    }
    for (const auto& [pid, idx] : shard.table) {
      const Frame& f = *frames_[idx];
      if (f.shard != si) {
        return Status::Corruption("table entry crosses shards");
      }
      // During an eviction the stolen frame is reachable under both its old
      // and its new id; io_in_progress marks that transient.
      if (f.page_id != pid && !f.io_in_progress) {
        return Status::Corruption("table entry points at reassigned frame");
      }
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(size_t frame_idx) {
  Frame& f = *frames_[frame_idx];
  ShardLock lk(*shards_[f.shard]);
  assert(f.pin_count > 0);
  --f.pin_count;
}

void BufferPool::MarkDirtyFrame(size_t frame_idx, Lsn lsn) {
  Frame& f = *frames_[frame_idx];
  ShardLock lk(*shards_[f.shard]);
  ++f.dirty_epoch;
  if (!f.dirty) {
    f.dirty = true;
    f.rec_lsn = lsn;
  }
}

}  // namespace pitree
