#include "wal/wal_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "analysis/latch_checker.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "wal/log_reader.h"

namespace pitree {

namespace {

constexpr size_t kFrameHeaderSize = 8;  // crc32 + payload length

}  // namespace

// The §4.1 checker (src/analysis/) tracks append-mutex ownership at rank
// kWalMutex — the leaf of the whole acquisition order — via the ranked
// Mutex itself (common/mutex.h runs the try-then-block dance). The force
// path is built so the rank is unheld at every file Write/Sync; the I/O
// wrappers assert that, so a regression fails loudly instead of
// re-convoying every appender behind one thread's fsync.

Status WalManager::Open(Env* env, const std::string& path,
                        uint64_t group_commit_window_us,
                        uint64_t segment_bytes) {
  ReleasableMutexLock lk(&mu_);
  window_us_ = group_commit_window_us;
  segment_bytes_ = segment_bytes > 0 ? segment_bytes : kDefaultWalSegmentBytes;
  PITREE_RETURN_IF_ERROR(segments_.Open(env, path, /*read_only=*/false));
  // Scan for the end of the valid prefix; a torn tail from a crash is
  // ignored and will be overwritten by subsequent appends. Sealed segments
  // are exactly batch-aligned and fully durable (rolls happen only after a
  // successful sync), so only the active segment can hold a torn tail —
  // starting the scan at its start LSN is enough.
  LogReader reader(segments_.reader_view(), segments_.last_start_lsn(),
                   kScanReadAhead);
  LogRecord rec;
  Lsn end = segments_.last_start_lsn();
  Status scan;
  while ((scan = reader.ReadNext(&rec)).ok()) {
    end = reader.offset();
  }
  // NotFound is the reader's clean end-of-log — including every torn-tail
  // shape (short frame, implausible length, CRC mismatch). Anything else
  // (an I/O fault, or a malformed body behind a valid CRC) must surface
  // instead of silently truncating committed history at the failure point.
  if (!scan.IsNotFound()) return scan;
  durable_.store(end, std::memory_order_release);
  next_.store(end, std::memory_order_release);
  floor_.store(segments_.floor_lsn(), std::memory_order_release);
  // Drop any torn bytes so appends extend a clean prefix.
  return segments_.TruncateActiveTo(end);
}

Status WalManager::TruncateBelow(Lsn floor) {
  analysis::AssertRankNotHeld(analysis::Rank::kWalMutex, "WAL truncate");
  floor = std::min(floor, durable_.load(std::memory_order_acquire));
  uint64_t deleted = 0;
  PITREE_RETURN_IF_ERROR(segments_.TruncateBelow(floor, &deleted));
  if (deleted > 0) {
    n_truncated_segments_.fetch_add(deleted, std::memory_order_relaxed);
    floor_.store(segments_.floor_lsn(), std::memory_order_release);
  }
  return Status::OK();
}

Status WalManager::Append(const LogRecord& rec, Lsn* lsn) {
  return Append(rec, lsn, AppendPublish());
}

Status WalManager::Append(const LogRecord& rec, Lsn* lsn,
                          const AppendPublish& pub) {
  // Encode outside the mutex: the critical section below is a reservation
  // plus two memcpys, never CPU-bound work and never file I/O.
  std::string payload;
  rec.EncodeTo(&payload);
  char header[kFrameHeaderSize];
  EncodeFixed32(header, MaskCrc(Crc32c(payload.data(), payload.size())));
  EncodeFixed32(header + 4, static_cast<uint32_t>(payload.size()));

  ReleasableMutexLock lk(&mu_);
  *lsn = next_.load(std::memory_order_relaxed);
  // Publish transaction state while the mutex is held: the checkpoint
  // begin append takes this same mutex, so every publication for a record
  // below the begin LSN happens-before the ATT snapshot (AppendPublish in
  // the header has the full argument). Relaxed suffices — the mutex
  // provides the ordering; the atomics only make concurrent snapshot
  // reads of post-begin publications defined.
  if (pub.last_lsn != nullptr) {
    pub.last_lsn->store(*lsn, std::memory_order_relaxed);
  }
  if (pub.undo_next != nullptr) {
    pub.undo_next->store(rec.undo_next, std::memory_order_relaxed);
  }
  if (pub.ended != nullptr) {
    pub.ended->store(true, std::memory_order_relaxed);
  }
  frame_starts_.push_back(*lsn);
  active_.append(header, sizeof(header));
  active_.append(payload);
  next_.store(*lsn + sizeof(header) + payload.size(),
              std::memory_order_release);
  n_appends_.fetch_add(1, std::memory_order_relaxed);
  n_appended_bytes_.fetch_add(sizeof(header) + payload.size(),
                              std::memory_order_relaxed);
  return Status::OK();
}

LogReader WalManager::MakeDurableScanner(Lsn start) const {
  return LogReader(segments_.reader_view(), start, kScanReadAhead);
}

Status WalManager::ReadRecord(Lsn lsn, LogRecord* rec) const {
  // Lock-free durable path: bytes below durable_ are immutable — the
  // leader only writes at offsets >= durable_ and durability never
  // retreats — and durable_ always lands on a frame boundary, so a reader
  // that observes lsn < durable_ can decode straight from the file without
  // the append mutex; undo's chain walks never convoy commit appends.
  if (lsn < durable_.load(std::memory_order_acquire)) {
    LogReader reader(segments_.reader_view(), lsn);
    return reader.ReadNext(rec);
  }
  ReleasableMutexLock lk(&mu_);
  const Lsn durable = durable_.load(std::memory_order_relaxed);
  if (lsn < durable) {
    // Durability advanced past lsn while acquiring the mutex; read the
    // now-immutable bytes with the mutex dropped, like the fast path.
    lk.Unlock();
    LogReader reader(segments_.reader_view(), lsn);
    return reader.ReadNext(rec);
  }
  // Buffered path: the bytes live in the flushing or active segment. The
  // caller-supplied lsn is only trusted after a boundary check — a
  // mid-frame offset must fail cleanly, not decode garbage.
  if (lsn >= next_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("lsn beyond log end");
  }
  if (!std::binary_search(frame_starts_.begin(), frame_starts_.end(), lsn)) {
    return Status::InvalidArgument("lsn is not a record boundary");
  }
  const std::string* buf = &flushing_;
  Lsn base = durable;
  if (lsn >= durable + flushing_.size()) {
    buf = &active_;
    base = durable + flushing_.size();
  }
  size_t off = lsn - base;
  if (off + kFrameHeaderSize > buf->size()) {
    return Status::Corruption("truncated buffered record");
  }
  uint32_t expected_crc = UnmaskCrc(DecodeFixed32(buf->data() + off));
  uint32_t len = DecodeFixed32(buf->data() + off + 4);
  if (off + kFrameHeaderSize + len > buf->size()) {
    return Status::Corruption("truncated buffered record");
  }
  const char* payload = buf->data() + off + kFrameHeaderSize;
  if (Crc32c(payload, len) != expected_crc) {
    return Status::Corruption("buffered record crc");
  }
  PITREE_RETURN_IF_ERROR(rec->DecodeFrom(Slice(payload, len)));
  rec->lsn = lsn;
  rec->next_lsn = lsn + kFrameHeaderSize + len;
  return Status::OK();
}

Status WalManager::Flush(Lsn lsn) {
  // Durable through the record *at* lsn: every frame boundary below
  // durable_ is fully synced, so durable_ > lsn suffices.
  return WaitUntilDurable(lsn + 1);
}

Status WalManager::FlushAll() {
  return WaitUntilDurable(next_.load(std::memory_order_acquire));
}

Status WalManager::WaitUntilDurable(Lsn upto) {
  if (durable_.load(std::memory_order_acquire) >= upto) return Status::OK();
  ReleasableMutexLock lk(&mu_);
  // Nothing beyond the append point can be waited for (Flush of the last
  // record and FlushAll both land here).
  upto = std::min<Lsn>(upto, next_.load(std::memory_order_relaxed));
  bool slept = false;
  for (;;) {
    if (durable_.load(std::memory_order_relaxed) >= upto) {
      if (slept) n_waiter_wakeups_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (!flush_in_progress_) {
      // Leader election: this waiter owns the next batch. Everyone arriving
      // meanwhile appends into the active segment and parks below.
      flush_in_progress_ = true;
      if (window_us_ > 0) {
        // Group-commit window: give concurrent commits time to append their
        // records before the segment swap, without holding the mutex.
        lk.Unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(window_us_));
        lk.Lock();
      }
      Status s = FlushBatchLocked(lk);
      if (s.ok() &&
          durable_.load(std::memory_order_relaxed) -
                  segments_.last_start_lsn() >=
              segment_bytes_) {
        // Roll at the durable batch boundary, I/O outside the mutex. The
        // next batch's base is exactly the new segment's start LSN, so no
        // frame ever spans segments. A failed roll just retries after the
        // next batch — the oversized active segment keeps accepting writes.
        lk.Unlock();
        (void)segments_.RollIfNeeded(
            durable_.load(std::memory_order_acquire), segment_bytes_);
        lk.Lock();
      }
      flush_in_progress_ = false;
      cv_durable_.NotifyAll();
      if (!s.ok()) return s;
      // The swap took every append up to (at least) upto; loop to confirm
      // and handle the retry-after-failure case where the staged batch
      // predated our bytes.
      continue;
    }
    // Follower: park holding nothing but this mutex, which the wait
    // releases. Wake on any durability publish, batch failure, or the
    // leadership becoming vacant.
    const uint64_t epoch = error_epoch_;
    const Lsn seen = durable_.load(std::memory_order_relaxed);
    slept = true;
    while (durable_.load(std::memory_order_relaxed) == seen &&
           error_epoch_ == epoch && flush_in_progress_) {
      cv_durable_.Wait(mu_);
    }
    if (error_epoch_ != epoch &&
        durable_.load(std::memory_order_relaxed) < upto) {
      // The batch that should have carried our bytes failed: surface it
      // rather than report durability that never happened.
      return last_error_;
    }
  }
}

Status WalManager::FlushBatchLocked(ReleasableMutexLock& lk) {
  if (flushing_.empty()) {
    if (active_.empty()) return Status::OK();
    flushing_.swap(active_);
  }
  const Lsn base = durable_.load(std::memory_order_relaxed);
  // I/O outside the mutex: appenders and readers proceed while this batch
  // drains. Only the leader mutates flushing_, and only under mu_, so
  // reading it here unlocked is safe.
  lk.Unlock();
  Status s = DoWrite(base, flushing_);
  if (s.ok()) s = DoSync();
  lk.Lock();
  if (!s.ok()) {
    // The batch stays staged at the same offset: a later force retries it,
    // keeping the durable prefix contiguous. Parked waiters must fail now —
    // their bytes are not durable and this leader cannot say when they
    // will be.
    n_sync_failures_.fetch_add(1, std::memory_order_relaxed);
    ++error_epoch_;
    last_error_ = s;
    return s;
  }
  const Lsn end = base + flushing_.size();
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  n_synced_bytes_.fetch_add(flushing_.size(), std::memory_order_relaxed);
  flushing_.clear();
  while (!frame_starts_.empty() && frame_starts_.front() < end) {
    frame_starts_.pop_front();
  }
  durable_.store(end, std::memory_order_release);
  return Status::OK();
}

Status WalManager::DoWrite(Lsn offset, const std::string& buf) {
  analysis::AssertRankNotHeld(analysis::Rank::kWalMutex, "WAL Write");
  return segments_.WriteAt(offset, buf);
}

Status WalManager::DoSync() {
  analysis::AssertRankNotHeld(analysis::Rank::kWalMutex, "WAL Sync");
  n_sync_calls_.fetch_add(1, std::memory_order_relaxed);
  return segments_.SyncActive();
}

WalStats WalManager::stats() const {
  WalStats s;
  s.appends = n_appends_.load(std::memory_order_relaxed);
  s.appended_bytes = n_appended_bytes_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.sync_calls = n_sync_calls_.load(std::memory_order_relaxed);
  s.sync_failures = n_sync_failures_.load(std::memory_order_relaxed);
  s.synced_bytes = n_synced_bytes_.load(std::memory_order_relaxed);
  s.waiter_wakeups = n_waiter_wakeups_.load(std::memory_order_relaxed);
  s.segments = segments_.segment_count();
  s.truncated_segments =
      n_truncated_segments_.load(std::memory_order_relaxed);
  s.wal_disk_bytes = segments_.disk_bytes();
  s.avg_batch_bytes =
      s.batches > 0 ? static_cast<double>(s.synced_bytes) / s.batches : 0.0;
  return s;
}

}  // namespace pitree
