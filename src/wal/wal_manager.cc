#include "wal/wal_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>
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
                        uint64_t segment_bytes) {
  ReleasableMutexLock lk(&mu_);
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

Status WalManager::AppendSegmentStart(const LogRecord& rec, Lsn* lsn) {
  return AppendFrame(rec, lsn, AppendPublish(), /*segment_start=*/true);
}

Status WalManager::Append(const LogRecord& rec, Lsn* lsn,
                          const AppendPublish& pub) {
  return AppendFrame(rec, lsn, pub, /*segment_start=*/false);
}

Status WalManager::AppendFrame(const LogRecord& rec, Lsn* lsn,
                               const AppendPublish& pub, bool segment_start) {
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
  if (segment_start) roll_at_ = *lsn;
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
  return WaitUntilDurable(lsn + 1, /*commit=*/false);
}

Status WalManager::FlushCommit(Lsn lsn) {
  return WaitUntilDurable(lsn + 1, /*commit=*/true);
}

Status WalManager::FlushAll() {
  return WaitUntilDurable(next_.load(std::memory_order_acquire),
                          /*commit=*/false);
}

uint32_t WalManager::HoldTargetLocked() const {
  if (sync_ns_avg_ == 0 || forming_urgent_.load(std::memory_order_relaxed)) {
    return 0;
  }
  const uint32_t expected =
      *std::max_element(std::begin(batch_sizes_), std::end(batch_sizes_));
  return forming_commits_.load(std::memory_order_relaxed) < expected
             ? expected
             : 0;
}

void WalManager::SpinForCommits(uint32_t target,
                                std::chrono::nanoseconds cap) const {
  // Yield, never sleep: a sleep costs at least the kernel's timer slack
  // (50 µs by default on Linux), more than a whole cap on a fast device.
  const auto deadline = std::chrono::steady_clock::now() + cap;
  while (forming_commits_.load(std::memory_order_relaxed) < target &&
         !forming_urgent_.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

Status WalManager::WaitUntilDurable(Lsn upto, bool commit) {
  if (durable_.load(std::memory_order_acquire) >= upto) return Status::OK();
  ReleasableMutexLock lk(&mu_);
  // Nothing beyond the append point can be waited for (Flush of the last
  // record and FlushAll both land here).
  upto = std::min<Lsn>(upto, next_.load(std::memory_order_relaxed));
  if (upto > durable_.load(std::memory_order_relaxed) + flushing_.size()) {
    // These bytes wait on the forming batch (active_). A commit counts
    // toward its size; any other force must not wait out a hold, so it
    // ends one (a pool force may run under a parent latch, §4.1).
    if (commit) {
      forming_commits_.store(
          forming_commits_.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    } else {
      forming_urgent_.store(true, std::memory_order_relaxed);
    }
  }
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
      const uint32_t target =
          commit && flushing_.empty() ? HoldTargetLocked() : 0;
      if (target > 0) {
        // Batch former: hold the batch open for the commits recent batches
        // had, with the mutex dropped so they can append and enrol. A
        // commit waiter holds no latch (No-Wait Rule, §4.1).
        n_holds_.fetch_add(1, std::memory_order_relaxed);
        const auto cap = std::chrono::nanoseconds(sync_ns_avg_ / 4);
        analysis::AssertNoLatchesHeld("WAL batch hold");
        const auto start = std::chrono::steady_clock::now();
        lk.Unlock();
        SpinForCommits(target, cap);
        lk.Lock();
        n_hold_ns_.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            std::memory_order_relaxed);
        if (forming_commits_.load(std::memory_order_relaxed) >= target) {
          n_holds_filled_.fetch_add(1, std::memory_order_relaxed);
          timed_out_holds_ = 0;
        } else if (!forming_urgent_.load(std::memory_order_relaxed) &&
                   ++timed_out_holds_ >= kTimedOutHoldsToReset) {
          // The expectation is stale (fewer committers than before, or a
          // chance pairing of unrelated commits): drop it rather than pay
          // the cap on every batch until it ages out.
          std::fill(std::begin(batch_sizes_), std::end(batch_sizes_), 0);
          timed_out_holds_ = 0;
        }
      }
      // A requested segment start may head this batch: roll before it.
      MaybeRollLocked(lk);
      Status s = FlushBatchLocked(lk);
      if (s.ok()) MaybeRollLocked(lk);
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

void WalManager::MaybeRollLocked(ReleasableMutexLock& lk) {
  if (!flushing_.empty()) return;  // a failed batch is staged: not a boundary
  const Lsn durable = durable_.load(std::memory_order_relaxed);
  const bool requested = roll_at_ == durable;
  if (!requested &&
      durable - segments_.last_start_lsn() < segment_bytes_) {
    return;
  }
  if (requested) roll_at_ = kNoRoll;
  // Roll at the durable batch boundary, I/O outside the mutex. The next
  // batch's base is exactly the new segment's start LSN, so no frame ever
  // spans segments. A failed roll just retries after the next batch (a
  // requested one is then dropped) — the active segment keeps accepting
  // writes. A requested roll needs only a non-empty active segment.
  lk.Unlock();
  (void)segments_.RollIfNeeded(durable, requested ? 1 : segment_bytes_);
  lk.Lock();
}

Status WalManager::FlushBatchLocked(ReleasableMutexLock& lk) {
  if (flushing_.empty()) {
    if (active_.empty()) return Status::OK();
    const Lsn base = durable_.load(std::memory_order_relaxed);
    if (roll_at_ > base && roll_at_ - base < active_.size()) {
      // End this batch where a new segment was requested, so the roll
      // after it lands exactly there. The waiters counted for the rest of
      // active_ still wait on it, so the forming-batch counts stay.
      flushing_.assign(active_, 0, roll_at_ - base);
      active_.erase(0, roll_at_ - base);
      batch_commits_ = 0;
    } else {
      flushing_.swap(active_);
      batch_commits_ = forming_commits_.load(std::memory_order_relaxed);
      forming_commits_.store(0, std::memory_order_relaxed);
      forming_urgent_.store(false, std::memory_order_relaxed);
    }
  }
  const Lsn base = durable_.load(std::memory_order_relaxed);
  // I/O outside the mutex: appenders and readers proceed while this batch
  // drains. Only the leader mutates flushing_, and only under mu_, so
  // reading it here unlocked is safe.
  lk.Unlock();
  const auto start = std::chrono::steady_clock::now();
  Status s = DoWrite(base, flushing_);
  if (s.ok()) s = DoSync();
  const uint64_t io_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
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
  // The batch's size for the batch former. A batch that carried several
  // commits also counts those that parked behind it while it was on the
  // device: they come from the same group of committers, and without them
  // three closed-loop committers would settle into batches of two.
  batch_sizes_[batch_slot_] =
      batch_commits_ +
      (batch_commits_ >= 2 ? forming_commits_.load(std::memory_order_relaxed)
                           : 0);
  batch_slot_ = (batch_slot_ + 1) % kBatchHistory;
  sync_ns_avg_ =
      sync_ns_avg_ == 0 ? io_ns : sync_ns_avg_ - sync_ns_avg_ / 8 + io_ns / 8;
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
  s.holds = n_holds_.load(std::memory_order_relaxed);
  s.holds_filled = n_holds_filled_.load(std::memory_order_relaxed);
  s.hold_us = n_hold_ns_.load(std::memory_order_relaxed) / 1000;
  s.segments = segments_.segment_count();
  s.truncated_segments =
      n_truncated_segments_.load(std::memory_order_relaxed);
  s.wal_disk_bytes = segments_.disk_bytes();
  s.avg_batch_bytes =
      s.batches > 0 ? static_cast<double>(s.synced_bytes) / s.batches : 0.0;
  return s;
}

}  // namespace pitree
