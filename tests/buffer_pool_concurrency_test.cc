// Multi-threaded buffer-pool regression tests. These run in the TSan CI job
// (not labeled slow), where the flush-vs-writer case fails on the old
// single-mutex pool: FlushPage/FlushAll/eviction wrote frame bytes to disk
// with no page latch, racing a concurrent X-latch holder mid-update and
// leaving a torn disk image whose stamped LSN did not cover the partial
// write.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "env/sim_env.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace pitree {
namespace {

class BufferPoolConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(disk_.Open(&env_, "db").ok()); }

  BufferPool::EnsureDurableFn TrackingWal() {
    return [this](Lsn lsn) {
      // Monotonic max, like WalManager::Flush.
      Lsn cur = wal_flushed_.load(std::memory_order_relaxed);
      while (cur < lsn &&
             !wal_flushed_.compare_exchange_weak(cur, lsn,
                                                 std::memory_order_relaxed)) {
      }
      return Status::OK();
    };
  }

  SimEnv env_;
  DiskManager disk_;
  std::atomic<Lsn> wal_flushed_{0};
};

// Flush must snapshot the page under its latch: a writer holding X while a
// flush copies the bytes is exactly the tear TSan flags on the old code.
TEST_F(BufferPoolConcurrencyTest, FlushDoesNotRaceXLatchedWriter) {
  BufferPool pool(&disk_, /*capacity=*/8, TrackingWal(), /*shard_count=*/1);
  PageHandle h;
  ASSERT_TRUE(pool.FetchPageZeroed(3, &h).ok());
  PageInitHeader(h.data(), 3, PageType::kTreeNode);
  h.MarkDirty(1);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Lsn lsn = 1;
    while (!stop.load()) {
      h.latch().AcquireX();
      memset(h.data() + kPageHeaderSize, static_cast<int>(lsn & 0x7f), 1024);
      h.MarkDirty(++lsn);
      h.latch().ReleaseX();
    }
  });
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(pool.FlushPage(3).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  stop.store(true);
  writer.join();
  EXPECT_TRUE(pool.CheckConsistency().ok());
}

// Fetch/evict/flush stress over a pool much smaller than the working set,
// with a concurrent flusher/DPT scanner. Each page carries its own id and a
// per-page counter; any torn flush, phantom frame, or lost dirty bit shows
// up as a mismatched id, a stale counter, or a CheckConsistency failure.
TEST_F(BufferPoolConcurrencyTest, StressFetchEvictFlushSmallPool) {
  constexpr size_t kFrames = 48;
  constexpr PageId kWorkingSet = 256;
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 1500;

  BufferPool pool(&disk_, kFrames, TrackingWal(), /*shard_count=*/4);
  ASSERT_EQ(pool.shard_count(), 4u);

  std::atomic<Lsn> next_lsn{1};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Random rnd(0xBEEF + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        PageId id = rnd.Uniform(kWorkingSet);
        PageHandle h;
        Status s = pool.FetchPage(id, &h);
        if (s.IsBusy()) continue;  // shard momentarily full of pins
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (rnd.OneIn(3)) {
          h.latch().AcquireX();
          char* p = h.data();
          uint32_t stored;
          memcpy(&stored, p + kPageHeaderSize, sizeof stored);
          ASSERT_TRUE(stored == 0 || stored == id + 1)
              << "torn or foreign image on page " << id;
          uint64_t count;
          memcpy(&count, p + kPageHeaderSize + 4, sizeof count);
          if (stored == 0) PageInitHeader(p, id, PageType::kTreeNode);
          stored = id + 1;
          ++count;
          memcpy(p + kPageHeaderSize, &stored, sizeof stored);
          memcpy(p + kPageHeaderSize + 4, &count, sizeof count);
          h.MarkDirty(next_lsn.fetch_add(1));
          h.latch().ReleaseX();
        } else {
          h.latch().AcquireS();
          uint32_t stored;
          memcpy(&stored, h.data() + kPageHeaderSize, sizeof stored);
          ASSERT_TRUE(stored == 0 || stored == id + 1)
              << "torn or foreign image on page " << id;
          h.latch().ReleaseS();
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    Random rnd(0xF00D);
    while (!stop.load()) {
      ASSERT_TRUE(pool.FlushPage(rnd.Uniform(kWorkingSet)).ok());
      for (const auto& [pid, rec] : pool.DirtyPageTable()) {
        ASSERT_NE(pid, kInvalidPageId);
        ASSERT_NE(rec, kInvalidLsn);
      }
      ASSERT_TRUE(pool.CheckConsistency().ok());
    }
  });
  for (auto& th : workers) th.join();
  stop.store(true);
  flusher.join();

  ASSERT_TRUE(pool.CheckConsistency().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(pool.DirtyPageTable().empty());
  // WAL-before-data held throughout: everything flushed is WAL-covered.
  EXPECT_GE(wal_flushed_.load(), 1u);

  // Re-read every page through a fresh pool: ids must match, proving no
  // flush ever wrote another page's bytes (or a torn mix) over this one.
  BufferPool verify(&disk_, kFrames, nullptr, 2);
  for (PageId id = 0; id < kWorkingSet; ++id) {
    PageHandle h;
    ASSERT_TRUE(verify.FetchPage(id, &h).ok());
    uint32_t stored;
    memcpy(&stored, h.data() + kPageHeaderSize, sizeof stored);
    ASSERT_TRUE(stored == 0 || stored == id + 1) << "page " << id;
  }
}

// The checkpoint DPT must never under-report: any update "logged" (here: a
// ticket drawn from the model WAL clock) before the snapshot was taken must
// either appear in the DPT or already be flushed. Writers follow the engine
// protocol (ReserveDirty at the pre-append position, MarkDirty after), the
// scanner interleaves snapshots with them, and nothing is flushed during
// the run so "already flushed" cannot hide a miss.
TEST_F(BufferPoolConcurrencyTest, DirtyPageTableNeverUnderReports) {
  constexpr PageId kPages = 64;
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 1200;

  // Working set fits: no evictions, hence no implicit flushes.
  BufferPool pool(&disk_, /*capacity=*/128, TrackingWal(), /*shard_count=*/4);

  std::atomic<Lsn> log_end{0};  // model WAL: next_lsn() == load() + 1
  std::vector<std::atomic<Lsn>> first_lsn(kPages);
  for (auto& f : first_lsn) f.store(0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Random rnd(77 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        PageId id = rnd.Uniform(kPages);
        PageHandle h;
        ASSERT_TRUE(pool.FetchPage(id, &h).ok());
        h.latch().AcquireX();
        h.ReserveDirty(log_end.load() + 1);       // wal->next_lsn()
        Lsn lsn = log_end.fetch_add(1) + 1;       // wal->Append()
        PageInitHeader(h.data(), id, PageType::kTreeNode);
        h.MarkDirty(lsn);
        Lsn expected = 0;
        first_lsn[id].compare_exchange_strong(expected, lsn);
        h.latch().ReleaseX();
      }
    });
  }
  std::thread scanner([&] {
    while (!stop.load()) {
      Lsn begin = log_end.load();  // the begin-checkpoint LSN
      auto dpt = pool.DirtyPageTable();
      std::vector<Lsn> reported(kPages, 0);
      for (const auto& [pid, rec] : dpt) {
        ASSERT_LT(pid, kPages);
        reported[pid] = rec;
      }
      for (PageId id = 0; id < kPages; ++id) {
        Lsn fl = first_lsn[id].load();
        if (fl == 0 || fl > begin) continue;  // not yet logged before begin
        ASSERT_NE(reported[id], kInvalidLsn)
            << "page " << id << " logged at " << fl
            << " missing from DPT taken at " << begin;
        ASSERT_LE(reported[id], fl) << "recLSN after first update";
      }
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true);
  scanner.join();
  EXPECT_EQ(pool.DirtyPageTable().size(), kPages);
  EXPECT_TRUE(pool.CheckConsistency().ok());
}

// Optimistic-read storm (DESIGN.md §15): latch-free readers race X-latched
// writers and constant eviction churn (4x more pages than frames). Writers
// keep a per-page sequence number mirrored at two offsets; a copy that
// validates must be internally consistent (mirrors equal) and must belong
// to the requested page (id stamp) — a torn or misdirected copy that
// survives validation fails the assertions. Runs in the TSan CI job: the
// seqlock byte copy is annotated, every other access must be clean.
TEST_F(BufferPoolConcurrencyTest, OptimisticReadsVsWritersAndEvictionStorm) {
  BufferPool pool(&disk_, /*capacity=*/32, TrackingWal(), /*shard_count=*/2);
  constexpr PageId kPages = 128;
  constexpr size_t kIdOff = kPageHeaderSize;
  constexpr size_t kSeqOffA = kPageHeaderSize + 8;
  constexpr size_t kSeqOffB = kPageHeaderSize + 16;
  for (PageId id = 0; id < kPages; ++id) {
    PageHandle h;
    ASSERT_TRUE(pool.FetchPageZeroed(id, &h).ok());
    PageInitHeader(h.data(), id, PageType::kTreeNode);
    uint64_t stamp = id;
    memcpy(h.data() + kIdOff, &stamp, sizeof stamp);
    h.MarkDirty(1);
  }
  std::atomic<bool> stop{false};
  std::atomic<Lsn> next_lsn{2};
  std::atomic<uint64_t> validated{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(TestSeed(7001 + t));
      std::vector<char> buf(kPageSize);
      while (!stop.load(std::memory_order_acquire)) {
        const PageId id = rng.Uniform(kPages);
        bool ok = false;
        {
          EpochGuard g;
          if (g.active()) {
            OptimisticPage p;
            ok = pool.FetchOptimistic(id, &p) &&
                 pool.ReadConsistent(p, buf.data(), 0, kPageSize);
          }
        }
        if (!ok) {
          // Cold page or validation failure: the latched path (outside the
          // epoch section — blocking acquires are banned inside).
          PageHandle h;
          ASSERT_TRUE(pool.FetchPage(id, &h).ok());
          h.latch().AcquireS();
          memcpy(buf.data(), h.data(), kPageSize);
          h.latch().ReleaseS();
        } else {
          validated.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t stamp, sa, sb;
        memcpy(&stamp, buf.data() + kIdOff, sizeof stamp);
        memcpy(&sa, buf.data() + kSeqOffA, sizeof sa);
        memcpy(&sb, buf.data() + kSeqOffB, sizeof sb);
        ASSERT_EQ(stamp, id) << "copy belongs to the wrong page";
        ASSERT_EQ(sa, sb) << "torn copy survived validation";
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Random rng(TestSeed(8001 + t));
      for (int i = 0; i < 1500; ++i) {
        const PageId id = rng.Uniform(kPages);
        PageHandle h;
        ASSERT_TRUE(pool.FetchPage(id, &h).ok());
        h.latch().AcquireX();
        uint64_t seq;
        memcpy(&seq, h.data() + kSeqOffA, sizeof seq);
        ++seq;
        memcpy(h.data() + kSeqOffA, &seq, sizeof seq);
        memcpy(h.data() + kSeqOffB, &seq, sizeof seq);
        h.MarkDirty(next_lsn.fetch_add(1));
        h.latch().ReleaseX();
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  // The storm must actually have exercised the optimistic path.
  EXPECT_GT(validated.load(), 0u);
  EXPECT_GT(pool.Stats().total.opt_hits, 0u);
  EXPECT_TRUE(pool.CheckConsistency().ok());
}

}  // namespace
}  // namespace pitree
