#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/types.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace pitree {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(disk_.Open(&env_, "db").ok());
    pool_ = std::make_unique<BufferPool>(
        &disk_, /*capacity=*/4, [this](Lsn lsn) {
          wal_flushed_through_ = std::max(wal_flushed_through_, lsn);
          return Status::OK();
        });
  }

  SimEnv env_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  Lsn wal_flushed_through_ = 0;
};

TEST_F(BufferPoolTest, FetchZeroedGivesCleanPage) {
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPageZeroed(7, &h).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(h.data()[i], 0) << "byte " << i;
  }
  EXPECT_EQ(h.id(), 7u);
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEvictionRoundTrip) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(2, &h).ok());
    PageInitHeader(h.data(), 2, PageType::kTreeNode);
    memcpy(h.data() + kPageHeaderSize, "payload", 7);
    h.MarkDirty(/*lsn=*/123);
  }
  // Evict page 2 by filling the pool.
  for (PageId id = 10; id < 16; ++id) {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &h).ok());
  }
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPage(2, &h).ok());
  EXPECT_EQ(memcmp(h.data() + kPageHeaderSize, "payload", 7), 0);
  EXPECT_EQ(h.page_lsn(), 123u);
}

TEST_F(BufferPoolTest, EvictionEnforcesWalBeforeData) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(2, &h).ok());
    PageInitHeader(h.data(), 2, PageType::kTreeNode);
    h.MarkDirty(/*lsn=*/999);
  }
  for (PageId id = 10; id < 16; ++id) {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &h).ok());
  }
  EXPECT_GE(wal_flushed_through_, 999u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  std::vector<PageHandle> pins(4);
  for (PageId id = 0; id < 4; ++id) {
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &pins[id]).ok());
  }
  PageHandle h;
  Status s = pool_->FetchPageZeroed(99, &h);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  pins[0].Reset();
  EXPECT_TRUE(pool_->FetchPageZeroed(99, &h).ok());
}

TEST_F(BufferPoolTest, RepeatFetchHitsCache) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(3, &h).ok());
  }
  uint64_t misses = pool_->miss_count();
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPage(3, &h).ok());
  EXPECT_EQ(pool_->miss_count(), misses);
}

TEST_F(BufferPoolTest, MarkDirtySetsPageLsnAndRecLsnOnce) {
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPageZeroed(5, &h).ok());
  PageInitHeader(h.data(), 5, PageType::kTreeNode);
  h.MarkDirty(100);
  h.MarkDirty(200);  // recLSN must stay at first-dirtying LSN
  EXPECT_EQ(h.page_lsn(), 200u);
  auto dpt = pool_->DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].first, 5u);
  EXPECT_EQ(dpt[0].second, 100u);
}

TEST_F(BufferPoolTest, FlushAllClearsDirtyTable) {
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPageZeroed(5, &h).ok());
  PageInitHeader(h.data(), 5, PageType::kTreeNode);
  h.MarkDirty(100);
  h.Reset();
  ASSERT_TRUE(pool_->FlushAll().ok());
  EXPECT_TRUE(pool_->DirtyPageTable().empty());
}

TEST_F(BufferPoolTest, DiscardAllLosesUnflushedChanges) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(6, &h).ok());
    PageInitHeader(h.data(), 6, PageType::kTreeNode);
    memcpy(h.data() + kPageHeaderSize, "gone", 4);
    h.MarkDirty(50);
  }
  pool_->DiscardAll();
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPage(6, &h).ok());
  // Never flushed: disk image is still zeroes.
  EXPECT_EQ(h.data()[kPageHeaderSize], 0);
}

TEST_F(BufferPoolTest, HandleMoveTransfersPin) {
  PageHandle a;
  ASSERT_TRUE(pool_->FetchPageZeroed(1, &a).ok());
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), 1u);
}

TEST_F(BufferPoolTest, ReserveDirtyEntersDptBeforeMarkDirty) {
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPageZeroed(5, &h).ok());
  PageInitHeader(h.data(), 5, PageType::kTreeNode);
  h.ReserveDirty(80);  // WAL append position before the record goes in
  auto dpt = pool_->DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].first, 5u);
  EXPECT_EQ(dpt[0].second, 80u);
  h.MarkDirty(100);  // the record's actual LSN; reserved recLSN stands
  dpt = pool_->DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].second, 80u);
  EXPECT_EQ(h.page_lsn(), 100u);
}

TEST_F(BufferPoolTest, StatsCountHitsMissesEvictionsFlushes) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(2, &h).ok());
    PageInitHeader(h.data(), 2, PageType::kTreeNode);
    h.MarkDirty(10);
  }
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPage(2, &h).ok());  // hit
  }
  for (PageId id = 10; id < 16; ++id) {  // overflow the 4-frame pool
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &h).ok());
  }
  PoolStats st = pool_->Stats();
  EXPECT_EQ(st.shards.size(), pool_->shard_count());
  EXPECT_GE(st.total.hits, 1u);
  EXPECT_GE(st.total.misses, 7u);
  EXPECT_GE(st.total.evictions, 3u);
  EXPECT_GE(st.total.flushes, 1u);  // page 2's dirty image went out
  EXPECT_EQ(st.total.misses, pool_->miss_count());
  EXPECT_TRUE(pool_->CheckConsistency().ok());
}

// Regression (phantom frame): if the disk read of a miss fails after the
// victim was displaced, the frame must return to the free list with no
// identity. The old code left the victim's stale page_id on an unmapped
// frame; a later fetch of that page then loaded a *second* frame for the
// same id, and the stale frame's eventual eviction erased the live table
// entry — after which updates to the page silently diverged.
TEST_F(BufferPoolTest, FailedReadLeavesNoPhantomFrame) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);

  // Fill the pool; make page 2 dirty so it has a distinguishable image.
  for (PageId id = 0; id < 4; ++id) {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &h).ok());
    PageInitHeader(h.data(), id, PageType::kTreeNode);
    memcpy(h.data() + kPageHeaderSize, "seed", 4);
    h.MarkDirty(10 + id);
  }
  // Next read (the miss for page 99) fails once.
  plan.FailNth(FaultOp::kRead, plan.op_count(FaultOp::kRead),
               Status::IOError("injected read fault"));
  PageHandle h;
  Status s = pool_->FetchPage(99, &h);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_TRUE(pool_->CheckConsistency().ok());

  // Every original page must still be fetchable exactly once each (no
  // duplicate frames), with its bytes intact.
  for (PageId id = 0; id < 4; ++id) {
    PageHandle p;
    ASSERT_TRUE(pool_->FetchPage(id, &p).ok());
    EXPECT_EQ(memcmp(p.data() + kPageHeaderSize, "seed", 4), 0)
        << "page " << id;
  }
  // And the failed page loads fine now that the fault rule is spent.
  ASSERT_TRUE(pool_->FetchPage(99, &h).ok());
  EXPECT_TRUE(pool_->CheckConsistency().ok());
}

// A failed eviction write-out must not shed the victim's dirty image: the
// frame keeps its identity and stays dirty (the logged update is still
// volatile-only), and only the fetch that needed the frame fails.
TEST_F(BufferPoolTest, FailedEvictionFlushKeepsVictimDirty) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);

  for (PageId id = 0; id < 4; ++id) {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &h).ok());
    PageInitHeader(h.data(), id, PageType::kTreeNode);
    h.MarkDirty(10 + id);
  }
  plan.FailNth(FaultOp::kWrite, plan.op_count(FaultOp::kWrite),
               Status::IOError("injected write fault"));
  PageHandle h;
  Status s = pool_->FetchPage(99, &h);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_TRUE(pool_->CheckConsistency().ok());
  // All four dirty pages are still in the DPT — nothing was lost.
  EXPECT_EQ(pool_->DirtyPageTable().size(), 4u);
  // With the fault spent, the eviction goes through.
  ASSERT_TRUE(pool_->FetchPage(99, &h).ok());
  EXPECT_TRUE(pool_->CheckConsistency().ok());
}

TEST_F(BufferPoolTest, ExplicitShardCountIsClampedToPowerOfTwo) {
  BufferPool p(&disk_, /*capacity=*/8, nullptr, /*shard_count=*/3);
  EXPECT_EQ(p.shard_count(), 2u);
  BufferPool q(&disk_, /*capacity=*/2, nullptr, /*shard_count=*/16);
  EXPECT_EQ(q.shard_count(), 2u);
  BufferPool r(&disk_, /*capacity=*/64, nullptr, /*shard_count=*/4);
  EXPECT_EQ(r.shard_count(), 4u);
  EXPECT_EQ(r.capacity(), 64u);
}

TEST_F(BufferPoolTest, ShardedPoolServesDistinctPagesAndEvicts) {
  BufferPool p(&disk_, /*capacity=*/64, nullptr, /*shard_count=*/8);
  // Work over more pages than frames so every shard fetches and evicts.
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 200; ++id) {
      PageHandle h;
      ASSERT_TRUE(p.FetchPageZeroed(id, &h).ok());
      PageInitHeader(h.data(), id, PageType::kTreeNode);
      h.MarkDirty(1 + id);
    }
  }
  EXPECT_TRUE(p.CheckConsistency().ok());
  EXPECT_TRUE(p.FlushAll().ok());
  EXPECT_TRUE(p.DirtyPageTable().empty());
}

// ---- optimistic fetch path (DESIGN.md §15) --------------------------------

// The PR's acceptance criterion: an uncontended optimistic hit performs
// zero shard-mutex acquisitions and zero latch-word writes. Both are proven
// with counters — mutex_acquires counts every ShardLock, and the frame's
// version word would differ if any read had written it.
TEST_F(BufferPoolTest, OptimisticHitTakesNoMutexAndWritesNoLatchWord) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(3, &h).ok());
    PageInitHeader(h.data(), 3, PageType::kTreeNode);
    memcpy(h.data() + kPageHeaderSize, "olc", 3);
  }
  uint64_t word_before = 0;
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPage(3, &h).ok());
    word_before = h.latch().OptimisticBegin();
  }
  const PoolShardStats before = pool_->Stats().total;
  constexpr uint64_t kReads = 100;
  std::vector<char> buf(kPageSize);
  {
    EpochGuard g;
    ASSERT_TRUE(g.active());
    for (uint64_t i = 0; i < kReads; ++i) {
      OptimisticPage p;
      ASSERT_TRUE(pool_->FetchOptimistic(3, &p));
      EXPECT_EQ(p.id(), 3u);
      ASSERT_TRUE(pool_->ReadConsistent(p, buf.data(), 0, kPageSize));
      ASSERT_EQ(memcmp(buf.data() + kPageHeaderSize, "olc", 3), 0);
    }
  }
  const PoolShardStats after = pool_->Stats().total;
  EXPECT_EQ(after.mutex_acquires, before.mutex_acquires);
  EXPECT_EQ(after.opt_hits, before.opt_hits + kReads);
  EXPECT_EQ(after.opt_fallbacks, before.opt_fallbacks);
  PageHandle h;
  ASSERT_TRUE(pool_->FetchPage(3, &h).ok());
  EXPECT_EQ(h.latch().OptimisticBegin(), word_before);
}

TEST_F(BufferPoolTest, OptimisticFetchMissesOutsideEpochAndWhenNotResident) {
  OptimisticPage p;
  // No epoch section: refused (and counted as a fallback).
  EXPECT_FALSE(pool_->FetchOptimistic(3, &p));
  EpochGuard g;
  ASSERT_TRUE(g.active());
  // Never fetched: not in the lock-free index.
  EXPECT_FALSE(pool_->FetchOptimistic(99, &p));
  const PoolShardStats s = pool_->Stats().total;
  EXPECT_GE(s.opt_fallbacks, 2u);
}

// Eviction must invalidate outstanding optimistic references: the frame's
// version word is bumped when its identity changes, so copies resolved
// before the eviction can never validate afterwards.
TEST_F(BufferPoolTest, EvictionInvalidatesOptimisticReferences) {
  {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(2, &h).ok());
    PageInitHeader(h.data(), 2, PageType::kTreeNode);
  }
  std::vector<char> buf(kPageSize);
  OptimisticPage p;
  {
    EpochGuard g;
    ASSERT_TRUE(g.active());
    ASSERT_TRUE(pool_->FetchOptimistic(2, &p));
    ASSERT_TRUE(pool_->ReadConsistent(p, buf.data(), 0, kPageSize));
  }
  // Outside any epoch, churn the 4-frame pool until page 2 is displaced.
  for (PageId id = 50; id < 58; ++id) {
    PageHandle h;
    ASSERT_TRUE(pool_->FetchPageZeroed(id, &h).ok());
  }
  {
    EpochGuard g;
    ASSERT_TRUE(g.active());
    EXPECT_FALSE(pool_->Revalidate(p));
    EXPECT_FALSE(pool_->ReadConsistent(p, buf.data(), 0, kPageSize));
    // A fresh resolution must not hand back the stale identity either.
    OptimisticPage q;
    if (pool_->FetchOptimistic(2, &q)) {
      EXPECT_TRUE(false) << "page 2 was evicted; the index must miss";
    }
  }
  EXPECT_TRUE(pool_->CheckConsistency().ok());
}

}  // namespace
}  // namespace pitree
