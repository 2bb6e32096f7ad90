#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace pitree {
namespace {

// Prvalue return: Transaction is immovable (atomic undo-chain fields), so
// guaranteed elision must construct it directly in the caller. The
// designated initializer deliberately leaves the remaining members to
// their defaults.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
Transaction MakeTxn(TxnId id) {
  return Transaction{.id = id};
}
#pragma GCC diagnostic pop

TEST(LockModeTest, CompatibilityMatrixMatchesPaper) {
  using M = LockMode;
  // §4.1.1: S shares with S and U; U conflicts with U and X.
  EXPECT_TRUE(LockModesCompatible(M::kS, M::kS));
  EXPECT_TRUE(LockModesCompatible(M::kS, M::kU));
  EXPECT_FALSE(LockModesCompatible(M::kS, M::kX));
  EXPECT_FALSE(LockModesCompatible(M::kU, M::kU));
  EXPECT_FALSE(LockModesCompatible(M::kU, M::kX));
  EXPECT_FALSE(LockModesCompatible(M::kX, M::kX));
  // §4.2.2: move locks are compatible with readers, conflict with updates.
  EXPECT_TRUE(LockModesCompatible(M::kM, M::kS));
  EXPECT_TRUE(LockModesCompatible(M::kM, M::kIS));
  EXPECT_FALSE(LockModesCompatible(M::kM, M::kIU));
  EXPECT_FALSE(LockModesCompatible(M::kM, M::kU));
  EXPECT_FALSE(LockModesCompatible(M::kM, M::kX));
  EXPECT_FALSE(LockModesCompatible(M::kM, M::kM));
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  EXPECT_TRUE(lm.Lock(&a, "r", LockMode::kS).ok());
  EXPECT_TRUE(lm.Lock(&b, "r", LockMode::kS).ok());
  lm.ReleaseAll(&a);
  lm.ReleaseAll(&b);
}

TEST(LockManagerTest, NoWaitReturnsBusyOnConflict) {
  LockManager lm;
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kX).ok());
  EXPECT_TRUE(lm.Lock(&b, "r", LockMode::kS, /*wait=*/false).IsBusy());
  lm.ReleaseAll(&a);
  EXPECT_TRUE(lm.Lock(&b, "r", LockMode::kS, /*wait=*/false).ok());
  lm.ReleaseAll(&b);
}

TEST(LockManagerTest, WaiterProceedsAfterRelease) {
  LockManager lm;
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Lock(&b, "r", LockMode::kX).ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(&a);
  waiter.join();
  EXPECT_TRUE(granted.load());
  lm.ReleaseAll(&b);
}

TEST(LockManagerTest, ReacquireSameModeIsNoop) {
  LockManager lm;
  Transaction a = MakeTxn(1);
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kS).ok());
  EXPECT_EQ(a.held_locks.size(), 1u);
  lm.ReleaseAll(&a);
}

TEST(LockManagerTest, ConversionSToXWhenAlone) {
  LockManager lm;
  Transaction a = MakeTxn(1);
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kX).ok());
  EXPECT_EQ(a.held_locks.at("r"), LockMode::kX);
  Transaction b = MakeTxn(2);
  EXPECT_TRUE(lm.Lock(&b, "r", LockMode::kS, false).IsBusy());
  lm.ReleaseAll(&a);
}

TEST(LockManagerTest, ConversionBlocksOnOtherHolder) {
  LockManager lm;
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  ASSERT_TRUE(lm.Lock(&a, "r", LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(&b, "r", LockMode::kS).ok());
  EXPECT_TRUE(lm.Lock(&a, "r", LockMode::kX, /*wait=*/false).IsBusy());
  lm.ReleaseAll(&b);
  EXPECT_TRUE(lm.Lock(&a, "r", LockMode::kX, /*wait=*/false).ok());
  lm.ReleaseAll(&a);
}

TEST(LockManagerTest, DeadlockDetectedAndVictimized) {
  LockManager lm;
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  ASSERT_TRUE(lm.Lock(&a, "r1", LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(&b, "r2", LockMode::kX).ok());
  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status s = lm.Lock(&a, "r2", LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks.fetch_add(1);
      lm.ReleaseAll(&a);
    }
  });
  std::thread t2([&] {
    Status s = lm.Lock(&b, "r1", LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks.fetch_add(1);
      lm.ReleaseAll(&b);
    }
  });
  t1.join();
  t2.join();
  // At least one side must have been chosen as the victim; the other then
  // acquired its lock and still holds it.
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_GE(lm.deadlock_count(), 1u);
  lm.ReleaseAll(&a);
  lm.ReleaseAll(&b);
}

TEST(LockManagerTest, MoveLockAllowsReadersBlocksUpdaters) {
  LockManager lm;
  Transaction mover = MakeTxn(1), reader = MakeTxn(2), writer = MakeTxn(3);
  std::string page = PageLockName(17);
  ASSERT_TRUE(lm.Lock(&mover, page, LockMode::kM).ok());
  EXPECT_TRUE(lm.Lock(&reader, page, LockMode::kIS, false).ok());
  EXPECT_TRUE(lm.Lock(&writer, page, LockMode::kIU, false).IsBusy());
  // WouldConflict is what traversals use to detect a move lock (§4.2.2).
  EXPECT_TRUE(lm.WouldConflict(writer.id, page, LockMode::kIU));
  EXPECT_FALSE(lm.WouldConflict(mover.id, page, LockMode::kIU));
  lm.ReleaseAll(&mover);
  EXPECT_FALSE(lm.WouldConflict(writer.id, page, LockMode::kIU));
  EXPECT_TRUE(lm.Lock(&writer, page, LockMode::kIU, false).ok());
  lm.ReleaseAll(&reader);
  lm.ReleaseAll(&writer);
}

TEST(LockManagerTest, MoveWaitsForUpdatersToDrain) {
  LockManager lm;
  Transaction updater = MakeTxn(1), mover = MakeTxn(2);
  std::string page = PageLockName(9);
  ASSERT_TRUE(lm.Lock(&updater, page, LockMode::kIU).ok());
  std::atomic<bool> moved{false};
  std::thread t([&] {
    EXPECT_TRUE(lm.Lock(&mover, page, LockMode::kM).ok());
    moved.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(moved.load());  // §4.2.2: the move waits for updaters
  lm.ReleaseAll(&updater);
  t.join();
  EXPECT_TRUE(moved.load());
  lm.ReleaseAll(&mover);
}

TEST(LockManagerTest, UnlockSingleResourceEarly) {
  LockManager lm;
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  ASSERT_TRUE(lm.Lock(&a, "r1", LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(&a, "r2", LockMode::kX).ok());
  lm.Unlock(&a, "r1");
  EXPECT_TRUE(lm.Lock(&b, "r1", LockMode::kX, false).ok());
  EXPECT_TRUE(lm.Lock(&b, "r2", LockMode::kX, false).IsBusy());
  lm.ReleaseAll(&a);
  lm.ReleaseAll(&b);
}

TEST(LockManagerTest, ManyThreadsManyResourcesNoLostGrants) {
  LockManager lm;
  const int kThreads = 8, kIters = 200;
  std::atomic<int> counters[4] = {{0}, {0}, {0}, {0}};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Transaction txn = MakeTxn(100 + t);
      for (int i = 0; i < kIters; ++i) {
        std::string r = "res" + std::to_string(i % 4);
        ASSERT_TRUE(lm.Lock(&txn, r, LockMode::kX).ok());
        counters[i % 4].fetch_add(1);
        lm.ReleaseAll(&txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(counters[i].load(), kThreads * kIters / 4);
  }
}

// Regression: a granted lock must be visible to waiters queued ahead of it.
// Old Grantable() stopped scanning at the requester's own queued entry, so
// this interleaving handed out S alongside a converted X:
//   T1 holds X; T2 blocks waiting for S (queued behind T1).
//   T1 releases; T3 arrives, is granted S (entry lands behind T2's), and
//   converts S->X (conversions check only granted locks — T2 is ungranted).
//   T2 wakes, scans up to its own entry, sees nothing incompatible, and
//   grants itself S alongside the X.
// The S reader then reads the pre-X image: a lost update. Exercised here as
// a bare lock-level upsert (S read, convert to X, write): TSan flags the
// S/X overlap as a data race, and the final count exposes it functionally.
TEST(LockManagerTest, ConvertedXStaysVisibleToSleepingSWaiter) {
  LockManager lm;
  const int kThreads = 4, kCommitsPerThread = 300;
  int value = 0;  // guarded by "counter": read under S, written under X
  std::atomic<TxnId> next_id{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int done = 0;
      while (done < kCommitsPerThread) {
        Transaction txn = MakeTxn(next_id.fetch_add(1));
        if (!lm.Lock(&txn, "counter", LockMode::kS).ok()) {
          lm.ReleaseAll(&txn);  // deadlock victim before reading: retry
          continue;
        }
        int snapshot = value;
        if (!lm.Lock(&txn, "counter", LockMode::kX).ok()) {
          lm.ReleaseAll(&txn);  // conversion deadlock: retry, fresh read
          continue;
        }
        // Hold X across a delay, like the engine holds it across the WAL
        // append: the hole only shows when a sleeping S waiter wakes while
        // the converted X is still held.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        value = snapshot + 1;
        lm.ReleaseAll(&txn);
        ++done;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(value, kThreads * kCommitsPerThread);
}

// Three resources of one cycle test; `name` keeps each round's triple
// distinct. Returns how many distinct partitions the triple spans.
size_t MakeTriple(const std::string& name, int round, std::string r[3]) {
  std::set<size_t> parts;
  for (int k = 0; k < 3; ++k) {
    r[k] = name + std::to_string(round) + "-" + std::to_string(k);
    parts.insert(LockManager::PartitionOf(r[k]));
  }
  return parts.size();
}

// Runs one 3-transaction cycle per round: transaction k first holds
// `first(k)` (all three, behind a barrier), then requests `second(k)` in X,
// which waits on transaction k+1. Exactly one request per round must be
// chosen as the Deadlock victim; the victim releases and the other two
// then complete in turn. Resources are hashed to partitions, so most
// rounds' cycles span two or three partitions.
template <typename Hold, typename Request>
void RunThreeWayCycles(const std::string& name, Hold hold, Request request) {
  constexpr int kRounds = 48;
  LockManager lm;
  int spans[4] = {0, 0, 0, 0};
  for (int round = 0; round < kRounds; ++round) {
    std::string r[3];
    ++spans[MakeTriple(name, round, r)];
    const uint64_t deadlocks_before = lm.deadlock_count();
    std::atomic<int> victims{0};
    std::barrier all_hold(3);
    std::vector<std::thread> threads;
    for (int k = 0; k < 3; ++k) {
      threads.emplace_back([&, k] {
        Transaction txn = MakeTxn(100 * (round + 1) + k);
        hold(lm, txn, r, k);
        all_hold.arrive_and_wait();
        Status s = request(lm, txn, r, k);
        if (s.IsDeadlock()) {
          victims.fetch_add(1);
        } else {
          EXPECT_TRUE(s.ok()) << s.ToString();
        }
        lm.ReleaseAll(&txn);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(victims.load(), 1) << "round " << round;
    EXPECT_EQ(lm.deadlock_count() - deadlocks_before, 1u) << "round " << round;
  }
  // The hash must have spread the triples: the cross-partition cases are
  // the ones the all-partition detector exists for.
  EXPECT_GT(spans[2] + spans[3], kRounds / 2);
  EXPECT_GT(spans[3], 0);
}

TEST(LockManagerTest, FreshLockCyclesAcrossPartitionsHaveOneVictim) {
  RunThreeWayCycles(
      "fresh",
      [](LockManager& lm, Transaction& txn, std::string r[3], int k) {
        ASSERT_TRUE(lm.Lock(&txn, r[k], LockMode::kX).ok());
      },
      [](LockManager& lm, Transaction& txn, std::string r[3], int k) {
        return lm.Lock(&txn, r[(k + 1) % 3], LockMode::kX);
      });
}

TEST(LockManagerTest, ConversionCyclesAcrossPartitionsHaveOneVictim) {
  // Transaction k shares r[k] and r[k+1]; converting r[k+1] to X waits for
  // transaction k+1's S on it.
  RunThreeWayCycles(
      "convert",
      [](LockManager& lm, Transaction& txn, std::string r[3], int k) {
        ASSERT_TRUE(lm.Lock(&txn, r[k], LockMode::kS).ok());
        ASSERT_TRUE(lm.Lock(&txn, r[(k + 1) % 3], LockMode::kS).ok());
      },
      [](LockManager& lm, Transaction& txn, std::string r[3], int k) {
        return lm.Lock(&txn, r[(k + 1) % 3], LockMode::kX);
      });
}

// Four threads lock random subsets of a small resource set in random order
// and modes, with waiting; deadlock victims release everything and retry.
// Holders are mirrored in per-resource counters that a grant must find
// compatible (no X beside any other holder), and grant_count() must equal
// the grants the threads observed, conversions included.
TEST(LockManagerTest, ConcurrentLockReleaseStressKeepsGrantInvariant) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 300;
  constexpr int kResources = 12;
  LockManager lm;
  std::atomic<int> readers[kResources] = {};
  std::atomic<int> writers[kResources] = {};
  std::atomic<uint64_t> grants{0};
  std::atomic<int> violations{0};
  std::atomic<int> victims{0};
  std::atomic<TxnId> next_id{1};
  const uint64_t seed = TestSeed(0x10c4);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      for (int n = 0; n < kTxnsPerThread; ++n) {
        Transaction txn = MakeTxn(next_id.fetch_add(1));
        std::map<int, LockMode> mine;  // resource index -> mirrored mode
        const int locks = 1 + static_cast<int>(rnd.Uniform(3));
        bool victim = false;
        for (int i = 0; i < locks && !victim; ++i) {
          const int res = static_cast<int>(rnd.Uniform(kResources));
          const LockMode want =
              rnd.Uniform(3) == 0 ? LockMode::kX : LockMode::kS;
          auto held = mine.find(res);
          if (held != mine.end() &&
              LockModeSupremum(held->second, want) == held->second) {
            continue;  // already covered: a no-op, not a grant
          }
          Status s = lm.Lock(&txn, "stress" + std::to_string(res), want);
          if (s.IsDeadlock()) {
            victim = true;
            break;
          }
          ASSERT_TRUE(s.ok()) << s.ToString();
          grants.fetch_add(1);
          if (held != mine.end()) readers[res].fetch_sub(1);  // S -> X
          if (want == LockMode::kX) {
            if (writers[res].fetch_add(1) != 0 || readers[res].load() != 0) {
              violations.fetch_add(1);
            }
          } else if (readers[res].fetch_add(1) < 0 ||
                     writers[res].load() != 0) {
            violations.fetch_add(1);
          }
          mine[res] = want;
          std::this_thread::yield();  // hold a while: invite conflicts
        }
        if (victim) victims.fetch_add(1);
        // Unmirror before releasing, so a later grant never counts us.
        for (const auto& [res, mode] : mine) {
          (mode == LockMode::kX ? writers : readers)[res].fetch_sub(1);
        }
        lm.ReleaseAll(&txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(lm.grant_count(), grants.load());
  EXPECT_EQ(lm.deadlock_count(), static_cast<uint64_t>(victims.load()));
  // Everything was released: a fresh transaction takes any resource in X
  // without waiting.
  Transaction last = MakeTxn(next_id.fetch_add(1));
  for (int r = 0; r < kResources; ++r) {
    EXPECT_TRUE(
        lm.Lock(&last, "stress" + std::to_string(r), LockMode::kX, false)
            .ok());
  }
  lm.ReleaseAll(&last);
}

}  // namespace
}  // namespace pitree
